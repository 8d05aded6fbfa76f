import gc
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diagramalg import diagrams, errors, irreps
from diagramalg.characters import character_oracle
from diagramalg.coeff import Element
from diagramalg.diagrams import (
    FAMILIES,
    Diagram,
    algebra_dim,
    concat,
    enumerate_basis,
    family_generators,
    format_diagram,
    generator,
    identity_diagram,
    in_family,
    is_planar,
    normalize_family,
    parse_diagram,
    perm_diagram,
    rank,
    transpose,
)
from diagramalg.irreps import SetPartitionTableau, SymmetricMDiagram
from diagramalg.partitions import rank_set

K12_LHS = (
    "1 2' | 2 3 5 | 4 1' | 6 7 | 8 9' | 9 11 6' | 10 12 11' | 3' 5' | 4' "
    "| 7' 12' | 8' 10'"
)
K12_RHS = (
    "1 2 2' | 3 6 | 4 | 5 6' 7' | 7 8 | 9 10' 11' | 10 12 | 11 8' "
    "| 1' 3' 4' | 5' | 9' 12'"
)
K12_PRODUCT = (
    "1 4 2' | 2 3 5 | 6 7 | 8 10' 11' | 9 11 6' 7' | 10 12 8' | 1' 3' 4' "
    "| 5' | 9' 12'"
)


# every constructor and function that takes k on its own, each called with
# arguments that are valid at k = 1
K_SITES = {
    "Diagram": lambda k: Diagram(k, [(1, 2)]),
    "Element": lambda k: Element(k, "brauer"),
    "parse_diagram": lambda k: parse_diagram("1 1'", k),
    "algebra_dim": lambda k: algebra_dim("symmetric", k),
    "character_oracle": lambda k: character_oracle("brauer", k, (1,), (1,)),
    "enumerate_basis": lambda k: enumerate_basis("brauer", k),
    "generator": lambda k: generator("p", 1, k),
    "family_generators": lambda k: family_generators("brauer", k),
    "rank_set": lambda k: rank_set("partition", k),
    "SymmetricMDiagram": lambda k: SymmetricMDiagram(k, [(1,)], [(1,)]),
    "SetPartitionTableau": lambda k: SetPartitionTableau(k, [], [[(1,)]]),
}


@pytest.mark.parametrize("site", sorted(K_SITES))
@pytest.mark.parametrize("k", [True, False, 0, -1, 1.0, "1", None])
def test_k_must_be_an_int_of_at_least_one(site, k):
    K_SITES[site](1)
    with pytest.raises(errors.IndexOutOfRange) as info:
        K_SITES[site](k)
    assert str(info.value) == "k must be a positive integer, got %r" % (k,)


def test_parse_canonical_form_and_roundtrip():
    d = parse_diagram("2 1' | 1 2'", 2)
    assert d.blocks == ((1, 4), (2, 3))
    assert format_diagram(d) == "1 2' | 2 1'"
    assert parse_diagram(format_diagram(d), 2) == d


def test_parse_seven_block_example():
    d = parse_diagram(
        "1' 2 | 2' 3' | 4' 1 3 | 5' 7' | 6' 4 7 8 | 8' 6 | 5", 8
    )
    assert len(d.blocks) == 7
    assert rank(d) == 4
    assert parse_diagram(format_diagram(d), 8) == d


def test_parse_errors():
    with pytest.raises(errors.MissingVertex):
        parse_diagram("1 2 1'", 2)
    with pytest.raises(errors.DuplicateVertex):
        parse_diagram("1 1 2 | 1' 2'", 2)
    with pytest.raises(errors.IndexOutOfRange):
        parse_diagram("1 3 | 2 | 1' 2'", 2)
    with pytest.raises(errors.DiagramSyntaxError):
        parse_diagram("1 x | 2 1' 2'", 2)
    with pytest.raises(errors.DiagramSyntaxError):
        parse_diagram("1 2 | | 1' 2'", 2)


def test_diagram_constructor_validates():
    with pytest.raises(ValueError):
        Diagram(2, [(1, 2), (3,)])
    for blocks in ([(), (1, 2)], [(1, 2), ()]):
        with pytest.raises(ValueError, match="empty"):
            Diagram(1, blocks)
    with pytest.raises(ValueError, match="empty"):
        Diagram(2, [(1, 2, 3, 4), (), ()])
    with pytest.raises(errors.IndexOutOfRange):
        Diagram(0, [])
    for blocks in ([(1.0, 2)], [(True, 2)], [(1, 2.0)]):
        with pytest.raises(ValueError, match="integers"):
            Diagram(1, blocks)


class _Vertex(int):
    """An int subclass: it compares and hashes like its value."""


_NOT_BLOCKS = "blocks must be an iterable of iterables of comparable vertices"


# (k, blocks, message) for blocks the checking constructor refuses, each
# with ValueError; the last three are not iterables of iterables of
# mutually comparable values
REFUSED = [
    (2, [(True, 3), (2, 4)], "vertices must be integers, got True"),
    (2, [(1.0, 3), (2, 4)], "vertices must be integers, got 1.0"),
    (2, [(Fraction(1), 3), (2, 4)], "vertices must be integers, got Fraction(1, 1)"),
    (2, [(_Vertex(1), 3), (2, 4)], "vertices must be integers, got 1"),
    (2, [(0, 3), (2, 4)], "blocks must partition {1..4}"),
    (2, [(1, 3), (2, 4, 5)], "blocks must partition {1..4}"),
    (2, [(1, 3), (2, 4, 3)], "blocks must partition {1..4}"),
    (2, [(1, 3), (2,)], "blocks must partition {1..4}"),
    (2, [(), (1, 3), (2, 4)], "blocks must not be empty"),
    (2, [(1, 3), (2, 4), ()], "blocks must not be empty"),
    (1, [1, 2], _NOT_BLOCKS),
    (1, [(1, "x")], _NOT_BLOCKS),
    (1, None, _NOT_BLOCKS),
]


@pytest.mark.parametrize("k, blocks, message", REFUSED)
def test_checking_constructor_refuses_with_the_message(k, blocks, message):
    with pytest.raises(ValueError) as info:
        Diagram(k, blocks)
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize(
    "make",
    [
        lambda: SymmetricMDiagram(1, None, []),
        lambda: SymmetricMDiagram(1, [(1, "x")], []),
        lambda: SymmetricMDiagram(1, [(1,)], None),
        lambda: SymmetricMDiagram(1, [(1,)], [1]),
        lambda: SetPartitionTableau(1, None, []),
        lambda: SetPartitionTableau(1, [], None),
        lambda: SetPartitionTableau(1, [(1, "x")], []),
        lambda: SetPartitionTableau(1, [1], []),
    ],
    ids=[
        "symmetric-top-None",
        "symmetric-top-incomparable",
        "symmetric-propagating-None",
        "symmetric-propagating-not-blocks",
        "tableau-first-row-None",
        "tableau-body-None",
        "tableau-incomparable",
        "tableau-first-row-not-blocks",
    ],
)
def test_set_partition_types_refuse_blocks_of_the_wrong_form(make):
    # the one canonical check of diagrams, with Diagram's message
    with pytest.raises(ValueError) as info:
        make()
    assert type(info.value) is ValueError
    assert str(info.value) == _NOT_BLOCKS


@pytest.mark.parametrize(
    "make",
    [
        lambda blocks: [list(b) for b in blocks],
        lambda blocks: tuple(tuple(b) for b in blocks),
        lambda blocks: (iter(b) for b in blocks),
        lambda blocks: {frozenset(b) for b in blocks},
    ],
)
def test_checking_constructor_accepts_any_iterable_in_any_order(make):
    canon = ((1, 4), (2, 3, 6), (5,))
    for order in itertools.permutations([(6, 3, 2), (5,), (4, 1)]):
        d = Diagram(3, make(order))
        assert d.blocks == canon
        assert all(type(v) is int for b in d.blocks for v in b)
        assert d == Diagram(3, canon) and hash(d) == hash(Diagram(3, canon))


def test_concat_identity_and_deletion():
    ident = identity_diagram(3)
    d = parse_diagram("1 2 | 3 2' | 1' | 3'", 3)
    assert concat(ident, d) == (d, 0)
    assert concat(d, ident) == (d, 0)
    p1 = generator("P", 1, 1)
    assert concat(p1, p1) == (p1, 1)


def test_concat_large_worked_product():
    d1 = parse_diagram(K12_LHS, 12)
    d2 = parse_diagram(K12_RHS, 12)
    product, deleted = concat(d1, d2)
    assert product == parse_diagram(K12_PRODUCT, 12)
    assert deleted == 2


def test_concat_rank_mismatch():
    with pytest.raises(errors.RankMismatch):
        concat(identity_diagram(2), identity_diagram(3))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_concat_is_associative(data):
    basis = enumerate_basis("partition", 2)
    a = data.draw(st.sampled_from(basis))
    b = data.draw(st.sampled_from(basis))
    c = data.draw(st.sampled_from(basis))
    ab, n1 = concat(a, b)
    ab_c, n2 = concat(ab, c)
    bc, m1 = concat(b, c)
    a_bc, m2 = concat(a, bc)
    assert ab_c == a_bc
    assert n1 + n2 == m1 + m2


def test_transpose_involution_and_antihomomorphism():
    d1 = parse_diagram(K12_LHS, 12)
    d2 = parse_diagram(K12_RHS, 12)
    assert transpose(transpose(d1)) == d1
    lhs = concat(d1, d2)
    rhs = concat(transpose(d2), transpose(d1))
    assert transpose(lhs.product) == rhs.product
    assert lhs.deleted == rhs.deleted
    assert transpose(generator("L", 1, 3)) == generator("R", 1, 3)


def test_rank_examples():
    assert rank(identity_diagram(4)) == 4
    assert rank(generator("P", 2, 3)) == 2
    assert rank(generator("E", 1, 3)) == 1
    assert rank(generator("B", 1, 3)) == 2


def test_rank_does_not_grow_under_products():
    basis = enumerate_basis("partition", 2)
    for a, b in itertools.product(basis, repeat=2):
        r = rank(concat(a, b).product)
        assert r <= min(rank(a), rank(b))


def test_planarity():
    assert is_planar(identity_diagram(3))
    assert not is_planar(generator("S", 1, 2))
    assert not is_planar(parse_diagram("1 2' | 2 1'", 2))
    assert is_planar(generator("E", 1, 2))
    assert is_planar(generator("L", 2, 3))
    assert is_planar(parse_diagram("1 2 | 1' 2' | 3 3'", 3))
    # a singleton separates nothing, so {1,3} may arc over it
    assert is_planar(parse_diagram("1 3 | 2 | 1' 2' 3'", 3))
    assert not is_planar(parse_diagram("1 3 | 2 2' | 1' 3'", 3))
    assert not is_planar(parse_diagram("1 3 1' | 2 2' | 3'", 3))


def test_family_membership():
    s1 = generator("S", 1, 3)
    e1 = generator("E", 1, 3)
    p1 = generator("P", 1, 3)
    assert in_family(s1, "partition")
    assert in_family(s1, "brauer")
    assert in_family(s1, "symmetricgroup")
    assert not in_family(s1, "temperleylieb")
    assert in_family(e1, "temperleylieb")
    assert not in_family(e1, "rook")
    assert in_family(p1, "rook")
    assert in_family(p1, "motzkin")
    assert not in_family(p1, "brauer")
    wide = parse_diagram("1 2 3 1' 2' 3'", 3)
    assert in_family(wide, "partition")
    assert in_family(wide, "planarpartition")
    assert not in_family(wide, "rookbrauer")


def test_family_normalization():
    assert normalize_family("temperley-lieb") == "TemperleyLieb"
    assert normalize_family("TL") == "TemperleyLieb"
    assert normalize_family("Brauer") == "Brauer"
    with pytest.raises(ValueError):
        normalize_family("frobenius")


def test_generators():
    assert generator("S", 1, 2) == parse_diagram("1 2' | 2 1'", 2)
    assert generator("P", 2, 2) == parse_diagram("1 1' | 2 | 2'", 2)
    assert generator("B", 1, 2) == parse_diagram("1 2 1' 2'", 2)
    assert generator("E", 1, 2) == parse_diagram("1 2 | 1' 2'", 2)
    assert generator("L", 1, 2) == parse_diagram("1 2' | 2 | 1'", 2)
    assert generator("R", 1, 2) == parse_diagram("2 1' | 1 | 2'", 2)
    with pytest.raises(errors.IndexOutOfRange):
        generator("S", 3, 3)
    with pytest.raises(errors.IndexOutOfRange):
        generator("P", 4, 3)
    with pytest.raises(ValueError):
        generator("Q", 1, 3)


@pytest.mark.parametrize("i", ["1", 1.0, True, None])
def test_generator_index_must_be_an_int(i):
    # refused before it is compared, whatever it compares like
    for kind in "SP":
        with pytest.raises(errors.IndexOutOfRange) as info:
            generator(kind, i, 2)
        assert str(info.value) == "generator %s_%r needs 1 <= i <= %d" % (
            kind, i, 2 if kind == "P" else 1
        )


def test_generator_identities():
    k = 4
    for i in range(1, k):
        s = generator("S", i, k)
        p_i = generator("P", i, k)
        p_next = generator("P", i + 1, k)
        b = generator("B", i, k)
        e = generator("E", i, k)
        left = generator("L", i, k)
        right = generator("R", i, k)
        assert concat(s, s) == (identity_diagram(k), 0)
        # e_i = b_i p_i p_{i+1} b_i
        chain = concat(b, p_i).product
        chain = concat(chain, p_next).product
        chain = concat(chain, b).product
        assert chain == e
        assert concat(s, p_i).product == left
        assert concat(p_i, s).product == right
        assert transpose(left) == right


def test_perm_diagram_composition():
    for a in itertools.permutations((1, 2, 3)):
        for b in itertools.permutations((1, 2, 3)):
            ab = tuple(a[b[i] - 1] for i in range(3))
            got = concat(perm_diagram(a), perm_diagram(b))
            assert got == (perm_diagram(ab), 0)
    for images in ((1, 1, 3), (True, 2, 3)):
        with pytest.raises(ValueError, match="not a permutation of 1..3"):
            perm_diagram(images)


EXPECTED_COUNTS = {
    "partition": [2, 15, 203, 4140],
    "brauer": [1, 3, 15, 105],
    "rookbrauer": [2, 10, 76, 764],
    "rook": [2, 7, 34, 209],
    "temperleylieb": [1, 2, 5, 14],
    "motzkin": [2, 9, 51, 323],
    "planarrook": [2, 6, 20, 70],
    "planarpartition": [2, 14, 132, 1430],
    "symmetricgroup": [1, 2, 6, 24],
}


def test_enumerate_basis_counts():
    for family, counts in EXPECTED_COUNTS.items():
        for k, expected in enumerate(counts, start=1):
            basis = enumerate_basis(family, k)
            assert len(basis) == expected, (family, k)
            assert len(set(basis)) == expected
            assert basis == sorted(basis)
            assert all(in_family(d, family) for d in basis)
            assert algebra_dim(family, k) == expected


def test_motzkin_numbers_match_the_convolution_up_to_200():
    # the library's recurrence (n + 2) M_n = (2n + 1) M_(n-1) + 3 (n - 1)
    # M_(n-2) against the convolution M_(i+1) = M_i + sum of M_j M_(i-1-j)
    # over j < i: a Motzkin path's first step is flat, or an up step closed
    # by its first matching down step
    m = [1, 1]
    for i in range(1, 200):
        m.append(m[i] + sum(m[j] * m[i - 1 - j] for j in range(i)))
    assert [diagrams._motzkin_numbers(n) for n in range(201)] == m


def test_enumerate_basis_matches_filtered_partition_basis():
    for family in FAMILIES:
        for k in (1, 2, 3, 4):
            full = enumerate_basis("partition", k)
            filtered = [d for d in full if in_family(d, family)]
            assert enumerate_basis(family, k) == filtered, (family, k)


def test_cover_counts_equal_the_closed_forms_up_to_k_150():
    # the counter's sums read only the four facts of _SHAPES, so past every
    # listing they check the facts against the nine named forms of
    # algebra_dim
    for family in FAMILIES:
        shape = diagrams._SHAPES[family]
        for k in range(1, 151):
            count = diagrams._count_covers(k, tuple(range(1, 2 * k + 1)), shape)
            assert count == algebra_dim(family, k), (family, k)


def test_the_unranker_walks_the_listing_item_by_item():
    # the whole boundary at k <= 4, and point sets of tops alone, bottoms
    # alone and both, as the module listings cover them
    for family in FAMILIES:
        shape = diagrams._SHAPES[family]
        for k in range(1, 5):
            full = tuple(range(1, 2 * k + 1))
            for points in (full, full[:k], full[k:], full[1:], full[::2]):
                covers = diagrams._covers(k, points, shape)
                assert diagrams._count_covers(k, points, shape) == len(covers)
                ranked = [
                    diagrams._cover_at(k, points, shape, i)
                    for i in range(len(covers))
                ]
                assert ranked == covers, (family, k, points)


@pytest.mark.parametrize("index", [-1, 15, True, 1.0])
def test_the_unranker_refuses_an_index_outside_the_listing(index):
    with pytest.raises(errors.IndexOutOfRange):
        diagrams._cover_at(2, (1, 2, 3, 4), diagrams._SHAPES["Partition"], index)


def test_listings_leave_no_cyclic_garbage():
    # every object the cover builder allocates is freed by reference
    # counting: with the collector off, a pass finds nothing left over.
    # The symmetric diagrams are built past their cache, which later
    # tableaux share their tops with, so each call builds.  What earlier
    # tests left alive is frozen out of the collector's reach, so each pass
    # walks only what the listings made
    leaks = []
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        for family in FAMILIES:
            for k in (1, 2, 3, 4):
                enumerate_basis(family, k)
                leaks.append((family, k, gc.collect()))
                for m in rank_set(family, k):
                    irreps._enumerate_symmetric.__wrapped__(family, k, m)
                    leaks.append((family, k, m, gc.collect()))
    finally:
        gc.enable()
        gc.unfreeze()
    assert [leak for leak in leaks if leak[-1]] == []


def test_a_cover_of_2000_points_leaves_no_cyclic_garbage():
    # 2000 top points admit no Rook pair, so the one cover is all singles;
    # its memo holds the 2000 suffixes, freed by reference counting alone
    points = tuple(range(1, 2001))
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        covers = diagrams._covers(2000, points, diagrams._SHAPES["Rook"])
        leaked = gc.collect()
    finally:
        gc.enable()
        gc.unfreeze()
    assert leaked == 0
    assert covers == [tuple((v,) for v in points)]


@pytest.mark.parametrize("enabled", [True, False])
def test_a_listing_leaves_the_collector_as_it_found_it(enabled):
    (gc.enable if enabled else gc.disable)()
    try:
        enumerate_basis("partition", 3)
        assert gc.isenabled() is enabled
        # a build that raises comes back the same way
        with pytest.raises(TypeError):
            diagrams._covers(2, (1, "x"), diagrams._SHAPES["Rook"])
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_enumerate_basis_closed_under_multiplication():
    for family in ("brauer", "temperleylieb", "motzkin", "rook"):
        basis = set(enumerate_basis(family, 2))
        for a, b in itertools.product(sorted(basis), repeat=2):
            assert concat(a, b).product in basis


def test_enumeration_caps(monkeypatch):
    with pytest.raises(errors.CapExceeded):
        enumerate_basis("partition", 6)
    with pytest.raises(errors.CapExceeded):
        enumerate_basis("brauer", 9)
    # the cap counts diagrams: TemperleyLieb has 1430 at k=8, 4862 at k=9
    monkeypatch.setenv("DIAGRAMALG_CAP", "1430")
    assert len(enumerate_basis("temperleylieb", 8)) == 1430
    with pytest.raises(errors.CapExceeded):
        enumerate_basis("temperleylieb", 9)
    monkeypatch.setenv("DIAGRAMALG_CAP", "2")
    with pytest.raises(errors.CapExceeded):
        enumerate_basis("temperleylieb", 3)
