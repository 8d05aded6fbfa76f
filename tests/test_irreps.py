import random
from fractions import Fraction
from functools import lru_cache

import pytest

from diagramalg import characters, errors, irreps
from diagramalg.diagrams import family_generators
from diagramalg.coeff import ONE, ZERO, Element, LaurentPoly
from diagramalg.diagrams import (
    BRAUER,
    FAMILIES,
    Diagram,
    MOTZKIN,
    PARTITION,
    PLANAR_PARTITION,
    PLANAR_ROOK,
    ROOK,
    ROOK_BRAUER,
    SYMMETRIC_GROUP,
    TEMPERLEY_LIEB,
    concat,
    enumerate_basis,
    generator,
    identity_diagram,
    parse_diagram,
    perm_diagram,
    rank,
)
from diagramalg.irreps import (
    SetPartitionTableau,
    SymmetricMDiagram,
    _module_basis,
    act_natural,
    act_tableau,
    act_twisted,
    column_trace,
    compose_columns,
    conjugate,
    enumerate_sspt,
    enumerate_symmetric,
    rep_columns,
    rep_matrix_irrep,
    tableau_from_pair,
)
from diagramalg.partitions import (
    binom,
    double_factorial,
    lambda_star_labels,
    rank_set,
    stirling2,
)
from diagramalg.symrep import rep_matrix, standard_tableaux, straighten

N = LaurentPoly.monomial(1)

D13 = parse_diagram(
    "1 5' | 2 2' | 3 1' 3' | 4 | 5 6 7 8' | 8 12 4' | 9 12' | 10 11"
    " | 13 13' | 6' | 7' | 9' 10' | 11'",
    13,
)
W13 = SymmetricMDiagram(
    13,
    [(1, 2), (3, 5, 6), (4,), (7, 13), (8, 9, 10), (11,), (12,)],
    [(1, 2), (4,), (8, 9, 10), (12,), (7, 13)],
)
W13_PRIME = SymmetricMDiagram(
    13,
    [(1, 2, 3), (4,), (5, 6, 7), (8, 12), (9,), (10, 11), (13,)],
    [(1, 2, 3), (5, 6, 7), (9,), (8, 12), (13,)],
)
T4 = ((1, 2, 4), (3, 5))
T13 = SetPartitionTableau(
    13,
    [(3, 5, 6), (11,)],
    [((1, 2), (4,), (12,)), ((8, 9, 10), (7, 13))],
)
T13_MOVED = SetPartitionTableau(
    13,
    [(4,), (10, 11)],
    [((1, 2, 3), (8, 12), (9,)), ((5, 6, 7), (13,))],
)
T13_A = SetPartitionTableau(
    13,
    [(4,), (10, 11)],
    [((1, 2, 3), (9,), (8, 12)), ((5, 6, 7), (13,))],
)
T13_B = SetPartitionTableau(
    13,
    [(4,), (10, 11)],
    [((1, 2, 3), (9,), (13,)), ((5, 6, 7), (8, 12))],
)
D13_ZERO = parse_diagram(
    "1 2 5' | 3 6 4' | 4 2' 3' | 5 | 7 7' | 8 9 | 10 12 13 11'"
    " | 11 13' | 1' | 6' 8' 9' | 10' | 12'",
    13,
)


def symmetric_count(family, k, m):
    """Closed-form size of the symmetric m-diagram set."""
    if family == PARTITION:
        return sum(
            stirling2(k, t) * binom(t, m) for t in range(m, k + 1)
        )
    if family == BRAUER:
        return binom(k, m) * double_factorial(k - m - 1)
    if family == ROOK_BRAUER:
        return binom(k, m) * sum(
            binom(k - m, 2 * t) * double_factorial(2 * t - 1)
            for t in range((k - m) // 2 + 1)
        )
    if family == TEMPERLEY_LIEB:
        half = (k - m) // 2
        return binom(k, half) - binom(k, half - 1)
    if family == MOTZKIN:
        total = 0
        t = 0
        while m + 2 * t <= k:
            r = m + 2 * t
            total += binom(k, r) * (binom(r, t) - binom(r, t - 1))
            t += 1
        return total
    if family in (ROOK, PLANAR_ROOK):
        return binom(k, m)
    if family == PLANAR_PARTITION:
        # P_k(n^2) is TL_2k(n), so these are the TL counts at (2k, 2m)
        return symmetric_count(TEMPERLEY_LIEB, 2 * k, 2 * m)
    if family == SYMMETRIC_GROUP:
        return 1
    raise AssertionError(family)


def test_symmetric_diagram_basics():
    assert W13.m == 5
    assert W13.prop_max_order() == (
        (1, 2),
        (4,),
        (8, 9, 10),
        (12,),
        (7, 13),
    )
    full = W13.to_diagram()
    assert SymmetricMDiagram.from_diagram(full) == W13
    assert (1, 2, 14, 15) in full.blocks
    assert (3, 5, 6) in full.blocks and (16, 18, 19) in full.blocks


def test_from_diagram_rejects_asymmetric():
    with pytest.raises(ValueError):
        SymmetricMDiagram.from_diagram(generator("L", 1, 2))
    with pytest.raises(ValueError):
        SymmetricMDiagram.from_diagram(parse_diagram("1 2' | 2 1'", 2))


def test_from_diagram_inverts_to_diagram_on_every_basis_diagram():
    # every symmetric diagram at k is a Partition one, so the image of
    # to_diagram is read off the Partition listings; of the 3,564 basis
    # diagrams below, 340 are in it
    seen = 0
    for k in range(1, 5):
        image = {
            w.to_diagram(): w
            for m in rank_set(PARTITION, k)
            for w in enumerate_symmetric(PARTITION, k, m)
        }
        for family in FAMILIES:
            if family == PARTITION and k > 3:
                continue
            for d in enumerate_basis(family, k):
                seen += 1
                if d in image:
                    w = SymmetricMDiagram.from_diagram(d)
                    assert w == image[d] and w.to_diagram() == d
                    continue
                with pytest.raises(
                    ValueError, match="^diagram is not mirror-symmetric$"
                ):
                    SymmetricMDiagram.from_diagram(d)
    assert seen == 3564


def test_symmetric_diagram_validation():
    with pytest.raises(ValueError):
        SymmetricMDiagram(3, [(1, 2)], [])
    with pytest.raises(ValueError):
        SymmetricMDiagram(3, [(1, 2), (3,)], [(1, 3)])
    with pytest.raises(ValueError, match="empty"):
        SymmetricMDiagram(2, [(1, 2), ()], [])
    with pytest.raises(ValueError, match="empty"):
        SymmetricMDiagram(2, [(), (1,), (2,)], [()])
    with pytest.raises(ValueError, match="repeated propagating block"):
        SymmetricMDiagram(2, [(1,), (2,)], [(1,), (1,)])
    for top, prop in (
        ([(1.0,), (2,)], [(2,)]),
        ([(True,), (2,)], []),
        ([(1,), (2,)], [(2.0,)]),
    ):
        with pytest.raises(ValueError, match="integers"):
            SymmetricMDiagram(2, top, prop)


def test_enumerate_symmetric_counts():
    for family in FAMILIES:
        for k in range(1, 6):
            for m in rank_set(family, k):
                found = enumerate_symmetric(family, k, m)
                assert len(found) == symmetric_count(family, k, m)
                assert all(w.m == m for w in found)
                assert all(
                    w.to_diagram() is not None for w in found
                )


def test_enumerate_symmetric_invalid_rank():
    with pytest.raises(errors.InvalidRank):
        enumerate_symmetric("Brauer", 4, 1)
    with pytest.raises(errors.InvalidRank):
        enumerate_symmetric("SymmetricGroup", 4, 2)
    with pytest.raises(errors.InvalidRank):
        enumerate_symmetric("Rook", 4, 5)


def test_conjugation_worked_example():
    res = conjugate(D13, W13)
    assert res.w_prime == W13_PRIME
    assert res.m_prime == 5
    assert res.deleted == 1
    assert res.twist == (1, 4, 2, 3, 5)


def test_conjugate_by_identity():
    for family, k in ((PARTITION, 3), (BRAUER, 4), (ROOK_BRAUER, 3)):
        ident = identity_diagram(k)
        for m in rank_set(family, k):
            for w in enumerate_symmetric(family, k, m):
                res = conjugate(ident, w)
                assert res.w_prime == w
                assert res.deleted == 0
                assert res.twist == tuple(range(1, m + 1))


def test_conjugate_by_self_is_projection():
    for m in rank_set(PARTITION, 3):
        for w in enumerate_symmetric(PARTITION, 3, m):
            res = conjugate(w.to_diagram(), w)
            assert res.w_prime == w
            assert res.twist == tuple(range(1, m + 1))
            assert res.deleted == len(w.top) - w.m


def test_conjugate_rank_never_grows():
    rng = random.Random(7)
    basis = enumerate_basis(PARTITION, 3)
    ws = [
        w
        for m in rank_set(PARTITION, 3)
        for w in enumerate_symmetric(PARTITION, 3, m)
    ]
    for _ in range(150):
        d = rng.choice(basis)
        w = rng.choice(ws)
        res = conjugate(d, w)
        assert res.m_prime <= w.m
        assert (res.twist is None) == (res.m_prime < w.m)
        assert SymmetricMDiagram.from_diagram(
            res.w_prime.to_diagram()
        ) == res.w_prime


def test_conjugate_rank_mismatch():
    with pytest.raises(errors.RankMismatch):
        conjugate(identity_diagram(3), W13)


def test_act_twisted_worked_example():
    t2 = ((1, 3, 4), (2, 5))
    t1 = ((1, 3, 5), (2, 4))
    out = act_twisted(D13, {(W13, T4): 1})
    assert out == {
        (W13_PRIME, t2): N,
        (W13_PRIME, t1): -N,
    }


def test_act_twisted_family_check():
    with pytest.raises(errors.AlgebraMismatch):
        act_twisted(D13, {(W13, T4): 1}, family="Brauer")


def test_bijection_worked_example():
    assert tableau_from_pair(W13, T4) == T13
    assert T13.body_filling() == T4


def test_bijection_roundtrip():
    # the pairs give every standard set-partition tableau once, in the
    # order of the module basis
    for family, k in ((PARTITION, 3), (ROOK_BRAUER, 3), (BRAUER, 4)):
        for lam in lambda_star_labels(family, k):
            tabs = [
                tableau_from_pair(w, t)
                for w in enumerate_symmetric(family, k, sum(lam))
                for t in standard_tableaux(lam)
            ]
            assert tabs == enumerate_sspt(family, k, lam)
            assert len(set(tabs)) == len(tabs)
            for tab in tabs:
                assert tab.is_standard()
                assert tab.lambda_star == lam


def test_tableau_from_pair_shape_mismatch():
    with pytest.raises(errors.ShapeMismatch):
        tableau_from_pair(W13, ((1, 2), (3,)))


@pytest.mark.parametrize(
    "filling", [((0, 1),), ((1, 5),), ((1, 1),), ((1, True),), ((1.0, 2),)]
)
def test_tableau_from_pair_refuses_a_filling_that_is_not_one_to_m(filling):
    w = SymmetricMDiagram(2, [(1,), (2,)], [(1,), (2,)])
    assert tableau_from_pair(w, ((1, 2),)).body == (((1,), (2,)),)
    with pytest.raises(ValueError, match="^not a permutation of 1..2: "):
        tableau_from_pair(w, filling)


def test_tableau_validation_and_text():
    with pytest.raises(ValueError):
        SetPartitionTableau(3, [(1,)], [((2,),), ((3,),), ()])
    with pytest.raises(ValueError):
        SetPartitionTableau(3, [(1,)], [((2,),)])
    tab = SetPartitionTableau(3, [(2,)], [((1,), (3,))])
    assert tab.text() == "{2} ; {1} {3}"
    assert tab.first_row == ((2,),)
    assert SetPartitionTableau(3, [(3,), (1, 2)], []).first_row == (
        (1, 2),
        (3,),
    )


def test_tableau_rejects_non_int_vertices_and_empty_blocks():
    # 1.0 and True compare and hash like vertex 1
    for first_row, body in (([(1.0,)], []), ([(True,)], []), ([], [((1.0,),)])):
        with pytest.raises(ValueError, match="integers"):
            SetPartitionTableau(1, first_row, body)
    for first_row, body in (([(), (1, 2)], []), ([(1,)], [((2,), ())])):
        with pytest.raises(ValueError, match="^blocks must not be empty$"):
            SetPartitionTableau(2, first_row, body)


def test_act_tableau_worked_example():
    moved, deleted = act_tableau(D13, T13)
    assert moved == T13_MOVED
    assert deleted == 1
    assert not moved.is_standard()


def test_act_natural_worked_example():
    out = act_natural(D13, {T13: 1})
    assert out == {T13_A: N, T13_B: -N}


def test_act_tableau_zero_case():
    moved, deleted = act_tableau(D13_ZERO, T13)
    assert moved is None and deleted == 0
    assert act_natural(D13_ZERO, {T13: 1}) == {}


def test_act_tableau_rank_mismatch():
    with pytest.raises(errors.RankMismatch):
        act_tableau(identity_diagram(3), T13)


def test_p_generator_action():
    tab = SetPartitionTableau(
        9, [(1,), (5, 6)], [((4,), (2, 3, 8), (9,)), ((7,),)]
    )
    assert act_natural(generator("P", 1, 9), {tab: 1}) == {tab: N}
    assert act_natural(generator("P", 4, 9), {tab: 1}) == {}
    split = SetPartitionTableau(
        9, [(1,), (5,), (6,)], [((4,), (2, 3, 8), (9,)), ((7,),)]
    )
    assert act_natural(generator("P", 5, 9), {tab: 1}) == {
        split: LaurentPoly.const(1)
    }
    raw, deleted = act_tableau(generator("P", 8, 9), tab)
    assert raw == SetPartitionTableau(
        9, [(1,), (5, 6), (8,)], [((4,), (2, 3), (9,)), ((7,),)]
    )
    assert deleted == 0
    assert not raw.is_standard()
    a = SetPartitionTableau(
        9, [(1,), (5, 6), (8,)], [((2, 3), (4,), (9,)), ((7,),)]
    )
    b = SetPartitionTableau(
        9, [(1,), (5, 6), (8,)], [((2, 3), (7,), (9,)), ((4,),)]
    )
    assert act_natural(generator("P", 8, 9), {tab: 1}) == {
        a: LaurentPoly.const(1),
        b: LaurentPoly.const(-1),
    }


def test_b_generator_action():
    tab = SetPartitionTableau(
        10, [(6, 8), (1, 2, 9)], [((3,), (7,), (10,)), ((4, 5),)]
    )
    one = LaurentPoly.const(1)
    assert act_natural(generator("B", 1, 10), {tab: 1}) == {tab: one}
    assert act_natural(generator("B", 4, 10), {tab: 1}) == {tab: one}
    assert act_natural(generator("B", 3, 10), {tab: 1}) == {}
    merged = SetPartitionTableau(
        10, [(6, 8)], [((4, 5), (7,), (10,)), ((1, 2, 3, 9),)]
    )
    assert act_natural(generator("B", 2, 10), {tab: 1}) == {merged: -one}
    joined = SetPartitionTableau(
        10, [(1, 2, 6, 8, 9)], [((3,), (7,), (10,)), ((4, 5),)]
    )
    assert act_natural(generator("B", 8, 10), {tab: 1}) == {joined: one}


def test_e_generator_action_brauer():
    tab = SetPartitionTableau(
        10, [(1, 3), (5, 6), (4, 8)], [((2,), (7,), (10,)), ((9,),)]
    )
    moved = SetPartitionTableau(
        10, [(1, 3), (5, 6), (7, 8)], [((2,), (4,), (10,)), ((9,),)]
    )
    assert act_natural(generator("E", 7, 10), {tab: 1}, family=BRAUER) == {
        moved: LaurentPoly.const(1)
    }
    assert act_natural(generator("E", 9, 10), {tab: 1}) == {}
    assert act_natural(generator("E", 5, 10), {tab: 1}) == {tab: N}


def test_e_generator_action_rook_brauer():
    tab = SetPartitionTableau(
        10,
        [(2,), (1, 4), (5,), (6,), (8, 10)],
        [((3,), (9,)), ((7,),)],
    )
    fused = SetPartitionTableau(
        10, [(2,), (1, 4), (5, 6), (8, 10)], [((3,), (9,)), ((7,),)]
    )
    assert act_natural(generator("E", 5, 10), {tab: 1}) == {fused: N}
    assert act_natural(generator("E", 2, 10), {tab: 1}) == {}
    assert act_natural(generator("E", 6, 10), {tab: 1}) == {}


def test_full_diagram_action_brauer():
    d = parse_diagram(
        "1 4 | 2 1' | 3 9' | 5 6 | 7 10' | 8 7' | 9 10 | 2' 3'"
        " | 4' 5' | 6' 8'",
        10,
    )
    tab = SetPartitionTableau(
        10, [(1, 3), (5, 6), (4, 8)], [((2,), (7,), (10,)), ((9,),)]
    )
    raw, deleted = act_tableau(d, tab)
    assert raw == SetPartitionTableau(
        10, [(1, 4), (5, 6), (9, 10)], [((2,), (8,), (7,)), ((3,),)]
    )
    assert deleted == 1
    swapped = SetPartitionTableau(
        10, [(1, 4), (5, 6), (9, 10)], [((2,), (7,), (8,)), ((3,),)]
    )
    assert act_natural(d, {tab: 1}) == {swapped: N}


def test_full_diagram_action_temperley_lieb():
    d = parse_diagram(
        "1 2 | 3 1' | 4 2' | 5 7' | 6 7 | 8 9 | 10 8' | 3' 6'"
        " | 4' 5' | 9' 10'",
        10,
    )
    tab = SetPartitionTableau(
        10, [(2, 3), (1, 4), (8, 9)], [((5,), (6,), (7,), (10,))]
    )
    out = SetPartitionTableau(
        10, [(1, 2), (6, 7), (8, 9)], [((3,), (4,), (5,), (10,))]
    )
    assert act_natural(d, {tab: 1}, family=TEMPERLEY_LIEB) == {
        out: LaurentPoly.const(1)
    }


def test_full_diagram_action_rook():
    d = parse_diagram(
        "2 1' | 4 2' | 7 3' | 5 5' | 9 6' | 6 8' | 10 10' | 1 | 3"
        " | 8 | 4' | 7' | 9'",
        10,
    )
    tab = SetPartitionTableau(
        10,
        [(3,), (4,), (5,), (7,), (9,)],
        [((1,), (2,), (8,)), ((6,), (10,))],
    )
    out = SetPartitionTableau(
        10,
        [(1,), (3,), (5,), (7,), (8,)],
        [((2,), (4,), (6,)), ((9,), (10,))],
    )
    assert act_natural(d, {tab: 1}, family=ROOK) == {out: N**3}


def test_enumerate_sspt():
    for family, k in ((PARTITION, 3), (MOTZKIN, 4)):
        for lam in lambda_star_labels(family, k):
            tabs = enumerate_sspt(family, k, lam)
            assert len(tabs) == len(
                enumerate_symmetric(family, k, sum(lam))
            ) * len(standard_tableaux(lam))
            assert len(set(tabs)) == len(tabs)
            assert all(tab.is_standard() for tab in tabs)
    with pytest.raises(errors.LabelNotInFamily):
        enumerate_sspt("TemperleyLieb", 4, (2, 2))
    with pytest.raises(errors.LabelNotInFamily):
        enumerate_sspt("Partition", 3, (4,))


def test_bases_agree_on_generators():
    for family in FAMILIES:
        for k in (2, 3):
            for lam in lambda_star_labels(family, k):
                for g in family_generators(family, k):
                    twisted = rep_columns(g, family, k, lam, "Twisted")
                    tableau = rep_columns(g, family, k, lam, "Tableau")
                    assert twisted == tableau


def test_symmetric_group_module_matches_natural_rep():
    import itertools

    for k in (3, 4):
        for lam in lambda_star_labels(SYMMETRIC_GROUP, k):
            for sigma in itertools.permutations(range(1, k + 1)):
                mat = rep_matrix_irrep(
                    perm_diagram(sigma), SYMMETRIC_GROUP, k, lam
                )
                expected = rep_matrix(sigma, lam)
                assert [
                    [entry.constant_value() for entry in row]
                    for row in mat
                ] == expected


def test_module_axiom_on_seeded_pairs():
    rng = random.Random(2024)
    for family, k in ((PARTITION, 2), (BRAUER, 3), (MOTZKIN, 3)):
        basis = enumerate_basis(family, k)
        labels = lambda_star_labels(family, k)
        for _ in range(20):
            a = rng.choice(basis)
            b = rng.choice(basis)
            lam = rng.choice(labels)
            prod, deleted = concat(a, b)
            lhs = compose_columns(
                rep_columns(a, family, k, lam),
                rep_columns(b, family, k, lam),
            )
            rhs = rep_columns(prod, family, k, lam)
            scale = LaurentPoly.monomial(deleted)
            scaled = [
                {i: scale * c for i, c in col.items()} for col in rhs
            ]
            assert lhs == scaled


def test_identity_rep_and_trace():
    fam, k = PARTITION, 3
    for lam in lambda_star_labels(fam, k):
        cols = rep_columns(identity_diagram(k), fam, k, lam)
        size = len(cols)
        assert all(cols[j] == {j: LaurentPoly.const(1)} for j in range(size))
        assert column_trace(cols) == LaurentPoly.const(size)


def test_rep_columns_errors():
    with pytest.raises(errors.RankMismatch):
        rep_columns(identity_diagram(2), PARTITION, 3, (1,))
    with pytest.raises(errors.AlgebraMismatch):
        rep_columns(generator("S", 1, 3), TEMPERLEY_LIEB, 3, (1,))
    with pytest.raises(errors.LabelNotInFamily):
        rep_columns(identity_diagram(3), PARTITION, 3, (7,))
    with pytest.raises(ValueError):
        rep_columns(identity_diagram(3), PARTITION, 3, (1,), basis="spam")


def _low_rank_cases(family, k):
    """Each label with m >= 1 and the basis diagrams of rank below m."""
    basis = enumerate_basis(family, k)
    for lam in lambda_star_labels(family, k):
        low = [d for d in basis if rank(d) < sum(lam)]
        if low:
            yield lam, low


@pytest.mark.parametrize("family", FAMILIES)
def test_below_rank_m_acts_as_zero_through_the_full_path(family):
    # rep_columns answers these with empty columns and no stack; the full
    # actions are the computation that answer stands for
    top = 3 if family in (PARTITION, PLANAR_PARTITION) else 4
    seen = 0
    for k in range(1, top + 1):
        for lam, low in _low_rank_cases(family, k):
            for basis, act in (("Twisted", act_twisted), ("Tableau", act_natural)):
                vectors = _module_basis(family, k, lam, basis)[0]
                for d in low:
                    assert all(act(d, {v: ONE}) == {} for v in vectors)
                    cols = rep_columns(d, family, k, lam, basis)
                    assert cols == [{} for _ in vectors]
                    seen += 1
    if family != SYMMETRIC_GROUP:
        assert seen


def test_below_rank_m_needs_no_stack(monkeypatch):
    def refuse(*args):
        raise AssertionError("stacked a diagram of rank below m")

    monkeypatch.setattr(irreps, "conjugate", refuse)
    monkeypatch.setattr(irreps, "act_tableau", refuse)
    for lam, low in _low_rank_cases(BRAUER, 4):
        size = len(enumerate_sspt(BRAUER, 4, lam))
        for d in low:
            for basis in ("Twisted", "Tableau"):
                assert rep_columns(d, BRAUER, 4, lam, basis) == [{}] * size
    # a diagram of full rank still acts through the stack
    with pytest.raises(AssertionError):
        rep_columns(identity_diagram(4), BRAUER, 4, (2, 2))


def reference_act_twisted(d, v):
    """The action summed in LaurentPoly arithmetic, one term at a time."""
    out = {}
    for (w, t), coeff in v.items():
        res = conjugate(d, w)
        if res.twist is None:
            continue
        factor = LaurentPoly.coerce(coeff).shift(res.deleted)
        relabeled = tuple(tuple(res.twist[x - 1] for x in row) for row in t)
        for ts, c in straighten(relabeled).items():
            key = (res.w_prime, ts)
            out[key] = out.get(key, ZERO) + factor * c
    return {key: c for key, c in out.items() if c}


def reference_act_natural(d, v):
    out = {}
    for tab, coeff in v.items():
        moved, deleted = act_tableau(d, tab)
        if moved is None:
            continue
        factor = LaurentPoly.coerce(coeff).shift(deleted)
        order = sorted(moved.body_blocks(), key=max)
        for ustd, c in straighten(moved.body_filling()).items():
            body = tuple(tuple(order[x - 1] for x in row) for row in ustd)
            tstd = SetPartitionTableau(moved.k, moved.first_row, body)
            out[tstd] = out.get(tstd, ZERO) + factor * c
    return {key: c for key, c in out.items() if c}


def _random_coeff(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice([-3, -1, 1, 2])
    if kind == 1:
        return Fraction(rng.choice([-5, 1, 7]), rng.choice([2, 3]))
    values = [-2, 1, Fraction(1, 2), Fraction(-4, 3)]
    return LaurentPoly(
        {rng.randint(-3, 3): rng.choice(values) for _ in range(rng.randint(1, 3))}
    )


def _assert_clean(result):
    for c in result.values():
        assert c
        for value in c.terms.values():
            assert type(value) is int or value.denominator != 1


def _colliding_pair(d, vectors):
    """Two basis vectors that d sends to the same non-zero vector."""
    images = [(x, act_twisted(d, {x: ONE})) for x in vectors]
    for i, (x, image) in enumerate(images):
        for y, other in images[i + 1 :]:
            if image and image == other:
                return x, y
    return None


@pytest.mark.parametrize(
    "family, k",
    [
        (PARTITION, 3),
        (BRAUER, 4),
        (ROOK_BRAUER, 4),
        (MOTZKIN, 4),
        (TEMPERLEY_LIEB, 4),
    ],
)
def test_integer_sums_match_laurent_arithmetic(family, k):
    rng = random.Random(1808)
    basis = enumerate_basis(family, k)
    collisions = 0
    for lam in lambda_star_labels(family, k):
        twisted = _module_basis(family, k, lam, "Twisted")[0]
        for d in rng.sample(basis, min(12, len(basis))):
            # seeded vectors of Laurent, Fraction and int coefficients
            picks = rng.sample(twisted, min(4, len(twisted)))
            v = {x: _random_coeff(rng) for x in picks}
            vectors = [v]
            pair = _colliding_pair(d, twisted)
            if pair:
                # p and -p cancel to zero; two halves sum to an integer
                x, y = pair
                p = _random_coeff(rng)
                half = Fraction(1, 2)
                assert act_twisted(d, {x: p, y: -p}) == {}
                assert act_twisted(d, {x: half, y: half}) == act_twisted(
                    d, {x: ONE}
                )
                vectors += [{x: half, y: half}, {**v, x: p, y: -p}]
                collisions += 1
            for vec in vectors:
                got = act_twisted(d, vec)
                assert got == reference_act_twisted(d, vec)
                _assert_clean(got)
                nat = {tableau_from_pair(*x): c for x, c in vec.items()}
                got = act_natural(d, nat)
                assert got == reference_act_natural(d, nat)
                _assert_clean(got)
    assert collisions


def test_cached_stacks_are_immutable():
    # one entry serves every vector on its top, in both bases, so no
    # caller may be handed a part it could change
    for w in enumerate_symmetric(PARTITION, 3, 1):
        hash(irreps._conjugate(identity_diagram(3), w.top))
    hash(irreps._conjugate(D13, W13.top))


def _random_partition_diagram(rng, k):
    owner = [rng.randrange(k) for _ in range(2 * k)]
    blocks = {}
    for v, b in enumerate(owner, 1):
        blocks.setdefault(b, []).append(v)
    return Diagram(k, blocks.values())


def _acting_diagrams(rng, family, k, m, count=4):
    """Seeded diagrams of rank at least m: below it every column is empty
    and no stack is read."""
    if family == PARTITION and k == 5:
        # 115,975 diagrams: draw set partitions instead of listing them
        pool = [_random_partition_diagram(rng, k) for _ in range(4 * count)]
    else:
        pool = enumerate_basis(family, k)
    pool = [d for d in pool if rank(d) >= m]
    return rng.sample(pool, min(count, len(pool)))


def _reference_columns(d, family, k, lam, monkeypatch):
    """rep_columns of d in both bases from the reference actions, each
    vector stacked afresh: the uncached stack stands in for _conjugate."""
    refs = {"Twisted": reference_act_twisted, "Tableau": reference_act_natural}
    with monkeypatch.context() as patch:
        patch.setattr(irreps, "_conjugate", irreps._conjugate.__wrapped__)
        out = {}
        for basis, ref in refs.items():
            vectors = _module_basis(family, k, lam, basis).vectors
            index = {v: i for i, v in enumerate(vectors)}
            out[basis] = [
                {index[key]: c for key, c in ref(d, {v: ONE}).items()}
                for v in vectors
            ]
    return out


@pytest.mark.parametrize(
    "family, ks",
    [pytest.param(family, range(1, 5), id=family + "-k<=4") for family in FAMILIES]
    + [pytest.param(PARTITION, (5,), id="Partition-k5")],
)
def test_shared_stacks_match_the_uncached_reference(family, ks, monkeypatch):
    # both bases read one _conjugate entry per (d, top); a key that let one
    # vector read another's stack would show in the columns read off a
    # cache that other diagrams, and the other basis, have filled
    rng = random.Random(1817)
    checked = 0
    for k in ks:
        for lam in lambda_star_labels(family, k):
            if family == PARTITION and k == 5 and lam not in ((2,), (1, 1), (2, 1)):
                # at m = 2, 51 tops carry 160 symmetric diagrams; (2, 1) has
                # two standard tableaux, so a wrong base or tableau index in
                # a symmetric diagram's block of rows shows
                continue
            ds = _acting_diagrams(rng, family, k, sum(lam))
            expected = [
                _reference_columns(d, family, k, lam, monkeypatch) for d in ds
            ]
            for order in (("Twisted", "Tableau"), ("Tableau", "Twisted")):
                irreps._conjugate.cache_clear()
                for basis in order:
                    for d, want in zip(ds, expected):
                        got = rep_columns(d, family, k, lam, basis)
                        assert len(got) == len(want[basis])
                        for j, column in enumerate(got):
                            assert column == want[basis][j], (d, basis, j)
            checked += len(ds)
    assert checked


def _stack_readers():
    """rep_columns in both bases (seeded diagrams of each module's rank
    and the family generators, all nine families at k <= 4 and Partition
    k=5 at m=2) and fixed_points (every rank and class at k <= 4)."""
    rng = random.Random(4096)
    out = []
    cases = [(family, k) for family in FAMILIES for k in range(1, 5)]
    for family, k in cases + [(PARTITION, 5)]:
        for lam in lambda_star_labels(family, k):
            if k == 5 and sum(lam) != 2:
                continue
            ds = _acting_diagrams(rng, family, k, sum(lam))
            for d in ds + family_generators(family, k):
                # the two bases interleaved, so each evicts the other's stacks
                for basis in ("Twisted", "Tableau"):
                    out.append(rep_columns(d, family, k, lam, basis))
    for family, k in cases:
        for kappa in characters.class_labels(family, k):
            if sum(kappa) == k:
                for m in rank_set(family, k):
                    out.append(characters.fixed_points(family, k, m, kappa))
    return out


def test_eviction_cannot_change_an_answer(monkeypatch):
    # every _conjugate entry is rebuilt the same from its key, so a cache
    # of two entries, evicting on nearly every call, answers as the
    # default one does
    irreps._conjugate.cache_clear()
    expected = _stack_readers()
    tiny = lru_cache(maxsize=2)(irreps._conjugate.__wrapped__)
    monkeypatch.setattr(irreps, "_conjugate", tiny)
    assert _stack_readers() == expected
    info = tiny.cache_info()
    assert info.currsize == 2 and info.misses > 1000 and info.hits
