"""The stacking kernel, the planarity scan, family membership and basis
enumeration against the reference implementations they replaced."""

import copy
import pickle
import random
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, repeat

import pytest

from diagramalg.coeff import Element, LaurentPoly
from diagramalg.diagrams import (
    _SHAPES,
    BRAUER,
    FAMILIES,
    MOTZKIN,
    PARTITION,
    PLANAR_PARTITION,
    PLANAR_ROOK,
    ROOK,
    ROOK_BRAUER,
    SYMMETRIC_GROUP,
    TEMPERLEY_LIEB,
    Diagram,
    _block_owner,
    _covers,
    _fuse,
    algebra_dim,
    clear_caches,
    concat,
    family_generators,
    enumerate_basis,
    format_diagram,
    in_family,
    is_planar,
    vertex_name,
)
from diagramalg.irreps import (
    TABLEAU,
    SetPartitionTableau,
    SymmetricMDiagram,
    _enumerate_symmetric,
    _module_basis,
    _symmetric_candidates,
    act_natural,
    act_tableau,
    conjugate,
    enumerate_sspt,
    enumerate_symmetric,
    rep_columns,
    tableau_from_pair,
)
from diagramalg.partitions import catalan, lambda_star_labels, rank_set
from diagramalg.symrep import standard_tableaux


def reference_concat(d1, d2):
    """Vertex-level union-find with a class per stack, as concat once was."""
    k = d1.k
    parent = list(range(3 * k + 1))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for block in d1.blocks:
        for v in block[1:]:
            union(block[0], v)
    for block in d2.blocks:
        shifted = [v + k for v in block]
        for v in shifted[1:]:
            union(shifted[0], v)
    groups = {}
    for v in range(1, 3 * k + 1):
        groups.setdefault(find(v), []).append(v)
    blocks = []
    deleted = 0
    for members in groups.values():
        outer = [v if v <= k else v - k for v in members if v <= k or v > 2 * k]
        if outer:
            blocks.append(tuple(outer))
        else:
            deleted += 1
    return Diagram(k, blocks), deleted


def reference_is_planar(d):
    """Compare every pair of blocks in the boundary order 1..k, k'..1'."""
    k = d.k

    def positions(block):
        return sorted(v if v <= k else 2 * k + 1 - (v - k) for v in block)

    def interleave(pa, pb):
        # two blocks cross iff the merged label word switches between
        # them at least three times
        merged = sorted([(p, 0) for p in pa] + [(p, 1) for p in pb])
        switches = sum(
            1 for (_, a), (_, b) in zip(merged, merged[1:]) if a != b
        )
        return switches >= 3

    pos = [positions(b) for b in d.blocks]
    return not any(
        interleave(pos[i], pos[j])
        for i in range(len(pos))
        for j in range(i + 1, len(pos))
    )


def reference_in_family(d, family):
    """One branch per family, as in_family was before the shape table."""
    k = d.k
    if family == PARTITION:
        return True
    if family == PLANAR_PARTITION:
        return is_planar(d)
    if family == BRAUER:
        return all(len(b) == 2 for b in d.blocks)
    if family == TEMPERLEY_LIEB:
        return all(len(b) == 2 for b in d.blocks) and is_planar(d)
    if family == ROOK_BRAUER:
        return all(len(b) <= 2 for b in d.blocks)
    if family == MOTZKIN:
        return all(len(b) <= 2 for b in d.blocks) and is_planar(d)
    rookish = all(
        sum(1 for v in b if v <= k) <= 1 and sum(1 for v in b if v > k) <= 1
        for b in d.blocks
    )
    if family == ROOK:
        return rookish
    if family == PLANAR_ROOK:
        return rookish and is_planar(d)
    if family == SYMMETRIC_GROUP:
        return all(len(b) == 2 and b[0] <= k < b[1] for b in d.blocks)
    raise AssertionError("unreachable")


def test_in_family_matches_per_family_reference():
    for k in range(1, 5):
        for d in enumerate_basis("Partition", k):
            for family in FAMILIES:
                assert in_family(d, family) == reference_in_family(d, family), (
                    family,
                    d.text(),
                )


def test_is_planar_matches_pairwise_reference():
    for k in range(1, 5):
        for d in enumerate_basis("Partition", k):
            assert is_planar(d) == reference_is_planar(d), d.text()
    # longer boundaries, k = 5..7: seeded Partition diagrams, nearly all
    # crossing, and products of six PlanarPartition generators, all planar
    rng = random.Random(30)
    found = set()
    for k in range(5, 8):
        gens = family_generators(PLANAR_PARTITION, k)
        for _ in range(200):
            product = rng.choice(gens)
            for g in rng.choices(gens, k=5):
                product = concat(product, g).product
            for d in (random_diagram(rng, k), product):
                planar = is_planar(d)
                assert planar == reference_is_planar(d), d.text()
                found.add(planar)
    assert found == {True, False}


def test_concat_matches_reference_on_every_pair_up_to_k3():
    for k in range(1, 4):
        basis = enumerate_basis("Partition", k)
        for d1 in basis:
            for d2 in basis:
                assert tuple(concat(d1, d2)) == reference_concat(d1, d2)


def random_diagram(rng, k):
    """A seeded set partition of {1..2k}: each vertex draws a block label."""
    blocks = {}
    for v in range(1, 2 * k + 1):
        blocks.setdefault(rng.randrange(2 * k), []).append(v)
    return Diagram(k, blocks.values())


def twins(x):
    """A shallow copy, a deep copy and a pickle round trip of x, each
    checked equal to x."""
    out = (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x)))
    for twin in out:
        assert type(twin) is type(x) and twin == x and hash(twin) == hash(x)
    return out


def test_concat_matches_reference_on_seeded_pairs_at_k4_and_k5():
    rng = random.Random(20181808)
    for k, family in ((4, PARTITION), (5, ROOK_BRAUER)):
        products = []
        for i in range(10_000):
            d1, d2 = random_diagram(rng, k), random_diagram(rng, k)
            assert tuple(concat(d1, d2)) == reference_concat(d1, d2)
            if i % 5 == 0:
                # one object, its block layout cached, on both sides
                assert tuple(concat(d1, d1)) == reference_concat(d1, d1)
            products.append(concat(d1, d2).product)
        # products and listed (_canonical) diagrams fed back in as factors,
        # first with their layouts fresh, then cached
        listed = enumerate_basis(family, k)
        for _ in range(2_000):
            p, d = rng.choice(products), rng.choice(listed)
            for x, y in ((p, d), (d, p), (d, d), (p, p)):
                assert tuple(concat(x, y)) == reference_concat(x, y)
        # copies of a diagram whose layout is cached are the same diagram
        for d in (products[-1], listed[-1]):
            concat(d, d)
            assert hasattr(d, "_owner")
            for twin in twins(d):
                assert tuple(concat(twin, d)) == reference_concat(d, d)
        # and the other immutable values copy through their constructors
        poly = LaurentPoly({-1: Fraction(1, 2), 2: 3})
        twins(poly)
        twins(Element(k, family, {listed[-1]: poly, listed[0]: 1}))
        twins(enumerate_symmetric(family, k, 1)[-1])
        twins(enumerate_sspt(family, k, (1,))[-1])


@lru_cache(maxsize=None)
def restricted_growth_partitions(n):
    """Every set partition of {1..n}, from its restricted growth string:
    vertex 1 opens block 0, and each later vertex joins a block opened
    before it or opens the next one."""
    found = [()]
    for v in range(1, n + 1):
        found = [
            p[:i] + (p[i] + (v,),) + p[i + 1 :] if i < len(p) else p + ((v,),)
            for p in found
            for i in range(len(p) + 1)
        ]
    return found


def reference_has_shape(blocks, k, family):
    """The four block facts of the family, checked one by one."""
    pairs, singles, across, planar = _SHAPES[family]
    if pairs and any(len(b) > 2 for b in blocks):
        return False
    if pairs and not singles and any(len(b) == 1 for b in blocks):
        return False
    if across and any(len(b) == 2 and (b[0] <= k) == (b[1] <= k) for b in blocks):
        return False
    return not planar or reference_is_planar(Diagram(k, blocks))


def reference_enumerate_basis(family, k):
    """Every set partition of the 2k vertices with the family's shape,
    validated and sorted as Diagram objects."""
    return sorted(
        Diagram(k, blocks)
        for blocks in restricted_growth_partitions(2 * k)
        if reference_has_shape(blocks, k, family)
    )


def test_enumerate_basis_matches_validating_reference():
    for family in FAMILIES:
        for k in range(1, 6 if _SHAPES[family].pairs else 5):
            basis = enumerate_basis(family, k)
            assert basis == reference_enumerate_basis(family, k), (family, k)
            assert all(Diagram(k, d.blocks) == d for d in basis), (family, k)
            assert all(a < b for a, b in zip(basis, basis[1:])), (family, k)


def test_pair_family_bases_at_k6_count_order_and_check():
    # past the references' k=5: enumerate_basis wraps its covers without
    # checking them, so a seeded sample goes back through the checking
    # constructor (about 180,000 diagrams over the seven families)
    rng = random.Random(6)
    for family in FAMILIES:
        if not _SHAPES[family].pairs:
            continue
        basis = enumerate_basis(family, 6)
        assert len(basis) == algebra_dim(family, 6), family
        blocks = [d.blocks for d in basis]
        assert all(a < b for a, b in zip(blocks, blocks[1:])), family
        for d in rng.sample(basis, min(2000, len(basis))):
            assert Diagram(6, d.blocks) == d, (family, d)


def reference_set_partitions(n):
    """Recursive generator: each element joins an existing block or opens
    a new one, as set_partitions once was."""
    if n == 0:
        yield ()
        return
    blocks = []

    def rec(i):
        if i > n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(1)


def reference_matchings(k, points, singles, across, planar):
    """Recursive generator chains, as _matchings once was."""

    def cover(points):
        if not points:
            yield ()
            return
        first, rest = points[0], points[1:]
        if singles:
            for tail in cover(rest):
                yield ((first,),) + tail
        for idx, partner in enumerate(rest):
            if across and (first <= k) == (partner <= k):
                continue
            pair = ((first, partner) if first < partner else (partner, first),)
            if planar:
                for inner in cover(rest[:idx]):
                    for outer in cover(rest[idx + 1 :]):
                        yield pair + inner + outer
            else:
                for tail in cover(rest[:idx] + rest[idx + 1 :]):
                    yield pair + tail

    return cover(points)


def reference_noncrossing(points):
    """Recursive generator chains, as _noncrossing once was."""

    def cover(points):
        if not points:
            yield ()
            return
        yield from grow((points[0],), points[1:])

    def grow(block, rest):
        ended = (tuple(sorted(block)),)
        for tail in cover(rest):
            yield ended + tail
        for idx, nxt in enumerate(rest):
            for inner in cover(rest[:idx]):
                for outer in grow(block + (nxt,), rest[idx + 1 :]):
                    yield inner + outer

    return cover(points)


def test_list_generators_match_the_recursive_ones_in_order():
    # _covers gives the old non-planar lists in their order, which
    # enumerate_basis keeps; a planar reference covers the points in
    # boundary order, so its covers are put in canonical form and order
    # before they are compared, in order, with the ascending listing
    for family in FAMILIES:
        shape = _SHAPES[family]
        pairs, singles, across, planar = shape
        for k in range(1, 6 if pairs else 5):
            tops = tuple(range(1, k + 1))
            points = tuple(range(1, 2 * k + 1))
            bottom = range(2 * k, k, -1) if planar else range(k + 1, 2 * k + 1)
            ref = tops + tuple(bottom)
            if pairs:
                cases = ((points, ref, singles), (tops, tops, True))
                for pts, ref_pts, single in cases:
                    found = _covers(k, pts, shape._replace(singles=single))
                    expected = list(
                        reference_matchings(k, ref_pts, single, across, planar)
                    )
                    assert type(found) is list, (family, k)
                    if planar:
                        expected = sorted(tuple(sorted(c)) for c in expected)
                    assert found == expected, (family, k, pts)
            elif planar:
                found = _covers(k, points, shape)
                expected = reference_noncrossing(ref)
                assert found == sorted(tuple(sorted(c)) for c in expected), k
            else:
                for n in (k, 2 * k):
                    found = _covers(k, tuple(range(1, n + 1)), shape)
                    assert type(found) is list, n
                    assert found == sorted(reference_set_partitions(n)), n
                    assert all(a < b for a, b in zip(found, found[1:])), n


def test_noncrossing_partitions_are_counted_by_catalan():
    shape = _SHAPES[PLANAR_PARTITION]
    for k in range(1, 6):
        found = _covers(k, tuple(range(1, 2 * k + 1)), shape)
        assert len(set(found)) == len(found) == catalan(2 * k), k


def test_format_diagram_matches_vertex_name_join():
    for k in range(1, 5):
        for d in enumerate_basis(PARTITION, k):
            old = " | ".join(
                " ".join(vertex_name(v, k) for v in b) for b in d.blocks
            )
            assert format_diagram(d) == old


def reference_symmetric_candidates(family, k, m):
    """Every partial matching of the top, kept when it has m singles, as the
    families without one-vertex blocks were once generated."""
    shape = _SHAPES[family]._replace(singles=True, planar=False)
    for top in _covers(k, tuple(range(1, k + 1)), shape):
        ends = [b for b in top if len(b) == 1]
        if len(ends) == m:
            yield SymmetricMDiagram(k, top, ends)


def crosses(top):
    """Whether two blocks of top cross: a < b < c < d with a, c in one
    block and b, d in another."""
    return any(
        a < b < c < d
        for x in top
        for y in top
        if y != x
        for a, c in combinations(x, 2)
        for b, d in combinations(y, 2)
    )


def test_symmetric_tops_with_exactly_m_singles_match_the_filter():
    # a planar family's candidates are those with a non-crossing top
    for family in (BRAUER, TEMPERLEY_LIEB, SYMMETRIC_GROUP):
        planar = _SHAPES[family].planar
        for k in range(1, 9):
            for m in rank_set(family, k):
                found = _symmetric_candidates(family, k, m)
                expected = [
                    w for w in reference_symmetric_candidates(family, k, m)
                    if not planar or not crosses(w.top)
                ]
                assert found == sorted((w.top, w.propagating) for w in expected), (
                    family,
                    k,
                    m,
                )
                kept = sorted(
                    w for w in expected
                    if not planar or is_planar(w.to_diagram())
                )
                assert list(_enumerate_symmetric(family, k, m)) == kept, (
                    family,
                    k,
                    m,
                )


@lru_cache(maxsize=None)
def pair_crosses(k, pair):
    """crosses on a pair of blocks, read in the boundary order 1..k, k'..1'."""
    return crosses([sorted(v if v <= k else 3 * k + 1 - v for v in b) for b in pair])


def test_every_shape_lists_canonical_covers_in_order_and_planar_ones_by_filter():
    # one listing rule for every shape: ascending points give canonical
    # covers in strictly increasing order, and a planar shape's list is its
    # non-planar twin's list without the covers with two blocks that cross.
    # The points: every vertex, the top row, and each top-row subset that
    # _symmetric_candidates covers (a shape met twice is checked once)
    cases = {}
    for family in FAMILIES:
        base = _SHAPES[family]
        for shape in (base, base._replace(singles=True)):
            for k in range(1, 7 if shape.pairs else 6):
                tops = tuple(range(1, k + 1))
                cases[shape, k, tuple(range(1, 2 * k + 1))] = family
                cases[shape, k, tops] = family
                if base.pairs and not base.singles:
                    for m in rank_set(family, k):
                        for ends in combinations(tops, m):
                            rest = tuple(v for v in tops if v not in ends)
                            cases[shape, k, rest] = family
    for (shape, k, points), family in cases.items():
        where = (family, shape.singles, k, points)
        found = _covers(k, points, shape)
        # canonical: blocks ascending, in order, covering the points once
        for block in set(chain.from_iterable(found)):
            assert list(block) == sorted(block), where
        for cover in found:
            assert cover == tuple(sorted(cover)), where
            assert sorted(chain.from_iterable(cover)) == list(points), where
        assert all(a < b for a, b in zip(found, found[1:])), where
        if shape.planar:
            twin = _covers(k, points, shape._replace(planar=False))
            assert found == [
                c for c in twin
                if not any(map(pair_crosses, repeat(k), combinations(c, 2)))
            ], where


def reference_roots(size, groups):
    """The root of every node 0..size-1 once the nodes of each group are
    joined: a plain union-find, independent of the library's kernel."""
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for group in groups:
        ra = find(group[0])
        for v in group[1:]:
            rv = find(v)
            if rv != ra:
                parent[rv] = ra
    return [find(v) for v in range(size)]


def test_fuse_roots_split_the_nodes_as_the_reference_does():
    # d's blocks are nodes 0..n-1 and the lower layer's count nodes follow;
    # middle vertex j joins d's block at bottom k + j to below[j-1]
    rng = random.Random(20181837)
    for family in FAMILIES:
        for k in range(1, 6):
            # basis diagrams where the listing is small, words above
            basis = enumerate_basis(family, k) if k <= 3 else None
            for i in range(40):
                d = rng.choice(basis) if basis else random_word(rng, family, k)
                count = rng.randint(1, k)
                if i % 2:
                    # onto: every lower node meets d
                    below = list(range(count))
                    below += [rng.randrange(count) for _ in range(k - count)]
                    rng.shuffle(below)
                else:
                    # a node that meets nothing, as d2's bottom-only blocks
                    below = [rng.randrange(count) for _ in range(k)]
                lower = [rng.randrange(count) for _ in range(rng.randint(0, 2 * k))]
                outer = rng.randint(k, k + len(lower))
                roots, blocks, middle = _fuse(d, below, count, lower, outer)
                n = len(d.blocks)
                owner = {v: b for b, block in enumerate(d.blocks) for v in block}
                expected = reference_roots(
                    n + count,
                    [(owner[k + j], n + c) for j, c in enumerate(below, 1)],
                )
                nodes = [owner[v] for v in range(1, k + 1)]
                nodes += [n + c for c in lower]
                where = (d.text(), below, lower)
                assert len(roots) == len(nodes) + 1, where
                # equal roots exactly where the reference's roots are equal
                pairs = set(zip(roots[1:], (expected[x] for x in nodes)))
                assert len(pairs) == len(set(roots[1:])), where
                assert len(pairs) == len({r for _, r in pairs}), where
                # the outer nodes 1..outer grouped by the reference's roots,
                # ascending and ordered by least node; the other components
                # lay in the middle
                groups = {}
                for v in range(1, outer + 1):
                    groups.setdefault(expected[nodes[v - 1]], []).append(v)
                assert list(blocks.values()) == list(groups.values()), where
                assert middle == len(set(expected)) - len(groups), where


def reference_conjugate(d, w):
    """The full stack d w d^T over four layers of k nodes, read back through
    a validating Diagram, as conjugation was before it used the top half."""
    k = d.k
    # layers: result top (v), top of w (k+v), bottom of w (2k+v), result
    # bottom (3k+v); d spans the first two and its mirror the last two
    groups = list(d.blocks)
    groups += [
        tuple(3 * k + v if v <= k else v + k for v in block)
        for block in d.blocks
    ]
    prop = set(w.propagating)
    for b in w.top:
        above = tuple(k + v for v in b)
        below = tuple(2 * k + v for v in b)
        groups.append(above + below if b in prop else above)
        groups.append(below)
    root = reference_roots(4 * k + 1, groups)
    components = {}
    for v in range(1, 4 * k + 1):
        components.setdefault(root[v], []).append(v)
    out_blocks = []
    deleted = 0
    for members in components.values():
        outer = [v for v in members if v <= k or v > 3 * k]
        if outer:
            out_blocks.append(
                tuple(v if v <= k else v - 2 * k for v in outer)
            )
        elif all(k < v <= 2 * k for v in members):
            deleted += 1
    w_prime = SymmetricMDiagram.from_diagram(Diagram(k, out_blocks))
    twist = None
    if w_prime.m == w.m:
        new_props = w_prime.prop_max_order()
        root_of_new = {root[b[0]]: j + 1 for j, b in enumerate(new_props)}
        twist = tuple(root_of_new[root[k + b[0]]] for b in w.prop_max_order())
    return w_prime, w_prime.m, deleted, twist


def reference_act_tableau(d, tab):
    """Per-component bookkeeping and a validating SetPartitionTableau, as
    the action on tableaux was before it shared the stack with
    conjugation."""
    k = d.k
    body = tab.body_blocks()
    root = reference_roots(
        2 * k + 1,
        d.blocks
        + tuple(tuple(k + v for v in b) for b in tab.first_row + tuple(body)),
    )
    components = {}
    for v in range(1, k + 1):
        components.setdefault(root[v], {"top": [], "props": []})[
            "top"
        ].append(v)
    for block in tab.first_row:
        components.setdefault(root[k + block[0]], {"top": [], "props": []})
    for idx, block in enumerate(body):
        comp = components.setdefault(
            root[k + block[0]], {"top": [], "props": []}
        )
        comp["props"].append(idx)
    cell_of = {}
    pos = 0
    for r, row in enumerate(tab.body):
        for c in range(len(row)):
            cell_of[pos] = (r, c)
            pos += 1
    new_body = [[None] * len(row) for row in tab.body]
    first_row = []
    deleted = 0
    for comp in components.values():
        top = tuple(sorted(comp["top"]))
        props = comp["props"]
        if len(props) >= 2:
            return None, 0
        if props:
            if not top:
                return None, 0
            r, c = cell_of[props[0]]
            new_body[r][c] = top
        elif top:
            first_row.append(top)
        else:
            deleted += 1
    return (
        SetPartitionTableau(k, first_row, [tuple(row) for row in new_body]),
        deleted,
    )


def assert_conjugate_matches_reference(d, w):
    res = conjugate(d, w)
    w_prime, m_prime, deleted, twist = reference_conjugate(d, w)
    assert (
        res.w_prime.top,
        res.w_prime.propagating,
        res.m_prime,
        res.deleted,
        res.twist,
    ) == (w_prime.top, w_prime.propagating, m_prime, deleted, twist), (
        d.text(),
        w.text(),
    )


def assert_keyed(tab):
    """tab carries its stack key: its blocks in canonical order."""
    assert tab._top == tuple(sorted(chain(tab.first_row, *tab.body))), tab


def assert_act_tableau_matches_reference(d, tab):
    moved, deleted = act_tableau(d, tab)
    expected, expected_deleted = reference_act_tableau(d, tab)
    if expected is None:
        assert moved is None, (d.text(), tab.text())
    else:
        assert_keyed(moved)
        assert (moved.first_row, moved.body) == (
            expected.first_row,
            expected.body,
        ), (d.text(), tab.text())
    assert deleted == expected_deleted, (d.text(), tab.text())


def module_vectors(family, k):
    """Every symmetric diagram and every standard set-partition tableau of
    the family at k, over all ranks and labels."""
    ws = [w for m in rank_set(family, k) for w in enumerate_symmetric(family, k, m)]
    tabs = [
        tab
        for lam in lambda_star_labels(family, k)
        for tab in enumerate_sspt(family, k, lam)
    ]
    return ws, tabs


def test_conjugate_and_act_tableau_match_reference_up_to_k3():
    for family in FAMILIES:
        for k in range(1, 4):
            ws, tabs = module_vectors(family, k)
            for d in enumerate_basis(family, k):
                for w in ws:
                    assert_conjugate_matches_reference(d, w)
                for tab in tabs:
                    assert_act_tableau_matches_reference(d, tab)


def random_word(rng, family, k):
    """The product of a seeded word of one to k generators of the family."""
    gens = family_generators(family, k)
    d = rng.choice(gens)
    for _ in range(rng.randrange(k)):
        d = concat(d, rng.choice(gens)).product
    return d


def test_conjugate_and_act_tableau_match_reference_on_seeded_samples():
    rng = random.Random(20181807)
    for family in FAMILIES:
        for k in (4, 5, 6):
            ws, tabs = module_vectors(family, k)
            for _ in range(120):
                d = random_word(rng, family, k)
                assert_conjugate_matches_reference(d, rng.choice(ws))
                assert_act_tableau_matches_reference(d, rng.choice(tabs))
    # Partition diagrams of every shape, not only products of generators
    ws, tabs = module_vectors(PARTITION, 5)
    for _ in range(800):
        d = random_diagram(rng, 5)
        assert_conjugate_matches_reference(d, rng.choice(ws))
        assert_act_tableau_matches_reference(d, rng.choice(tabs))


def test_cached_tableau_basis_matches_enumerate_sspt():
    # enumerate_sspt reads the cached basis, so both are checked against
    # the pairs (w outer, tableau inner) built here
    for family in FAMILIES:
        for k in range(1, 6):
            for lam in lambda_star_labels(family, k):
                expected = [
                    tableau_from_pair(w, t)
                    for w in enumerate_symmetric(family, k, sum(lam))
                    for t in standard_tableaux(lam)
                ]
                tabs = _module_basis(family, k, lam, TABLEAU).vectors
                assert list(tabs) == expected, (family, k, lam)
                assert enumerate_sspt(family, k, lam) == expected
                assert len(set(tabs)) == len(tabs), (family, k, lam)


def test_tableau_from_pair_equals_the_checking_constructors_tableau():
    # the tableau of (w, t) is made from w's blocks, checking nothing; the
    # constructor checks and sorts the same blocks
    built = 0
    for family in FAMILIES:
        for k in range(1, 5):
            for lam in lambda_star_labels(family, k):
                for w in enumerate_symmetric(family, k, sum(lam)):
                    prop = w.prop_max_order()
                    first = [b for b in w.top if b not in prop]
                    for t in standard_tableaux(lam):
                        tab = tableau_from_pair(w, t)
                        rows = [[prop[i - 1] for i in row] for row in t]
                        checked = SetPartitionTableau(k, first, rows)
                        assert tab == checked, (family, k, lam, w, t)
                        assert tab._top == checked._top == w.top
                        assert_keyed(tab)
                        built += 1
    assert built == 620, built


def test_every_basis_tableau_keys_its_stack_by_its_symmetric_diagrams_top():
    # every cache emptied at once, so the tableaux and the symmetric
    # diagrams whose tops they key by come from one build
    clear_caches()
    for family in FAMILIES:
        for k in range(1, 6):
            for lam in lambda_star_labels(family, k):
                size = len(standard_tableaux(lam))
                ws = enumerate_symmetric(family, k, sum(lam))
                tabs = _module_basis(family, k, lam, TABLEAU).vectors
                for i, tab in enumerate(tabs):
                    assert tab._top is ws[i // size].top, (family, k, lam, i)


def random_tableau(rng, k):
    """A tableau through the checking constructor: a seeded set partition of
    {1..k}, blocks written in any order, a random number of them in random
    cells of a random partition shape (so the body need not be standard),
    the rest in the first row in any order."""
    blocks = {}
    for v in range(1, k + 1):
        blocks.setdefault(rng.randrange(k), []).append(v)
    blocks = [rng.sample(b, len(b)) for b in blocks.values()]
    rng.shuffle(blocks)
    m = rng.randrange(len(blocks) + 1)
    body, rows = blocks[:m], []
    while body:
        size = rng.randint(1, min(len(body), len(rows[-1]) if rows else m))
        rows.append(body[:size])
        body = body[size:]
    return SetPartitionTableau(k, blocks[m:], rows)


def test_act_tableau_matches_reference_on_tableaux_the_basis_did_not_build():
    # a constructed tableau, and a copy or a pickle of a basis tableau,
    # carry their own stack key, as the tableau each action returns does
    rng = random.Random(20181828)
    built = non_standard = 0

    def check(d, tabs):
        nonlocal built, non_standard
        for tab in [random_tableau(rng, d.k) for _ in range(2)]:
            assert_keyed(tab)
            non_standard += not tab.is_standard()
            assert_act_tableau_matches_reference(d, tab)
            built += 1
        for twin in twins(rng.choice(tabs)):
            assert_keyed(twin)
            assert_act_tableau_matches_reference(d, twin)
            built += 1

    for family in FAMILIES:
        for k in range(1, 5):
            tabs = module_vectors(family, k)[1]
            if k < 4:
                ds = enumerate_basis(family, k)
            else:
                ds = [random_word(rng, family, k) for _ in range(60)]
            for d in ds:
                check(d, tabs)
    for k in (5, 6):
        tabs = module_vectors(PARTITION, k)[1]
        for _ in range(150):
            check(random_diagram(rng, k), tabs)
            check(random_word(rng, PARTITION, k), tabs)
    assert built == 8_825 and non_standard > 800, (built, non_standard)


def five_values():
    """One value of each immutable type, with the names of its fields."""
    d = enumerate_basis(BRAUER, 3)[-1]
    poly = LaurentPoly({-1: Fraction(1, 2), 2: 3})
    return [
        (d, ("k", "blocks")),
        (enumerate_symmetric(BRAUER, 3, 1)[0], ("k", "top", "propagating")),
        (enumerate_sspt(BRAUER, 3, (1,))[0], ("k", "first_row", "body")),
        (poly, ("terms",)),
        (Element(3, BRAUER, {d: poly}), ("k", "family", "combo")),
    ]


def test_no_field_of_a_value_can_be_set_or_deleted():
    for value, fields in five_values():
        before = copy.copy(value)
        message = "^%s is immutable$" % type(value).__name__
        for name in fields:
            with pytest.raises(AttributeError, match=message):
                delattr(value, name)
            with pytest.raises(AttributeError, match=message):
                setattr(value, name, None)
        assert value == before and hash(value) == hash(before)
        assert type(value)._fields == fields


@pytest.mark.parametrize(
    "index",
    range(4),
    ids=["Diagram", "SymmetricMDiagram", "SetPartitionTableau", "LaurentPoly"],
)
def test_make_wraps_the_fields_of_a_checked_value_into_the_same_value(index):
    value, fields = five_values()[index]
    cls = type(value)
    values = tuple(getattr(value, name) for name in fields)
    # a tableau is made with its stack key, which is no field; a diagram is
    # only ever made in bulk
    key = (value._top,) if cls is SetPartitionTableau else ()
    if cls is Diagram:
        made = Diagram._make_all(1, (value.k,), (value.blocks,))[0]
    else:
        made = cls._make(*values, *key)
    assert type(made) is cls and made == value and hash(made) == hash(value)
    assert cls._key(made) == cls._key(value)
    message = "^%s is immutable$" % cls.__name__
    for name in fields:
        with pytest.raises(AttributeError, match=message):
            setattr(made, name, None)
        with pytest.raises(AttributeError, match=message):
            delattr(made, name)
    assert made.__reduce__() == (cls, values)
    assert pickle.loads(pickle.dumps(made)) == value
    assert copy.copy(made) == value
    if key:
        assert made._top is value._top
        for tab in (made, *twins(made)):
            assert_keyed(tab)


def test_make_all_wraps_symmetric_diagrams_as_the_checking_constructor_does():
    pairs = [(w.top, w.propagating) for w in enumerate_symmetric(ROOK_BRAUER, 4, 2)]
    checked = [SymmetricMDiagram(4, top, prop) for top, prop in pairs]
    made = SymmetricMDiagram._make_all(len(pairs), repeat(4), *zip(*pairs))
    assert all(type(w) is SymmetricMDiagram for w in made)
    assert made == checked and list(map(hash, made)) == list(map(hash, checked))
    assert SymmetricMDiagram._make_all(0, repeat(4)) == []


def test_del_cannot_poison_a_cached_symmetric_diagram():
    ws = enumerate_symmetric(BRAUER, 3, 1)
    with pytest.raises(AttributeError, match="immutable"):
        del ws[0].top
    assert ws[0].top == ((1,), (2, 3))
    assert enumerate_symmetric(BRAUER, 3, 1)[0] is ws[0]
    for d in enumerate_basis(BRAUER, 3):
        for basis in ("Twisted", TABLEAU):
            assert len(rep_columns(d, BRAUER, 3, (1,), basis)) == len(ws)


def test_owner_cache_takes_no_part_in_equality_order_or_pickle():
    blocks = ((1, 5), (2, 3), (4, 6))
    cached, fresh = Diagram(3, blocks), Diagram(3, blocks)
    _block_owner(cached)
    assert hasattr(cached, "_owner") and not hasattr(fresh, "_owner")
    assert cached == fresh and hash(cached) == hash(fresh)
    assert not cached < fresh and not fresh < cached
    assert pickle.dumps(cached) == pickle.dumps(fresh)
    assert not hasattr(pickle.loads(pickle.dumps(cached)), "_owner")
    assert cached.__reduce__() == (Diagram, (3, blocks))


def test_tableau_key_takes_no_part_in_equality_order_copy_or_pickle():
    # a basis tableau shares its symmetric diagram's top as its key; a
    # tableau constructed from the same fields, a copy, a pickle and every
    # tableau an action or tableau_from_pair returns carry an equal key
    # of their own (both caches from one build, as above)
    clear_caches()
    tabs = enumerate_sspt(PARTITION, 3, (1,))
    fresh = [SetPartitionTableau(t.k, t.first_row, t.body) for t in tabs]
    ws = enumerate_symmetric(PARTITION, 3, 1)
    gens = family_generators(PARTITION, 3)
    for w, listed, built in zip(ws, tabs, fresh):
        assert listed._top is w.top and built._top is not w.top
        assert listed == built and hash(listed) == hash(built)
        assert not listed < built and not built < listed
        assert [listed < t for t in fresh] == [built < t for t in tabs]
        assert listed.__reduce__() == built.__reduce__()
        assert pickle.dumps(listed) == pickle.dumps(built)
        paired = tableau_from_pair(w, ((1,),))
        assert paired == listed and paired._top is w.top
        moved = [act_tableau(d, listed)[0] for d in gens]
        moved = [t for t in moved if t is not None]
        moved += [t for d in gens for t in act_natural(d, {listed: 1})]
        assert moved
        for tab in (listed, built, *twins(listed), *twins(built), *moved):
            assert_keyed(tab)


def test_values_of_one_type_order_by_their_fields():
    ws = enumerate_symmetric(PARTITION, 3, 1)
    tabs = enumerate_sspt(PARTITION, 3, (1,))
    ds = enumerate_basis(PARTITION, 2)
    for values, key in (
        (ws, lambda w: (w.k, w.top, w.propagating)),
        (tabs, lambda t: (t.k, t.first_row, t.body)),
        (ds, lambda d: (d.k, d.blocks)),
    ):
        shuffled = list(values)
        random.Random(15).shuffle(shuffled)
        assert sorted(shuffled) == sorted(values, key=key)
    with pytest.raises(TypeError):
        ds[0] < ws[0]
    with pytest.raises(TypeError):
        ds[0] < (2, ds[0].blocks)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Diagram(2, [(), (1, 2)]),
        lambda: SymmetricMDiagram(2, [(), (1,)], []),
        lambda: SetPartitionTableau(2, [(), (1,)], []),
    ],
    ids=["Diagram", "SymmetricMDiagram", "SetPartitionTableau"],
)
def test_an_empty_block_is_refused_before_the_cover(make):
    # neither a cover of {1..n} nor free of empty blocks
    with pytest.raises(ValueError, match="^blocks must not be empty$"):
        make()
