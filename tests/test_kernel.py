"""The stacking kernel, the planarity scan, family membership and basis
enumeration against the reference implementations they replaced."""

import copy
import pickle
import random
from fractions import Fraction
from functools import lru_cache

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
    _matchings,
    _noncrossing,
    concat,
    family_generators,
    enumerate_basis,
    format_diagram,
    in_family,
    is_planar,
    set_partitions,
    vertex_name,
)
from diagramalg.irreps import (
    TABLEAU,
    SetPartitionTableau,
    SymmetricMDiagram,
    _enumerate_symmetric,
    _module_basis,
    _symmetric_candidates,
    act_tableau,
    conjugate,
    enumerate_sspt,
    enumerate_symmetric,
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
    for family in FAMILIES:
        pairs, singles, across, planar = _SHAPES[family]
        for k in range(1, 6 if pairs else 5):
            tops = tuple(range(1, k + 1))
            bottom = range(2 * k, k, -1) if planar else range(k + 1, 2 * k + 1)
            points = tops + tuple(bottom)
            if pairs:
                for pts, single in ((points, singles), (tops, True)):
                    found = _matchings(k, pts, single, across, planar)
                    expected = list(
                        reference_matchings(k, pts, single, across, planar)
                    )
                    assert type(found) is list, (family, k)
                    assert found == expected, (family, k, pts)
            elif planar:
                found = _noncrossing(points)
                assert found == list(reference_noncrossing(points)), k
            else:
                for n in (k, 2 * k):
                    found = set_partitions(n)
                    assert type(found) is list, n
                    assert found == sorted(reference_set_partitions(n)), n
                    assert all(a < b for a, b in zip(found, found[1:])), n


def test_noncrossing_partitions_are_counted_by_catalan():
    for k in range(1, 6):
        found = list(_noncrossing(tuple(range(1, 2 * k + 1))))
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
    across = _SHAPES[family].across
    for top in _matchings(k, tuple(range(1, k + 1)), True, across, False):
        ends = [b for b in top if len(b) == 1]
        if len(ends) == m:
            yield SymmetricMDiagram(k, top, ends)


def test_symmetric_tops_with_exactly_m_singles_match_the_filter():
    for family in (BRAUER, TEMPERLEY_LIEB, SYMMETRIC_GROUP):
        planar = _SHAPES[family].planar
        for k in range(1, 9):
            for m in rank_set(family, k):
                found = list(_symmetric_candidates(family, k, m))
                expected = list(reference_symmetric_candidates(family, k, m))
                assert sorted(found) == sorted(expected), (family, k, m)
                kept = sorted(
                    w for w in expected
                    if not planar or is_planar(w.to_diagram())
                )
                assert list(_enumerate_symmetric(family, k, m)) == kept, (
                    family,
                    k,
                    m,
                )


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


def assert_act_tableau_matches_reference(d, tab):
    moved, deleted = act_tableau(d, tab)
    expected, expected_deleted = reference_act_tableau(d, tab)
    if expected is None:
        assert moved is None, (d.text(), tab.text())
    else:
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
                tabs, index = _module_basis(family, k, lam, TABLEAU)
                assert list(tabs) == expected, (family, k, lam)
                assert enumerate_sspt(family, k, lam) == expected
                assert [index[tab] for tab in tabs] == list(range(len(tabs)))
