"""The stacking kernel, the planarity scan and family membership against
the reference implementations they replaced."""

import random

from diagramalg.diagrams import (
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
    concat,
    enumerate_basis,
    in_family,
    is_planar,
)


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


def test_concat_matches_reference_on_seeded_pairs_at_k4_and_k5():
    rng = random.Random(20181808)
    for k in (4, 5):
        for _ in range(10_000):
            d1, d2 = random_diagram(rng, k), random_diagram(rng, k)
            assert tuple(concat(d1, d2)) == reference_concat(d1, d2)
