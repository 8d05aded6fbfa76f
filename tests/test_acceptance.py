"""End-to-end acceptance checks.

Each test pins one headline capability: the published character tables
with their factorizations, fixed-point counts against brute force, trace
oracles against closed forms, dimension identities, symmetric-diagram
counts against all closed formulas, agreement of the two module bases,
multiplicativity of the representations, the worked action examples, and
the character table determinant identity.  All comparisons are exact.
The oracle sweeps call the runners of `verify` over their (family, k)
cells, so tier-1 and `verify` check each oracle with one loop.
"""

import random
import re
import time
import tracemalloc

from diagramalg import clear_caches, diagrams, oracles
from diagramalg.characters import (
    character_table,
    class_labels,
    f_coeff,
    fixed_points,
    table_determinant_check,
)
from diagramalg.coeff import LaurentPoly
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
    algebra_dim,
    enumerate_basis,
    generator,
    parse_diagram,
)
from diagramalg.irreps import (
    SetPartitionTableau,
    SymmetricMDiagram,
    act_natural,
    act_tableau,
    act_twisted,
    conjugate,
    enumerate_symmetric,
)
from diagramalg.partitions import lambda_star_labels, partitions, rank_set
from diagramalg.symrep import sym_character, sym_dim
from test_irreps import symmetric_count

N = LaurentPoly.monomial(1)
ONE = LaurentPoly.const(1)

XI_P3 = [
    [1, 1, 2, 2, 2, 3, 5],
    [0, 1, 1, 3, 1, 4, 10],
    [0, 0, 1, 1, 0, 2, 6],
    [0, 0, -1, 1, 0, 0, 6],
    [0, 0, 0, 0, 1, 1, 1],
    [0, 0, 0, 0, -1, 0, 2],
    [0, 0, 0, 0, 1, -1, 1],
]
XI_RB3 = [
    [1, 1, 2, 2, 1, 2, 4],
    [0, 1, 0, 2, 0, 2, 6],
    [0, 0, 1, 1, 0, 1, 3],
    [0, 0, -1, 1, 0, -1, 3],
    [0, 0, 0, 0, 1, 1, 1],
    [0, 0, 0, 0, -1, 0, 2],
    [0, 0, 0, 0, 1, -1, 1],
]
XI_R3 = [
    [1, 1, 1, 1, 1, 1, 1],
    [0, 1, 0, 2, 0, 1, 3],
    [0, 0, 1, 1, 0, 1, 3],
    [0, 0, -1, 1, 0, -1, 3],
    [0, 0, 0, 0, 1, 1, 1],
    [0, 0, 0, 0, -1, 0, 2],
    [0, 0, 0, 0, 1, -1, 1],
]
XI_B4 = [
    [1, 1, 1, 1, 0, 3, 1, 3],
    [0, 1, 1, 0, 0, 2, 2, 6],
    [0, -1, 1, 0, 0, -2, 0, 6],
    [0, 0, 0, 1, 1, 1, 1, 1],
    [0, 0, 0, -1, 0, -1, 1, 3],
    [0, 0, 0, 0, -1, 2, 0, 2],
    [0, 0, 0, 1, 0, -1, -1, 3],
    [0, 0, 0, -1, 1, 1, -1, 1],
]
F_P3 = [
    [1, 1, 2, 2, 2, 3, 5],
    [0, 1, 1, 3, 1, 4, 10],
    [0, 0, 1, 0, 0, 1, 0],
    [0, 0, 0, 1, 0, 1, 6],
    [0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 1],
]
F_RB3 = [
    [1, 1, 2, 2, 1, 2, 4],
    [0, 1, 0, 2, 0, 2, 6],
    [0, 0, 1, 0, 0, 1, 0],
    [0, 0, 0, 1, 0, 0, 3],
    [0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 1],
]
F_R3 = [
    [1, 1, 1, 1, 1, 1, 1],
    [0, 1, 0, 2, 0, 1, 3],
    [0, 0, 1, 0, 0, 1, 0],
    [0, 0, 0, 1, 0, 0, 3],
    [0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 1],
]
F_B4 = [
    [1, 1, 1, 1, 0, 3, 1, 3],
    [0, 1, 0, 0, 0, 2, 1, 0],
    [0, 0, 1, 0, 0, 0, 1, 6],
    [0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
]
LABELS_3 = [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
LABELS_B4 = [
    (), (2,), (1, 1), (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
]
PUBLISHED = [
    (PARTITION, 3, LABELS_3, XI_P3, F_P3),
    (ROOK_BRAUER, 3, LABELS_3, XI_RB3, F_RB3),
    (ROOK, 3, LABELS_3, XI_R3, F_R3),
    (BRAUER, 4, LABELS_B4, XI_B4, F_B4),
]


def run_suite(suite, cells, rng=None, cases=None):
    """Run verify's runner for suite over each (family, k) of cells in
    turn, assert that it wrote no FAIL message, and return what its ok
    lines report."""
    runner = oracles._SUITES[suite][0]
    failed = []
    details = [runner(family, k, rng, cases, failed.append) for family, k in cells]
    assert failed == []
    return details


def test_published_character_tables_with_factorizations():
    start = time.monotonic()
    for family, k, labels, xi, f in PUBLISHED:
        table = character_table(family, k)
        assert table.row_labels == labels
        assert table.col_labels == labels
        assert table.values == xi
        fac = table.factor()
        assert fac.f_block == f
        size = len(labels)
        for i, lam in enumerate(labels):
            for j, mu in enumerate(labels):
                expected = (
                    sym_character(lam, mu) if sum(lam) == sum(mu) else 0
                )
                assert fac.s_block[i][j] == expected
        product = [
            [
                sum(fac.s_block[i][l] * fac.f_block[l][j] for l in range(size))
                for j in range(size)
            ]
            for i in range(size)
        ]
        assert product == xi
    assert time.monotonic() - start < 10.0


def test_fixed_point_spot_value_and_diagrams():
    start = time.monotonic()
    assert f_coeff("Partition", (2, 1), (1,)) == 4
    found = fixed_points("Partition", 3, 1, (2, 1))
    assert set(found[(1,)]) == {
        SymmetricMDiagram(3, [(1,), (2,), (3,)], [(3,)]),
        SymmetricMDiagram(3, [(1, 2, 3)], [(1, 2, 3)]),
        SymmetricMDiagram(3, [(1, 2), (3,)], [(1, 2)]),
        SymmetricMDiagram(3, [(1, 2), (3,)], [(3,)]),
    }
    assert len(found[(1,)]) == 4
    assert time.monotonic() - start < 1.0


def test_character_trace_oracle_equals_closed_form(monkeypatch):
    # past the default cap on the two partition families
    monkeypatch.setenv("DIAGRAMALG_CAP", str(algebra_dim(PARTITION, 6)))
    start = time.monotonic()
    details = run_suite(
        "trace-oracle", [(f, k) for f in FAMILIES for k in range(1, 7)]
    )
    assert sum(int(re.search(r"(\d+) cells", d)[1]) for d in details) == 5663
    assert time.monotonic() - start < 300.0


def test_fixed_point_counts_match_closed_formula(monkeypatch):
    monkeypatch.setenv("DIAGRAMALG_CAP", str(algebra_dim(PARTITION, 7)))
    start = time.monotonic()
    cells = [(f, k) for f in FAMILIES for k in range(1, 8)]
    # the runner's classes of size k: partitions(k) in order, the identity
    # class alone on a planar family
    for family, k in cells:
        assert [c for c in class_labels(family, k) if sum(c) == k] == (
            [(1,) * k] if _SHAPES[family].planar else list(partitions(k))
        )
    run_suite("fixedpoint-vs-formula", cells)
    assert time.monotonic() - start < 120.0


def test_wedderburn_dimension_sums():
    start = time.monotonic()
    ranges = {
        PARTITION: 4,
        BRAUER: 5,
        ROOK: 5,
        ROOK_BRAUER: 4,
        SYMMETRIC_GROUP: 5,
        TEMPERLEY_LIEB: 6,
        MOTZKIN: 6,
        PLANAR_ROOK: 6,
        PLANAR_PARTITION: 5,
    }
    assert algebra_dim(PARTITION, 4) == 4140
    assert algebra_dim(BRAUER, 5) == 945
    cells = [(f, k) for f, top in ranges.items() for k in range(1, top + 1)]
    run_suite("wedderburn", cells)
    for family, k in cells:
        assert len(enumerate_basis(family, k)) == algebra_dim(family, k), (family, k)
    assert time.monotonic() - start < 60.0


def test_closed_form_wedderburn_identity():
    # F at the identity class counts the symmetric diagrams and sym_dim
    # the tableaux, so the module dimensions need no listing
    for family in FAMILIES:
        for k in range(1, 13):
            total = sum(
                (f_coeff(family, (1,) * k, (1,) * sum(lam)) * sym_dim(lam))
                ** 2
                for lam in lambda_star_labels(family, k)
            )
            assert total == algebra_dim(family, k), (family, k)


def test_symmetric_diagram_counts_match_formulas():
    for family in FAMILIES:
        for k in range(1, 9):
            for m in rank_set(family, k):
                found = enumerate_symmetric(family, k, m)
                assert len(found) == symmetric_count(family, k, m), (
                    family, k, m,
                )
                assert len(set(found)) == len(found)


def test_twisted_and_tableau_bases_agree():
    # every generator on every module, and the zero action below rank m
    cells = [(f, k) for f in FAMILIES for k in range(1, 6)]
    run_suite("basis-equivalence", cells)


def test_ring_axioms_on_every_family():
    # 25 seeded triples at k=3, one Random(0) per family, as `verify --suite
    # ring-axioms --k 3 --family f` draws them
    for family in FAMILIES:
        run_suite("ring-axioms", [(family, 3)], random.Random(0), 25)


def test_ring_axioms_past_the_default_cap(monkeypatch):
    # under the deep cap (the Partition algebra at k=8), each family at the
    # largest k it admits: the suite draws by rank, so no listing is built
    cap = algebra_dim(PARTITION, 8)
    monkeypatch.setenv("DIAGRAMALG_CAP", str(cap))
    cells = [
        (PARTITION, 8), (PLANAR_PARTITION, 10), (BRAUER, 10), (ROOK_BRAUER, 9),
        (ROOK, 11), (TEMPERLEY_LIEB, 20), (MOTZKIN, 12), (PLANAR_ROOK, 18),
        (SYMMETRIC_GROUP, 13),
    ]
    assert all(algebra_dim(f, k) <= cap < algebra_dim(f, k + 1) for f, k in cells)
    clear_caches()
    tracemalloc.start()
    try:
        for cell in cells:
            run_suite("ring-axioms", [cell], random.Random(0), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 << 20


def test_representation_is_multiplicative():
    # one generator through every call: 1,800 seeded triples (a, b, lambda*)
    cells = [(f, k) for f in FAMILIES for k in (3, 4)]
    run_suite("module-axiom", cells, random.Random(20240816), 100)


def test_module_axiom_at_k5_on_every_family():
    # 25 seeded pairs at k=5, one Random(0) per family, as `verify --suite
    # module-axiom --k 5 --family f` draws them
    for family in FAMILIES:
        run_suite("module-axiom", [(family, 5)], random.Random(0), 25)


def test_the_axiom_suites_draw_without_listing_a_basis(monkeypatch):
    def listed(*args):
        raise AssertionError("a basis was listed")

    monkeypatch.setattr(diagrams, "enumerate_basis", listed)
    monkeypatch.setattr(diagrams, "_covers", listed)
    for suite in ("ring-axioms", "module-axiom"):
        run_suite(suite, [(PARTITION, 4)], random.Random(0), 25)


def test_worked_action_examples():
    d = parse_diagram(
        "1 5' | 2 2' | 3 1' 3' | 4 | 5 6 7 8' | 8 12 4' | 9 12' | 10 11"
        " | 13 13' | 6' | 7' | 9' 10' | 11'",
        13,
    )
    w = SymmetricMDiagram(
        13,
        [(1, 2), (3, 5, 6), (4,), (7, 13), (8, 9, 10), (11,), (12,)],
        [(1, 2), (4,), (8, 9, 10), (12,), (7, 13)],
    )
    w_prime = SymmetricMDiagram(
        13,
        [(1, 2, 3), (4,), (5, 6, 7), (8, 12), (9,), (10, 11), (13,)],
        [(1, 2, 3), (5, 6, 7), (9,), (8, 12), (13,)],
    )
    res = conjugate(d, w)
    assert (res.w_prime, res.m_prime, res.deleted) == (w_prime, 5, 1)
    assert res.twist == (1, 4, 2, 3, 5)

    t4 = ((1, 2, 4), (3, 5))
    t2 = ((1, 3, 4), (2, 5))
    t1 = ((1, 3, 5), (2, 4))
    assert act_twisted(d, {(w, t4): 1}) == {
        (w_prime, t2): N,
        (w_prime, t1): -N,
    }

    tab = SetPartitionTableau(
        13, [(3, 5, 6), (11,)], [((1, 2), (4,), (12,)), ((8, 9, 10), (7, 13))]
    )
    moved, deleted = act_tableau(d, tab)
    assert moved == SetPartitionTableau(
        13, [(4,), (10, 11)], [((1, 2, 3), (8, 12), (9,)), ((5, 6, 7), (13,))]
    )
    assert deleted == 1 and not moved.is_standard()
    assert act_natural(d, {tab: 1}) == {
        SetPartitionTableau(
            13,
            [(4,), (10, 11)],
            [((1, 2, 3), (9,), (8, 12)), ((5, 6, 7), (13,))],
        ): N,
        SetPartitionTableau(
            13,
            [(4,), (10, 11)],
            [((1, 2, 3), (9,), (13,)), ((5, 6, 7), (8, 12))],
        ): -N,
    }

    d_zero = parse_diagram(
        "1 2 5' | 3 6 4' | 4 2' 3' | 5 | 7 7' | 8 9 | 10 12 13 11'"
        " | 11 13' | 1' | 6' 8' 9' | 10' | 12'",
        13,
    )
    assert act_tableau(d_zero, tab) == (None, 0)
    assert act_natural(d_zero, {tab: 1}) == {}

    tp = SetPartitionTableau(
        9, [(1,), (5, 6)], [((4,), (2, 3, 8), (9,)), ((7,),)]
    )
    assert act_natural(generator("P", 1, 9), {tp: 1}) == {tp: N}
    assert act_natural(generator("P", 4, 9), {tp: 1}) == {}
    assert act_natural(generator("P", 5, 9), {tp: 1}) == {
        SetPartitionTableau(
            9, [(1,), (5,), (6,)], [((4,), (2, 3, 8), (9,)), ((7,),)]
        ): ONE
    }
    assert act_natural(generator("P", 8, 9), {tp: 1}) == {
        SetPartitionTableau(
            9, [(1,), (5, 6), (8,)], [((2, 3), (4,), (9,)), ((7,),)]
        ): ONE,
        SetPartitionTableau(
            9, [(1,), (5, 6), (8,)], [((2, 3), (7,), (9,)), ((4,),)]
        ): -ONE,
    }

    tb = SetPartitionTableau(
        10, [(6, 8), (1, 2, 9)], [((3,), (7,), (10,)), ((4, 5),)]
    )
    assert act_natural(generator("B", 1, 10), {tb: 1}) == {tb: ONE}
    assert act_natural(generator("B", 4, 10), {tb: 1}) == {tb: ONE}
    assert act_natural(generator("B", 3, 10), {tb: 1}) == {}
    assert act_natural(generator("B", 2, 10), {tb: 1}) == {
        SetPartitionTableau(
            10, [(6, 8)], [((4, 5), (7,), (10,)), ((1, 2, 3, 9),)]
        ): -ONE
    }
    assert act_natural(generator("B", 8, 10), {tb: 1}) == {
        SetPartitionTableau(
            10, [(1, 2, 6, 8, 9)], [((3,), (7,), (10,)), ((4, 5),)]
        ): ONE
    }

    te = SetPartitionTableau(
        10, [(1, 3), (5, 6), (4, 8)], [((2,), (7,), (10,)), ((9,),)]
    )
    assert act_natural(generator("E", 7, 10), {te: 1}, family=BRAUER) == {
        SetPartitionTableau(
            10, [(1, 3), (5, 6), (7, 8)], [((2,), (4,), (10,)), ((9,),)]
        ): ONE
    }
    assert act_natural(generator("E", 9, 10), {te: 1}) == {}
    assert act_natural(generator("E", 5, 10), {te: 1}) == {te: N}

    trb = SetPartitionTableau(
        10, [(2,), (1, 4), (5,), (6,), (8, 10)], [((3,), (9,)), ((7,),)]
    )
    assert act_natural(generator("E", 5, 10), {trb: 1}) == {
        SetPartitionTableau(
            10, [(2,), (1, 4), (5, 6), (8, 10)], [((3,), (9,)), ((7,),)]
        ): N
    }
    assert act_natural(generator("E", 2, 10), {trb: 1}) == {}
    assert act_natural(generator("E", 6, 10), {trb: 1}) == {}


def test_character_table_determinant_identity():
    cells = [(f, k) for f in FAMILIES for k in range(1, 9)]
    run_suite("determinant", cells)
    assert table_determinant_check(PARTITION, 3).determinant == 12
    assert table_determinant_check(BRAUER, 4).determinant == 192
