import json
import random
from fractions import Fraction

import pytest

from diagramalg import characters, errors, symrep
from diagramalg.characters import (
    REFERENCE_TABLES,
    CharacterTable,
    _check_class,
    character_oracle,
    character_table,
    class_diagram,
    class_labels,
    f_coeff,
    f_coeff_planar,
    fixed_points,
    format_partition,
    gamma_diagram,
    gamma_perm,
    irr_character,
    table_determinant_check,
)
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
    algebra_dim,
    enumerate_basis,
    parse_diagram,
    perm_diagram,
)
from diagramalg.irreps import SymmetricMDiagram
from diagramalg.partitions import (
    bell,
    check_label,
    check_rank,
    lambda_star_labels,
    partitions,
    rank_set,
)
from diagramalg.symrep import cycle_type, sym_character
from test_acceptance import F_B4, F_P3, F_R3, F_RB3

GAMMA_18 = (
    "1 2' | 2 3' | 3 4' | 4 5' | 5 6' | 6 1'"
    " | 7 8' | 8 9' | 9 10' | 10 11' | 11 7'"
    " | 12 13' | 13 12' | 14 14'"
)

S2_TABLE = [[1, 1], [-1, 1]]
S3_TABLE = [[1, 1, 1], [-1, 0, 2], [1, -1, 1]]
S4_TABLE = [
    [1, 1, 1, 1, 1],
    [-1, 0, -1, 1, 3],
    [0, -1, 2, 0, 2],
    [1, 0, -1, -1, 3],
    [-1, 1, 1, -1, 1],
]

F_FROZEN = {
    (PARTITION, 3): F_P3,
    (ROOK_BRAUER, 3): F_RB3,
    (ROOK, 3): F_R3,
    (BRAUER, 4): F_B4,
}


def block_diag(*blocks):
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                out[offset + i][offset + j] = v
        offset += len(b)
    return out


def matmul(a, b):
    return [
        [sum(a[i][l] * b[l][j] for l in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_gamma_perm():
    assert gamma_perm((6, 5, 2, 1)) == (
        6, 1, 2, 3, 4, 5, 11, 7, 8, 9, 10, 13, 12, 14,
    )
    assert gamma_perm((3, 2)) == (3, 1, 2, 5, 4)
    assert gamma_perm((1, 1)) == (1, 2)
    for kappa in ((4,), (3, 2), (2, 2, 1), (1, 1, 1)):
        assert cycle_type(gamma_perm(kappa)) == kappa
        assert gamma_diagram(kappa) == perm_diagram(gamma_perm(kappa))


def test_class_diagram_partition_18():
    elem = class_diagram("Partition", 18, (6, 5, 2, 1))
    tail = " | 15 | 16 | 17 | 18 | 15' | 16' | 17' | 18'"
    expected = parse_diagram(GAMMA_18 + tail, 18)
    assert elem == Element(
        18, PARTITION, {expected: LaurentPoly.monomial(-4)}
    )


def test_class_diagram_brauer_18():
    elem = class_diagram("Brauer", 18, (6, 5, 2, 1))
    tail = " | 15 16 | 17 18 | 15' 16' | 17' 18'"
    expected = parse_diagram(GAMMA_18 + tail, 18)
    assert elem == Element(
        18, BRAUER, {expected: LaurentPoly.monomial(-2)}
    )


def test_class_diagram_symmetric_group():
    elem = class_diagram("SymmetricGroup", 3, (2, 1))
    assert elem == Element(
        3, SYMMETRIC_GROUP, {gamma_diagram((2, 1)): LaurentPoly.const(1)}
    )


def test_class_diagram_planar_tails():
    elem = class_diagram("TemperleyLieb", 4, (1, 1))
    expected = parse_diagram("1 1' | 2 2' | 3 4 | 3' 4'", 4)
    assert elem == Element(
        4, TEMPERLEY_LIEB, {expected: LaurentPoly.monomial(-1)}
    )
    elem = class_diagram("Motzkin", 4, (1, 1))
    expected = parse_diagram("1 1' | 2 2' | 3 | 4 | 3' | 4'", 4)
    assert elem == Element(4, MOTZKIN, {expected: LaurentPoly.monomial(-2)})


def test_class_diagram_invalid_labels():
    with pytest.raises(errors.InvalidClassLabel):
        class_diagram("Partition", 3, (4,))
    with pytest.raises(errors.InvalidClassLabel):
        class_diagram("TemperleyLieb", 4, (2, 1))
    with pytest.raises(errors.InvalidClassLabel):
        class_diagram("Brauer", 4, (1,))
    with pytest.raises(errors.InvalidClassLabel):
        class_diagram("SymmetricGroup", 4, (2, 1))
    with pytest.raises(errors.InvalidClassLabel):
        class_diagram("PlanarPartition", 3, (2, 1))


@pytest.mark.parametrize("s", [True, 1.0, Fraction(1)])
@pytest.mark.parametrize(
    "site",
    [
        lambda *s: irr_character("Rook", 2, (1,), (1,), *s),
        lambda *s: class_diagram("Rook", 2, (1,), *s),
        lambda *s: character_oracle("Rook", 2, (1,), (1,), *s),
    ],
    ids=["irr_character", "class_diagram", "character_oracle"],
)
def test_a_tail_length_must_be_an_int(site, s):
    # the tail of (1) at Rook k=2 is 1, an int derived from k and kappa:
    # no call takes a tail, neither the int nor an equal non-int
    site()
    for tail in (1, s):
        with pytest.raises(TypeError):
            site(tail)


@pytest.mark.parametrize("family", FAMILIES)
def test_rank_checks_accept_exactly_the_listings(family):
    # the checks decide membership without listing; the listings are the
    # oracle for every partition of size up to k + 1
    for k in range(1, 9):
        labels = lambda_star_labels(family, k)
        classes = class_labels(family, k)
        for p in [p for m in range(k + 2) for p in partitions(m)]:
            try:
                check_label(family, k, p)
            except errors.LabelNotInFamily:
                assert p not in labels, (k, p)
            else:
                assert p in labels, (k, p)
            if p not in classes:
                with pytest.raises(errors.InvalidClassLabel):
                    _check_class(family, p, k)
                continue
            kappa = _check_class(family, p, k)
            # the tail fills the k - |kappa| strands gamma_kappa leaves: one
            # strand per generator, or two without one-vertex blocks
            tail = (k - sum(kappa)) // (1 if _SHAPES[family].singles else 2)
            [(_, coeff)] = class_diagram(family, k, kappa).terms()
            assert coeff == LaurentPoly.monomial(-tail), (k, p)
        ranks = rank_set(family, k)
        for m in range(-1, k + 2):
            if m in ranks:
                check_rank(family, k, m)
            else:
                with pytest.raises(errors.InvalidRank):
                    check_rank(family, k, m)
        for m in (float(ranks[-1]), str(ranks[-1])):
            with pytest.raises(errors.InvalidRank):
                check_rank(family, k, m)


def test_fixed_points_worked_example():
    found = fixed_points("Partition", 3, 1, (2, 1))
    assert set(found) == {(1,)}
    expected = {
        SymmetricMDiagram(3, [(1,), (2,), (3,)], [(3,)]),
        SymmetricMDiagram(3, [(1, 2, 3)], [(1, 2, 3)]),
        SymmetricMDiagram(3, [(1, 2), (3,)], [(1, 2)]),
        SymmetricMDiagram(3, [(1, 2), (3,)], [(3,)]),
    }
    assert set(found[(1,)]) == expected
    assert len(found[(1,)]) == 4
    rank0 = fixed_points("Partition", 3, 0, (2, 1))
    assert len(rank0[()]) == f_coeff("Partition", (2, 1), ()) == 3


def test_fixed_points_errors():
    with pytest.raises(errors.CapExceeded):
        fixed_points("Partition", 6, 0, (6,))
    with pytest.raises(errors.InvalidClassLabel):
        fixed_points("Partition", 3, 1, (2,))
    with pytest.raises(errors.InvalidRank):
        fixed_points("Brauer", 4, 1, (2, 2))
    with pytest.raises(errors.InvalidClassLabel):
        fixed_points("TemperleyLieb", 4, 2, (2, 1, 1))
    with pytest.raises(errors.InvalidClassLabel):
        fixed_points("PlanarPartition", 3, 0, (2, 1))


def test_f_coeff_examples():
    assert f_coeff("Partition", (2, 1), (1,)) == 4
    assert f_coeff("Partition", (1, 1, 1), (1, 1)) == 6
    assert f_coeff("Brauer", (1, 1, 1, 1), (1, 1)) == 6
    assert f_coeff("Rook", (2, 1), (1,)) == 1
    assert f_coeff("SymmetricGroup", (2, 1), (2, 1)) == 1
    assert f_coeff("SymmetricGroup", (2, 1), (1, 1, 1)) == 0
    assert f_coeff("TemperleyLieb", (1, 1, 1, 1), (1, 1)) == 3
    assert f_coeff("Motzkin", (1, 1, 1), (1,)) == 5
    assert f_coeff("PlanarRook", (1, 1, 1), (1, 1)) == 3
    assert f_coeff("TemperleyLieb", (1, 1, 1), (2, 1)) == 0
    assert f_coeff_planar("Motzkin", 3, 1) == 5
    # C(2r, r - m) - C(2r, r - m - 1), the TemperleyLieb count at (2r, 2m)
    assert f_coeff("PlanarPartition", (1, 1, 1), (1,)) == 9
    assert f_coeff("PlanarPartition", (1, 1, 1), (2,)) == 0
    assert f_coeff_planar("PlanarPartition", 4, 2) == 20
    assert f_coeff_planar("PlanarPartition", 3, 4) == 0
    with pytest.raises(errors.InvalidClassLabel):
        f_coeff("Motzkin", (2, 1), (1,))


def test_f_coeff_planar_refuses_non_planar_families():
    with pytest.raises(errors.FamilyUnsupported):
        f_coeff_planar("Partition", 3, 1)


@pytest.mark.parametrize(
    "family", ["TemperleyLieb", "Motzkin", "PlanarRook", "PlanarPartition"]
)
def test_planar_classes_need_all_ones_cycle_types(family):
    with pytest.raises(errors.InvalidClassLabel, match="all-ones"):
        f_coeff(family, (2, 1), (1,))
    with pytest.raises(errors.InvalidClassLabel, match="all-ones"):
        fixed_points(family, 3, 1, (2, 1))
    with pytest.raises(errors.InvalidClassLabel, match="all-ones"):
        class_diagram(family, 3, (2, 1))


def test_published_tables():
    for (family, k), ref in REFERENCE_TABLES.items():
        table = character_table(family, k)
        assert table.row_labels == ref["rows"]
        assert table.col_labels == ref["cols"]
        assert table.values == ref["values"]
        assert table == CharacterTable(
            family, k, ref["rows"], ref["cols"], ref["values"]
        )


def test_f_block_matches_published():
    for (family, k), frozen in F_FROZEN.items():
        fac = character_table(family, k).factor()
        assert fac.f_block == frozen


def test_s_block_is_symmetric_group_direct_sum():
    fac3 = character_table(PARTITION, 3).factor()
    assert fac3.s_block == block_diag([[1]], [[1]], S2_TABLE, S3_TABLE)
    assert character_table(ROOK, 3).factor().s_block == fac3.s_block
    assert character_table(ROOK_BRAUER, 3).factor().s_block == fac3.s_block
    fac4 = character_table(BRAUER, 4).factor()
    assert fac4.s_block == block_diag([[1]], S2_TABLE, S4_TABLE)


def test_table_factorization_product():
    for family, k in list(F_FROZEN) + [
        (TEMPERLEY_LIEB, 4),
        (MOTZKIN, 3),
        (PLANAR_ROOK, 3),
        (PLANAR_PARTITION, 3),
        (SYMMETRIC_GROUP, 4),
    ]:
        table = character_table(family, k)
        fac = table.factor()
        assert matmul(fac.s_block, fac.f_block) == table.values


def test_f_block_unitriangular():
    for family, k in list(F_FROZEN) + [
        (TEMPERLEY_LIEB, 4),
        (MOTZKIN, 3),
        (PLANAR_PARTITION, 3),
    ]:
        table = character_table(family, k)
        f = table.factor().f_block
        size = len(f)
        assert all(f[i][i] == 1 for i in range(size))
        assert all(
            f[i][j] == 0 for i in range(size) for j in range(i)
        )
        ftable = CharacterTable(
            family, k, table.row_labels, table.col_labels, f
        )
        assert ftable.determinant() == 1


def test_determinants():
    cases = {
        (PARTITION, 3): 12,
        (BRAUER, 4): 192,
        (BRAUER, 2): 2,
        (SYMMETRIC_GROUP, 4): 96,
        (ROOK, 3): 12,
        (TEMPERLEY_LIEB, 4): 1,
        (MOTZKIN, 3): 1,
        (PLANAR_ROOK, 4): 1,
        (PLANAR_PARTITION, 4): 1,
    }
    for (family, k), expected in cases.items():
        check = table_determinant_check(family, k)
        assert check.ok, (family, k, check)
        assert check.determinant == expected


def test_irr_character_values():
    assert irr_character("Partition", 3, (), (1, 1, 1)) == 5
    assert irr_character("Partition", 3, (1,), (2, 1)) == 4
    assert irr_character("Brauer", 4, (2, 1, 1), (4,)) == 1
    assert irr_character("Partition", 3, (2, 1), ()) == 0
    assert irr_character("Partition", 3, (1, 1, 1), (2,)) == 0
    assert irr_character("Partition", 5, (2,), (2, 1)) == irr_character(
        "Partition", 3, (2,), (2, 1)
    )
    for kappa in ((3,), (2, 1), (1, 1, 1)):
        assert irr_character("Partition", 3, (2, 1), kappa) == sym_character(
            (2, 1), kappa
        )
        assert irr_character(
            "SymmetricGroup", 3, (2, 1), kappa
        ) == sym_character((2, 1), kappa)
    with pytest.raises(errors.LabelNotInFamily):
        irr_character("TemperleyLieb", 4, (2, 1), (1, 1, 1))


def test_class_labels_order():
    assert class_labels("Partition", 3) == [
        (), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
    ]
    assert class_labels("Brauer", 4) == REFERENCE_TABLES[(BRAUER, 4)]["cols"]
    assert class_labels("TemperleyLieb", 4) == [(), (1, 1), (1, 1, 1, 1)]
    assert class_labels("SymmetricGroup", 3) == [(3,), (2, 1), (1, 1, 1)]
    assert class_labels("PlanarPartition", 3) == [
        (), (1,), (1, 1), (1, 1, 1),
    ]


def test_character_oracle_refuses_past_the_cap():
    # the oracle sweep itself is the trace-oracle suite, run at k <= 6 on
    # every family by test_acceptance.py
    with pytest.raises(errors.CapExceeded):
        character_oracle("Partition", 6, (1,), (1,) * 6)


def test_a_refusal_at_the_cap_names_the_caller_k_and_the_cap(monkeypatch):
    monkeypatch.setenv("DIAGRAMALG_CAP", "1")
    for caller, call in (
        ("enumerate_basis", lambda: enumerate_basis(PARTITION, 2)),
        ("fixed_points", lambda: fixed_points(PARTITION, 2, 2, (1, 1))),
        ("character_oracle", lambda: character_oracle(PARTITION, 2, (1,), (1,))),
    ):
        with pytest.raises(
            errors.CapExceeded, match="^%s at k=2 exceeds the cap 1$" % caller
        ):
            call()


def test_character_oracle_reads_the_enumeration_cap(monkeypatch):
    # Brauer enumerates to k=8 (2,027,025 diagrams) by default, as
    # fixed_points does
    monkeypatch.delenv("DIAGRAMALG_CAP", raising=False)
    for lam, kappa in (((2,), (2, 2, 1, 1)), ((4,), (3, 2, 1))):
        value = irr_character(BRAUER, 6, lam, kappa)
        assert character_oracle(BRAUER, 6, lam, kappa) == LaurentPoly.const(
            value
        )
    with pytest.raises(errors.CapExceeded, match="at k=9 exceeds the cap"):
        character_oracle(BRAUER, 9, (9,), (3, 3, 2, 1))
    assert character_oracle(BRAUER, 8, (6,), (3, 3, 2)) == LaurentPoly.const(1)
    monkeypatch.setenv("DIAGRAMALG_CAP", str(algebra_dim(BRAUER, 6) - 1))
    with pytest.raises(errors.CapExceeded, match="at k=6 exceeds the cap"):
        character_oracle(BRAUER, 6, (2,), (2, 2, 1, 1))


def test_table_csv_golden():
    table = character_table("Brauer", 2)
    assert table.to_csv() == (
        "lambda*/kappa,[],[2],[1,1]\n"
        "[],1,1,1\n"
        "[2],0,1,1\n"
        "[1,1],0,-1,1\n"
    )


def test_table_json_golden():
    table = character_table("Brauer", 2)
    payload = json.loads(table.to_json(factor=True))
    assert payload["family"] == "Brauer"
    assert payload["k"] == 2
    assert payload["rows"] == [[], [2], [1, 1]]
    assert payload["cols"] == [[], [2], [1, 1]]
    assert payload["values"] == [[1, 1, 1], [0, 1, 1], [0, -1, 1]]
    assert payload["s_block"] == [[1, 0, 0], [0, 1, 1], [0, -1, 1]]
    assert payload["f_block"] == [[1, 1, 1], [0, 1, 0], [0, 0, 1]]


def test_table_text_layout():
    text = character_table("Brauer", 2).to_text()
    lines = text.splitlines()
    assert lines[0].split() == ["lambda*\\kappa", "[]", "[2]", "[1,1]"]
    assert lines[1].split() == ["[]", "1", "1", "1"]
    assert lines[3].split() == ["[1,1]", "0", "-1", "1"]
    assert format_partition((2, 1)) == "[2,1]"
    assert format_partition(()) == "[]"


GOLDEN_B2_TEXT_FACTOR = (
    "lambda*\\kappa  []  [2]  [1,1]\n"
    "           []   1    1      1\n"
    "          [2]   0    1      1\n"
    "        [1,1]   0   -1      1\n"
    "\n"
    "s_block:\n"
    "1  0  0\n"
    "0  1  1\n"
    "0  -1  1\n"
    "\n"
    "f_block:\n"
    "1  1  1\n"
    "0  1  0\n"
    "0  0  1\n"
)


def test_table_text_factor_golden():
    table = character_table("Brauer", 2)
    assert table.to_text(factor=True) == GOLDEN_B2_TEXT_FACTOR
    assert GOLDEN_B2_TEXT_FACTOR.startswith(table.to_text())


@pytest.mark.parametrize("family", FAMILIES)
def test_table_cells_match_irr_character(family):
    for k in range(1, 6):
        table = character_table(family, k)
        for lam, row in zip(table.row_labels, table.values):
            for kappa, value in zip(table.col_labels, row):
                assert value == irr_character(family, k, lam, kappa), (
                    family, k, lam, kappa,
                )


def test_table_evaluates_each_f_entry_once(monkeypatch):
    """The table reads F by cached columns, not cell by cell through
    f_coeff, and builds the dense S and F only when factor() asks."""
    calls = []
    real = characters.f_coeff

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(characters, "f_coeff", counting)
    table = character_table("Brauer", 6)
    assert table._factor is None
    fac = table.factor()
    assert calls == []
    assert matmul(fac.s_block, fac.f_block) == table.values
    direct = CharacterTable(
        BRAUER, 6, table.row_labels, table.col_labels, table.values
    )
    assert direct.factor() == fac


@pytest.mark.parametrize(
    "family", [f for f in FAMILIES if f != SYMMETRIC_GROUP]
)
def test_tables_are_stable_in_k(family):
    """A value depends only on (lambda*, kappa), so the table at k - step is
    a labelled sub-block of the table at k; SymmetricGroup is left out, as
    its labels all have size k."""
    step = 2 if family in (BRAUER, TEMPERLEY_LIEB) else 1
    for k in range(1 + step, 11):
        small = character_table(family, k - step)
        big = character_table(family, k)
        rows = dict(zip(big.row_labels, big.values))
        cols = {kappa: j for j, kappa in enumerate(big.col_labels)}
        for lam, row in zip(small.row_labels, small.values):
            got = [rows[lam][cols[kappa]] for kappa in small.col_labels]
            assert got == row, (family, k, lam)


def per_cell_values(family, rows, cols):
    """chi = S . F one cell at a time: each entry (mu, c) of column kappa of
    F adds c chi^lam(mu) into every row lam of size |mu|."""
    by_size = {}
    for i, lam in enumerate(rows):
        by_size.setdefault(sum(lam), []).append((i, lam))
    values = [[0] * len(cols) for _ in rows]
    for j, kappa in enumerate(cols):
        for mu, count in characters._f_column(family, kappa).items():
            for i, lam in by_size.get(sum(mu), ()):
                values[i][j] += count * sym_character(lam, mu)
    return values


@pytest.mark.parametrize("family", FAMILIES)
def test_column_values_match_the_per_cell_sum(family):
    for k in range(1, 9):
        rows = lambda_star_labels(family, k)
        cols = class_labels(family, k)
        assert [list(row) for row in characters._values(family, rows, cols)] == (
            per_cell_values(family, rows, cols)
        ), (family, k)


def test_tables_read_whole_columns_and_char_reads_entries(monkeypatch):
    """character_table and factor() build S from whole Murnaghan-Nakayama
    columns; irr_character keeps the per-entry sym_character."""
    calls = []
    real = symrep.sym_character

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(symrep, "sym_character", counting)
    monkeypatch.setattr(characters, "sym_character", counting)
    characters._chi_column.cache_clear()
    symrep.character_column.cache_clear()
    tables = {}
    for family in (PARTITION, BRAUER, SYMMETRIC_GROUP, MOTZKIN):
        tables[family] = character_table(family, 5)
        tables[family].factor()
    assert calls == []
    table = tables[PARTITION]
    i, j = table.row_labels.index((2, 1)), table.col_labels.index((3, 2))
    assert irr_character(PARTITION, 5, (2, 1), (3, 2)) == table.values[i][j]
    assert calls


def test_planar_tables_read_no_symmetric_group_column(monkeypatch):
    """A planar label (m,) stands for the trivial character, so a planar
    table lists no partition of m and reads no character column."""
    def refuse(mu):
        raise AssertionError("character_column(%r)" % (mu,))

    monkeypatch.setattr(characters, "character_column", refuse)
    characters._chi_column.cache_clear()
    for family in (TEMPERLEY_LIEB, MOTZKIN, PLANAR_ROOK, PLANAR_PARTITION):
        table = character_table(family, 8)
        assert matmul(*table.factor()) == table.values
    # partitions(120) would have 1,844,349,560 entries
    table = character_table(PLANAR_ROOK, 120)
    assert [row[-1] for row in table.values[:3]] == [1, 120, 7140]


def _fraction_det(matrix):
    """Determinant by Gaussian elimination over Fraction: the reference."""
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            ratio = m[r][col] / m[col][col]
            for c in range(col, len(m)):
                m[r][c] -= ratio * m[col][c]
    return det


def test_a_table_of_the_wrong_form_is_refused_by_factor_and_determinant():
    labels = [(), (1,)]
    good = ("Partition", 1, labels, labels, [[1, 1], [0, 1]])
    for i, value, error in (
        (0, None, ValueError),
        (0, "Planar", ValueError),
        (1, None, errors.IndexOutOfRange),
        (1, 2, errors.LabelNotInFamily),
        (2, [(), (2,)], errors.LabelNotInFamily),
        (2, [(1,), ()], errors.LabelNotInFamily),
        (2, [None], errors.LabelNotInFamily),
        (3, [(), (3,)], errors.LabelNotInFamily),
        (3, [(1,), "x"], errors.LabelNotInFamily),
    ):
        table = CharacterTable(*good[:i], value, *good[i + 1 :])
        with pytest.raises(error):
            table.factor()
    brauer = CharacterTable("brauer", *good[1:])
    with pytest.raises(errors.LabelNotInFamily, match="^not the Brauer labels at k=1$"):
        brauer.factor()
    for values in ([[None]], [[1, 2], [3]], [[1, 2]], [[1.0]], [[True]], [[1], [2]]):
        with pytest.raises(ValueError, match="^expected a square matrix of ints"):
            CharacterTable(*good[:4], values).determinant()
    assert CharacterTable(*good).determinant() == 1
    assert CharacterTable("partition", *good[1:]).factor() == (
        CharacterTable(*good).factor()
    )


def test_bareiss_determinant_matches_fraction_elimination():
    assert characters._det_bareiss([]) == 1
    # a zero pivot column, a row swap, and a zero only the last step sees
    assert characters._det_bareiss([[0, 1], [0, 2]]) == 0
    assert characters._det_bareiss([[0, 1], [1, 0]]) == -1
    assert characters._det_bareiss([[0, 2, 1], [3, 1, 1], [0, 4, 2]]) == 0
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randint(1, 5)
        matrix = [
            [rng.choice((0, 0, 0, 1, -1, 2, -3, 7)) for _ in range(n)]
            for _ in range(n)
        ]
        assert characters._det_bareiss(matrix) == _fraction_det(matrix), matrix


def test_partition_character_past_the_recursion_limit():
    # at the identity class chi^(1) is the dimension of the (1) module: the
    # set partitions of k points with one block marked, B(k + 1) - B(k) of
    # them; stirling2 once recursed one level per n and ended in a
    # RecursionError from k = 494
    k = 500
    assert irr_character(PARTITION, k, (1,), (1,) * k) == bell(k + 1) - bell(k)
