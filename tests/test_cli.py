import hashlib
import json
import re
import time
import types
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from diagramalg import characters, cli, diagrams, irreps, symrep
from diagramalg.characters import format_partition
from diagramalg.cli import run
from diagramalg.coeff import Element, LaurentPoly
from diagramalg.diagrams import (
    FAMILIES,
    PARTITION,
    PLANAR_PARTITION,
    enumerate_basis,
    format_diagram,
)
from diagramalg.errors import CapExceeded
from diagramalg.partitions import lambda_star_labels, rank_set

GOLDEN_B2_CSV = (
    "lambda*/kappa,[],[2],[1,1]\n"
    "[],1,1,1\n"
    "[2],0,1,1\n"
    "[1,1],0,-1,1\n"
)


def test_mul_text(capsys):
    code = run(
        [
            "mul", "--family", "partition", "--k", "2",
            "--lhs", "1 2 | 1' 2'", "--rhs", "1 2 | 1' 2'",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "n * 1 2 | 1' 2'\n"


def test_mul_numeric(capsys):
    code = run(
        [
            "mul", "--family", "partition", "--k", "2", "--n", "5",
            "--lhs", "1 2 | 1' 2'", "--rhs", "1 2 | 1' 2'",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "5 * 1 2 | 1' 2'\n"


def test_mul_json(capsys):
    code = run(
        [
            "mul", "--family", "partition", "--k", "2", "--format", "json",
            "--lhs", "1 2 | 1' 2'", "--rhs", "1 2 | 1' 2'",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == [
        {
            "coeff": [{"exp": 1, "num": 1, "den": 1}],
            "diagram": {"k": 2, "blocks": [[1, 2], [3, 4]]},
        }
    ]


MUL_SUM_TEXT = "1 2 | 1' | 2'\n-1/2 * 1 2 | 1' 2'\n1/4 * 1 1' | 2 2'\n"
MUL_SUM_JSON = (
    '"diagram":{"k":2,"blocks":[[1,2],[3],[4]]}},'
    '{"coeff":%s,"diagram":{"k":2,"blocks":[[1,2],[3,4]]}},'
    '{"coeff":%s,"diagram":{"k":2,"blocks":[[1,3],[2,4]]}}]\n'
)


@pytest.mark.parametrize(
    "extra, expected",
    [
        ([], "n - 1/2 * " + MUL_SUM_TEXT),
        (["--n", "2/3"], "1/6 * " + MUL_SUM_TEXT),
        # the first coefficient vanishes at n = 1/2, and its line goes
        (["--n", "1/2"], MUL_SUM_TEXT.split("\n", 1)[1]),
        (
            ["--format", "json"],
            '[{"coeff":[{"exp":0,"num":-1,"den":2},{"exp":1,"num":1,"den":1}],'
            + MUL_SUM_JSON
            % ('[{"exp":0,"num":-1,"den":2}]', '[{"exp":0,"num":1,"den":4}]'),
        ),
        (
            ["--format", "json", "--n", "2/3"],
            '[{"coeff":{"num":1,"den":6},'
            + MUL_SUM_JSON % ('{"num":-1,"den":2}', '{"num":1,"den":4}'),
        ),
    ],
)
def test_mul_writes_every_term_byte_for_byte(
    extra, expected, monkeypatch, capsys
):
    # each factor d - 1/2 * identity makes a product of three terms, one
    # with two powers of n, all with rational coefficients
    def minus_half_identity(d, family):
        half = Element.from_diagram(
            diagrams.identity_diagram(d.k), family, Fraction(-1, 2)
        )
        return Element.from_diagram(d, family) + half

    monkeypatch.setattr(
        cli, "Element", types.SimpleNamespace(from_diagram=minus_half_identity)
    )
    argv = [
        "mul", "--family", "partition", "--k", "2",
        "--lhs", "1 2 | 1' 2'", "--rhs", "1 2 | 1' | 2'",
    ]
    assert run(argv + extra) == 0
    assert capsys.readouterr().out == expected


def test_mul_missing_vertex_is_domain_error(capsys):
    code = run(
        [
            "mul", "--family", "partition", "--k", "2",
            "--lhs", "1 2", "--rhs", "1 2 | 1' 2'",
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["mul", "--family", "partition", "--k", "100000000",
         "--lhs", "1", "--rhs", "1"],
        ["irrep", "--family", "partition", "--k", "99999999999999999999",
         "--lambda-star", "1", "--d", "1"],
    ],
)
def test_missing_vertex_at_huge_k_is_reported_at_once(argv, capsys):
    start = time.monotonic()
    assert run(argv) == 1
    assert time.monotonic() - start < 1.0
    assert capsys.readouterr().err == "error: vertex 2 missing\n"


def test_mul_family_membership_is_domain_error(capsys):
    code = run(
        [
            "mul", "--family", "temperleylieb", "--k", "2",
            "--lhs", "1 2' | 2 1'", "--rhs", "1 1' | 2 2'",
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    assert run(["mul", "--family", "partition"]) == 2
    capsys.readouterr()
    assert run(["basis", "--family", "nosuch", "--k", "2"]) == 2
    capsys.readouterr()
    assert run(["verify", "--suite", "nosuch"]) == 2
    capsys.readouterr()
    assert run(["sspt", "--family", "partition", "--k", "3",
                "--lambda-star", "[x]"]) == 2
    capsys.readouterr()


def test_basis_counts(capsys):
    code = run(["basis", "--family", "brauer", "--k", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 15
    assert "1 1' | 2 2' | 3 3'" in lines
    code = run(
        ["basis", "--family", "brauer", "--k", "3", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 15
    assert payload["family"] == "Brauer"
    assert len(payload["diagrams"]) == 15


def expected_listing(family, k):
    """The text and JSON bytes of a basis listing, built from
    format_diagram and json.dumps."""
    basis = enumerate_basis(family, k)
    text = "\n".join(format_diagram(d) for d in basis) + "\n"
    payload = {
        "family": family,
        "k": k,
        "count": len(basis),
        "diagrams": [{"k": d.k, "blocks": d.blocks} for d in basis],
    }
    return text, json.dumps(payload, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("family", FAMILIES)
def test_basis_bytes_match_format_diagram_and_json_dumps(family, capsys):
    for k in range(1, 5):
        text, as_json = expected_listing(family, k)
        args = ["basis", "--family", family, "--k", str(k)]
        assert run(args) == 0
        assert capsys.readouterr().out == text, (family, k)
        assert run(args + ["--format", "json"]) == 0
        assert capsys.readouterr().out == as_json, (family, k)


def _symdiag_text(w):
    return " ".join(
        ("[%s]" if b in w.propagating else "{%s}") % " ".join(map(str, b))
        for b in w.top
    )


def _sspt_text(t):
    def blocks(row):
        return " ".join("{%s}" % ",".join(map(str, b)) for b in row) or "-"

    return "%s ; %s" % (blocks(t.first_row), " / ".join(map(blocks, t.body)) or "-")


@pytest.mark.parametrize("family", FAMILIES)
def test_symdiag_and_sspt_bytes_match_a_fresh_rendering_and_json_dumps(
    family, capsys
):
    # one listing shares its block strings; each item renders as it would
    # alone, and the JSON is that of json.dumps
    def check(args, items, text, as_dict):
        assert run(args) == 0
        assert capsys.readouterr().out == "\n".join(map(text, items)) + "\n"
        assert run(args + ["--format", "json"]) == 0
        expected = json.dumps(list(map(as_dict, items)), separators=(",", ":"))
        assert capsys.readouterr().out == expected + "\n"

    for k in range(1, 5):
        for m in rank_set(family, k):
            check(
                ["symdiag", "--family", family, "--k", str(k), "--m", str(m)],
                irreps.enumerate_symmetric(family, k, m),
                _symdiag_text,
                lambda w: {"top": w.top, "propagating": w.propagating},
            )
        for lam in lambda_star_labels(family, k):
            check(
                ["sspt", "--family", family, "--k", str(k),
                 "--lambda-star", "[%s]" % ",".join(map(str, lam))],
                irreps.enumerate_sspt(family, k, lam),
                _sspt_text,
                lambda t: {
                    "lambda_star": t.lambda_star,
                    "first_row": t.first_row,
                    "body": t.body,
                },
            )


def test_basis_bytes_through_an_alias_and_out(tmp_path, capsys):
    text, as_json = expected_listing("TemperleyLieb", 4)
    target = tmp_path / "tl.txt"
    args = ["basis", "--family", "tl", "--k", "4", "--out", str(target)]
    assert run(args) == 0
    assert target.read_text(encoding="utf-8") == text
    assert run(args + ["--format", "json"]) == 0
    assert target.read_text(encoding="utf-8") == as_json
    assert capsys.readouterr().out == ""


def test_dims(capsys):
    code = run(["dims", "--family", "partition", "--k", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "sum_of_squares=203 algebra_dim=203 ok=true" in out
    assert "lambda_star=[1] m=1 symmetric=10 tableaux=1 dim=10" in out


def test_module_dims_rows_match_the_lists():
    for family in FAMILIES:
        top = 5 if family in (PARTITION, PLANAR_PARTITION) else 6
        for k in range(1, top + 1):
            rows, _, _ = cli._module_dims(family, k)
            for lam, m, count_w, f, dim in rows:
                listed = len(irreps.enumerate_symmetric(family, k, m))
                tableaux = len(symrep.standard_tableaux(lam))
                assert (count_w, f, dim) == (
                    listed, tableaux, listed * tableaux
                ), (family, k, lam)


def test_dims_builds_no_list(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("dims listed %r" % (args,))

    monkeypatch.setattr(irreps, "enumerate_symmetric", refuse)
    monkeypatch.setattr(symrep, "standard_tableaux", refuse)
    assert run(["dims", "--family", "partition", "--k", "12"]) == 0
    assert capsys.readouterr().out.endswith(
        "sum_of_squares=445958869294805289 algebra_dim=445958869294805289"
        " ok=true\n"
    )


def test_dims_symmetric_group_k30(capsys):
    assert run(["dims", "--family", "symmetricgroup", "--k", "30"]) == 0
    assert capsys.readouterr().out.endswith(" ok=true\n")


@pytest.mark.parametrize(
    "module, name",
    [(characters, "f_coeff"), (symrep, "sym_dim")],
    ids=["f_coeff", "sym_dim"],
)
def test_wedderburn_suite_checks_f_against_the_lists(
    module, name, monkeypatch, capsys
):
    closed_form = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: closed_form(*args) + 1)
    args = ["verify", "--suite", "wedderburn", "--family", "brauer", "--k", "3"]
    assert run(args) == 1
    assert capsys.readouterr().out.startswith(
        "FAIL wedderburn: Brauer, k=3, sizes differ from the lists\n"
    )


def test_symdiag(capsys):
    code = run(["symdiag", "--family", "brauer", "--k", "4", "--m", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    code = run(
        [
            "symdiag", "--family", "brauer", "--k", "4", "--m", "2",
            "--format", "json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 6
    assert {"top": [[1, 2], [3], [4]], "propagating": [[3], [4]]} in payload


def test_sspt(capsys):
    code = run(
        ["sspt", "--family", "partition", "--k", "3", "--lambda-star", "[2]"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert all(";" in line for line in lines)


def test_irrep_identity_matrix(capsys):
    code = run(
        [
            "irrep", "--family", "partition", "--k", "2",
            "--lambda-star", "[1]", "--d", "1 1' | 2 2'",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "1, 0, 0\n0, 1, 0\n0, 0, 1\n"


def test_irrep_numeric_json(capsys):
    code = run(
        [
            "irrep", "--family", "partition", "--k", "2",
            "--lambda-star", "[1]", "--d", "1 2 1' 2'",
            "--n", "3", "--format", "json", "--basis", "tableau",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 3 and all(len(row) == 3 for row in payload)
    assert all("num" in cell and "den" in cell for row in payload
               for cell in row)


@pytest.mark.parametrize("n", ["3", "7/2"])
def test_dense_irrep_json_bytes_match_json_dumps(n, capsys):
    base = [
        "irrep", "--family", "partition", "--k", "3", "--lambda-star", "1",
        "--d", "1 2 | 3 1' | 2' 3'", "--n", n,
    ]
    assert run(base) == 0
    rows = [
        [Fraction(cell) for cell in line.split(", ")]
        for line in capsys.readouterr().out.splitlines()
    ]
    assert any(v == 0 for row in rows for v in row)
    assert any(v.denominator > 1 for row in rows for v in row) == (n == "7/2")
    assert run(base + ["--format", "json"]) == 0
    payload = [
        [{"num": v.numerator, "den": v.denominator} for v in row]
        for row in rows
    ]
    expected = json.dumps(payload, separators=(",", ":")) + "\n"
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("basis", ["Twisted", "Tableau"])
def test_dense_irrep_without_n_matches_the_matrix_cell_by_cell(basis, capsys):
    # every zero cell is one constant, and the rows are joined by hand
    args = ["--family", "partition", "--k", "4", "--lambda-star", "[2,1]",
            "--d", "1 2' | 2 1' | 3 3' | 4 | 4'", "--basis", basis]
    d = diagrams.parse_diagram(args[7], 4)
    mat = irreps.rep_matrix_irrep(d, "Partition", 4, (2, 1), basis)
    cells = [entry for row in mat for entry in row]
    assert not all(cells)
    assert any(set(c.terms) - {0} for c in cells)
    assert any(-1 in c.terms.values() for c in cells)
    assert run(["irrep"] + args) == 0
    assert capsys.readouterr().out == "\n".join(
        ", ".join(str(entry) for entry in row) for row in mat
    ) + "\n"
    assert run(["irrep"] + args + ["--format", "json"]) == 0
    payload = [[entry.to_json_obj() for entry in row] for row in mat]
    expected = json.dumps(payload, separators=(",", ":")) + "\n"
    assert capsys.readouterr().out == expected


def test_char(capsys):
    code = run(
        [
            "char", "--family", "partition", "--k", "3",
            "--lambda-star", "[]", "--kappa", "[1,1,1]",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "5\n"


def test_table_csv_golden(capsys):
    code = run(["table", "--family", "brauer", "--k", "2", "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out == GOLDEN_B2_CSV


def test_table_text_factor(capsys):
    code = run(["table", "--family", "brauer", "--k", "2", "--factor"])
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda*\\kappa" in out
    assert "s_block:" in out and "f_block:" in out


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("text", "23ac8dcfac455d197898ed4016a3dd1873b45350fe50b40d971e9973e3fb618a"),
        ("csv", "6b299db604dbf32b6307e85c0a09940f2c8bf4978222b6f5968b814bc8be0b5b"),
    ],
)
def test_partition_k14_table_bytes(fmt, digest, capsys):
    """The 508-row Partition table at k=14, pinned byte for byte."""
    code = run(["table", "--family", "partition", "--k", "14", "--format", fmt])
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code = run(
        [
            "table", "--family", "brauer", "--k", "2", "--format", "csv",
            "--out", str(target),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8") == GOLDEN_B2_CSV


UNWRITABLE_OUT_COMMANDS = {
    "basis": ["basis", "--family", "brauer", "--k", "2"],
    "table": ["table", "--family", "brauer", "--k", "2"],
    "verify": [
        "verify", "--suite", "ring-axioms", "--family", "brauer",
        "--k", "2", "--cases", "1",
    ],
}


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", sorted(UNWRITABLE_OUT_COMMANDS))
def test_unwritable_out_is_a_domain_error(command, where, tmp_path, capsys):
    target = tmp_path / "missing" / "x" if where == "missing-directory" else tmp_path
    code = run(UNWRITABLE_OUT_COMMANDS[command] + ["--out", str(target)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(target) in captured.err
    assert not (tmp_path / "missing").exists()


def test_out_is_checked_before_the_work(monkeypatch, tmp_path, capsys):
    def refuse(family, k):
        raise CapExceeded("enumerate_basis ran before --out was checked")

    monkeypatch.setattr(diagrams, "enumerate_basis", refuse)
    args = ["basis", "--family", "partition", "--k", "5", "--out"]
    target = tmp_path / "missing" / "x"
    assert run(args + [str(target)]) == 1
    assert capsys.readouterr() == (
        "", "error: [Errno 2] No such file or directory: %r\n" % str(target)
    )
    # a writable --out is neither created nor truncated by a failing command
    kept = tmp_path / "kept.txt"
    kept.write_text("kept\n", encoding="utf-8")
    assert run(args + [str(kept)]) == 1
    assert "enumerate_basis ran" in capsys.readouterr().err
    assert kept.read_text(encoding="utf-8") == "kept\n"
    assert run(args + [str(tmp_path / "new.txt")]) == 1
    assert not (tmp_path / "new.txt").exists()


HUGE_K = "99999999999999999999"


@pytest.mark.parametrize("k", ["55", HUGE_K])
def test_char_at_a_large_k_lists_no_labels(k, capsys):
    args = [
        "char", "--family", "partition", "--k", k,
        "--lambda-star", "[1]", "--kappa", "[1]",
    ]
    assert run(args) == 0
    assert capsys.readouterr() == ("1\n", "")


@pytest.mark.parametrize(
    "command",
    [
        ["table", "--family", "brauer"],
        ["dims", "--family", "partition"],
        ["sspt", "--family", "rook", "--lambda-star", "[1]"],
        ["symdiag", "--family", "brauer", "--m", "1"],
    ],
)
def test_huge_k_is_an_error_line(command, capsys):
    assert run(command + ["--k", HUGE_K]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("family", ["planarrook", "temperleylieb"])
def test_char_at_the_identity_class_of_k1200(family, capsys):
    symrep._sym_character.cache_clear()
    args = [
        "char", "--family", family, "--k", "1200", "--lambda-star", "[1200]",
        "--kappa", "[%s]" % ",".join(["1"] * 1200),
    ]
    assert run(args) == 0
    assert capsys.readouterr() == ("1\n", "")


def test_verify_single_suites(capsys):
    assert run(["verify", "--suite", "table-regression"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("all checks passed")
    assert run(
        ["verify", "--suite", "wedderburn", "--family", "partition", "--k", "3"]
    ) == 0
    capsys.readouterr()
    assert run(
        ["verify", "--suite", "determinant", "--family", "brauer", "--k", "4"]
    ) == 0
    out = capsys.readouterr().out
    assert "|det|=192" in out


def test_verify_all_suites(capsys):
    assert run(["verify", "--cases", "5"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("all checks passed")
    assert "FAIL" not in out


def test_verify_deterministic(capsys):
    assert run(["verify", "--suite", "ring-axioms", "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert run(["verify", "--suite", "ring-axioms", "--seed", "11"]) == 0
    assert capsys.readouterr().out == first


def test_basis_deterministic(capsys):
    args = ["basis", "--family", "motzkin", "--k", "3", "--format", "json"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first


def test_bad_cap_is_a_domain_error_naming_the_variable(monkeypatch, capsys):
    monkeypatch.setenv("DIAGRAMALG_CAP", "abc")
    assert run(["basis", "--family", "brauer", "--k", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: DIAGRAMALG_CAP must be an integer, got 'abc'\n"
    )


def test_mul_at_n_zero_drops_vanishing_terms(capsys):
    args = [
        "mul", "--family", "partition", "--k", "1", "--n", "0",
        "--lhs", "1 | 1'", "--rhs", "1 | 1'",
    ]
    assert run(args) == 0
    assert capsys.readouterr().out == "0\n"
    assert run(args + ["--format", "json"]) == 0
    assert capsys.readouterr().out == "[]\n"


def test_partition_parts_out_of_order_are_a_usage_error(capsys):
    for flag in ("--lambda-star", "--kappa"):
        args = [
            "char", "--family", "partition", "--k", "3",
            "--lambda-star", "[1]", "--kappa", "[2,1]",
        ]
        args[args.index(flag) + 1] = "[1,2]"
        assert run(args) == 2
        assert "weakly decrease" in capsys.readouterr().err


def test_verify_k_zero_is_a_domain_error(capsys):
    code = run(
        ["verify", "--suite", "wedderburn", "--family", "brauer", "--k", "0"]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "k must be a positive integer" in captured.err


@pytest.mark.parametrize("suite", [None, "ring-axioms", "table-regression"])
def test_verify_checks_k_before_any_suite(suite, capsys):
    args = ["verify", "--family", "brauer", "--k", "0"]
    if suite:
        args += ["--suite", suite]
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k must be a positive integer, got 0\n"


@pytest.mark.parametrize("flags", [["--family", "brauer"], ["--k", "3"]])
def test_verify_table_regression_refuses_family_and_k(flags, capsys):
    assert run(["verify", "--suite", "table-regression"] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: table-regression checks only the 4 frozen tables and "
        "takes no --family or --k\n"
    )


def test_bare_verify_runs_table_regression_once(capsys):
    assert run(["verify", "--cases", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    regression = [line for line in lines if "table-regression" in line]
    assert regression == ["ok table-regression (4 frozen tables)"]
    assert lines[-1] == "all checks passed"


def test_verify_keeps_the_lines_of_suites_that_finished(
    monkeypatch, tmp_path, capsys
):
    def refuse(family, k, rng, cases, report):
        raise CapExceeded("module-axiom at k=%d exceeds the cap" % k)

    _, families, default_k = cli._SUITES["module-axiom"]
    monkeypatch.setitem(
        cli._SUITES, "module-axiom", (refuse, families, default_k)
    )
    args = ["verify", "--family", "partition", "--k", "2"]
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "ok ring-axioms (Partition, k=2, 25 random triples)\n"
    )
    assert captured.err == "error: module-axiom at k=2 exceeds the cap\n"
    target = tmp_path / "verify.txt"
    assert run(args + ["--out", str(target)]) == 1
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8") == captured.out


@pytest.mark.parametrize("family", ["temperleylieb", "motzkin", "planarrook"])
def test_char_refuses_planar_class_labels(family, capsys):
    args = [
        "char", "--family", family, "--k", "3",
        "--lambda-star", "[1]", "--kappa", "[2,1]",
    ]
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "classes are labelled by all-ones cycle types" in captured.err


@pytest.mark.parametrize("cases", ["0", "-3", "x"])
def test_verify_cases_must_be_positive(cases, capsys):
    assert run(["verify", "--suite", "ring-axioms", "--cases", cases]) == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite",
    [
        "module-axiom",
        "basis-equivalence",
        "wedderburn",
        "fixedpoint-vs-formula",
        "determinant",
    ],
)
def test_verify_refuses_planar_partition_modules(suite, capsys):
    # named for the refusal it once checked: every suite now runs
    code = run(["verify", "--suite", suite, "--family", "planarpartition"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0].startswith("ok %s (PlanarPartition, k=" % suite)
    assert lines[1:] == ["all checks passed"]


PARSER_REUSE_SEQUENCE = (
    ["basis", "--family", "nosuch", "--k", "2"],
    ["basis", "--family", "brauer", "--k", "3", "--format", "json"],
    ["table", "--family", "brauer", "--k", "3", "--factor"],
    [
        "char", "--family", "partition", "--k", "3",
        "--lambda-star", "[]", "--kappa", "[1,1,1]",
    ],
    ["verify", "--suite", "ring-axioms"],
    ["basis", "--family", "brauer", "--k", "3"],
)


def test_one_parser_serves_every_run_like_a_fresh_one(monkeypatch, capsys):
    assert cli._parser() is cli._parser()
    shared = []
    for argv in PARSER_REUSE_SEQUENCE:
        shared.append((run(argv), capsys.readouterr()))
    assert [code for code, _ in shared] == [2, 0, 0, 0, 0, 0]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    for argv, seen in zip(PARSER_REUSE_SEQUENCE, shared):
        assert (run(argv), capsys.readouterr()) == seen, argv


def test_basis_equivalence_checks_the_full_action_below_rank_m(
    monkeypatch, capsys
):
    # rep_columns never acts below rank m, so only the suite's own check
    # reaches this one non-zero term
    real = irreps.act_natural

    def nonzero_below_m(d, v, family=None):
        tab = next(iter(v))
        if diagrams.rank(d) < tab.m:
            return {tab: LaurentPoly.const(1)}
        return real(d, v, family)

    monkeypatch.setattr(irreps, "act_natural", nonzero_below_m)
    args = ["verify", "--suite", "basis-equivalence", "--family", "brauer"]
    assert run(args + ["--k", "3"]) == 1
    expected = [
        "FAIL basis-equivalence: %s at Brauer, k=3, %s, rank below m acts"
        " non-zero" % (g, lam)
        for lam in ("[3]", "[2,1]", "[1,1,1]")
        for g in ("1 2 | 3 3' | 1' 2'", "1 1' | 2 3 | 2' 3'")
    ]
    assert capsys.readouterr().out.splitlines() == expected + ["FAILURES above"]


def _identity_is_zero(monkeypatch):
    monkeypatch.setattr(
        Element, "identity", classmethod(lambda cls, k, f: cls.zero(k, f))
    )


def _compose_is_wrong(monkeypatch):
    monkeypatch.setattr(irreps, "compose_columns", lambda a, b: None)


def _twisted_has_an_extra_column(monkeypatch):
    real = irreps.rep_columns

    def extra(d, family, k, lam, basis="Twisted"):
        cols = real(d, family, k, lam, basis)
        return cols + [{}] if basis == "Twisted" else cols

    monkeypatch.setattr(irreps, "rep_columns", extra)


def _no_standard_tableaux(monkeypatch):
    monkeypatch.setattr(symrep, "standard_tableaux", lambda lam: ())


def _algebra_dim_is_zero(monkeypatch):
    monkeypatch.setattr(diagrams, "algebra_dim", lambda family, k: 0)


def _f_is_negative(monkeypatch):
    monkeypatch.setattr(characters, "f_coeff", lambda family, kappa, mu: -1)


def _tables_of_another_family(monkeypatch):
    real = characters.character_table
    monkeypatch.setattr(
        characters, "character_table", lambda f, k: real("SymmetricGroup", 1)
    )


def _factor_is_negated(monkeypatch):
    real = characters.CharacterTable.factor

    def negated(table):
        fac = real(table)
        f_block = [[-x for x in row] for row in fac.f_block]
        return types.SimpleNamespace(s_block=fac.s_block, f_block=f_block)

    monkeypatch.setattr(characters.CharacterTable, "factor", negated)


def _determinant_is_off(monkeypatch):
    monkeypatch.setattr(
        characters,
        "table_determinant_check",
        lambda family, k: characters.DeterminantCheck(1, 2, False),
    )


# each suite, a fault that fails its checks and the FAIL lines it writes,
# as patterns, for Brauer at k=2 (table-regression: the frozen tables)
SUITE_FAULTS = [
    ("ring-axioms", _identity_is_zero, ["identity broke"] * 2),
    (
        "module-axiom",
        _compose_is_wrong,
        [r"M\(a\)M\(b\) != M\(ab\) at Brauer, k=2, \[[0-9,]*\]"] * 2,
    ),
    (
        "basis-equivalence",
        _twisted_has_an_extra_column,
        [
            re.escape("%s at Brauer, k=2, %s" % (g.text(), format_partition(lam)))
            for lam in lambda_star_labels("brauer", 2)
            for g in diagrams.family_generators("brauer", 2)
        ],
    ),
    (
        "wedderburn",
        _no_standard_tableaux,
        ["Brauer, k=2, sizes differ from the lists"],
    ),
    ("wedderburn", _algebra_dim_is_zero, ["Brauer, k=2, sum of squares 3 != 0"]),
    (
        "fixedpoint-vs-formula",
        _f_is_negative,
        [
            re.escape("Brauer k=2 kappa=%s mu=%s" % (kappa, mu))
            for kappa in ("[2]", "[1,1]")
            for mu in ("[]", "[2]", "[1,1]")
        ],
    ),
    (
        "table-regression",
        _tables_of_another_family,
        [
            "%s, k=%d" % key
            for key in sorted(characters.REFERENCE_TABLES)
        ],
    ),
    (
        "table-regression",
        _factor_is_negated,
        [
            "factorization at %s, k=%d" % key
            for key in sorted(characters.REFERENCE_TABLES)
        ],
    ),
    ("determinant", _determinant_is_off, ["Brauer, k=2, got 1, expected 2"]),
]


@pytest.mark.parametrize(
    "suite, fault, messages",
    SUITE_FAULTS,
    ids=["%s-%s" % (s, f.__name__.strip("_")) for s, f, _ in SUITE_FAULTS],
)
def test_each_verify_suite_writes_a_fail_line_per_failed_check(
    suite, fault, messages, monkeypatch, tmp_path, capsys
):
    fault(monkeypatch)
    args = ["verify", "--suite", suite, "--cases", "2"]
    if suite != "table-regression":
        args += ["--family", "brauer", "--k", "2"]
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[-1] == "FAILURES above"
    assert len(lines) == len(messages) + 1, lines
    for line, message in zip(lines, messages):
        assert re.fullmatch("FAIL %s: %s" % (suite, message), line), line
    # the same report, written to --out and nowhere else
    target = tmp_path / "verify.txt"
    assert run(args + ["--out", str(target)]) == 1
    assert capsys.readouterr() == ("", "")
    assert target.read_text(encoding="utf-8") == captured.out


# a grammar of argv for the fuzz test below: every family and an unknown
# one, small k and bad k, and good and bad values for every option
FUZZ_DIAGRAMS = [
    "1 1'", "1 | 1'", "1 2 | 1' 2'", "1 1' | 2 2'", "1 2' | 2 1'",
    "1 2 | 1' | 2'", "1 1' | 2 2' | 3 3'", "1 2 3 | 1' 2' 3'",
    "1 2' | 2 3' | 3 1'", "", "|", "1 1' |", "1 3'", "1 1' | 1 2'", "x",
]
FUZZ_LABELS = [
    "[]", "[1]", "[2]", "[1,1]", "[2,1]", "[3]", "[1,1,1]", "[1,2]", "[0]",
    "x",
]
FUZZ_K = ["-1", "0", "1", "2", "3", "x"]
FUZZ_VALUES = {
    "--n": ["2", "1/2", "-1", "0", "1/0", "x"],
    "--format": ["text", "json", "csv", "xml"],
    "--lhs": FUZZ_DIAGRAMS,
    "--rhs": FUZZ_DIAGRAMS,
    "--d": FUZZ_DIAGRAMS,
    "--lambda-star": FUZZ_LABELS,
    "--kappa": FUZZ_LABELS,
    "--m": ["-1", "0", "1", "2", "x"],
    "--basis": ["twisted", "tableau", "natural"],
    "--s": ["-1", "0", "1", "x"],
    "--factor": [],
    "--family": [f.lower() for f in FAMILIES] + ["nosuch"],
    "--k": FUZZ_K,
}
# command -> (required flags, optional flags)
FUZZ_FLAGS = {
    "mul": (["--lhs", "--rhs"], ["--n", "--format"]),
    "basis": ([], ["--format"]),
    "dims": ([], []),
    "symdiag": (["--m"], ["--format"]),
    "sspt": (["--lambda-star"], ["--format"]),
    "irrep": (["--lambda-star", "--d"], ["--n", "--format", "--basis"]),
    "char": (["--lambda-star", "--kappa"], ["--s"]),
    "table": ([], ["--format", "--factor"]),
    "verify": ([], ["--family", "--k"]),
}


@st.composite
def fuzz_argv(draw):
    """(argv without --out, where --out points or None)."""
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    if command == "verify":
        argv = [
            "verify",
            "--suite", draw(st.sampled_from(sorted(cli._SUITES))),
            "--cases", draw(st.sampled_from(["1", "2"])),
        ]
    else:
        argv = [
            command,
            "--family", draw(st.sampled_from(FUZZ_VALUES["--family"])),
            "--k", draw(st.sampled_from(FUZZ_K)),
        ]
    required, optional = FUZZ_FLAGS[command]
    for flag in required + [f for f in optional if draw(st.booleans())]:
        argv.append(flag)
        if FUZZ_VALUES[flag]:
            argv.append(draw(st.sampled_from(FUZZ_VALUES[flag])))
    out = draw(st.sampled_from([None, "file", "missing-directory", "directory"]))
    return argv, out


@settings(
    max_examples=600,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(fuzz_argv())
def test_fuzzed_argv_ends_in_an_exit_code_and_no_traceback(
    tmp_path, capsys, drawn
):
    argv, out = drawn
    if out is not None:
        target = {
            "file": tmp_path / "out.txt",
            "missing-directory": tmp_path / "missing" / "out.txt",
            "directory": tmp_path,
        }[out]
        argv = argv + ["--out", str(target)]
    code = run(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2), argv
    if code == 1:
        assert captured.err.startswith("error:"), (argv, captured.err)
    if out in ("missing-directory", "directory"):
        assert code != 0 and captured.out == "", argv
