import json
import time
from fractions import Fraction

import pytest

from diagramalg import characters, cli, irreps, symrep
from diagramalg.cli import run
from diagramalg.diagrams import (
    FAMILIES,
    PARTITION,
    PLANAR_PARTITION,
    enumerate_basis,
    format_diagram,
)
from diagramalg.errors import CapExceeded

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
