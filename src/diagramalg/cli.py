"""Command-line interface.

Subcommands cover diagram multiplication, basis and module enumeration,
representation matrices, characters, character tables, and a self-check
suite.  Exit codes: 0 on success, 1 for domain errors (bad diagrams,
labels outside a family, caps), 2 for usage errors.
"""

import argparse
import json
import random
import sys
from fractions import Fraction
from functools import lru_cache

from . import characters, diagrams, irreps, symrep
from .coeff import Element, LaurentPoly
from .errors import DiagramAlgebraError, IndexOutOfRange
from .partitions import lambda_star_labels, rank_set


def _family_type(text):
    try:
        return diagrams.normalize_family(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _partition_type(text):
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    body = body.replace(",", " ").strip()
    if not body:
        return ()
    try:
        parts = tuple(int(tok) for tok in body.split())
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a partition like [2,1], got %r" % (text,)
        ) from None
    if any(p < 1 for p in parts):
        raise argparse.ArgumentTypeError(
            "partition parts must be positive, got %r" % (text,)
        )
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise argparse.ArgumentTypeError(
            "partition parts must weakly decrease, got %r" % (text,)
        )
    return parts


def _positive_int(text):
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            "expected a positive integer, got %r" % (text,)
        )
    return int(text)


def _fraction_type(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "expected a rational number, got %r" % (text,)
        ) from None


def _basis_type(text):
    try:
        return irreps._normalize_basis(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit(text, out_path):
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# json writes tuples as lists, so the JSON helpers pass the stored block
# tuples as they are
def _diagram_json(d):
    return {"k": d.k, "blocks": d.blocks}


def _element_json(elem):
    return [
        {"coeff": c.to_json_obj(), "diagram": _diagram_json(d)}
        for d, c in elem.terms()
    ]


def _tableau_json(tab):
    return {
        "lambda_star": tab.lambda_star,
        "first_row": tab.first_row,
        "body": tab.body,
    }


def _cmd_mul(args):
    lhs = diagrams.parse_diagram(args.lhs, args.k)
    rhs = diagrams.parse_diagram(args.rhs, args.k)
    product = Element.from_diagram(lhs, args.family) * Element.from_diagram(
        rhs, args.family
    )
    if args.format == "json":
        if args.n is not None:
            payload = [
                {
                    "coeff": {"num": c.numerator, "den": c.denominator},
                    "diagram": _diagram_json(d),
                }
                for d, c in product.evaluate(args.n).items()
            ]
        else:
            payload = _element_json(product)
        _emit(json.dumps(payload, separators=(",", ":")), args.out)
        return 0
    lines = []
    if args.n is not None:
        for d, c in product.evaluate(args.n).items():
            lines.append("%s * %s" % (c, d.text()))
    else:
        for d, c in product.terms():
            lines.append("%s * %s" % (c, d.text()))
    _emit("\n".join(lines) if lines else "0", args.out)
    return 0


def _cmd_basis(args):
    # each diagram is joined from its blocks' strings, each block rendered
    # once per listing; the bytes are those of json.dumps and format_diagram
    basis = diagrams.enumerate_basis(args.family, args.k)
    if args.format == "json":
        block = diagrams.block_json().__getitem__
        head = '{"k":%d,"blocks":[' % args.k
        listing = ",".join(
            [head + ",".join(map(block, d.blocks)) + "]}" for d in basis]
        )
        _emit(
            '{"family":%s,"k":%d,"count":%d,"diagrams":[%s]}'
            % (json.dumps(args.family), args.k, len(basis), listing),
            args.out,
        )
        return 0
    block = diagrams.block_text(args.k).__getitem__
    _emit(
        "\n".join([" | ".join(map(block, d.blocks)) for d in basis]), args.out
    )
    return 0


def _module_dims(family, k):
    """Each module's (label, rank m, symmetric diagrams, tableaux, dim),
    the sum of the squared dims and the algebra's dimension.  F at the
    identity class counts the diagrams and chi^lam the tableaux, so
    Wedderburn's sum checks F against the closed-form algebra dimension."""
    rows = []
    for lam in lambda_star_labels(family, k):
        m = sum(lam)
        count_w = characters.f_coeff(family, (1,) * k, (1,) * m)
        f = symrep.sym_dim(lam)
        rows.append((lam, m, count_w, f, count_w * f))
    total = sum(row[-1] ** 2 for row in rows)
    return rows, total, diagrams.algebra_dim(family, k)


def _cmd_dims(args):
    rows, total, alg = _module_dims(args.family, args.k)
    lines = [
        "lambda_star=%s m=%d symmetric=%d tableaux=%d dim=%d"
        % (characters.format_partition(lam), m, count_w, f, dim)
        for lam, m, count_w, f, dim in rows
    ]
    lines.append(
        "sum_of_squares=%d algebra_dim=%d ok=%s"
        % (total, alg, "true" if total == alg else "false")
    )
    _emit("\n".join(lines), args.out)
    return 0 if total == alg else 1


def _cmd_symdiag(args):
    ws = irreps.enumerate_symmetric(args.family, args.k, args.m)
    if args.format == "json":
        payload = [{"top": w.top, "propagating": w.propagating} for w in ws]
        _emit(json.dumps(payload, separators=(",", ":")), args.out)
        return 0
    _emit("\n".join(w.text() for w in ws), args.out)
    return 0


def _cmd_sspt(args):
    tabs = irreps.enumerate_sspt(args.family, args.k, args.lambda_star)
    if args.format == "json":
        payload = [_tableau_json(t) for t in tabs]
        _emit(json.dumps(payload, separators=(",", ":")), args.out)
        return 0
    _emit("\n".join(t.text() for t in tabs), args.out)
    return 0


def _cmd_irrep(args):
    d = diagrams.parse_diagram(args.d, args.k)
    mat = irreps.rep_matrix_irrep(
        d, args.family, args.k, args.lambda_star, args.basis
    )
    if args.n is not None:
        # a zero cell is written as 0 without evaluating it
        values = [
            [entry.evaluate(args.n) if entry else 0 for entry in row]
            for row in mat
        ]
        if args.format == "json":
            # the bytes of json.dumps, each row joined from cell strings
            # and every zero cell one constant
            cell = '{"num":%d,"den":%d}'
            zero = cell % (0, 1)
            rows = [
                ",".join(
                    [cell % (v.numerator, v.denominator) if v else zero
                     for v in row]
                )
                for row in values
            ]
            _emit("[[%s]]" % "],[".join(rows) if rows else "[]", args.out)
            return 0
        _emit(
            "\n".join(", ".join(str(v) for v in row) for row in values),
            args.out,
        )
        return 0
    if args.format == "json":
        payload = [[entry.to_json_obj() for entry in row] for row in mat]
        _emit(json.dumps(payload, separators=(",", ":")), args.out)
        return 0
    _emit(
        "\n".join(", ".join(str(entry) for entry in row) for row in mat),
        args.out,
    )
    return 0


def _cmd_char(args):
    value = characters.irr_character(
        args.family, args.k, args.lambda_star, args.kappa, args.s
    )
    _emit(str(value), args.out)
    return 0


def _cmd_table(args):
    table = characters.character_table(args.family, args.k)
    render = {
        "text": table.to_text,
        "json": table.to_json,
        "csv": table.to_csv,
    }[args.format]
    _emit(render(factor=args.factor), args.out)
    return 0


def _suite_ring_axioms(family, k, rng, cases, report):
    basis = diagrams.enumerate_basis(family, k)
    ident = Element.identity(k, family)
    ok = True
    for _ in range(cases):
        a, b, c = (
            Element.from_diagram(rng.choice(basis), family) for _ in range(3)
        )
        if (a * b) * c != a * (b * c):
            report("FAIL ring-axioms: associativity broke")
            ok = False
        if a * (b + c) != a * b + a * c:
            report("FAIL ring-axioms: left distributivity broke")
            ok = False
        if (b + c) * a != b * a + c * a:
            report("FAIL ring-axioms: right distributivity broke")
            ok = False
        if ident * a != a or a * ident != a:
            report("FAIL ring-axioms: identity broke")
            ok = False
    if ok:
        report(
            "ok ring-axioms (%s, k=%d, %d random triples)" % (family, k, cases)
        )
    return ok


def _suite_module_axiom(family, k, rng, cases, report):
    labels = lambda_star_labels(family, k)
    basis = diagrams.enumerate_basis(family, k)
    ok = True
    for _ in range(cases):
        a = rng.choice(basis)
        b = rng.choice(basis)
        lam = rng.choice(labels)
        cols_a = irreps.rep_columns(a, family, k, lam)
        cols_b = irreps.rep_columns(b, family, k, lam)
        prod, deleted = diagrams.concat(a, b)
        cols_ab = irreps.rep_columns(prod, family, k, lam)
        scale = LaurentPoly.monomial(deleted)
        scaled = [
            {i: scale * c for i, c in col.items()} for col in cols_ab
        ]
        if irreps.compose_columns(cols_a, cols_b) != scaled:
            report(
                "FAIL module-axiom: M(a)M(b) != M(ab) at %s, k=%d, %s"
                % (family, k, characters.format_partition(lam))
            )
            ok = False
    if ok:
        report(
            "ok module-axiom (%s, k=%d, %d random pairs)" % (family, k, cases)
        )
    return ok


def _suite_basis_equivalence(family, k, rng, cases, report):
    ok = True
    for lam in lambda_star_labels(family, k):
        for g in diagrams.family_generators(family, k):
            twisted = irreps.rep_columns(g, family, k, lam, "Twisted")
            tableau = irreps.rep_columns(g, family, k, lam, "Tableau")
            if twisted != tableau:
                report(
                    "FAIL basis-equivalence: %s at %s, k=%d, %s"
                    % (
                        g.text(),
                        family,
                        k,
                        characters.format_partition(lam),
                    )
                )
                ok = False
    if ok:
        report("ok basis-equivalence (%s, k=%d)" % (family, k))
    return ok


def _suite_wedderburn(family, k, rng, cases, report):
    rows, total, alg = _module_dims(family, k)
    # the listed diagrams and tableaux are the oracle for the closed forms
    if not all(
        len(irreps.enumerate_symmetric(family, k, m)) == count_w
        and len(symrep.standard_tableaux(lam)) == f
        for lam, m, count_w, f, _ in rows
    ):
        report("FAIL wedderburn: %s, k=%d, sizes differ from the lists"
               % (family, k))
        return False
    if total == alg:
        report("ok wedderburn (%s, k=%d, dim=%d)" % (family, k, alg))
        return True
    report(
        "FAIL wedderburn: %s, k=%d, sum of squares %d != %d"
        % (family, k, total, alg)
    )
    return False


def _suite_fixedpoint(family, k, rng, cases, report):
    ok = True
    for kappa in characters.class_labels(family, k):
        if sum(kappa) != k:
            continue
        for m in rank_set(family, k):
            counted = characters.fixed_points(family, k, m, kappa)
            for mu, ws in counted.items():
                if len(ws) != characters.f_coeff(family, kappa, mu):
                    report(
                        "FAIL fixedpoint-vs-formula: %s k=%d kappa=%s mu=%s"
                        % (
                            family,
                            k,
                            characters.format_partition(kappa),
                            characters.format_partition(mu),
                        )
                    )
                    ok = False
    if ok:
        report("ok fixedpoint-vs-formula (%s, k=%d)" % (family, k))
    return ok


def _suite_table_regression(family, k, rng, cases, report):
    ok = True
    for (family, k), ref in sorted(characters.REFERENCE_TABLES.items()):
        table = characters.character_table(family, k)
        if (
            table.row_labels != ref["rows"]
            or table.col_labels != ref["cols"]
            or table.values != ref["values"]
        ):
            report("FAIL table-regression: %s, k=%d" % (family, k))
            ok = False
            continue
        fac = table.factor()
        size = len(table.row_labels)
        product = [
            [
                sum(
                    fac.s_block[i][l] * fac.f_block[l][j] for l in range(size)
                )
                for j in range(len(table.col_labels))
            ]
            for i in range(size)
        ]
        if product != table.values:
            report(
                "FAIL table-regression: factorization at %s, k=%d"
                % (family, k)
            )
            ok = False
    if ok:
        report("ok table-regression (%d frozen tables)" % len(
            characters.REFERENCE_TABLES
        ))
    return ok


def _suite_determinant(family, k, rng, cases, report):
    check = characters.table_determinant_check(family, k)
    if check.ok:
        report(
            "ok determinant (%s, k=%d, |det|=%d)"
            % (family, k, check.determinant)
        )
        return True
    report(
        "FAIL determinant: %s, k=%d, got %d, expected %d"
        % (family, k, check.determinant, check.expected)
    )
    return False


_PARTITION_ONLY = (diagrams.PARTITION,)

# suite -> (runner, default families, default k of a family), in the
# order a bare verify runs them.  Every runner takes (family, k, rng,
# cases, report); table-regression reads only report.
_SUITES = {
    "ring-axioms": (_suite_ring_axioms, _PARTITION_ONLY, lambda f: 2),
    "module-axiom": (_suite_module_axiom, _PARTITION_ONLY, lambda f: 2),
    "basis-equivalence": (_suite_basis_equivalence, _PARTITION_ONLY, lambda f: 3),
    "wedderburn": (
        _suite_wedderburn,
        diagrams.FAMILIES,
        lambda f: 3 if f == diagrams.PARTITION else 4,
    ),
    "fixedpoint-vs-formula": (_suite_fixedpoint, _PARTITION_ONLY, lambda f: 3),
    "table-regression": (_suite_table_regression, (None,), lambda f: None),
    "determinant": (_suite_determinant, diagrams.FAMILIES, lambda f: 3),
}


def _cmd_verify(args):
    if args.k is not None and args.k < 1:
        raise IndexOutOfRange(
            "k must be a positive integer, got %r" % (args.k,)
        )
    if args.suite == "table-regression" and (
        args.family is not None or args.k is not None
    ):
        raise ValueError(
            "table-regression checks only the %d frozen tables and takes "
            "no --family or --k" % len(characters.REFERENCE_TABLES)
        )
    lines = []
    try:
        ok = _run_suites(args, lines.append)
    except Exception:
        # keep what the suites before the failing one reported
        if lines:
            _emit("\n".join(lines), args.out)
        raise
    lines.append("all checks passed" if ok else "FAILURES above")
    _emit("\n".join(lines), args.out)
    return 0 if ok else 1


def _run_suites(args, report):
    rng = random.Random(args.seed)
    ok = True
    for suite in [args.suite] if args.suite else _SUITES:
        runner, families, default_k = _SUITES[suite]
        for fam in [args.family] if args.family else families:
            k = default_k(fam) if args.k is None else args.k
            ok &= runner(fam, k, rng, args.cases, report)
    return ok


def build_parser():
    parser = argparse.ArgumentParser(
        prog="diagramalg",
        description="Diagram algebras: bases, modules, characters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, n_flag=False, fmt=("text", "json")):
        p.add_argument(
            "--family", type=_family_type, required=True, help="diagram family"
        )
        p.add_argument("--k", type=int, required=True, help="strand count")
        if n_flag:
            p.add_argument(
                "--n",
                type=_fraction_type,
                default=None,
                help="numeric value for the parameter (default: symbolic)",
            )
        if fmt:
            p.add_argument("--format", choices=fmt, default=fmt[0])
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("mul", help="multiply two diagrams")
    add_common(p, n_flag=True)
    p.add_argument("--lhs", required=True, help="left diagram, block notation")
    p.add_argument("--rhs", required=True, help="right diagram, block notation")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("basis", help="list all diagrams of the family")
    add_common(p)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("dims", help="module dimensions and the square sum")
    add_common(p, fmt=None)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("symdiag", help="list symmetric diagrams of rank m")
    add_common(p)
    p.add_argument("--m", type=int, required=True, help="propagating blocks")
    p.set_defaults(func=_cmd_symdiag)

    p = sub.add_parser("sspt", help="list standard set-partition tableaux")
    add_common(p)
    p.add_argument(
        "--lambda-star", type=_partition_type, required=True, dest="lambda_star"
    )
    p.set_defaults(func=_cmd_sspt)

    p = sub.add_parser("irrep", help="matrix of a diagram on a module")
    add_common(p, n_flag=True)
    p.add_argument(
        "--lambda-star", type=_partition_type, required=True, dest="lambda_star"
    )
    p.add_argument("--d", required=True, help="diagram, block notation")
    p.add_argument("--basis", type=_basis_type, default="Twisted")
    p.set_defaults(func=_cmd_irrep)

    p = sub.add_parser("char", help="irreducible character value")
    add_common(p, fmt=None)
    p.add_argument(
        "--lambda-star", type=_partition_type, required=True, dest="lambda_star"
    )
    p.add_argument("--kappa", type=_partition_type, required=True)
    p.add_argument("--s", type=int, default=None, help="tail length check")
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("table", help="full character table")
    add_common(p, fmt=("text", "json", "csv"))
    p.add_argument("--factor", action="store_true", help="include S and F")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run consistency suites")
    p.add_argument("--suite", choices=_SUITES, default=None)
    p.add_argument("--family", type=_family_type, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_positive_int, default=25)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


@lru_cache(maxsize=None)
def _parser():
    # parsing leaves the parser as it was, so one serves every run
    return build_parser()


def run(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (DiagramAlgebraError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
