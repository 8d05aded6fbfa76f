"""Command-line interface.

Subcommands cover diagram multiplication, basis and module enumeration,
representation matrices, characters, character tables, and a self-check
suite.  Each command returns its text and exit code, and run writes the
text to stdout or --out.  Exit codes: 0 on success, 1 for domain errors
(bad diagrams, labels outside a family, caps), an --out that cannot be
written and memory running out, 2 for usage errors.
"""

import argparse
import errno
import json
import os
import sys
from fractions import Fraction

from . import characters, diagrams, irreps, oracles
from .coeff import ZERO, Element
from .errors import DiagramAlgebraError
from .partitions import check_partition


def _arg(parse, expected=None):
    """The argparse type of parse: its ValueError (or the ZeroDivisionError
    of 1/0) is the usage error, worded as raised or as expected says."""

    def parse_arg(text):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(
                "expected %s, got %r" % (expected, text) if expected else str(exc)
            ) from None

    return parse_arg


def _partition(text):
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    try:
        parts = tuple(int(tok) for tok in body.replace(",", " ").split())
    except ValueError:
        raise ValueError(
            "expected a partition like [2,1], got %r" % (text,)
        ) from None
    return check_partition(parts)


def _positive_int(text):
    if not text.strip().isdigit() or int(text) < 1:
        raise ValueError(text)
    return int(text)


def _check_out(path):
    """Refuse an --out that cannot be written before any work starts,
    creating and truncating nothing, with the error open() would give."""
    parent = os.path.dirname(path) or "."
    if not path:
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _emit(text, out_path):
    if not text.endswith("\n"):
        text += "\n"
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _listing(fmt, items, as_json, as_text):
    """One as_text(item) per line, or the JSON list of each as_json(item);
    both join per-block strings, so the bytes are those of text() and of
    json.dumps with compact separators."""
    if fmt == "json":
        return "[%s]" % ",".join(map(as_json, items))
    return "\n".join(map(as_text, items))


def _cmd_mul(args):
    lhs = diagrams.parse_diagram(args.lhs, args.k)
    rhs = diagrams.parse_diagram(args.rhs, args.k)
    product = Element.from_diagram(lhs, args.family) * Element.from_diagram(
        rhs, args.family
    )
    if args.n is None:
        terms = product.terms()
    else:
        terms = product.evaluate(args.n).items()
    cell = _cell_writer(args.format, args.n)
    if args.format == "json":
        # the bytes of json.dumps, each term joined from block strings
        block = diagrams.block_json().__getitem__
        return "[%s]" % ",".join(
            '{"coeff":%s,"diagram":{"k":%d,"blocks":[%s]}}'
            % (cell(c), d.k, ",".join(map(block, d.blocks)))
            for d, c in terms
        ), 0
    lines = ["%s * %s" % (cell(c), d.text()) for d, c in terms]
    return "\n".join(lines) if lines else "0", 0


def _cell_writer(fmt, n):
    """How one coefficient is written: str in text; in JSON the bytes of
    json.dumps, of a polynomial, or of a rational at a numeric n."""
    if fmt != "json":
        return str
    if n is None:
        return lambda p: json.dumps(p.to_json_obj(), separators=(",", ":"))
    return lambda v: '{"num":%d,"den":%d}' % (v.numerator, v.denominator)


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
        return '{"family":%s,"k":%d,"count":%d,"diagrams":[%s]}' % (
            json.dumps(args.family), args.k, len(basis), listing
        ), 0
    block = diagrams.block_text(args.k).__getitem__
    return "\n".join([" | ".join(map(block, d.blocks)) for d in basis]), 0


def _cmd_dims(args):
    rows, total, alg = oracles._module_dims(args.family, args.k)
    lines = [
        "lambda_star=%s m=%d symmetric=%d tableaux=%d dim=%d"
        % (characters.format_partition(lam), m, count_w, f, dim)
        for lam, m, count_w, f, dim in rows
    ]
    lines.append(
        "sum_of_squares=%d algebra_dim=%d ok=%s"
        % (total, alg, "true" if total == alg else "false")
    )
    return "\n".join(lines), 0 if total == alg else 1


def _cmd_symdiag(args):
    ws = irreps.enumerate_symmetric(args.family, args.k, args.m)
    block = diagrams.block_json().__getitem__
    blocks = irreps.symmetric_blocks()
    return _listing(
        args.format,
        ws,
        lambda w: '{"top":[%s],"propagating":[%s]}'
        % (",".join(map(block, w.top)), ",".join(map(block, w.propagating))),
        lambda w: irreps._symmetric_text(w, blocks),
    ), 0


def _cmd_sspt(args):
    tabs = irreps.enumerate_sspt(args.family, args.k, args.lambda_star)
    block = diagrams.block_json().__getitem__
    text_block = irreps.tableau_blocks()

    def row(blocks):
        return "[%s]" % ",".join(map(block, blocks))

    return _listing(
        args.format,
        tabs,
        lambda t: '{"lambda_star":%s,"first_row":%s,"body":[%s]}'
        % (block(t.lambda_star), row(t.first_row), ",".join(map(row, t.body))),
        lambda t: irreps._tableau_text(t, text_block),
    ), 0


def _cmd_irrep(args):
    d = diagrams.parse_diagram(args.d, args.k)
    mat = irreps.rep_matrix_irrep(
        d, args.family, args.k, args.lambda_star, args.basis
    )
    # every zero cell of mat is the constant ZERO: it is rendered once (and
    # not evaluated at a numeric n); any other zero renders the same bytes
    zero = ZERO
    if args.n is not None:
        zero = 0
        mat = [
            [zero if entry is ZERO else entry.evaluate(args.n) for entry in row]
            for row in mat
        ]
    # the bytes of json.dumps or str, each row joined from cell strings
    cell = _cell_writer(args.format, args.n)
    sep = "," if args.format == "json" else ", "
    blank = cell(zero)
    rows = [sep.join([blank if v is zero else cell(v) for v in row]) for row in mat]
    if args.format == "json":
        return "[[%s]]" % "],[".join(rows) if rows else "[]", 0
    return "\n".join(rows), 0


def _cmd_char(args):
    value = characters.irr_character(args.family, args.k, args.lambda_star, args.kappa)
    return str(value), 0


def _cmd_table(args):
    table = characters.character_table(args.family, args.k)
    render = {
        "text": table.to_text,
        "json": table.to_json,
        "csv": table.to_csv,
    }[args.format]
    return render(factor=args.factor), 0


def _cmd_verify(args):
    if args.k is not None:
        diagrams._check_k(args.k)
    if args.suite == "table-regression" and (args.family, args.k) != (None, None):
        raise ValueError(
            "table-regression checks only the %d frozen tables and takes "
            "no --family or --k" % len(characters.REFERENCE_TABLES)
        )
    lines = []
    try:
        ok = oracles.run_suites(
            args.suite, args.family, args.k, args.seed, args.cases, lines.append
        )
    except Exception:
        # keep what the suites before the failing one reported
        if lines:
            _emit("\n".join(lines), args.out)
        raise
    lines.append("all checks passed" if ok else "FAILURES above")
    return "\n".join(lines), 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="diagramalg",
        description="Diagram algebras: bases, modules, characters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    family_type = _arg(diagrams.normalize_family)
    partition_type = _arg(_partition)

    def add_common(p, n_flag=False, fmt=("text", "json"), lambda_star=False):
        p.add_argument(
            "--family", type=family_type, required=True, help="diagram family"
        )
        p.add_argument("--k", type=int, required=True, help="strand count")
        if n_flag:
            p.add_argument(
                "--n",
                type=_arg(Fraction, "a rational number"),
                default=None,
                help="numeric value for the parameter (default: symbolic)",
            )
        if fmt:
            p.add_argument("--format", choices=fmt, default=fmt[0])
        p.add_argument("--out", default=None, help="write output to a file")
        if lambda_star:
            p.add_argument(
                "--lambda-star", type=partition_type, required=True, dest="lambda_star"
            )

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
    add_common(p, lambda_star=True)
    p.set_defaults(func=_cmd_sspt)

    p = sub.add_parser("irrep", help="matrix of a diagram on a module")
    add_common(p, n_flag=True, lambda_star=True)
    p.add_argument("--d", required=True, help="diagram, block notation")
    p.add_argument("--basis", type=_arg(irreps._normalize_basis), default="Twisted")
    p.set_defaults(func=_cmd_irrep)

    p = sub.add_parser("char", help="irreducible character value")
    add_common(p, fmt=None, lambda_star=True)
    p.add_argument("--kappa", type=partition_type, required=True)
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("table", help="full character table")
    add_common(p, fmt=("text", "json", "csv"))
    p.add_argument("--factor", action="store_true", help="include S and F")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run consistency suites")
    p.add_argument("--suite", choices=oracles._SUITES, default=None)
    p.add_argument("--family", type=family_type, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--cases", type=_arg(_positive_int, "a positive integer"), default=25
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


@diagrams._memo()
def _parser():
    # parsing leaves the parser as it was, so one serves every run
    return build_parser()


def run(argv=None):
    # a command's objects die when it returns and form no reference cycle,
    # so a collector pass over them while they live finds nothing to free
    with diagrams._collector_paused():
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code else 0
        try:
            if args.out is not None:
                _check_out(args.out)
            text, code = args.func(args)
            _emit(text, args.out)
            return code
        # a k too large for a range overflows, and a listing too large for
        # memory runs until it is out (no budget bounds either yet); that
        # traceback holds what ran out, so the line waits until it is freed
        except (DiagramAlgebraError, ValueError, OverflowError, OSError) as exc:
            message = exc
        except MemoryError:
            message = "out of memory"
        print("error: %s" % message, file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
