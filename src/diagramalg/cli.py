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
import random
import sys
from fractions import Fraction
from math import factorial, prod

from . import characters, diagrams, irreps, symrep
from .coeff import ONE, ZERO, Element, LaurentPoly
from .errors import DiagramAlgebraError
from .partitions import check_partition, lambda_star_labels, rank_set


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


def _basis_draws(family, k, rng):
    """A draw of one basis diagram: the one rng.choice(enumerate_basis(
    family, k)) picks, from the same randrange call, found by its rank."""
    family = diagrams.normalize_family(family)
    diagrams._check_cap("enumerate_basis", family, k)
    points, shape = tuple(range(1, 2 * k + 1)), diagrams._SHAPES[family]
    count = diagrams._count_covers(k, points, shape)
    return lambda: diagrams.Diagram(
        k, diagrams._cover_at(k, points, shape, rng.randrange(count))
    )


def _suite_ring_axioms(family, k, rng, cases, fail):
    draw = _basis_draws(family, k, rng)
    ident = Element.identity(k, family)
    for _ in range(cases):
        a, b, c = (Element.from_diagram(draw(), family) for _ in range(3))
        if (a * b) * c != a * (b * c):
            fail("associativity broke")
        if a * (b + c) != a * b + a * c:
            fail("left distributivity broke")
        if (b + c) * a != b * a + c * a:
            fail("right distributivity broke")
        if ident * a != a or a * ident != a:
            fail("identity broke")
    return "%s, k=%d, %d random triples" % (family, k, cases)


def _suite_module_axiom(family, k, rng, cases, fail):
    draw = _basis_draws(family, k, rng)
    labels = lambda_star_labels(family, k)
    for _ in range(cases):
        a = draw()
        b = draw()
        lam = rng.choice(labels)
        cols_a = irreps.rep_columns(a, family, k, lam)
        cols_b = irreps.rep_columns(b, family, k, lam)
        ab, deleted = diagrams.concat(a, b)
        cols_ab = irreps.rep_columns(ab, family, k, lam)
        scale = LaurentPoly.monomial(deleted)
        scaled = [
            {i: scale * c for i, c in col.items()} for col in cols_ab
        ]
        if irreps.compose_columns(cols_a, cols_b) != scaled:
            fail(
                "M(a)M(b) != M(ab) at %s, k=%d, %s"
                % (family, k, characters.format_partition(lam))
            )
    return "%s, k=%d, %d random pairs" % (family, k, cases)


def _suite_basis_equivalence(family, k, rng, cases, fail):
    for lam in lambda_star_labels(family, k):
        for g in diagrams.family_generators(family, k):
            where = "%s at %s, k=%d, %s" % (
                g.text(), family, k, characters.format_partition(lam)
            )
            twisted = irreps.rep_columns(g, family, k, lam, "Twisted")
            tableau = irreps.rep_columns(g, family, k, lam, "Tableau")
            if twisted != tableau:
                fail(where)
            # below rank m rep_columns answers zero without acting, so the
            # full actions are what its zero columns are compared with
            if diagrams.rank(g) < sum(lam) and any(
                irreps.act_twisted(g, {v: ONE})
                or irreps.act_natural(g, {irreps.tableau_from_pair(*v): ONE})
                for v in irreps._module_basis(family, k, lam, "Twisted")[0]
            ):
                fail("%s, rank below m acts non-zero" % where)
    return "%s, k=%d" % (family, k)


def _suite_wedderburn(family, k, rng, cases, fail):
    rows, total, alg = _module_dims(family, k)
    # the listed diagrams and tableaux are the oracle for the closed forms
    if not all(
        len(irreps.enumerate_symmetric(family, k, m)) == count_w
        and len(symrep.standard_tableaux(lam)) == f
        for lam, m, count_w, f, _ in rows
    ):
        fail("%s, k=%d, sizes differ from the lists" % (family, k))
    elif total != alg:
        fail("%s, k=%d, sum of squares %d != %d" % (family, k, total, alg))
    return "%s, k=%d, dim=%d" % (family, k, alg)


def _suite_fixedpoint(family, k, rng, cases, fail):
    diagrams._check_cap("fixed_points", family, k)
    fmt = characters.format_partition
    for kappa in characters.class_labels(family, k):
        if sum(kappa) != k:
            continue
        for m in rank_set(family, k):
            counted = characters.fixed_points(family, k, m, kappa)
            for mu, ws in counted.items():
                if len(ws) != characters.f_coeff(family, kappa, mu):
                    fail("%s k=%d kappa=%s mu=%s" % (family, k, fmt(kappa), fmt(mu)))
    return "%s, k=%d" % (family, k)


def _suite_table_regression(family, k, rng, cases, fail):
    for (family, k), ref in sorted(characters.REFERENCE_TABLES.items()):
        table = characters.character_table(family, k)
        if (
            table.row_labels != ref["rows"]
            or table.col_labels != ref["cols"]
            or table.values != ref["values"]
        ):
            fail("%s, k=%d" % (family, k))
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
            fail("factorization at %s, k=%d" % (family, k))
    return "%d frozen tables" % len(characters.REFERENCE_TABLES)


def _suite_determinant(family, k, rng, cases, fail):
    check = characters.table_determinant_check(family, k)
    if not check.ok:
        fail(
            "%s, k=%d, got %d, expected %d"
            % (family, k, check.determinant, check.expected)
        )
    return "%s, k=%d, |det|=%d" % (family, k, check.determinant)


def _suite_trace_oracle(family, k, rng, cases, fail):
    diagrams._check_cap("character_oracle", family, k)
    fmt = characters.format_partition
    misses = irreps._conjugate.cache_info().misses
    labels = lambda_star_labels(family, k)
    classes = characters.class_labels(family, k)
    # classes outer, labels inner, the order character_oracle asks for
    for kappa in classes:
        for lam in labels:
            trace = characters.character_oracle(family, k, lam, kappa)
            value = characters.irr_character(family, k, lam, kappa)
            if trace != LaurentPoly.const(value):
                cell = (family, k, fmt(lam), fmt(kappa), trace, value)
                fail("%s k=%d lambda*=%s kappa=%s: trace %s, chi %d" % cell)
    cells = len(classes) * len(labels)
    stacks = irreps._conjugate.cache_info().misses - misses
    return "%s, k=%d, %d cells, %d stacks built" % (family, k, cells, stacks)


def _cells(lam):
    """The cells (i, j) of lam, 1-indexed."""
    return [(i, j) for i, part in enumerate(lam, 1) for j in range(1, part + 1)]


def _transpose(lam):
    width = lam[0] if lam else 0
    return tuple(sum(part >= j for part in lam) for j in range(1, width + 1))


def _hook_product(lam):
    cols = _transpose(lam)
    return prod(lam[i - 1] - j + cols[j - 1] - i + 1 for i, j in _cells(lam))


def _symmetric_dim(lam, n):
    # f^(n - m, lam): the hook length formula for S_n
    return factorial(n) // _hook_product((n - sum(lam),) + lam)


def _general_linear_dim(lam, n):
    # s_lam(1^n): the hook content formula for GL_n
    return prod(n + j - i for i, j in _cells(lam)) // _hook_product(lam)


def _orthogonal_dim(lam, n):
    # El Samra and King for O(n); a part past the length of lam counts as 0
    pad = (0,) * sum(lam)
    rows, cols = lam + pad, _transpose(lam) + pad
    return prod(
        n + rows[i - 1] + rows[j - 1] - i - j
        if i <= j
        else n - cols[i - 1] - cols[j - 1] + i + j - 2
        for i, j in _cells(lam)
    ) // _hook_product(lam)


# family -> (D(lambda*, N), b(N)) for a group G on a space T: S_N, GL_N or
# O(N) on C^N (and C^N + C with rooks), SL_2 on C^2, C^2 + C or C^2 (x) C^2,
# GL_1 on C + C.  A planar label (m,) stands for its SL_2 or GL_1 weight
_TENSOR_SPACES = {
    "Partition": (_symmetric_dim, lambda n: n),
    "SymmetricGroup": (_general_linear_dim, lambda n: n),
    "Rook": (_general_linear_dim, lambda n: n + 1),
    "Brauer": (_orthogonal_dim, lambda n: n),
    "RookBrauer": (_orthogonal_dim, lambda n: n + 1),
    "TemperleyLieb": (lambda lam, n: sum(lam) + 1, lambda n: 2),
    "Motzkin": (lambda lam, n: sum(lam) + 1, lambda n: 3),
    "PlanarRook": (lambda lam, n: 1, lambda n: 2),
    "PlanarPartition": (lambda lam, n: 2 * sum(lam) + 1, lambda n: 4),
}


def _suite_schur_weyl(family, k, rng, cases, fail):
    """Fail each cell (kappa, N) of character_table(family, k), N = 2k ..
    3k, where the Schur–Weyl identity fails.  On T^(x k), each cycle of
    gamma_kappa adds b(N) = dim T to the trace; for N >= 2k the modules
    split T^(x k), lambda* D_lambda*(N) times, so sum over lambda* of
    D_lambda*(N) * chi^lambda*(kappa) = b(N) ** len(kappa), polynomials in
    N of degree at most k, which k + 1 values of N decide."""
    table = characters.character_table(family, k)
    dim, base = _TENSOR_SPACES[table.family]
    for n in range(2 * k, 3 * k + 1):
        dims = [dim(lam, n) for lam in table.row_labels]
        for c, kappa in enumerate(table.col_labels):
            left = sum(d * row[c] for d, row in zip(dims, table.values))
            right = base(n) ** len(kappa)
            if left != right:
                cell = (family, k, characters.format_partition(kappa), n, left, right)
                fail("%s k=%d kappa=%s N=%d: %d != %d" % cell)
    return (
        "%s, k=%d, %d cells, each a class's sum over the labels weighted by D(N)"
        " at one N in %d..%d, not a single entry"
        % (family, k, len(table.col_labels) * (k + 1), 2 * k, 3 * k)
    )


_PARTITION_ONLY = (diagrams.PARTITION,)

# suite -> (runner, default families, default k of a family).  A bare
# verify runs them in this order, all but the _NAMED_ONLY ones, which run
# only when --suite names them.  Every runner takes (family, k, rng,
# cases, fail), calls fail(message) once per failed check and returns
# what its ok line reports; table-regression reads only fail.
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
    "trace-oracle": (_suite_trace_oracle, diagrams.FAMILIES, lambda f: 3),
    "schur-weyl": (_suite_schur_weyl, diagrams.FAMILIES, lambda f: 6),
}
_NAMED_ONLY = ("trace-oracle", "schur-weyl")


def _cmd_verify(args):
    if args.k is not None:
        diagrams._check_k(args.k)
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
    return "\n".join(lines), 0 if ok else 1


def _run_suites(args, report):
    """Run the chosen suites, reporting each failure as it happens and an
    ok line for each run without one; True if no check failed."""
    rng = random.Random(args.seed)
    ok = True
    bare = [suite for suite in _SUITES if suite not in _NAMED_ONLY]
    for suite in [args.suite] if args.suite else bare:
        runner, families, default_k = _SUITES[suite]
        for fam in [args.family] if args.family else families:
            k = default_k(fam) if args.k is None else args.k
            failed = []

            def fail(message):
                failed.append(message)
                report("FAIL %s: %s" % (suite, message))

            detail = runner(fam, k, rng, args.cases, fail)
            if not failed:
                report("ok %s (%s)" % (suite, detail))
            ok &= not failed
    return ok


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
    p.add_argument("--suite", choices=_SUITES, default=None)
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
