"""The `verify` suites, each checking one construction of the algebras or
their modules against another.  A runner takes (family, k, rng, cases,
fail), calls fail(message) once per failed check and returns what its ok
line reports; run_suites runs them and writes verify's report lines."""

import random
from math import factorial, prod

from . import characters, diagrams, irreps, symrep
from .coeff import ONE, Element, LaurentPoly
from .partitions import lambda_star_labels, rank_set


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
        a, b = draw(), draw()
        lam = rng.choice(labels)
        cols_a = irreps.rep_columns(a, family, k, lam)
        cols_b = irreps.rep_columns(b, family, k, lam)
        ab, deleted = diagrams.concat(a, b)
        cols_ab = irreps.rep_columns(ab, family, k, lam)
        scale = LaurentPoly.monomial(deleted)
        scaled = [{i: scale * c for i, c in col.items()} for col in cols_ab]
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
        columns = list(zip(*fac.f_block))
        product = [
            [sum(s * f for s, f in zip(row, col)) for col in columns]
            for row in fac.s_block
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
# only when --suite names them; table-regression's runner reads only fail.
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


def run_suites(suite, family, k, seed, cases, report):
    """Run suite on family at k, None for each meaning verify's defaults,
    with one random.Random(seed); report each failure as it happens and an
    ok line for each run without one, and return True if no check failed."""
    rng = random.Random(seed)
    ok = True
    bare = [name for name in _SUITES if name not in _NAMED_ONLY]
    for name in [suite] if suite else bare:
        runner, families, default_k = _SUITES[name]
        for fam in [family] if family else families:
            fam_k = default_k(fam) if k is None else k
            failed = []

            def fail(message):
                failed.append(message)
                report("FAIL %s: %s" % (name, message))

            detail = runner(fam, fam_k, rng, cases, fail)
            if not failed:
                report("ok %s (%s)" % (name, detail))
            ok &= not failed
    return ok
