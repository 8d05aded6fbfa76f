"""The four benchmark workloads: seeded request rounds and their checks.

A workload is a menu of request templates.  Each round instantiates every
template once, from a generator seeded by (workload, seed, round), and runs
them in a seeded order; a run measures whole rounds, so every run holds the
same mix of request kinds.  Requests call the library through its modules
at call time, so a tracer installed on those modules sees them.

Every request carries a check that runs outside the timed interval.  Checks
use the benchmark's own arithmetic (closed-form counts, determinants,
sums of coefficients) and never call a cached library function, because
that would warm a cache the timed requests rely on.  Checks that do need
the library are deferred until the timed loop has ended.
"""

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("products", "modules", "tables", "bases")

# Request time of one round at reference speed (calibrate.py), averaged over
# the rounds of a run at seed 5.
ROUND_S = {"products": 4.75, "modules": 5.2, "tables": 7.8, "bases": 1.75}
# the 90th percentile needs at least 10 samples beyond it
MIN_REQUESTS = 100

PLANAR = ("TemperleyLieb", "Motzkin", "PlanarRook")


class CheckFailed(Exception):
    """A request's output disagrees with an invariant or a digest."""


class Request:
    """One request: key is the canonical text of its arguments."""

    __slots__ = ("key", "run", "canon", "check")

    def __init__(self, key, run, canon, check):
        self.key = key
        self.run = run
        self.canon = canon
        self.check = check


class Round:
    """The requests of one round and the checks that need all of them."""

    def __init__(self, requests, finish=()):
        self.requests = requests
        self.finish = list(finish)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def round_rng(workload, seed, index):
    return random.Random("%s:%d:%d" % (workload, seed, index))


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def run_cli(lib, argv):
    """Run the CLI in-process; a non-zero exit code is a failure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.run(argv)
    if code != 0:
        raise CheckFailed("exit code %d from %s: %s" % (code, " ".join(argv), err.getvalue().strip()))
    return out.getvalue()


# ---------------------------------------------------------------------------
# Closed forms computed by the benchmark itself.


def stirling2(n, j):
    row = [1] + [0] * j
    for i in range(1, n + 1):
        for t in range(min(i, j), 0, -1):
            row[t] = t * row[t] + row[t - 1]
        row[0] = 0
    return row[j]


def double_factorial(n):
    return math.prod(range(n, 0, -2)) if n > 0 else 1


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def ballot(n, m):
    """Number of standard Temperley-Lieb half-diagrams: n points, m through."""
    if m > n or (n - m) % 2:
        return 0
    h = (n - m) // 2
    return math.comb(n, h) - (math.comb(n, h - 1) if h else 0)


def motzkin_half(n, m):
    return sum(math.comb(n, m + 2 * t) * ballot(m + 2 * t, m) for t in range((n - m) // 2 + 1))


def algebra_dim(family, k):
    if family == "Partition":
        return sum(stirling2(2 * k, j) for j in range(2 * k + 1))
    if family == "PlanarPartition":
        return catalan(2 * k)
    if family == "Brauer":
        return double_factorial(2 * k - 1)
    if family == "RookBrauer":
        return sum(math.comb(2 * k, 2 * t) * double_factorial(2 * t - 1) for t in range(k + 1))
    if family == "Rook":
        return sum(math.comb(k, i) ** 2 * math.factorial(i) for i in range(k + 1))
    if family == "TemperleyLieb":
        return catalan(k)
    if family == "Motzkin":
        return sum(math.comb(2 * k, 2 * t) * catalan(t) for t in range(k + 1))
    if family == "PlanarRook":
        return math.comb(2 * k, k)
    return math.factorial(k)


def symmetric_count(family, k, m):
    """Symmetric diagrams of the family on k strands with m propagating blocks."""
    if family == "Partition":
        return sum(stirling2(k, t) * math.comb(t, m) for t in range(m, k + 1))
    if family == "PlanarPartition":
        # doubling every vertex maps these onto Temperley-Lieb on 2k strands
        return ballot(2 * k, 2 * m)
    if family == "Brauer":
        return math.comb(k, m) * double_factorial(k - m - 1) if (k - m) % 2 == 0 else 0
    if family == "RookBrauer":
        return math.comb(k, m) * sum(
            math.comb(k - m, 2 * t) * double_factorial(2 * t - 1) for t in range((k - m) // 2 + 1)
        )
    if family == "TemperleyLieb":
        return ballot(k, m)
    if family == "Motzkin":
        return motzkin_half(k, m)
    if family in ("Rook", "PlanarRook"):
        return math.comb(k, m)
    return 1


def hook_dim(shape):
    """Number of standard Young tableaux of the shape (hook length formula)."""
    cells = sum(shape)
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            below = sum(1 for r in shape[i + 1:] if r > j)
            hooks *= row - j + below
    return math.factorial(cells) // hooks


def partitions_of(m, largest=None):
    """Partitions of m in descending lexicographic order."""
    largest = m if largest is None else largest
    if m == 0:
        return [()]
    return [(first,) + rest for first in range(min(m, largest), 0, -1) for rest in partitions_of(m - first, first)]


def rank_set(family, k):
    if family == "SymmetricGroup":
        return [k]
    if family in ("Brauer", "TemperleyLieb"):
        return list(range(k % 2, k + 1, 2))
    return list(range(k + 1))


def module_labels(family, k):
    if family == "SymmetricGroup":
        return partitions_of(k)
    if family in PLANAR:
        return [(m,) if m else () for m in rank_set(family, k)]
    return [lam for m in rank_set(family, k) for lam in partitions_of(m)]


def class_labels(family, k):
    if family == "SymmetricGroup":
        return partitions_of(k)
    if family in PLANAR:
        return [(1,) * r for r in rank_set(family, k)]
    return [kappa for r in rank_set(family, k) for kappa in partitions_of(r)]


def module_dim(family, k, lam):
    return symmetric_count(family, k, sum(lam)) * hook_dim(lam)


def determinant(matrix):
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for c in range(n - 1):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = -sign
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                a[r][j] = (a[r][j] * a[c][c] - a[r][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign * a[n - 1][n - 1] if n else 1


def fmt_partition(p):
    return "[%s]" % ",".join(str(x) for x in p)


def parse_partition(text):
    body = text.strip()[1:-1]
    return tuple(int(x) for x in body.split(",")) if body else ()


# ---------------------------------------------------------------------------
# Random inputs.


def boundary(k):
    """Vertices in boundary order 1..k, k'..1' (bottom j' is k + j)."""
    return list(range(1, k + 1)) + list(range(2 * k, k, -1))


def noncrossing_matching(rng, points, singles, pair_ok):
    out = []
    segments = [points]
    while segments:
        seg = segments.pop()
        if not seg:
            continue
        options = [None] if singles else []
        options += [j for j in range(1, len(seg)) if pair_ok(seg[0], seg[j]) and (singles or j % 2 == 1)]
        j = rng.choice(options)
        if j is None:
            out.append((seg[0],))
            segments.append(seg[1:])
        else:
            out.append((seg[0], seg[j]))
            segments.append(seg[1:j])
            segments.append(seg[j + 1:])
    return out


def noncrossing_partition(rng, points):
    if not points:
        return []
    block, rest, i = [points[0]], [], 1
    while i < len(points) and rng.random() < 0.6:
        j = rng.randrange(i, len(points))
        rest += noncrossing_partition(rng, points[i:j])
        block.append(points[j])
        i = j + 1
    return [tuple(block)] + rest + noncrossing_partition(rng, points[i:])


def random_blocks(rng, family, k, ranks=None, slot=None):
    """Blocks of a random diagram of the family.  For Partition and Rook,
    the number of propagating blocks is drawn from ranks = (lo, hi), or,
    when slot is given, taken as lo + slot mod (hi - lo + 1), so that
    successive slots cycle through the ranks whatever the seed."""
    verts = list(range(1, 2 * k + 1))
    lo, hi = ranks or (0, k)
    pick = (lambda: rng.randint(lo, hi)) if slot is None else (lambda: lo + slot % (hi - lo + 1))
    if family == "Partition":
        r = pick()
        tops, bottoms = rng.sample(range(1, k + 1), r), rng.sample(range(k + 1, 2 * k + 1), r)
        blocks = [[t, b] for t, b in zip(tops, bottoms)]
        for v in verts:
            if v in tops or v in bottoms:
                continue
            # joining only blocks that already meet v's row keeps the rank r
            same_row = [b for b in blocks if any((u <= k) == (v <= k) for u in b)]
            if same_row and rng.random() < 0.5:
                rng.choice(same_row).append(v)
            else:
                blocks.append([v])
        return blocks
    if family == "Rook":
        r = pick()
        tops, bottoms = rng.sample(range(1, k + 1), r), rng.sample(range(k + 1, 2 * k + 1), r)
        return [(t, b) for t, b in zip(tops, bottoms)] + [(v,) for v in verts if v not in tops and v not in bottoms]
    if family in ("Brauer", "RookBrauer"):
        rng.shuffle(verts)
        pairs = k if family == "Brauer" else rng.randint(0, k)
        return [tuple(verts[2 * i:2 * i + 2]) for i in range(pairs)] + [(v,) for v in verts[2 * pairs:]]
    if family == "SymmetricGroup":
        images = rng.sample(range(1, k + 1), k)
        return [(images[j - 1], k + j) for j in range(1, k + 1)]
    if family == "PlanarPartition":
        return noncrossing_partition(rng, boundary(k))
    if family == "TemperleyLieb":
        return noncrossing_matching(rng, boundary(k), False, lambda a, b: True)
    if family == "Motzkin":
        return noncrossing_matching(rng, boundary(k), True, lambda a, b: True)
    if family == "PlanarRook":
        return noncrossing_matching(rng, boundary(k), True, lambda a, b: (a <= k) != (b <= k))
    raise ValueError(family)


def random_coeff(rng, rational):
    """A Laurent monomial or binomial in n.  Rational ones draw c/q with q in
    (2, 3, 5), so nearly every rational element has non-integral terms."""
    exps = rng.sample(range(-2, 3), rng.choice((1, 2)))
    out = {}
    for e in exps:
        c = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        out[e] = Fraction(c, rng.choice((2, 3, 5))) if rational else c
    return out


def random_element(lib, rng, family, k, terms, rational):
    combo = {}
    for _ in range(20 * terms):
        if len(combo) == terms:
            break
        d = lib.Diagram(k, random_blocks(rng, family, k))
        combo[d] = lib.LaurentPoly(random_coeff(rng, rational))
    return lib.Element(k, family, combo)


def element_text(elem):
    return "\n".join("%s * %s" % (c, d.text()) for d, c in elem.terms())


def coeff_sum(elem):
    """Sum of all coefficients at n = 1."""
    return sum((c for poly in elem.combo.values() for c in poly.terms.values()), Fraction(0))


# ---------------------------------------------------------------------------
# products: Element * Element.

PRODUCT_FAMILIES = (
    ("Partition", 4),
    ("Partition", 5),
    ("PlanarPartition", 4),
    ("Brauer", 6),
    ("RookBrauer", 5),
    ("TemperleyLieb", 7),
    ("Motzkin", 6),
)
# (terms of a, terms of b, a rational, b rational): 3 of the 12 elements of
# each family are rational.  Four of the six products have 400 to 450
# term pairs and take 50 to 100 ms; the median falls among them, where
# latencies lie close together, not between them and the 30x30 products.
PRODUCT_SIZES = (
    (10, 40, True, False),
    (20, 20, False, False),
    (15, 30, True, False),
    (30, 15, False, False),
    (30, 30, False, False),
    (40, 40, False, True),
)


def products_round(lib, rng):
    requests = []
    for family, k in PRODUCT_FAMILIES:
        for na, nb, ra, rb in PRODUCT_SIZES:
            a = random_element(lib, rng, family, k, na, ra)
            b = random_element(lib, rng, family, k, nb, rb)
            requests.append(_product_request(lib, family, k, a, b))
    return Round(requests)


def _product_request(lib, family, k, a, b):
    key = "mul %s %d\n%s\n*\n%s" % (family, k, element_text(a), element_text(b))
    expected = coeff_sum(a) * coeff_sum(b)

    def check(out):
        expect(out.k == k and out.family == family, "product left the algebra")
        expect(coeff_sum(out) == expected, "coefficient sum at n=1 is not multiplicative")

    return Request(key, lambda: a * b, element_text, check)


# ---------------------------------------------------------------------------
# modules: rep_columns in both bases, the trace oracle, dense CLI irrep.

# (family, k, lambda*, CLI irrep variant or None).  Partition k=6 appears
# five times per label: its modules have many symmetric diagrams each, so
# that the distinct (d, w) pairs conjugated in a run exceed the 65,536
# entries of _conjugate.
MODULE_GROUPS = tuple(
    ("Partition", 6, lam, None) for lam in ((1,), (2,), (1, 1), (2, 1), (3,), ()) for _ in range(5)
) + (
    ("Partition", 5, (2,), "json"),
    ("Partition", 5, (2, 1), None),
    ("Partition", 4, (1,), "text-n"),
    ("Brauer", 6, (2,), None),
    ("Brauer", 7, (2, 1), None),
    ("Brauer", 7, (3,), "json-n"),
    ("RookBrauer", 5, (1,), "json"),
    ("Rook", 5, (2, 1), "text-n"),
    ("Motzkin", 6, (1,), "json-n"),
    ("TemperleyLieb", 8, (2,), "json"),
    ("PlanarRook", 6, (3,), None),
)
ORACLE_FAMILIES = (
    ("Partition", 4),
    ("Partition", 5),
    ("Brauer", 5),
    ("RookBrauer", 5),
    ("Rook", 5),
    ("Motzkin", 5),
    ("TemperleyLieb", 5),
    ("PlanarRook", 5),
)
IRREP_N = {"text-n": "3", "json-n": "7/2"}


def columns_text(cols):
    return "\n".join(" ".join("%d:%s" % (i, c) for i, c in sorted(col.items())) for col in cols)


def modules_round(lib, rng, index, ctx):
    requests, finish = [], []
    for position, (family, k, lam, variant) in enumerate(MODULE_GROUPS):
        # half of the diagrams keep at least m strands and act
        # non-trivially; the other half have fewer and annihilate the
        # module, which still conjugates every w but cheaply.  Which half,
        # and the Partition and Rook ranks within it, follow the position
        # and the round, so that every seed holds the same mix of costs.
        m = sum(lam)
        slot = index * len(MODULE_GROUPS) + position
        ranks = (m, k) if slot % 2 == 0 else (0, max(m - 1, 0))
        d = lib.Diagram(k, random_blocks(rng, family, k, ranks, slot // 2))
        outputs = {}
        dim = module_dim(family, k, lam)
        for basis in ("Twisted", "Tableau"):
            requests.append(_columns_request(lib, family, k, lam, d, basis, dim, outputs))
        ctx.twisted.append((family, k, m, d))
        if variant:
            basis = ("Twisted", "Tableau")[index % 2]
            requests.append(_irrep_request(lib, family, k, lam, d, basis, variant, dim, outputs))
        finish.append(_group_check(family, k, lam, d, outputs))
    for family, k in ORACLE_FAMILIES:
        lam = rng.choice(module_labels(family, k))
        kappa = rng.choice(class_labels(family, k))
        requests.append(_oracle_request(lib, family, k, lam, kappa, ctx.deferred))
    return Round(requests, finish)


def _columns_request(lib, family, k, lam, d, basis, dim, outputs):
    key = "rep_columns %s %d %s %s %s" % (family, k, fmt_partition(lam), basis, d.text())

    def check(cols):
        expect(len(cols) == dim, "module of %s %d %s has %d columns, expected %d" % (family, k, lam, len(cols), dim))
        outputs[basis] = cols

    return Request(key, lambda: lib.irreps.rep_columns(d, family, k, lam, basis), columns_text, check)


def _irrep_request(lib, family, k, lam, d, basis, variant, dim, outputs):
    argv = ["irrep", "--family", family, "--k", str(k), "--lambda-star", fmt_partition(lam), "--d", d.text(),
            "--basis", basis, "--format", "text" if variant == "text-n" else "json"]
    if variant in IRREP_N:
        argv += ["--n", IRREP_N[variant]]

    def check(text):
        if variant == "text-n":
            rows = [[Fraction(x) for x in line.split(", ")] for line in text.splitlines()]
        elif variant == "json-n":
            rows = [[Fraction(v["num"], v["den"]) for v in row] for row in json.loads(text)]
        else:
            rows = [[{t["exp"]: Fraction(t["num"], t["den"]) for t in cell} for cell in row] for row in json.loads(text)]
        expect(len(rows) == dim and all(len(r) == dim for r in rows), "irrep matrix is not %d x %d" % (dim, dim))
        outputs["irrep"] = (variant, rows)

    return Request(" ".join(argv), lambda: run_cli(lib, argv), lambda text: text, check)


def _group_check(family, k, lam, d, outputs):
    def finish():
        where = "%s %d %s at %s" % (family, k, fmt_partition(lam), d.text())
        twisted = outputs["Twisted"]
        expect(twisted == outputs["Tableau"], "Twisted and Tableau columns differ: " + where)
        if "irrep" not in outputs:
            return
        variant, rows = outputs["irrep"]
        n = Fraction(IRREP_N[variant]) if variant in IRREP_N else None
        for j, col in enumerate(twisted):
            for i, row in enumerate(rows):
                poly = col.get(i)
                terms = dict(poly.terms) if poly is not None else {}
                if n is not None:
                    terms = sum((c * n ** e for e, c in terms.items()), Fraction(0))
                expect(row[j] == terms, "irrep entry (%d, %d) differs from rep_columns: %s" % (i, j, where))

    return finish


def _oracle_request(lib, family, k, lam, kappa, deferred):
    key = "character_oracle %s %d %s %s" % (family, k, fmt_partition(lam), fmt_partition(kappa))

    def check(trace):
        value = trace.constant_value()
        expect(value is not None and value.denominator == 1, "oracle trace is not an integer: %s" % trace)
        # irr_character reads cached symmetric-group characters, so compare
        # after the timed loop
        deferred.append(lambda: expect(
            value == lib.characters.irr_character(family, k, lam, kappa),
            "oracle trace %s differs from irr_character at %s" % (value, key)))

    return Request(key, lambda: lib.characters.character_oracle(family, k, lam, kappa), str, check)


# ---------------------------------------------------------------------------
# tables: CLI table (text, csv, json; half with --factor) and CLI char.

# Latencies of these tables spread from about 20 ms to 1 s without large
# gaps, so that the median does not sit on a cliff.  Partition k=8 and the
# five Brauer k=9 tables are the slowest six; with three rounds the 90th
# percentile falls among the Brauer k=9 ones, which take 0.5 to 0.6 s.
TABLE_MENU = (
    ("partition", 5, "text", True),
    ("partition", 6, "text", False),
    ("partition", 6, "csv", True),
    ("partition", 7, "json", True),
    ("partition", 7, "text", False),
    ("partition", 8, "csv", True),
    ("brauer", 7, "json", False),
    ("brauer", 8, "json", False),
    ("brauer", 8, "text", True),
    ("brauer", 8, "csv", True),
    ("brauer", 9, "csv", False),
    ("brauer", 9, "json", True),
    ("brauer", 9, "json", False),
    ("brauer", 9, "text", False),
    ("brauer", 9, "text", True),
    ("rookbrauer", 6, "json", True),
    ("rookbrauer", 6, "csv", False),
    ("rookbrauer", 7, "csv", True),
    ("rookbrauer", 7, "json", False),
    ("rookbrauer", 8, "text", False),
    ("rook", 6, "json", False),
    ("rook", 7, "csv", False),
    ("rook", 7, "json", False),
    ("rook", 8, "json", True),
    ("temperleylieb", 10, "csv", True),
    ("motzkin", 11, "text", True),
    ("planarrook", 12, "json", False),
    ("symmetric", 8, "text", True),
    ("symmetric", 9, "json", False),
)
CHAR_MENU = (("partition", 7), ("brauer", 9), ("rook", 8))
CHARS_PER_FAMILY = 4
FAMILY_TAGS = {
    "partition": "Partition",
    "brauer": "Brauer",
    "rookbrauer": "RookBrauer",
    "rook": "Rook",
    "temperleylieb": "TemperleyLieb",
    "motzkin": "Motzkin",
    "planarrook": "PlanarRook",
    "symmetric": "SymmetricGroup",
    "planarpartition": "PlanarPartition",
}


def parse_table(text, fmt, factor):
    """(row labels, values, s_block, f_block) from CLI table output."""
    if fmt == "json":
        obj = json.loads(text)
        rows = [tuple(r) for r in obj["rows"]]
        return rows, obj["values"], obj.get("s_block"), obj.get("f_block")
    if fmt == "csv":
        sections = [s.splitlines() for s in text.strip("\n").split("\n\n")]
        parsed = []
        for lines in sections:
            if lines[0] in ("s_block", "f_block"):
                lines = lines[1:]
            labels, values = [], []
            for line in lines[1:]:
                label, rest = line.split("]", 1)
                labels.append(parse_partition(label + "]"))
                values.append([int(x) for x in rest.split(",")[1:]])
            parsed.append((labels, values))
        rows, values = parsed[0]
        blocks = [p[1] for p in parsed[1:]] if factor else [None, None]
        return rows, values, blocks[0], blocks[1]
    head, _, tail = text.partition("\ns_block:\n")
    lines = head.strip("\n").splitlines()[1:]
    rows = [parse_partition(line.split()[0]) for line in lines]
    values = [[int(x) for x in line.split()[1:]] for line in lines]
    if not factor:
        return rows, values, None, None
    s_text, _, f_text = tail.partition("\n\nf_block:\n")
    s_block = [[int(x) for x in line.split()] for line in s_text.strip("\n").splitlines()]
    f_block = [[int(x) for x in line.split()] for line in f_text.strip("\n").splitlines()]
    return rows, values, s_block, f_block


def tables_round(lib, rng):
    requests, finish, tables = [], [], {}
    for name, k, fmt, factor in TABLE_MENU:
        requests.append(_table_request(lib, name, k, fmt, factor, tables))
    for name, k in CHAR_MENU:
        family = FAMILY_TAGS[name]
        rows, cols = module_labels(family, k), class_labels(family, k)
        for _ in range(CHARS_PER_FAMILY):
            lam, kappa = rng.choice(rows), rng.choice(cols)
            request, check = _char_request(lib, name, k, lam, kappa, (rows.index(lam), cols.index(kappa)), tables)
            requests.append(request)
            finish.append(check)
    return Round(requests, finish)


def _table_request(lib, name, k, fmt, factor, tables):
    argv = ["table", "--family", name, "--k", str(k), "--format", fmt] + (["--factor"] if factor else [])
    family = FAMILY_TAGS[name]

    def check(text):
        rows, values, s_block, f_block = parse_table(text, fmt, factor)
        expect(rows == module_labels(family, k), "row labels of %s" % " ".join(argv))
        size = len(rows)
        expect(len(values) == size and all(len(r) == size for r in values), "table is not square")
        if family in PLANAR:
            expected = 1
        else:
            expected = math.prod(part for lam in rows for part in lam)
        expect(abs(determinant(values)) == expected, "determinant of %s is not %d" % (" ".join(argv), expected))
        if factor:
            product = [[sum(s_block[i][l] * f_block[l][j] for l in range(size)) for j in range(size)]
                       for i in range(size)]
            expect(product == values, "S.F differs from the table in %s" % " ".join(argv))
        tables[(name, k)] = values

    return Request(" ".join(argv), lambda: run_cli(lib, argv), lambda text: text, check)


def _char_request(lib, name, k, lam, kappa, cell, tables):
    """The request and a round-end check against the same round's table."""
    argv = ["char", "--family", name, "--k", str(k), "--lambda-star", fmt_partition(lam),
            "--kappa", fmt_partition(kappa)]
    seen = []

    def finish():
        expect(tables[(name, k)][cell[0]][cell[1]] == seen[0], "%s differs from the table" % " ".join(argv))

    return Request(" ".join(argv), lambda: run_cli(lib, argv), lambda text: text, lambda text: seen.append(int(text))), finish


# ---------------------------------------------------------------------------
# bases: CLI basis, symdiag, sspt and dims.

# Warm latencies fall in two groups: 14 cached dims, symdiag and sspt
# requests at 2 to 10 ms, and the basis listings from 17 ms up.  Five
# basis requests sit at 17 to 24 ms; the menu puts the median in the
# middle of them, not on the gap between the two groups.
BASES_MENU = (
    ("basis", "partition", 4, "text"),
    ("basis", "partition", 4, "json"),
    ("basis", "planarpartition", 4, "text"),
    ("basis", "planarpartition", 3, "json"),
    ("basis", "brauer", 6, "text"),
    ("basis", "brauer", 5, "json"),
    ("basis", "rookbrauer", 5, "json"),
    ("basis", "rookbrauer", 4, "text"),
    ("basis", "rook", 5, "text"),
    ("basis", "rook", 5, "json"),
    ("basis", "temperleylieb", 7, "text"),
    ("basis", "temperleylieb", 7, "json"),
    ("basis", "motzkin", 5, "text"),
    ("basis", "motzkin", 5, "json"),
    ("basis", "planarrook", 6, "text"),
    ("basis", "planarrook", 7, "json"),
    ("basis", "symmetric", 6, "json"),
    ("basis", "symmetric", 7, "text"),
    ("symdiag", "planarpartition", 6, "text", 2),
    ("symdiag", "planarpartition", 7, "json", 3),
    ("symdiag", "partition", 7, "json", 3),
    ("symdiag", "brauer", 8, "text", 2),
    ("symdiag", "rookbrauer", 7, "json", 3),
    ("symdiag", "planarrook", 10, "text", 5),
    ("symdiag", "temperleylieb", 9, "json", 3),
    ("sspt", "partition", 6, "text", (2, 1)),
    ("sspt", "brauer", 7, "json", (2, 1)),
    ("sspt", "rookbrauer", 6, "text", (2,)),
    ("sspt", "motzkin", 7, "json", (2,)),
    ("dims", "partition", 6),
    ("dims", "brauer", 8),
    ("dims", "rookbrauer", 6),
    ("dims", "temperleylieb", 8),
    ("dims", "motzkin", 7),
)


def count_listing(text, fmt):
    """Number of items in a text (one per line) or JSON listing."""
    if fmt == "json":
        obj = json.loads(text)
        if isinstance(obj, dict):
            expect(obj["count"] == len(obj["diagrams"]), "basis count field disagrees with its list")
            return obj["count"]
        return len(obj)
    lines = text.splitlines()
    expect(len(set(lines)) == len(lines), "listing repeats an item")
    return len(lines)


def check_dims(text, family, k):
    lines = text.splitlines()
    total = 0
    labels = []
    for line in lines[:-1]:
        fields = dict(f.split("=") for f in line.split())
        lam = parse_partition(fields["lambda_star"])
        labels.append(lam)
        sym, tab, dim = int(fields["symmetric"]), int(fields["tableaux"]), int(fields["dim"])
        expect(sym == symmetric_count(family, k, sum(lam)), "symmetric count for %s" % line)
        expect(tab == hook_dim(lam) and dim == sym * tab, "dimension for %s" % line)
        total += dim * dim
    expect(labels == module_labels(family, k), "dims labels for %s %d" % (family, k))
    expect(lines[-1] == "sum_of_squares=%d algebra_dim=%d ok=true" % (total, algebra_dim(family, k)),
           "dims summary: %s" % lines[-1])


def bases_round(lib, rng):
    return Round([_bases_request(lib, item) for item in BASES_MENU])


def _bases_request(lib, item):
    command, name, k = item[:3]
    family = FAMILY_TAGS[name]
    argv = [command, "--family", name, "--k", str(k)]
    if command == "dims":
        return Request(" ".join(argv), lambda: run_cli(lib, argv), lambda text: text,
                       lambda text: check_dims(text, family, k))
    argv += ["--format", item[3]]
    if command == "basis":
        expected = algebra_dim(family, k)
    elif command == "symdiag":
        argv += ["--m", str(item[4])]
        expected = symmetric_count(family, k, item[4])
    else:
        argv += ["--lambda-star", fmt_partition(item[4])]
        expected = module_dim(family, k, item[4])

    def check(text):
        count = count_listing(text, item[3])
        expect(count == expected, "%s lists %d items, expected %d" % (" ".join(argv), count, expected))

    return Request(" ".join(argv), lambda: run_cli(lib, argv), lambda text: text, check)


def round_size(workload):
    """Number of requests in every round of the workload."""
    if workload == "products":
        return len(PRODUCT_FAMILIES) * len(PRODUCT_SIZES)
    if workload == "modules":
        return 2 * len(MODULE_GROUPS) + sum(1 for group in MODULE_GROUPS if group[3]) + len(ORACLE_FAMILIES)
    if workload == "tables":
        return len(TABLE_MENU) + len(CHAR_MENU) * CHARS_PER_FAMILY
    return len(BASES_MENU)


def rounds_for(workload, seconds):
    """Rounds in a run: as many as take `seconds` of request time at
    reference speed, and enough for MIN_REQUESTS requests.  The number is
    fixed, however fast the host is at the time, so that every run of the
    workload does the same work and ends with the same cache contents."""
    return max(round(seconds / ROUND_S[workload]), -(-MIN_REQUESTS // round_size(workload)))


def make_round(workload, lib, seed, index, ctx):
    """Round `index` of the workload for this seed.  ctx.deferred collects
    checks to run after the timed loop; ctx.twisted collects the Twisted
    actions of the modules workload."""
    rng = round_rng(workload, seed, index)
    if workload == "products":
        rnd = products_round(lib, rng)
    elif workload == "modules":
        rnd = modules_round(lib, rng, index, ctx)
    elif workload == "tables":
        rnd = tables_round(lib, rng)
    else:
        rnd = bases_round(lib, rng)
    rng.shuffle(rnd.requests)
    return rnd
