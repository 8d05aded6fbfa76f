"""Irreducible characters and character tables for the diagram families.

Class elements are built from a permutation part gamma_kappa together with
a normalized tail of rank-lowering generators.  Character values come from
a closed-form count of the symmetric diagrams fixed under conjugation by
gamma_kappa, weighted by symmetric-group characters of the induced twist;
a brute-force trace over an explicit representation matrix serves as an
independent oracle.
"""

import json
from collections import Counter, namedtuple
from itertools import groupby, repeat
from operator import add, mul

from .coeff import ZERO, Element, LaurentPoly
from .diagrams import (
    _INT,
    _SHAPES,
    BRAUER,
    PARTITION,
    ROOK,
    ROOK_BRAUER,
    TEMPERLEY_LIEB,
    Diagram,
    _check_cap,
    _memo,
    _tuple_of,
    normalize_family,
    perm_diagram,
)
from .errors import FamilyUnsupported, InvalidClassLabel, LabelNotInFamily
from .irreps import (
    column_trace,
    conjugate,
    enumerate_symmetric,
    rep_columns,
)
from .partitions import (
    _check_ints,
    _labels,
    _ranks,
    binom,
    check_label,
    check_partition,
    check_rank,
    divisors,
    double_factorial,
    lambda_star_labels,
    multiplicities,
    partitions,
    stirling2,
)
from .symrep import (
    character_column,
    cycle_type,
    inverse_perm,
    perm_from_cycle_type,
    sym_character,
)

def gamma_perm(kappa):
    """One-line permutation whose diagram has consecutive kappa_i cycles."""
    # bottom a+j+1 attaches to top a+j, bottom a+1 to top a+c: the inverse
    # of the consecutive cycles a+1 -> a+2 -> ... -> a+c -> a+1
    return inverse_perm(perm_from_cycle_type(kappa))


def gamma_diagram(kappa):
    """Permutation diagram of the canonical cycle arrangement of kappa."""
    return perm_diagram(gamma_perm(kappa))


def _check_class(family, kappa, k=...):
    """Validate the class label kappa; return it as a tuple.

    The planar families take only all-ones cycle types, and with k given,
    |kappa| must be a rank of the family.
    """
    kappa = check_partition(kappa)
    if _SHAPES[family].planar and any(part != 1 for part in kappa):
        raise InvalidClassLabel(
            "%s classes are labelled by all-ones cycle types, got %r"
            % (family, kappa)
        )
    if k is not ... and sum(kappa) not in _ranks(family, k):
        raise InvalidClassLabel(
            "cycle type %r has size %d, not a %s rank at k=%d"
            % (kappa, sum(kappa), family, k)
        )
    return kappa


def class_diagram(family, k, kappa):
    """The class element: gamma_kappa with a normalized tail.

    The tail fills the k - |kappa| strands gamma_kappa leaves with copies
    of (1/n) p on single strands, or of (1/n) e on pairs of strands in the
    families without one-vertex blocks (Brauer and Temperley-Lieb).
    """
    family = normalize_family(family)
    kappa = _check_class(family, kappa, k)
    r = sum(kappa)
    perm = gamma_perm(kappa)
    blocks = [(perm[j - 1], k + j) for j in range(1, r + 1)]
    if _SHAPES[family].singles:
        s = k - r
        blocks += [b for j in range(r + 1, k + 1) for b in ((j,), (k + j,))]
    else:
        s = (k - r) // 2
        lows = range(r + 1, k, 2)
        blocks += [b for lo in lows for b in ((lo, lo + 1), (k + lo, k + lo + 1))]
    d = Diagram(k, blocks)
    return Element(k, family, {d: LaurentPoly.monomial(-s)})


def fixed_points(family, k, m, kappa):
    """Symmetric m-diagrams fixed by conjugation with gamma_kappa, grouped
    by the cycle type of the induced twist.

    Every partition of m appears as a key, possibly with an empty list.
    """
    family = normalize_family(family)
    kappa = _check_class(family, kappa, k)
    # the class of a permutation gamma_kappa alone has no tail
    if sum(kappa) != k:
        raise InvalidClassLabel(
            "cycle type %r has size %d, not k=%d" % (kappa, sum(kappa), k)
        )
    check_rank(family, k, m)
    _check_cap("fixed_points", family, k)
    gamma = gamma_diagram(kappa)
    out = {mu: [] for mu in partitions(m)}
    for w in enumerate_symmetric(family, k, m):
        res = conjugate(gamma, w)
        if res.m_prime == m and res.w_prime == w:
            out[cycle_type(res.twist)].append(w)
    return out


def f_coeff_planar(family, r, m):
    """Number of symmetric m-diagrams of the planar family fixed by the
    identity on r strands, zero for a negative m: a sum over the number t
    of pairs in the top, of C(r, m + 2t) choices of the points that pair or
    propagate times the ballot number C(m + 2t, t) - C(m + 2t, t - 1) of
    ways to pair 2t of them with no pair over a propagating one.  Only
    t = 0 when every pair joins the two rows, and only m + 2t = r without
    one-vertex blocks.

    A family without pairs (PlanarPartition) counts as Temperley-Lieb at
    2r strands and rank 2m: Jones's isomorphism of P_k(n^2) with TL_2k(n)
    doubles each vertex.
    """
    family = normalize_family(family)
    if type(r) is not int or type(m) is not int:
        _check_ints(r, m)
    pairs, singles, across, planar = _SHAPES[family]
    if not planar:
        raise FamilyUnsupported(
            "%s has no planar fixed-point count" % family
        )
    if m < 0:
        return 0
    if not pairs:
        r, m = 2 * r, 2 * m
        _, singles, across, _ = _SHAPES[TEMPERLEY_LIEB]
    return sum(
        binom(r, m + 2 * t) * (binom(m + 2 * t, t) - binom(m + 2 * t, t - 1))
        for t in range((r - m) // 2 + 1)
        if not (across and t) and (singles or m + 2 * t == r)
    )


def f_coeff(family, kappa, mu):
    """Closed form for the number of fixed symmetric diagrams whose twist
    has cycle type mu, under conjugation by gamma_kappa."""
    family = normalize_family(family)
    kappa = _check_class(family, kappa)
    return _f_column(family, kappa).get(check_partition(mu), 0)


@_memo()
def _f_column(family, kappa):
    """Column kappa of F, as {mu: count}.

    A count is a weighted sum of terms, one per multiset of parts nu: the
    coordinatewise divisors of kappa grouped by multiset in a family
    without pairs (an all-ones planar class is its own only divisor), kappa
    alone otherwise.  A term is the product over the part sizes i of nu of
    _part_factor(family, n_i, m_i, i), where n_i and m_i count the parts of
    size i in nu and in mu, so running every m_i over 0..n_i reaches each
    mu with a nonzero count.  The cached dict is shared by every caller,
    which only reads it.
    """
    if not _SHAPES[family].pairs:
        terms = Counter(
            tuple(sorted(nu, reverse=True)) for nu in divisors(kappa)
        )
    else:
        terms = {kappa: 1}
    column = Counter()
    for nu, weight in terms.items():
        # nu descends, so each mu is built in order
        partial = {(): weight}
        for i, n in multiplicities(nu).items():
            partial = {
                mu + (i,) * m: count * _part_factor(family, n, m, i)
                for mu, count in partial.items()
                for m in range(n + 1)
            }
        column.update(partial)
    return column


@_memo()
def _part_factor(family, n, m, i):
    """The factor of a term of F from its n parts of size i, of which the
    twist's cycle type has m: the planar count on n strands for a planar
    family (its classes are all ones, so i is 1), and otherwise a count of
    what the d = n - m other cycles of gamma_kappa become.  Without pairs it
    is a Stirling x binomial sum.  With pairs, C(n, m) times a sum over the
    t pairs among them: a cycle left as singles (with singles), folded onto
    itself by the half-turn pairing (pairs within a row and i even), or
    paired with another cycle in i ways (pairs within a row)."""
    pairs, singles, across, planar = _SHAPES[family]
    if planar:
        return f_coeff_planar(family, n, m)
    if not pairs:
        return sum(
            stirling2(n, t) * binom(t, m) * i ** (n - t)
            for t in range(m, n + 1)
        )
    d = n - m
    base = (not across and i % 2 == 0) + singles
    return binom(n, m) * sum(
        binom(d, 2 * t) * double_factorial(2 * t - 1) * i**t
        * base ** (d - 2 * t)
        for t in range(1 if across else d // 2 + 1)
    )


def _twist(family, label):
    """The twist cycle type a module label stands for: a planar label (m,)
    stands for the all-ones twist (1^m), any other label for itself."""
    return (1,) * sum(label) if _SHAPES[family].planar else label


def _label_column(family, mu):
    """chi^lam(mu) for the labels lam of size |mu|, in _labels order; the
    planar label (m,) stands for the trivial character."""
    return (1,) if _SHAPES[family].planar else character_column(mu)


@_memo()
def _chi_column(family, kappa):
    """Column kappa of S . F by size: each size n maps to the tuple, over
    _labels(family, n), of the sum of c chi^lam(mu) over the entries
    (mu, c) of column kappa of F with |mu| = n.  S is the block-diagonal
    symmetric-group character tables, F[mu][kappa] counts the symmetric
    diagrams fixed by gamma_kappa whose twist has cycle type mu."""
    sums = {}
    for mu, count in _f_column(family, kappa).items():
        terms = map(mul, _label_column(family, mu), repeat(count))
        n = sum(mu)
        sums[n] = tuple(map(add, sums[n], terms) if n in sums else terms)
    return sums


def _rows_at(family, labels, columns):
    """The rows at the labels of a matrix given by its columns, each a map
    from a size n to a tuple over _labels(family, n), zeros at a size it
    lacks: one transpose per run of labels of one size, no loop per cell."""
    rows = []
    for n, run in groupby(labels, sum):
        index = {lam: i for i, lam in enumerate(_labels(family, n))}
        positions = [index[lam] for lam in run]
        zeros = (0,) * (max(positions) + 1)
        block = list(zip(*map(dict.get, columns, repeat(n), repeat(zeros))))
        rows += map(block.__getitem__, positions)
    return rows


def _values(family, rows, cols):
    """chi = S . F, read off the cached chi columns."""
    columns = [_chi_column(family, kappa) for kappa in cols]
    return _rows_at(family, rows, columns)


def irr_character(family, k, lam_star, kappa):
    """Character of the lam_star module at the class kappa: the sum
    over the twists mu of size m = |lam_star| (every partition of m, or
    (1^m) in a planar family) of chi^lam_star(mu) F[mu][kappa].

    The value does not depend on n; it vanishes when |kappa| < |lam_star|
    and otherwise equals the value at the smaller algebra on |kappa|
    strands.
    """
    family = normalize_family(family)
    lam_star = check_label(family, k, lam_star)
    kappa = _check_class(family, kappa, k)
    return sum(
        sym_character(lam_star, mu) * f_coeff(family, kappa, mu)
        for mu in map(_twist, repeat(family), _labels(family, sum(lam_star)))
    )


def class_labels(family, k):
    """Column labels (cycle types kappa) in table order: |kappa| ascending
    through the rank set, descending lexicographic within a size."""
    family = normalize_family(family)
    return [_twist(family, label) for label in lambda_star_labels(family, k)]


def _parts(p):
    return p if type(p) is tuple else _tuple_of(p, "a partition")


def format_partition(p):
    return "[%s]" % ",".join(map(str, _parts(p)))


CharacterTableFactor = namedtuple("CharacterTableFactor", ["s_block", "f_block"])

DeterminantCheck = namedtuple(
    "DeterminantCheck", ["determinant", "expected", "ok"]
)


class CharacterTable:
    """Square table of irreducible character values.

    Rows are module labels lambda*, columns are class labels kappa, both
    grouped by size ascending with descending lexicographic order inside a
    size.
    """

    def __init__(self, family, k, row_labels, col_labels, values):
        self.family = family
        self.k = k
        self.row_labels = list(_tuple_of(row_labels, "row labels"))
        self.col_labels = list(_tuple_of(col_labels, "column labels"))
        self.values = [list(_tuple_of(r, "a row")) for r in _tuple_of(values, "rows")]
        self._factor = None

    def __eq__(self, other):
        return (
            isinstance(other, CharacterTable)
            and self.family == other.family
            and self.k == other.k
            and self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
            and self.values == other.values
        )

    def factor(self):
        """The table as S . F with S the block-diagonal symmetric group
        character tables and F the fixed-point count matrix, rows of F and
        columns of S indexed by the twists of the row labels; built when
        first asked for, S from the character columns the table reads and
        F from the cached columns of F.  The labels must be those of the
        family's table at k."""
        if self._factor is None:
            family, k = normalize_family(self.family), self.k
            rows = lambda_star_labels(family, k)
            mus = [_twist(family, label) for label in rows]
            if self.row_labels != rows or self.col_labels != mus:
                raise LabelNotInFamily("not the %s labels at k=%d" % (family, k))
            s_block = _rows_at(
                family,
                rows,
                [{sum(mu): _label_column(family, mu)} for mu in mus],
            )
            f_block = zip(
                *(
                    map(_f_column(family, kappa).get, mus, repeat(0))
                    for kappa in self.col_labels
                )
            )
            self._factor = CharacterTableFactor(
                list(map(list, s_block)), list(map(list, f_block))
            )
        return self._factor

    def determinant(self):
        return _det_bareiss(self.values)

    def _check_shape(self):
        """Refuse a table the text and csv writers cannot read in step: one
        row per row label, each with one value per column label."""
        rows, cols = len(self.row_labels), len(self.col_labels)
        if len(self.values) != rows or {*map(len, self.values)} - {cols}:
            raise ValueError("expected %d rows of %d values" % (rows, cols))

    def to_json(self, factor=False):
        obj = {
            "family": self.family,
            "k": self.k,
            "rows": list(map(list, map(_parts, self.row_labels))),
            "cols": list(map(list, map(_parts, self.col_labels))),
            "values": self.values,
        }
        if factor:
            fac = self.factor()
            obj["s_block"] = fac.s_block
            obj["f_block"] = fac.f_block
        try:
            return json.dumps(obj, separators=(",", ":"))
        except TypeError as e:
            raise ValueError("expected a table of JSON values: %s" % e) from None

    def to_csv(self, factor=False):
        self._check_shape()
        lines = []

        def section(rows, cols, values, corner):
            out = [",".join([corner, *map(format_partition, cols)])]
            labelled = [
                (format_partition(label), *row)
                for label, row in zip(rows, values)
            ]
            return out + _row_lines(",", labelled)

        lines += section(
            self.row_labels, self.col_labels, self.values, "lambda*/kappa"
        )
        if factor:
            fac = self.factor()
            lines.append("")
            lines.append("s_block")
            lines += section(
                self.row_labels, self.row_labels, fac.s_block, "lambda*/mu"
            )
            lines.append("")
            lines.append("f_block")
            lines += section(
                self.row_labels, self.col_labels, fac.f_block, "mu/kappa"
            )
        return "\n".join(lines) + "\n"

    def to_text(self, factor=False):
        self._check_shape()
        headers = ["lambda*\\kappa", *map(format_partition, self.col_labels)]
        rows = [
            (format_partition(label), *[str(v) for v in row])
            for label, row in zip(self.row_labels, self.values)
        ]
        # each cell right-aligned to the widest entry of its column
        line = "  ".join(
            "%%%ds" % max(map(len, column)) for column in zip(headers, *rows)
        )
        lines = [line % tuple(headers)]
        lines += map(line.__mod__, rows)
        if factor:
            fac = self.factor()
            for name, block in zip(fac._fields, fac):
                lines += ["", name + ":"]
                lines += _row_lines("  ", block)
        return "\n".join(lines) + "\n"


def _row_lines(sep, rows):
    """The str of the cells of each row joined by sep, every row of one
    length through one %-format (faster than a join per row)."""
    line = sep.join(["%s"] * len(rows[0])) if rows else ""
    return [line % tuple(row) for row in rows]


def character_table(family, k):
    """The full character table of the family at k strands."""
    family = normalize_family(family)
    rows = lambda_star_labels(family, k)
    cols = class_labels(family, k)
    return CharacterTable(family, k, rows, cols, _values(family, rows, cols))


def _det_bareiss(matrix):
    """Exact integer determinant, fraction-free elimination."""
    n = len(matrix)
    if any(len(row) != n or not _INT.issuperset(map(type, row)) for row in matrix):
        raise ValueError("expected a square matrix of ints, got %r" % (matrix,))
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot_row = next(
            (r for r in range(col, n) if m[r][col] != 0), None
        )
        if pivot_row is None:
            return 0
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (
                    m[r][c] * m[col][col] - m[r][col] * m[col][c]
                ) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def table_determinant_check(family, k):
    """Compare |det| of the table with its predicted closed form."""
    table = character_table(family, k)
    det = abs(table.determinant())
    expected = 1
    for label in table.row_labels:
        for part in _twist(table.family, label):
            expected *= part
    return DeterminantCheck(det, expected, det == expected)


def character_oracle(family, k, lam_star, kappa):
    """Trace of the class element on an explicit matrix of the module.

    Returns the trace as a Laurent polynomial in n (a constant whenever
    the closed form applies).  A sweep over many cells should take classes
    outer and labels inner: one class diagram's stacks then stay inside
    the 4,096-entry _conjugate window until its next label reads them."""
    family = normalize_family(family)
    lam_star = check_label(family, k, lam_star)
    _check_cap("character_oracle", family, k)
    elem = class_diagram(family, k, kappa)
    # the trace is linear: each term's trace, scaled, and not the matrix of
    # the whole element
    total = ZERO
    for d, c in elem.terms():
        total = total + c * column_trace(rep_columns(d, family, k, lam_star))
    return total


# Frozen published tables used by the regression suite (the Brauer k=4
# entry at row [2,1,1], column [4] is the corrected value 1).
REFERENCE_TABLES = {
    (PARTITION, 3): {
        "rows": [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)],
        "cols": [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)],
        "values": [
            [1, 1, 2, 2, 2, 3, 5],
            [0, 1, 1, 3, 1, 4, 10],
            [0, 0, 1, 1, 0, 2, 6],
            [0, 0, -1, 1, 0, 0, 6],
            [0, 0, 0, 0, 1, 1, 1],
            [0, 0, 0, 0, -1, 0, 2],
            [0, 0, 0, 0, 1, -1, 1],
        ],
    },
    (ROOK_BRAUER, 3): {
        "rows": [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)],
        "cols": [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)],
        "values": [
            [1, 1, 2, 2, 1, 2, 4],
            [0, 1, 0, 2, 0, 2, 6],
            [0, 0, 1, 1, 0, 1, 3],
            [0, 0, -1, 1, 0, -1, 3],
            [0, 0, 0, 0, 1, 1, 1],
            [0, 0, 0, 0, -1, 0, 2],
            [0, 0, 0, 0, 1, -1, 1],
        ],
    },
    (ROOK, 3): {
        "rows": [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)],
        "cols": [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)],
        "values": [
            [1, 1, 1, 1, 1, 1, 1],
            [0, 1, 0, 2, 0, 1, 3],
            [0, 0, 1, 1, 0, 1, 3],
            [0, 0, -1, 1, 0, -1, 3],
            [0, 0, 0, 0, 1, 1, 1],
            [0, 0, 0, 0, -1, 0, 2],
            [0, 0, 0, 0, 1, -1, 1],
        ],
    },
    (BRAUER, 4): {
        "rows": [
            (),
            (2,),
            (1, 1),
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ],
        "cols": [
            (),
            (2,),
            (1, 1),
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ],
        "values": [
            [1, 1, 1, 1, 0, 3, 1, 3],
            [0, 1, 1, 0, 0, 2, 2, 6],
            [0, -1, 1, 0, 0, -2, 0, 6],
            [0, 0, 0, 1, 1, 1, 1, 1],
            [0, 0, 0, -1, 0, -1, 1, 3],
            [0, 0, 0, 0, -1, 2, 0, 2],
            [0, 0, 0, 1, 0, -1, -1, 3],
            [0, 0, 0, -1, 1, 1, -1, 1],
        ],
    },
}
