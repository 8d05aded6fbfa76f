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
from functools import cache

from .coeff import Element, LaurentPoly
from .diagrams import (
    _SHAPES,
    BRAUER,
    MOTZKIN,
    PARTITION,
    PLANAR_PARTITION,
    PLANAR_ROOK,
    ROOK,
    ROOK_BRAUER,
    SYMMETRIC_GROUP,
    TEMPERLEY_LIEB,
    Diagram,
    enumeration_cap,
    normalize_family,
    perm_diagram,
    size_cap,
)
from .errors import (
    CapExceeded,
    FamilyUnsupported,
    InvalidClassLabel,
    InvalidRank,
)
from .irreps import (
    column_trace,
    conjugate,
    enumerate_symmetric,
    rep_columns_element,
)
from .partitions import (
    binom,
    check_label,
    check_partition,
    divisors,
    double_factorial,
    lambda_star_labels,
    multiplicities,
    partitions,
    rank_set,
    stirling2,
)
from .symrep import cycle_type, sym_character

def gamma_perm(kappa):
    """One-line permutation whose diagram has consecutive kappa_i cycles."""
    kappa = check_partition(kappa)
    images = []
    offset = 0
    for part in kappa:
        # bottom a+j+1 attaches to top a+j, bottom a+1 to top a+c
        images.append(offset + part)
        images.extend(range(offset + 1, offset + part))
        offset += part
    return tuple(images)


def gamma_diagram(kappa):
    """Permutation diagram of the canonical cycle arrangement of kappa."""
    return perm_diagram(gamma_perm(kappa))


def _class_kappa(family, kappa, k=None, exact=False):
    """Validate the class label kappa and return it as a tuple.

    With k given, |kappa| must equal k when exact and be at most k
    otherwise; the planar families take only all-ones cycle types.
    """
    kappa = check_partition(kappa)
    r = sum(kappa)
    if exact and r != k:
        raise InvalidClassLabel(
            "fixed points need |kappa| = k, got %r at k=%d" % (kappa, k)
        )
    if k is not None and r > k:
        raise InvalidClassLabel(
            "cycle type %r too large for k=%d" % (kappa, k)
        )
    if _SHAPES[family].planar and any(part != 1 for part in kappa):
        raise InvalidClassLabel(
            "%s classes are labelled by all-ones cycle types, got %r"
            % (family, kappa)
        )
    return kappa


def _class_tail_size(family, k, kappa, s):
    """The tail length of the class (kappa, s), checked against s when
    given: single strands fill the k - |kappa| strands left by gamma_kappa,
    or pairs of strands in a family without one-vertex blocks."""
    r = sum(kappa)
    shape = _SHAPES[family]
    if shape.singles:
        computed = k - r
    elif shape.across:
        if r != k:
            raise InvalidClassLabel(
                "%s classes need |kappa| = k, got %r" % (family, kappa)
            )
        computed = 0
    else:
        if (k - r) % 2:
            raise InvalidClassLabel(
                "%s needs k - |kappa| even, got %r at k=%d"
                % (family, kappa, k)
            )
        computed = (k - r) // 2
    if s is not None and s != computed:
        raise InvalidClassLabel(
            "tail length %r does not match |kappa|=%d at k=%d" % (s, r, k)
        )
    return computed


def class_diagram(family, k, kappa, s=None):
    """The class element: gamma_kappa with a normalized tail.

    The tail consists of s copies of (1/n) p on single strands, or of
    (1/n) e on pairs of strands in the families without one-vertex blocks
    (Brauer and Temperley-Lieb).
    """
    family = normalize_family(family)
    kappa = _class_kappa(family, kappa, k)
    s = _class_tail_size(family, k, kappa, s)
    r = sum(kappa)
    blocks = []
    perm = gamma_perm(kappa)
    for j in range(1, r + 1):
        blocks.append((perm[j - 1], k + j))
    if _SHAPES[family].singles:
        for j in range(r + 1, k + 1):
            blocks.append((j,))
            blocks.append((k + j,))
    else:
        for a in range(s):
            lo = r + 2 * a + 1
            blocks.append((lo, lo + 1))
            blocks.append((k + lo, k + lo + 1))
    d = Diagram(k, blocks)
    return Element(k, family, {d: LaurentPoly.monomial(-s)})


def fixed_points(family, k, m, kappa):
    """Symmetric m-diagrams fixed by conjugation with gamma_kappa, grouped
    by the cycle type of the induced twist.

    Every partition of m appears as a key, possibly with an empty list.
    """
    family = normalize_family(family)
    kappa = _class_kappa(family, kappa, k, exact=True)
    if m not in rank_set(family, k):
        raise InvalidRank(
            "%s diagrams on %d strands have no rank %r" % (family, k, m)
        )
    if k > enumeration_cap(family):
        raise CapExceeded("fixed_points at k=%d exceeds the cap" % k)
    gamma = gamma_diagram(kappa)
    out = {mu: [] for mu in partitions(m)}
    for w in enumerate_symmetric(family, k, m):
        res = conjugate(gamma, w)
        if res.m_prime == m and res.w_prime == w:
            out[cycle_type(res.twist)].append(w)
    return out


def f_coeff_planar(family, r, m):
    """Number of symmetric m-diagrams of the planar family fixed by the
    identity on r strands.

    PlanarPartition counts as Temperley-Lieb at 2r strands and rank 2m:
    Jones's isomorphism of P_k(n^2) with TL_2k(n) doubles each vertex.
    """
    family = normalize_family(family)
    if family == PLANAR_PARTITION:
        family, r, m = TEMPERLEY_LIEB, 2 * r, 2 * m
    if family == TEMPERLEY_LIEB:
        if m > r or (r - m) % 2:
            return 0
        h = (r - m) // 2
        return binom(r, h) - binom(r, h - 1)
    if family == MOTZKIN:
        total = 0
        t = 0
        while m + 2 * t <= r:
            total += binom(r, m + 2 * t) * (
                binom(m + 2 * t, t) - binom(m + 2 * t, t - 1)
            )
            t += 1
        return total
    if family == PLANAR_ROOK:
        return binom(r, m)
    raise FamilyUnsupported(
        "%s has no planar fixed-point count" % family
    )


def f_coeff(family, kappa, mu):
    """Closed form for the number of fixed symmetric diagrams whose twist
    has cycle type mu, under conjugation by gamma_kappa."""
    family = normalize_family(family)
    kappa = _class_kappa(family, kappa)
    return _f_column(family, kappa).get(check_partition(mu), 0)


@cache
def _f_column(family, kappa):
    """Column kappa of F, as {mu: count}.

    A count is a weighted sum of terms, one per multiset of parts nu: the
    coordinatewise divisors of kappa grouped by multiset for Partition,
    kappa alone otherwise.  A term is the product over the part sizes i of
    nu of _part_factor(family, n_i, m_i, i), where n_i and m_i count the
    parts of size i in nu and in mu, so running every m_i over 0..n_i
    reaches each mu with a nonzero count.  The cached dict is shared by
    every caller, which only reads it.
    """
    if family == PARTITION:
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


_EVEN_WEIGHT = {BRAUER: (1, 0), ROOK_BRAUER: (2, 1)}


@cache
def _part_factor(family, n, m, i):
    """The factor of a term of F from its n parts of size i, of which the
    twist's cycle type has m: the planar count on n strands for a planar
    family (its classes are all ones, so i is 1), a Stirling x binomial sum
    for Partition, [n = m] for SymmetricGroup, C(n, m) for Rook, and for
    Brauer and RookBrauer C(n, m) times a weighted count of the pairings
    among the n - m other parts."""
    if _SHAPES[family].planar:
        return f_coeff_planar(family, n, m)
    if family == PARTITION:
        return sum(
            stirling2(n, t) * binom(t, m) * i ** (n - t)
            for t in range(m, n + 1)
        )
    if family == SYMMETRIC_GROUP:
        return int(n == m)
    count = binom(n, m)
    if family == ROOK:
        return count
    d = n - m
    base = _EVEN_WEIGHT[family][i % 2]
    return count * sum(
        binom(d, 2 * t) * double_factorial(2 * t - 1) * i**t
        * base ** (d - 2 * t)
        for t in range(d // 2 + 1)
    )


def _twist(family, label):
    """The twist cycle type a module label stands for: a planar label (m,)
    stands for the all-ones twist (1^m), any other label for itself."""
    return (1,) * sum(label) if _SHAPES[family].planar else label


def _values(family, rows, cols):
    """chi = S . F, column by column: each entry (mu, c) of column kappa of
    F adds c chi^lam(mu) into every row lam of size |mu|.  S is the
    block-diagonal symmetric-group character tables, F[mu][kappa] counts
    the symmetric diagrams fixed by gamma_kappa whose twist has cycle type
    mu."""
    by_size = {}
    for i, lam in enumerate(rows):
        by_size.setdefault(sum(lam), []).append((i, lam))
    values = [[0] * len(cols) for _ in rows]
    for j, kappa in enumerate(cols):
        for mu, count in _f_column(family, kappa).items():
            for i, lam in by_size.get(sum(mu), ()):
                values[i][j] += count * sym_character(lam, mu)
    return values


def irr_character(family, k, lam_star, kappa, s=None):
    """Character of the lam_star module at the class (kappa, s): the sum
    over the twists mu of the labels of size |lam_star| of
    chi^lam_star(mu) F[mu][kappa].

    The value does not depend on n; it vanishes when |kappa| < |lam_star|
    and otherwise equals the value at the smaller algebra on |kappa|
    strands.
    """
    family = normalize_family(family)
    lam_star = check_label(family, k, lam_star)
    kappa = _class_kappa(family, kappa, k)
    _class_tail_size(family, k, kappa, s)
    m = sum(lam_star)
    labels = lambda_star_labels(family, k)
    mus = [_twist(family, mu) for mu in labels if sum(mu) == m]
    return sum(
        sym_character(lam_star, mu) * f_coeff(family, kappa, mu) for mu in mus
    )


def class_labels(family, k):
    """Column labels (cycle types kappa) in table order: |kappa| ascending
    through the rank set, descending lexicographic within a size."""
    family = normalize_family(family)
    return [_twist(family, label) for label in lambda_star_labels(family, k)]


def format_partition(p):
    return "[%s]" % ",".join(str(x) for x in p)


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
        self.row_labels = list(row_labels)
        self.col_labels = list(col_labels)
        self.values = [list(row) for row in values]
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
        columns of S indexed by the twists of the row labels; built from
        the cached columns of F when first asked for."""
        if self._factor is None:
            rows, family = self.row_labels, self.family
            mus = [_twist(family, label) for label in rows]
            s_block = [
                [
                    sym_character(lam, mu) if sum(lam) == sum(mu) else 0
                    for mu in mus
                ]
                for lam in rows
            ]
            columns = [_f_column(family, kappa) for kappa in self.col_labels]
            f_block = [[col.get(mu, 0) for col in columns] for mu in mus]
            self._factor = CharacterTableFactor(s_block, f_block)
        return self._factor

    def determinant(self):
        return _det_bareiss(self.values)

    def to_json(self, factor=False):
        obj = {
            "family": self.family,
            "k": self.k,
            "rows": [list(r) for r in self.row_labels],
            "cols": [list(c) for c in self.col_labels],
            "values": self.values,
        }
        if factor:
            fac = self.factor()
            obj["s_block"] = fac.s_block
            obj["f_block"] = fac.f_block
        return json.dumps(obj, separators=(",", ":"))

    def to_csv(self, factor=False):
        lines = []

        def section(rows, cols, values, corner):
            out = [",".join([corner] + [format_partition(c) for c in cols])]
            for label, row in zip(rows, values):
                out.append(
                    ",".join([format_partition(label)] + [str(v) for v in row])
                )
            return out

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
        headers = ["lambda*\\kappa"] + [
            format_partition(c) for c in self.col_labels
        ]
        rows = [
            [format_partition(label)] + [str(v) for v in row]
            for label, row in zip(self.row_labels, self.values)
        ]
        widths = [
            max(len(r[i]) for r in [headers] + rows)
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(h.rjust(widths[i]) for i, h in enumerate(headers))
        ]
        for row in rows:
            lines.append(
                "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
            )
        if factor:
            fac = self.factor()
            for name, block in zip(fac._fields, fac):
                lines += ["", name + ":"]
                lines += ["  ".join(str(v) for v in row) for row in block]
        return "\n".join(lines) + "\n"


def character_table(family, k):
    """The full character table of the family at k strands."""
    family = normalize_family(family)
    rows = lambda_star_labels(family, k)
    cols = class_labels(family, k)
    return CharacterTable(family, k, rows, cols, _values(family, rows, cols))


def _det_bareiss(matrix):
    """Exact integer determinant, fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in matrix]
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


def character_oracle(family, k, lam_star, kappa, s=None):
    """Trace of the class element on an explicit matrix of the module.

    Returns the trace as a Laurent polynomial in n (a constant whenever
    the closed form applies)."""
    family = normalize_family(family)
    if k > size_cap(5):
        raise CapExceeded("character_oracle at k=%d exceeds the cap" % k)
    lam_star = check_label(family, k, lam_star)
    elem = class_diagram(family, k, kappa, s)
    cols = rep_columns_element(elem, lam_star)
    return column_trace(cols)


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
