"""Integer-partition combinatorics and the labelling of irreducible modules.

Partitions are tuples of weakly decreasing positive ints; () is the empty
partition.  Lists of partitions of a given size are always produced in
descending lexicographic order, which is the row/column order used by the
character tables.
"""

import itertools
from functools import cache, lru_cache
from math import comb
from operator import lt

from .diagrams import _SHAPES, _check_k, normalize_family
from .errors import InvalidRank, LabelNotInFamily


def check_partition(p):
    """Validate and return a partition as a tuple."""
    p = tuple(p)
    # True and 1.0 compare like 1 but are not parts; the checks are C loops
    # because every entry of F checks two partitions
    if p and (set(map(type, p)) != {int} or min(p) < 1):
        raise ValueError("partition parts must be positive ints: %r" % (p,))
    if any(map(lt, p, p[1:])):
        raise ValueError("partition parts must weakly decrease: %r" % (p,))
    return p


@cache
def partitions(m):
    """All partitions of m, descending lexicographic: (m,) first."""
    if m < 0:
        return ()

    def rec(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail

    return tuple(rec(m, m))


def multiplicities(p):
    """Map part size i to its multiplicity m_i(p)."""
    out = {}
    for part in p:
        out[part] = out.get(part, 0) + 1
    return out


def divisors(kappa):
    """Coordinatewise divisors of a partition, ascending lexicographic.

    nu divides kappa when they have the same length and nu_i | kappa_i.
    The result is a list of tuples (compositions, not sorted)."""
    kappa = check_partition(kappa)
    choices = [
        [d for d in range(1, part + 1) if part % d == 0] for part in kappa
    ]
    return [tuple(c) for c in itertools.product(*choices)]


def binom(a, b):
    """Binomial coefficient, zero outside 0 <= b <= a."""
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


@cache
def stirling2(n, j):
    """Stirling number of the second kind, zero outside 0 <= j <= n."""
    if not 0 <= j <= n:
        return 0
    return _stirling_row(n)[j]


@lru_cache(maxsize=1)
def _stirling_row(n):
    """S(n, 0), ..., S(n, n), built by a loop over the rows i <= n of
    S(i, j) = j S(i - 1, j) + S(i - 1, j - 1), so no stack grows with n.
    The last row is kept: a caller reads all or most of one row at a time."""
    row = (1,)
    for i in range(1, n + 1):
        row = (0, *(j * row[j] + row[j - 1] for j in range(1, i)), 1)
    return row


def double_factorial(n):
    """n!! with the conventions (-1)!! = 1 and n!! = 0 for n < -1."""
    if n < -1:
        return 0
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def catalan(n):
    """The n-th Catalan number."""
    return comb(2 * n, n) // (n + 1)


@cache
def bell(n):
    """Number of set partitions of an n-element set."""
    return sum(stirling2(n, j) for j in range(n + 1))


def _ranks(family, k):
    """Possible numbers of propagating blocks for diagrams of the family,
    as a range, so a membership test is closed form at any k.

    With one-vertex blocks every rank 0..k occurs.  Without them, pairs
    that must join the two rows leave only rank k, and otherwise each pair
    within a row takes two vertices of it, so the rank has the parity of k.
    """
    _check_k(k)
    shape = _SHAPES[family]
    if shape.singles:
        return range(k + 1)
    if shape.across:
        return range(k, k + 1)
    return range(k % 2, k + 1, 2)


def rank_set(family, k):
    """Possible numbers of propagating blocks, ascending, as a list."""
    return list(_ranks(normalize_family(family), k))


def check_rank(family, k, m):
    """Refuse m unless it is an int rank of the family at k; the type is
    tested first, as a range tests any other type by scanning it."""
    family = normalize_family(family)
    ranks = _ranks(family, k)
    if type(m) is not int or m not in ranks:
        raise InvalidRank(
            "%s diagrams on %d strands have no rank %r" % (family, k, m)
        )


def _labels(family, m):
    """The module labels of size m: (m,) alone in a planar family, every
    partition of m, descending lexicographic, otherwise."""
    if _SHAPES[family].planar:
        return ((m,) if m else (),)
    return partitions(m)


def lambda_star_labels(family, k):
    """Module labels lambda* for the family, grouped by size ascending.

    Within each size labels run in descending lexicographic order; the
    planar families only carry (m,).
    """
    family = normalize_family(family)
    labels = []
    # the list overflows at once at a huge k, where the range would run on
    for m in rank_set(family, k):
        labels.extend(_labels(family, m))
    return labels


def check_label(family, k, lam_star):
    """Validate and return lam_star as a module label of the family at k:
    its size is a rank, and a planar label has at most one part."""
    lam_star = check_partition(lam_star)
    family = normalize_family(family)
    if sum(lam_star) not in _ranks(family, k) or (
        _SHAPES[family].planar and len(lam_star) > 1
    ):
        raise LabelNotInFamily(
            "%r does not label a %s module at k=%d" % (lam_star, family, k)
        )
    return lam_star
