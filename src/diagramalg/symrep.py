"""Young's natural representation of the symmetric group.

Basis vectors n_t are indexed by standard Young tableaux of a shape mu; a
permutation acts by relabelling entries, and non-standard fillings are
rewritten in the standard basis by column sorting followed by Garnir
relations.  All matrix entries come out as integers.  Irreducible
symmetric-group character values are computed independently by rim-hook
removal on beta-sets.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations

from .errors import DegreeMismatch, SizeMismatch
from .partitions import check_partition


def tableau_shape(t):
    return tuple(len(row) for row in t)


def is_standard(t):
    """Rows and columns strictly increase and the entries are 1..m."""
    shape = tableau_shape(t)
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        return False
    entries = [x for row in t for x in row]
    if sorted(entries) != list(range(1, len(entries) + 1)):
        return False
    for row in t:
        if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
            return False
    for i in range(len(t) - 1):
        if any(t[i][j] >= t[i + 1][j] for j in range(len(t[i + 1]))):
            return False
    return True


def column_word(t):
    """Entries read down each column, columns left to right."""
    if not t:
        return ()
    word = []
    for j in range(len(t[0])):
        for row in t:
            if j < len(row):
                word.append(row[j])
    return tuple(word)


@cache
def standard_tableaux(shape):
    """All standard Young tableaux of the shape, sorted by column word.

    The column superstandard tableau (columns filled first) comes first.
    """
    shape = check_partition(shape)
    m = sum(shape)
    if m == 0:
        return ((),)
    filled = [0] * len(shape)
    grid = [[0] * part for part in shape]
    out = []

    def rec(number):
        if number > m:
            out.append(tuple(tuple(row) for row in grid))
            return
        for r in range(len(shape)):
            if filled[r] < shape[r] and (r == 0 or filled[r - 1] > filled[r]):
                grid[r][filled[r]] = number
                filled[r] += 1
                rec(number + 1)
                filled[r] -= 1

    rec(1)
    out.sort(key=column_word)
    return tuple(out)


def _column(grid, j):
    return [row[j] for row in grid if j < len(row)]


def _sort_sign(values):
    # parity of the permutation sorting the (distinct) values ascending
    inv = sum(
        1
        for a in range(len(values))
        for b in range(a + 1, len(values))
        if values[a] > values[b]
    )
    return -1 if inv % 2 else 1, sorted(values)


def straighten(filling):
    """Expand n_filling over standard tableaux; returns {tableau: int}.

    The filling must use each of 1..m once within a partition shape but
    need not be standard.
    """
    return dict(_straighten(filling))


@cache
def _straighten(filling):
    grid = [list(row) for row in filling]
    sign = 1
    ncols = len(grid[0]) if grid else 0
    for j in range(ncols):
        col = _column(grid, j)
        s, ordered = _sort_sign(col)
        sign *= s
        for r, value in enumerate(ordered):
            grid[r][j] = value
    violation = None
    for i, row in enumerate(grid):
        for j in range(len(row) - 1):
            if row[j] > row[j + 1]:
                violation = (i, j)
                break
        if violation:
            break
    if violation is None:
        return ((tuple(tuple(row) for row in grid), sign),)
    i, j = violation
    col_a = _column(grid, j)
    col_b = _column(grid, j + 1)
    a_vals = col_a[i:]
    b_vals = col_b[: i + 1]
    old = a_vals + b_vals
    combined = sorted(old)
    result = {}
    for new_b in combinations(combined, len(b_vals)):
        rest = list(combined)
        for x in new_b:
            rest.remove(x)
        new_a = rest
        if new_a == a_vals:
            continue
        order = [old.index(x) for x in list(new_a) + list(new_b)]
        inv = sum(
            1
            for a in range(len(order))
            for b in range(a + 1, len(order))
            if order[a] > order[b]
        )
        move_sign = -1 if inv % 2 else 1
        moved = [list(row) for row in grid]
        for offset, value in enumerate(new_a):
            moved[i + offset][j] = value
        for r, value in enumerate(new_b):
            moved[r][j + 1] = value
        sub = _straighten(tuple(tuple(row) for row in moved))
        for t, c in sub:
            result[t] = result.get(t, 0) - sign * move_sign * c
    return tuple((t, c) for t, c in result.items() if c)


def relabel(sigma, t):
    """Apply the permutation (one-line images) to every entry."""
    return tuple(tuple(sigma[x - 1] for x in row) for row in t)


def act(sigma, v):
    """Act on a vector {tableau: coeff}; result is over standard tableaux."""
    out = {}
    for t, coeff in v.items():
        m = sum(len(row) for row in t)
        if len(sigma) != m:
            raise DegreeMismatch(
                "permutation of degree %d on a tableau with %d entries"
                % (len(sigma), m)
            )
        for s, c in straighten(relabel(sigma, t)).items():
            out[s] = out.get(s, Fraction(0)) + Fraction(coeff) * c
    return {t: c for t, c in out.items() if c}


def rep_matrix(sigma, shape):
    """Matrix of sigma on the natural basis; column j is the image of
    the j-th standard tableau."""
    shape = check_partition(shape)
    if len(sigma) != sum(shape):
        raise DegreeMismatch(
            "permutation of degree %d for shape of size %d"
            % (len(sigma), sum(shape))
        )
    basis = standard_tableaux(shape)
    index = {t: i for i, t in enumerate(basis)}
    size = len(basis)
    mat = [[Fraction(0)] * size for _ in range(size)]
    for jcol, t in enumerate(basis):
        for s, c in act(sigma, {t: 1}).items():
            mat[index[s]][jcol] = Fraction(c)
    return mat


def identity_perm(m):
    return tuple(range(1, m + 1))


def compose_perms(a, b):
    """(a o b)(x) = a(b(x)), matching diagram concatenation order."""
    if len(a) != len(b):
        raise DegreeMismatch("composing permutations of different degrees")
    return tuple(a[b[i] - 1] for i in range(len(b)))


def inverse_perm(a):
    out = [0] * len(a)
    for i, image in enumerate(a):
        out[image - 1] = i + 1
    return tuple(out)


def cycle_type(sigma):
    """Cycle lengths of a permutation, as a partition."""
    seen = [False] * len(sigma)
    lengths = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = sigma[x] - 1
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def perm_from_cycle_type(kappa, m=None):
    """A canonical permutation of cycle type kappa: consecutive cycles."""
    kappa = check_partition(kappa)
    if m is None:
        m = sum(kappa)
    if sum(kappa) != m:
        raise SizeMismatch("cycle type %r does not fill degree %d" % (kappa, m))
    images = list(range(1, m + 1))
    start = 0
    for part in kappa:
        for offset in range(part - 1):
            images[start + offset] = start + offset + 2
        images[start + part - 1] = start + 1
        start += part
    return tuple(images)


@cache
def sym_character(lam, mu):
    """Irreducible character of the symmetric group by rim-hook removal."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise SizeMismatch(
            "character of %r at a class of different size %r" % (lam, mu)
        )
    if not mu:
        return 1
    r = mu[0]
    rest = mu[1:]
    nrows = len(lam)
    beta = [lam[i] + (nrows - 1 - i) for i in range(nrows)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        newbeta = sorted((bset - {b}) | {nb}, reverse=True)
        newlam = tuple(
            newbeta[i] - (nrows - 1 - i) for i in range(nrows)
        )
        newlam = tuple(x for x in newlam if x > 0)
        term = sym_character(newlam, rest)
        total += -term if height % 2 else term
    return total


def sym_dim(shape):
    """Number of standard tableaux of the shape: chi^shape at the identity."""
    shape = check_partition(shape)
    return sym_character(shape, (1,) * sum(shape))
