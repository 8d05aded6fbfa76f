"""Young's natural representation of the symmetric group.

Basis vectors n_t are indexed by standard Young tableaux of a shape mu; a
permutation acts by relabelling entries, and non-standard fillings are
rewritten in the standard basis by column sorting followed by Garnir
relations.  All matrix entries come out as integers.  Irreducible
symmetric-group character values are computed independently by rim-hook
removal on beta-sets, one entry at a time or a whole column at once.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import factorial, prod

from .coeff import _exact
from .diagrams import _check_permutation
from .errors import DegreeMismatch, SizeMismatch
from .partitions import check_partition, partitions


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


def _column_word(t):
    """Entries read down each column, columns left to right."""
    if not t:
        return ()
    word = []
    for j in range(len(t[0])):
        for row in t:
            if j < len(row):
                word.append(row[j])
    return tuple(word)


def standard_tableaux(shape):
    """All standard Young tableaux of the shape, sorted by column word.

    The column superstandard tableau (columns filled first) comes first.
    """
    return _standard_tableaux(check_partition(shape))


@cache
def _standard_tableaux(shape):
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
    out.sort(key=_column_word)
    return tuple(out)


# perfbench reads the statistics of this cache under the public name
standard_tableaux.cache_info = _standard_tableaux.cache_info


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
    need not be standard; any other filling is refused with ValueError.
    """
    return dict(_straighten(filling))


@cache
def _straighten(filling):
    # checked on a miss only, so that no bad filling is ever cached and a
    # hit costs nothing more
    check_partition(tableau_shape(filling))
    _check_permutation([x for row in filling for x in row])
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
        move_sign, _ = _sort_sign([old.index(x) for x in new_a + list(new_b)])
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
    _check_permutation(sigma)
    out = {}
    for t, coeff in v.items():
        m = sum(len(row) for row in t)
        if len(sigma) != m:
            raise DegreeMismatch(
                "permutation of degree %d on a tableau with %d entries"
                % (len(sigma), m)
            )
        coeff = _exact(coeff, "coefficient")
        for s, c in straighten(relabel(sigma, t)).items():
            out[s] = out.get(s, Fraction(0)) + coeff * c
    return {t: c for t, c in out.items() if c}


def natural_columns(sigma, shape):
    """Young's natural matrix of sigma, column by column: for each standard
    tableau t of the shape, in standard_tableaux order, the (row index,
    int) pairs of n_{sigma t} over the standard basis."""
    shape = check_partition(shape)
    if len(sigma) != sum(shape):
        raise DegreeMismatch(
            "permutation of degree %d for shape of size %d"
            % (len(sigma), sum(shape))
        )
    _check_permutation(sigma)
    return _natural_columns(sigma, shape)


@cache
def _natural_columns(sigma, shape):
    basis = _standard_tableaux(shape)
    index = {t: i for i, t in enumerate(basis)}
    return tuple(
        tuple((index[s], c) for s, c in straighten(relabel(sigma, t)).items())
        for t in basis
    )


def rep_matrix(sigma, shape):
    """Matrix of sigma on the natural basis; column j is the image of
    the j-th standard tableau."""
    cols = natural_columns(tuple(sigma), shape)
    mat = [[Fraction(0)] * len(cols) for _ in cols]
    for j, col in enumerate(cols):
        for i, c in col:
            mat[i][j] = Fraction(c)
    return mat


def inverse_perm(a):
    _check_permutation(a)
    out = [0] * len(a)
    for i, image in enumerate(a):
        out[image - 1] = i + 1
    return tuple(out)


def cycle_type(sigma):
    """Cycle lengths of a permutation, as a partition."""
    _check_permutation(sigma)
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


def _hook_dim(lam):
    """f^lam, chi^lam at the identity class, by the hook length formula."""
    cols = [
        sum(1 for part in lam if part > j) for j in range(max(lam, default=0))
    ]
    hooks = prod(
        part - j + cols[j] - i - 1
        for i, part in enumerate(lam)
        for j in range(part)
    )
    return factorial(sum(lam)) // hooks


def _rim_hooks(lam, r):
    """Yield (lam minus the hook, sign) for each rim hook of length r of lam:
    on the beta-set a hook moves a bead b to an empty b - r, and its sign is
    -1 to the number of beads it passes."""
    nrows = len(lam)
    beta = [lam[i] + (nrows - 1 - i) for i in range(nrows)]
    bset = set(beta)
    for b in beta:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        newbeta = sorted((bset - {b}) | {nb}, reverse=True)
        newlam = (newbeta[i] - (nrows - 1 - i) for i in range(nrows))
        yield tuple(x for x in newlam if x), -1 if height % 2 else 1


def sym_character(lam, mu):
    """Irreducible character of the symmetric group by rim-hook removal."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise SizeMismatch(
            "character of %r at a class of different size %r" % (lam, mu)
        )
    return _sym_character(lam, mu)


@cache
def _sym_character(lam, mu):
    if not mu or mu[0] == 1:
        # the identity class, where every rim-hook recursion ends
        return _hook_dim(lam)
    return sum(
        sign * _sym_character(nu, mu[1:]) for nu, sign in _rim_hooks(lam, mu[0])
    )


# perfbench reads the statistics of this cache under the public name
sym_character.cache_info = _sym_character.cache_info


@cache
def _rim_hook_moves(n, r):
    """For each lam in partitions(n), the (index in partitions(n - r), sign)
    of lam minus each of its rim hooks of length r."""
    index = {nu: i for i, nu in enumerate(partitions(n - r))}
    return tuple(
        tuple((index[nu], sign) for nu, sign in _rim_hooks(lam, r))
        for lam in partitions(n)
    )


def character_column(mu):
    """chi^lam(mu) for every lam of |mu|, in partitions(|mu|) order.

    The Murnaghan-Nakayama rule in a loop: the hook-length column of the
    ones of mu, then for each part r > 1, smallest first, one step
    chi^lam(nu + (r,)) = sum of sign chi^(lam - hook)(nu) over the rim
    hooks of length r of lam.
    """
    return _character_column(check_partition(mu))


@cache
def _character_column(mu):
    n = mu.count(1)
    column = tuple(map(_hook_dim, partitions(n)))
    for r in reversed(mu[: len(mu) - n]):
        n += r
        column = tuple(
            sum(sign * column[i] for i, sign in moves)
            for moves in _rim_hook_moves(n, r)
        )
    return column


def sym_dim(shape):
    """Number of standard tableaux of the shape: chi^shape at the identity."""
    shape = check_partition(shape)
    return sym_character(shape, (1,) * sum(shape))
