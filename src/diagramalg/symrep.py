"""Young's natural representation of the symmetric group.

Basis vectors n_t are indexed by standard Young tableaux of a shape mu; a
permutation acts by relabelling entries, and non-standard fillings are
rewritten in the standard basis by column sorting followed by Garnir
relations.  All matrix entries come out as integers.  Irreducible
symmetric-group character values are computed independently by rim-hook
removal on beta-sets, one entry at a time or a whole column at once.
"""

from fractions import Fraction
from functools import partial
from itertools import combinations
from math import factorial, prod
from operator import lt

from .coeff import _exact, _items
from .diagrams import _check_permutation, _memo, _unfold
from .errors import DegreeMismatch, SizeMismatch
from .partitions import check_partition, partitions


def _check_tableau(t):
    """Refuse t unless it is a tuple of row tuples whose lengths form a
    partition and whose entries are 1..m, each once; return its shape."""
    if type(t) is not tuple or not {tuple}.issuperset(map(type, t)):
        raise ValueError("a tableau must be a tuple of row tuples: %r" % (t,))
    shape = check_partition(map(len, t))
    _check_permutation(sum(t, ()))
    return shape


def is_standard(t):
    """Rows and columns strictly increase in a tableau (by _check_tableau);
    anything else is not standard."""
    try:
        _check_tableau(t)
    except ValueError:
        return False
    rows_rise = all(all(map(lt, row, row[1:])) for row in t)
    return rows_rise and all(all(map(lt, a, b)) for a, b in zip(t, t[1:]))


def _column_word(t):
    """Entries read down each column, columns left to right."""
    columns = range(len(t[0]) if t else 0)
    return tuple(row[j] for j in columns for row in t if j < len(row))


def _partition_arg(p):
    """The check of an entry cached on one partition."""
    return (check_partition(p),)


@_memo(check=_partition_arg)
def standard_tableaux(shape):
    """All standard Young tableaux of the shape, sorted by column word.

    The column superstandard tableau (columns filled first) comes first.
    """
    # up Young's lattice: level n maps each n-cell shape inside `shape` to its
    # tableaux; n ends every row that can grow, an empty row below included
    level = {(): [()]}
    for n in range(1, sum(shape) + 1):
        grown = {}
        for sub, tableaux in level.items():
            for r, (length, part) in enumerate(zip(sub + (0,), shape)):
                if length < part and (r == 0 or sub[r - 1] > length):
                    bigger = sub[:r] + (length + 1,) + sub[r + 1 :]
                    grown.setdefault(bigger, []).extend(
                        t[:r] + (t[r] + (n,) if length else (n,),) + t[r + 1 :]
                        for t in tableaux
                    )
        level = grown
    return tuple(sorted(level[shape], key=_column_word))


def _column(grid, j):
    return [row[j] for row in grid if j < len(row)]


def _sort_sign(values):
    # parity of the permutation sorting the (distinct) values ascending
    inv = sum(a > b for i, a in enumerate(values) for b in values[i + 1 :])
    return -1 if inv % 2 else 1, sorted(values)


def straighten(filling):
    """Expand n_filling over standard tableaux; returns {tableau: int}.

    The filling must use each of 1..m once within a partition shape but
    need not be standard; any other filling is refused with ValueError.
    """
    _check_tableau(filling)
    return dict(_straighten(filling))


@_memo()
def _straighten(filling):
    # a checked filling (straighten's, or a relabelled body of irreps); the
    # fillings that a miss reaches are memoised for it alone
    memo = {}
    return _unfold(memo, partial(_garnir, memo), filling)


def _garnir(memo, filling):
    # for _unfold: sort the columns, then expand by the Garnir relation at
    # the first row descent, yielding each moved filling not in memo
    grid = [list(row) for row in filling]
    sign = 1
    for j in range(len(grid[0]) if grid else 0):
        s, ordered = _sort_sign(_column(grid, j))
        sign *= s
        for r, value in enumerate(ordered):
            grid[r][j] = value
    for i, row in enumerate(grid):
        j = next((j for j in range(len(row) - 1) if row[j] > row[j + 1]), None)
        if j is not None:
            break
    else:
        return ((tuple(map(tuple, grid)), sign),)
    a_vals, b_vals = _column(grid, j)[i:], _column(grid, j + 1)[: i + 1]
    old = a_vals + b_vals
    combined = sorted(old)
    result = {}
    for new_b in combinations(combined, len(b_vals)):
        new_a = [x for x in combined if x not in new_b]
        if new_a == a_vals:
            continue
        move_sign, _ = _sort_sign([old.index(x) for x in new_a + list(new_b)])
        moved = [list(row) for row in grid]
        for offset, value in enumerate(new_a):
            moved[i + offset][j] = value
        for r, value in enumerate(new_b):
            moved[r][j + 1] = value
        moved = tuple(map(tuple, moved))
        sub = memo.get(moved)
        if sub is None:
            sub = yield moved
        for t, c in sub:
            result[t] = result.get(t, 0) - sign * move_sign * c
    return tuple((t, c) for t, c in result.items() if c)


def relabel(sigma, t):
    """Apply the permutation (one-line images) to every entry."""
    return tuple(tuple(sigma[x - 1] for x in row) for row in t)


def act(sigma, v):
    """Act on a vector {tableau: coeff}; result is over standard tableaux."""
    sigma = _check_permutation(sigma)
    out = {}
    for t, coeff in _items(v):
        m = sum(_check_tableau(t))
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
    sigma = _check_permutation(sigma)
    shape = check_partition(shape)
    if len(sigma) != sum(shape):
        raise DegreeMismatch(
            "permutation of degree %d for shape of size %d"
            % (len(sigma), sum(shape))
        )
    return _natural_columns(sigma, shape)


@_memo()
def _natural_columns(sigma, shape):
    basis = standard_tableaux(shape)
    index = {t: i for i, t in enumerate(basis)}
    return tuple(
        tuple((index[s], c) for s, c in straighten(relabel(sigma, t)).items())
        for t in basis
    )


def rep_matrix(sigma, shape):
    """Matrix of sigma on the natural basis; column j is the image of
    the j-th standard tableau."""
    cols = natural_columns(sigma, shape)
    mat = [[Fraction(0)] * len(cols) for _ in cols]
    for j, col in enumerate(cols):
        for i, c in col:
            mat[i][j] = Fraction(c)
    return mat


def inverse_perm(a):
    a = _check_permutation(a)
    out = [0] * len(a)
    for i, image in enumerate(a):
        out[image - 1] = i + 1
    return tuple(out)


def cycle_type(sigma):
    """Cycle lengths of a permutation, as a partition."""
    sigma = _check_permutation(sigma)
    seen, lengths = set(), []
    for x in sigma:
        length = 0
        while x not in seen:
            seen.add(x)
            x, length = sigma[x - 1], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def perm_from_cycle_type(kappa):
    """A canonical permutation of cycle type kappa: consecutive cycles."""
    kappa = check_partition(kappa)
    images, start = [], 0
    for part in kappa:
        images += [*range(start + 2, start + part + 1), start + 1]
        start += part
    return tuple(images)


def _hook_dim(lam):
    """f^lam, chi^lam at the identity class, by the hook length formula."""
    cols = [sum(part > j for part in lam) for j in range(max(lam, default=0))]
    hooks = prod(
        part - j + cols[j] - i - 1
        for i, part in enumerate(lam)
        for j in range(part)
    )
    return factorial(sum(lam)) // hooks


@_memo()
def _rim_hooks(lam, r):
    """(lam minus the hook, sign) for each rim hook of length r of lam:
    on the beta-set a hook moves a bead b to an empty b - r, and its sign is
    -1 to the number of beads it passes."""
    nrows = len(lam)
    beta = [lam[i] + (nrows - 1 - i) for i in range(nrows)]
    bset = set(beta)
    out = []
    for b in beta:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        newbeta = sorted((bset - {b}) | {nb}, reverse=True)
        newlam = (newbeta[i] - (nrows - 1 - i) for i in range(nrows))
        out.append((tuple(x for x in newlam if x), -1 if height % 2 else 1))
    return tuple(out)


def _character_args(lam, mu):
    """The check of sym_character: two partitions of one size."""
    lam, mu = check_partition(lam), check_partition(mu)
    if sum(lam) != sum(mu):
        raise SizeMismatch(
            "character of %r at a class of different size %r" % (lam, mu)
        )
    return lam, mu


@_memo(check=_character_args)
def sym_character(lam, mu):
    """Irreducible character of the symmetric group by rim-hook removal."""
    # level: each shape left by rim hooks of the parts of mu so far, to its
    # signed count; the parts of 1 left are the identity class, by hooks.
    # The entries of one table meet the same shapes, so _rim_hooks is cached
    level = {lam: 1}
    for r in mu:
        if r == 1:
            break
        below = {}
        for shape, count in level.items():
            for nu, sign in _rim_hooks(shape, r):
                below[nu] = below.get(nu, 0) + sign * count
        level = below
    return sum(count * _hook_dim(shape) for shape, count in level.items())


@_memo()
def _rim_hook_moves(n, r):
    """For each lam in partitions(n), the (index in partitions(n - r), sign)
    of lam minus each of its rim hooks of length r."""
    index = {nu: i for i, nu in enumerate(partitions(n - r))}
    return tuple(
        tuple((index[nu], sign) for nu, sign in _rim_hooks(lam, r))
        for lam in partitions(n)
    )


@_memo(check=_partition_arg)
def character_column(mu):
    """chi^lam(mu) for every lam of |mu|, in partitions(|mu|) order.

    The Murnaghan-Nakayama rule in a loop: the hook-length column of the
    ones of mu, then for each part r > 1, smallest first, one step
    chi^lam(nu + (r,)) = sum of sign chi^(lam - hook)(nu) over the rim
    hooks of length r of lam.
    """
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
