"""Irreducible modules for the diagram families.

Two models of the same module are built side by side.  The twisted model
has basis w (x) n_t where w is a symmetric diagram with m propagating
blocks and t a standard tableau; a diagram acts by conjugation w -> d w d^T
together with the permutation it induces on the propagating blocks.  The
combinatorial model has basis N_T indexed by standard set-partition
tableaux; a diagram acts directly on the blocks of T.  Both actions delete
components in the middle row and each deletion contributes a factor n.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import chain, combinations
from operator import itemgetter

from .coeff import ZERO, LaurentPoly, _from_sums
from .diagrams import (
    _SHAPES,
    Diagram,
    _block_owner,
    _check_cover,
    _check_family,
    _check_int_vertices,
    _check_k,
    _check_permutation,
    _covers,
    _fuse,
    _joined,
    _Memo,
    _Value,
    is_planar,
    normalize_family,
    rank,
)
from .errors import RankMismatch, ShapeMismatch
from .partitions import check_label, check_rank
from .symrep import (
    _natural_columns,
    is_standard,
    relabel,
    standard_tableaux,
    straighten,
    tableau_shape,
)

# every stored block is an ascending tuple, so its last entry is its largest
_last = itemgetter(-1)


class SymmetricMDiagram(_Value):
    """A mirror-symmetric diagram, stored as its top half.

    top is a set partition of {1..k}; propagating lists the blocks that
    connect to their own mirror image below.  The remaining blocks appear
    once on top and once, mirrored, on the bottom.
    """

    __slots__ = ("k", "top", "propagating")

    def __init__(self, k, top, propagating):
        _check_k(k)
        canon_top = tuple(sorted(tuple(sorted(b)) for b in top))
        _check_cover(canon_top, k)
        canon_prop = tuple(sorted(tuple(sorted(b)) for b in propagating))
        _check_int_vertices([v for b in canon_prop for v in b])
        top_set = set(canon_top)
        for b in canon_prop:
            if b not in top_set:
                raise ValueError("propagating block %r is not a top block" % (b,))
        if len(set(canon_prop)) != len(canon_prop):
            raise ValueError("repeated propagating block")
        _set_w_k(self, k)
        _set_top(self, canon_top)
        _set_propagating(self, canon_prop)

    @classmethod
    def _make(cls, k, top, propagating):
        """Wrap blocks already in canonical form, checking nothing."""
        w = object.__new__(cls)
        _set_w_k(w, k)
        _set_top(w, top)
        _set_propagating(w, propagating)
        return w

    @property
    def m(self):
        return len(self.propagating)

    def prop_max_order(self):
        """Propagating blocks sorted by largest entry."""
        return tuple(sorted(self.propagating, key=_last))

    def to_diagram(self):
        k = self.k
        prop = set(self.propagating)
        blocks = []
        for b in self.top:
            mirror = tuple(v + k for v in b)
            if b in prop:
                blocks.append(b + mirror)
            else:
                blocks.append(b)
                blocks.append(mirror)
        return Diagram(k, blocks)

    @classmethod
    def from_diagram(cls, d):
        """The w with w.to_diagram() == d: the top half of each block is a
        top block, propagating when the block also reaches the bottom."""
        k = d.k
        tops = [(tuple(v for v in b if v <= k), b[-1] > k) for b in d.blocks]
        top = [above for above, _ in tops if above]
        w = cls(k, top, [above for above, down in tops if above and down])
        if w.to_diagram() != d:
            raise ValueError("diagram is not mirror-symmetric")
        return w

    def __eq__(self, other):
        return (
            isinstance(other, SymmetricMDiagram)
            and self.k == other.k
            and self.top == other.top
            and self.propagating == other.propagating
        )

    def __hash__(self):
        return hash((self.k, self.top, self.propagating))

    def text(self, blocks=None):
        """The top blocks as {1 2}, or [1 2] when propagating; blocks is a
        symmetric_blocks() pair a listing shares, so each block of it is
        rendered once."""
        free, prop = symmetric_blocks() if blocks is None else blocks
        props = self.propagating
        return " ".join([prop[b] if b in props else free[b] for b in self.top])

    def __repr__(self):
        return "SymmetricMDiagram(k=%d, %s)" % (self.k, self.text())


_set_w_k, _set_top, _set_propagating = SymmetricMDiagram._setters


def symmetric_blocks():
    """Memos from each block of a symmetric diagram to its text, as
    SymmetricMDiagram.text renders it: (not propagating, propagating)."""
    return _joined("{%s}", " "), _joined("[%s]", " ")


def tableau_blocks():
    """A memo from each block of a tableau to its text, e.g. {1,2}."""
    return _joined("{%s}", ",")


def _symmetric_candidates(family, k, m):
    # A top pair cannot propagate (its block would have four vertices), so
    # the pair families propagate top singles, and all of them when
    # one-vertex blocks are not allowed.  A planar family's tops are
    # non-crossing, but a block may still pass over a propagating one, so
    # the caller filters them; each top is sorted into canonical order.
    shape = _SHAPES[family]
    if shape.pairs and not shape.singles:
        # the m propagating points, then a perfect matching of the others
        for ends in combinations(range(1, k + 1), m):
            prop = tuple((v,) for v in ends)
            rest = tuple(v for v in range(1, k + 1) if v not in ends)
            for pairs in _covers(k, rest, shape):
                top = tuple(sorted(prop + pairs))
                yield SymmetricMDiagram._make(k, top, prop)
        return
    for top in _covers(k, tuple(range(1, k + 1)), shape._replace(singles=True)):
        top = tuple(sorted(top))
        ends = [b for b in top if len(b) == 1] if shape.pairs else top
        for prop in combinations(ends, m):
            yield SymmetricMDiagram._make(k, top, prop)


@lru_cache(maxsize=None)
def _enumerate_symmetric(family, k, m):
    planar = _SHAPES[family].planar
    out = []
    for w in _symmetric_candidates(family, k, m):
        if planar and not is_planar(w.to_diagram()):
            continue
        out.append(w)
    out.sort(key=lambda w: (w.top, w.propagating))
    return tuple(out)


def enumerate_symmetric(family, k, m):
    """All symmetric diagrams of the family with m propagating blocks."""
    family = normalize_family(family)
    check_rank(family, k, m)
    return list(_enumerate_symmetric(family, k, m))


ConjugateResult = namedtuple(
    "ConjugateResult", ["w_prime", "m_prime", "deleted", "twist"]
)


@lru_cache(maxsize=1 << 12)
def _conjugate(d, top):
    """Stack d above a set partition of {1..k}, given as its sorted blocks.

    The lower layer of the stacking kernel is the blocks of the partition,
    met at their vertices.  Returns the root of every vertex (top vertex v
    of d at v, vertex v of the partition at k+v), the blocks of the top
    row in canonical order (the root of block b is root[b[0]]), and the
    number of components.  Which blocks propagate, and where, is read off
    afterwards, so one cached stack serves every symmetric diagram on that
    top and every tableau whose blocks form it; all of it is immutable.
    """
    k = d.k
    below = [0] * k
    for i, b in enumerate(top):
        for v in b:
            below[v - 1] = i
    parent, components = _fuse(d, below, len(top))
    n = len(d.blocks)
    root = [0]
    for r in chain(_block_owner(d)[1 : k + 1], [n + i for i in below]):
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        root.append(r)
    tops = {}
    for v in range(1, k + 1):
        r = root[v]
        if r in tops:
            tops[r] += (v,)
        else:
            tops[r] = (v,)
    return tuple(root), tuple(tops.values()), components


def conjugate(d, w):
    """Conjugate a symmetric diagram: the stack d w d^T.

    Returns (w', m', deleted, twist) where deleted counts the middle
    components removed when d is stacked on w, and twist is the induced
    permutation of propagating blocks (max-entry order), or None when the
    rank drops.
    """
    if d.k != w.k:
        raise RankMismatch(
            "diagram on %d strands against w on %d" % (d.k, w.k)
        )
    # d w d^T is mirror-symmetric and its two halves meet only through the
    # propagating blocks of w, so d stacked on the top of w decides it: a
    # component reaching the top row is a block of w', propagating when it
    # holds a propagating block of w; a middle-only component without one
    # is deleted, and its mirror image is not counted
    k = d.k
    root, top, components = _conjugate(d, w.top)
    reached = {root[k + b[0]] for b in w.propagating}
    prop = tuple(b for b in top if root[b[0]] in reached)
    w_prime = SymmetricMDiagram._make(k, top, prop)
    # each block of prop is the one top block of a reached component
    deleted = components - len(top) - len(reached) + len(prop)
    twist = None
    if len(prop) == w.m:
        new = {root[b[0]]: j for j, b in enumerate(w_prime.prop_max_order(), 1)}
        twist = tuple(new[root[k + b[0]]] for b in w.prop_max_order())
    return ConjugateResult(w_prime, len(prop), deleted, twist)


def _sum_images(pairs):
    """Sum coeff times image over (coeff, image) pairs, each image a list
    of (key, c, deleted) terms standing for c n^deleted at key: raw
    {exponent: coefficient} sums per key, then one polynomial each."""
    out = {}
    for coeff, image in pairs:
        for key, c, deleted in image:
            acc = out.setdefault(key, {})
            for e, a in LaurentPoly.coerce(coeff).terms.items():
                acc[e + deleted] = acc.get(e + deleted, 0) + a * c
    return {key: p for key, acc in out.items() if (p := _from_sums(acc))}


def _twisted_image(d, w, t):
    """The terms ((w', t'), c, deleted) of d . (w (x) n_t), with t' standard;
    empty when the rank drops."""
    res = conjugate(d, w)
    if res.twist is None:
        return []
    return [
        ((res.w_prime, ts), c, res.deleted)
        for ts, c in straighten(relabel(res.twist, t)).items()
    ]


def act_twisted(d, v, family=None):
    """Act on a twisted vector {(w, t): coeff}.

    Terms where the rank drops are killed; otherwise w goes to w', the
    twist permutation acts on the tableau factor, and each deleted middle
    component contributes a factor n.
    """
    _check_family(d, family)
    return _sum_images((c, _twisted_image(d, w, t)) for (w, t), c in v.items())


class SetPartitionTableau(_Value):
    """Blocks of {1..k} arranged as a first row plus a tableau body.

    The first row holds the non-propagating blocks (always kept sorted by
    largest entry); the body holds the propagating blocks in the cells of
    a partition shape.
    """

    __slots__ = ("k", "first_row", "body")

    def __init__(self, k, first_row, body):
        _check_k(k)
        first = [tuple(sorted(b)) for b in first_row]
        rows = tuple(
            tuple(tuple(sorted(b)) for b in row) for row in body
        )
        _check_cover(first + [b for row in rows for b in row], k)
        first = tuple(sorted(first, key=_last))
        shape = tuple(len(row) for row in rows)
        if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)) or (
            shape and shape[-1] == 0
        ):
            raise ValueError("body rows must form a partition shape")
        _set_tab_k(self, k)
        _set_first_row(self, first)
        _set_body(self, rows)

    @classmethod
    def _make(cls, k, first_row, body):
        """Wrap a first row sorted by largest entry and a body of sorted
        blocks in a partition shape, checking nothing."""
        tab = object.__new__(cls)
        _set_tab_k(tab, k)
        _set_first_row(tab, first_row)
        _set_body(tab, body)
        return tab

    @property
    def lambda_star(self):
        return tuple(len(row) for row in self.body)

    @property
    def m(self):
        return sum(len(row) for row in self.body)

    def body_blocks(self):
        return [b for row in self.body for b in row]

    def body_filling(self):
        """The body with each block replaced by its rank in max-entry
        order, as an integer tableau."""
        return self._ordered_body()[1]

    def _ordered_body(self):
        # the body blocks in max-entry order, and the body_filling
        order = tuple(sorted(self.body_blocks(), key=_last))
        index = {b: i for i, b in enumerate(order, 1)}
        return order, tuple(tuple(index[b] for b in row) for row in self.body)

    def is_standard(self):
        """Rows increase left to right and columns top to bottom, in the
        max-entry order on blocks."""
        return is_standard(self.body_filling())

    def __eq__(self, other):
        return (
            isinstance(other, SetPartitionTableau)
            and self.k == other.k
            and self.first_row == other.first_row
            and self.body == other.body
        )

    def __hash__(self):
        return hash((self.k, self.first_row, self.body))

    def text(self, block=None):
        """The first row and the body rows, each block as {1,2}; block is a
        tableau_blocks() memo a listing shares, so each block of it is
        rendered once."""
        block = (tableau_blocks() if block is None else block).__getitem__

        def fmt_blocks(blocks):
            return " ".join(map(block, blocks)) if blocks else "-"

        rows = " / ".join(map(fmt_blocks, self.body))
        return "%s ; %s" % (fmt_blocks(self.first_row), rows if rows else "-")

    def __repr__(self):
        return "SetPartitionTableau(k=%d, %s)" % (self.k, self.text())


_set_tab_k, _set_first_row, _set_body = SetPartitionTableau._setters


def tableau_from_pair(w, t):
    """Place the i-th propagating block of w (max-entry order) at the cell
    holding i in the tableau t, whose entries must be 1..m."""
    shape = tableau_shape(t)
    if sum(shape) != w.m:
        raise ShapeMismatch(
            "tableau with %d cells for %d propagating blocks"
            % (sum(shape), w.m)
        )
    _check_permutation([x for row in t for x in row])
    prop = w.prop_max_order()
    nonprop = [b for b in w.top if b not in prop]
    return SetPartitionTableau(w.k, nonprop, relabel(prop, t))


def enumerate_sspt(family, k, lam_star):
    """All standard set-partition tableaux for the family and shape,
    ordered to match the twisted basis (w outer, tableau inner)."""
    family = normalize_family(family)
    lam_star = check_label(family, k, lam_star)
    return list(_module_basis(family, k, lam_star, TABLEAU)[0])


def act_tableau(d, tab):
    """Push a tableau through a diagram placed above it.

    Returns (new tableau or None, deleted middle components).  The result
    is None when two propagating blocks collide or a propagating block
    fails to reach the top; the new tableau may have a non-standard body.
    """
    if d.k != tab.k:
        raise RankMismatch(
            "diagram on %d strands against a tableau on %d" % (d.k, tab.k)
        )
    k = d.k
    blocks = tuple(sorted(chain(tab.first_row, *tab.body)))
    root, top, components = _conjugate(d, blocks)
    tops = {root[b[0]]: b for b in top}
    cells = [root[k + b[0]] for row in tab.body for b in row]
    taken = set(cells)
    if len(taken) < len(cells) or not taken.issubset(tops):
        return None, 0
    body = tuple(tuple(tops[root[k + b[0]]] for b in row) for row in tab.body)
    first_row = sorted((b for r, b in tops.items() if r not in taken), key=_last)
    # every component without a top vertex lay in the middle
    deleted = components - len(top)
    return SetPartitionTableau._make(k, tuple(first_row), body), deleted


def _tableau_image(d, tab):
    """The terms (tableau, c, deleted) of d . N_tab over standard tableaux;
    empty when the action is zero."""
    moved, deleted = act_tableau(d, tab)
    if moved is None:
        return []
    (order, filling), first = moved._ordered_body(), moved.first_row
    return [
        (SetPartitionTableau._make(d.k, first, relabel(order, u)), c, deleted)
        for u, c in straighten(filling).items()
    ]


def act_natural(d, v, family=None):
    """Act on a combinatorial vector {tableau: coeff} and rewrite any
    non-standard bodies over standard ones."""
    _check_family(d, family)
    return _sum_images((c, _tableau_image(d, tab)) for tab, c in v.items())


TWISTED = "Twisted"
TABLEAU = "Tableau"


def _normalize_basis(basis):
    b = str(basis).strip().lower()
    if b == "twisted":
        return TWISTED
    if b == "tableau":
        return TABLEAU
    raise ValueError("unknown basis %r" % (basis,))


# The basis vectors of a module in basis order.  The vector on symmetric
# diagram w and standard tableau t has index base[w] + position[t]; base is
# keyed by w in the twisted basis, in basis order, and by (first row,
# propagating blocks in max-entry order) in the tableau basis.
_ModuleBasis = namedtuple("_ModuleBasis", ["vectors", "base", "position"])


@lru_cache(maxsize=None)
def _module_basis(family, k, lam_star, basis):
    ts = standard_tableaux(lam_star)
    vectors, base = [], {}
    for w in enumerate_symmetric(family, k, sum(lam_star)):
        if basis == TWISTED:
            base[w] = len(vectors)
            vectors.extend((w, t) for t in ts)
            continue
        # tableau_from_pair, on blocks already canonical
        prop = w.prop_max_order()
        first = tuple(sorted((b for b in w.top if b not in prop), key=_last))
        base[first, prop] = len(vectors)
        vectors.extend(
            SetPartitionTableau._make(k, first, relabel(prop, t)) for t in ts
        )
    return _ModuleBasis(tuple(vectors), base, {t: i for i, t in enumerate(ts)})


def rep_columns(d, family, k, lam_star, basis=TWISTED):
    """Sparse matrix of d on the module: column j maps row index to the
    coefficient of basis vector i in d . (basis vector j)."""
    family = normalize_family(family)
    lam_star = check_label(family, k, lam_star)
    basis = _normalize_basis(basis)
    if d.k != k:
        raise RankMismatch("diagram on %d strands, module at k=%d" % (d.k, k))
    _check_family(d, family)
    vectors, base, position = _module_basis(family, k, lam_star, basis)
    if rank(d) < sum(lam_star):
        # fewer than m propagating blocks is zero in the paper's quotient
        return [{} for _ in vectors]
    # every entry is one monomial c n^deleted, and one polynomial per
    # (deleted, c) serves them all
    monomial = _Memo(lambda key: LaurentPoly._make({key[0]: key[1]}))
    columns = []
    if basis == TWISTED:
        # d . (w (x) n_t) = n^deleted w' (x) (twist . n_t): one conjugation
        # per w, and the tableau factor is a column of the twist's natural
        # matrix, whatever t is
        for w in base:
            res = conjugate(d, w)
            if res.twist is None:
                columns.extend({} for _ in position)
                continue
            row, e = base[res.w_prime], res.deleted
            columns.extend(
                {row + i: monomial[e, c] for i, c in col}
                for col in _natural_columns(res.twist, lam_star)
            )
        return columns
    for tab in vectors:
        moved, e = act_tableau(d, tab)
        if moved is None:
            columns.append({})
            continue
        order, filling = moved._ordered_body()
        row = base[moved.first_row, order]
        columns.append(
            {row + position[u]: monomial[e, c] for u, c in straighten(filling).items()}
        )
    return columns


def rep_matrix_irrep(d, family, k, lam_star, basis=TWISTED):
    """Dense matrix of d on the module, rows and columns in basis order."""
    cols = rep_columns(d, family, k, lam_star, basis)
    size = len(cols)
    mat = [[ZERO] * size for _ in range(size)]
    for j, col in enumerate(cols):
        for i, c in col.items():
            mat[i][j] = c
    return mat


def compose_columns(a_cols, b_cols):
    """Columns of the product: apply b first, then a."""
    out = []
    for col in b_cols:
        acc = {}
        for i, c in col.items():
            for r, ac in a_cols[i].items():
                acc[r] = acc.get(r, ZERO) + c * ac
        out.append({r: c for r, c in acc.items() if c})
    return out


def column_trace(cols):
    total = ZERO
    for j, col in enumerate(cols):
        total = total + col.get(j, ZERO)
    return total
