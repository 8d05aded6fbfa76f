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
from itertools import combinations, repeat
from operator import itemgetter

from .coeff import ZERO, LaurentPoly, _items
from .diagrams import (
    _SHAPES,
    Diagram,
    _canonical,
    _check_diagram,
    _check_int_vertices,
    _check_k,
    _check_strands,
    _covers,
    _fuse,
    _joined,
    _Memo,
    _memo,
    _sorted_blocks,
    _tuple_of,
    _Value,
    is_planar,
    normalize_family,
    rank,
)
from .errors import ShapeMismatch
from .partitions import check_label, check_partition, check_rank
from .symrep import (
    _check_tableau,
    _natural_columns,
    _straighten,
    is_standard,
    relabel,
    standard_tableaux,
    straighten,
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
        canon_top = _canonical(top, k)
        canon_prop = _sorted_blocks(propagating)[0]
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
        _check_diagram(d)
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

    def text(self):
        """The top blocks as {1 2}, or [1 2] when propagating."""
        return _symmetric_text(self, symmetric_blocks())

    def __repr__(self):
        return "SymmetricMDiagram(k=%d, %s)" % (self.k, self.text())


_set_w_k, _set_top, _set_propagating = SymmetricMDiagram._setters


def _symmetric_text(w, blocks):
    """w.text() from blocks, a symmetric_blocks() pair a listing shares."""
    free, prop = blocks
    props = w.propagating
    return " ".join([prop[b] if b in props else free[b] for b in w.top])


def symmetric_blocks():
    """Memos from each block of a symmetric diagram to its text, as
    SymmetricMDiagram.text renders it: (not propagating, propagating)."""
    return _joined("{%s}", " "), _joined("[%s]", " ")


def tableau_blocks():
    """A memo from each block of a tableau to its text, e.g. {1,2}."""
    return _joined("{%s}", ",")


def _symmetric_candidates(family, k, m):
    # The (top, propagating) pairs, sorted.  A top pair cannot propagate
    # (its block would have four vertices), so the pair families propagate
    # top singles, and all of them when one-vertex blocks are not allowed.
    # A planar family's tops are non-crossing, but a block may still pass
    # over a propagating one, so the caller filters them.
    shape = _SHAPES[family]
    out = []
    if shape.pairs and not shape.singles:
        # the m propagating points, then a perfect matching of the others;
        # each top is sorted into canonical order, and so are the pairs
        for ends in combinations(range(1, k + 1), m):
            prop = tuple((v,) for v in ends)
            rest = tuple(v for v in range(1, k + 1) if v not in ends)
            tops = map(tuple, map(sorted, map(prop.__add__, _covers(k, rest, shape))))
            out += zip(tops, repeat(prop))
        out.sort()
    else:
        # the tops come in canonical order, and the ends of each in order
        for top in _covers(k, tuple(range(1, k + 1)), shape):
            ends = [b for b in top if len(b) == 1] if shape.pairs else top
            out += zip(repeat(top), combinations(ends, m))
    return out


@_memo()
def _enumerate_symmetric(family, k, m):
    pairs = _symmetric_candidates(family, k, m)
    ws = SymmetricMDiagram._make_all(len(pairs), repeat(k), *zip(*pairs))
    if _SHAPES[family].planar:
        ws = [w for w in ws if is_planar(w.to_diagram())]
    return tuple(ws)


def enumerate_symmetric(family, k, m):
    """All symmetric diagrams of the family with m propagating blocks."""
    family = normalize_family(family)
    check_rank(family, k, m)
    return list(_enumerate_symmetric(family, k, m))


ConjugateResult = namedtuple(
    "ConjugateResult", ["w_prime", "m_prime", "deleted", "twist"]
)


@_memo(1 << 12)
def _conjugate(d, top):
    """Stack d above a set partition of {1..k}, given as its sorted blocks.

    The lower layer of the stacking kernel is the blocks of the partition,
    met at their vertices.  Returns the root of every vertex (top vertex v
    of d at v, vertex v of the partition at k+v), the blocks of the top
    row in canonical order (the root of block b is root[b[0]]), and the
    number of middle components.  Which blocks propagate, and where, is
    read off afterwards, so one cached stack serves every symmetric diagram
    on that top and every tableau whose blocks form it; all is immutable.
    """
    k = d.k
    below = [0] * k
    for i, b in enumerate(top):
        for v in b:
            below[v - 1] = i
    root, blocks, middle = _fuse(d, below, len(top), below, k)
    return tuple(root), tuple(map(tuple, blocks.values())), middle


def _check_action(d, x, cls):
    """Refuse d and x unless they are a Diagram and a cls on one k."""
    if isinstance(d, Diagram) and isinstance(x, cls):
        if d.k != x.k:
            _check_strands(d.k, x.k)
        return
    raise ValueError("expected a Diagram and a %s, got %r, %r" % (cls.__name__, d, x))


def conjugate(d, w):
    """Conjugate a symmetric diagram: the stack d w d^T.

    Returns (w', m', deleted, twist) where deleted counts the middle
    components removed when d is stacked on w, and twist is the induced
    permutation of propagating blocks (max-entry order), or None when the
    rank drops.
    """
    _check_action(d, w, SymmetricMDiagram)
    # d w d^T is mirror-symmetric and its two halves meet only through the
    # propagating blocks of w, so d stacked on the top of w decides it: a
    # component reaching the top row is a block of w', propagating when it
    # holds a propagating block of w; a middle-only component without one
    # is deleted, and its mirror image is not counted
    k = d.k
    root, top, middle = _conjugate(d, w.top)
    reached = {root[k + b[0]] for b in w.propagating}
    prop = tuple(b for b in top if root[b[0]] in reached)
    w_prime = SymmetricMDiagram._make(k, top, prop)
    # each block of prop is the one top block of a reached component
    deleted = middle - len(reached) + len(prop)
    twist = None
    if len(prop) == w.m:
        new = {root[b[0]]: j for j, b in enumerate(w_prime.prop_max_order(), 1)}
        twist = tuple(new[root[k + b[0]]] for b in w.prop_max_order())
    return ConjugateResult(w_prime, len(prop), deleted, twist)


def act_twisted(d, v, family=None):
    """Act on a twisted vector {(w, t): coeff}.

    Terms where the rank drops are killed; otherwise w goes to w', the
    twist permutation acts on the tableau factor, and each deleted middle
    component contributes a factor n.
    """
    _check_diagram(d, family)
    out = {}
    for key, coeff in _items(v):
        w, t = _tuple_of(key, "a (w, t) key")
        _check_pair(w, t)
        res = conjugate(d, w)
        if res.twist is not None:
            scale = coeff * LaurentPoly.monomial(res.deleted)
            for ts, c in straighten(relabel(res.twist, t)).items():
                key = (res.w_prime, ts)
                out[key] = out.get(key, ZERO) + c * scale
    return {key: p for key, p in out.items() if p}


class SetPartitionTableau(_Value):
    """Blocks of {1..k} arranged as a first row plus a tableau body.

    The first row holds the non-propagating blocks (always kept sorted by
    largest entry); the body holds the propagating blocks in the cells of
    a partition shape.  Every tableau carries its blocks in canonical
    order, the key of its stack, in _top, which takes no part in equality,
    hashing, order or copies.
    """

    __slots__ = ("k", "first_row", "body", "_top")

    def __init__(self, k, first_row, body):
        _check_k(k)
        first, rows = [], []

        def blocks():
            # every block, each sorted and read once inside the one check
            first.extend(map(tuple, map(sorted, first_row)))
            yield from first
            for row in body:
                rows.append(tuple(map(tuple, map(sorted, row))))
                yield from rows[-1]

        top = _canonical(blocks(), k)
        check_partition(map(len, rows))
        _set_tab_k(self, k)
        _set_first_row(self, tuple(sorted(first, key=_last)))
        _set_body(self, tuple(rows))
        _set_tab_top(self, top)

    @classmethod
    def _make(cls, k, first_row, body, top):
        """Wrap a first row sorted by largest entry, a body of sorted blocks
        in a partition shape and top, all of their blocks in canonical
        order (the stack key), checking nothing."""
        tab = object.__new__(cls)
        _set_tab_k(tab, k)
        _set_first_row(tab, first_row)
        _set_body(tab, body)
        _set_tab_top(tab, top)
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

    def text(self):
        """The first row and the body rows, each block as {1,2}."""
        return _tableau_text(self, tableau_blocks())

    def __repr__(self):
        return "SetPartitionTableau(k=%d, %s)" % (self.k, self.text())


_set_tab_k, _set_first_row, _set_body, _set_tab_top = SetPartitionTableau._setters


def _tableau_text(tab, memo):
    """tab.text() from memo, a tableau_blocks() memo a listing shares."""
    block = memo.__getitem__

    def fmt_blocks(blocks):
        return " ".join(map(block, blocks)) if blocks else "-"

    rows = " / ".join(map(fmt_blocks, tab.body))
    return "%s ; %s" % (fmt_blocks(tab.first_row), rows if rows else "-")


def _check_pair(w, t):
    """Refuse a twisted key (w, t) unless w is a SymmetricMDiagram and t a
    tableau of 1..m, m the number of propagating blocks of w."""
    if not isinstance(w, SymmetricMDiagram):
        raise ValueError("expected a SymmetricMDiagram, got %r" % (w,))
    cells = sum(_check_tableau(t))
    if cells != w.m:
        raise ShapeMismatch(
            "tableau with %d cells for %d propagating blocks" % (cells, w.m)
        )


def _pair_tableaux(w, ts):
    """The tableau of (w, t) for each tableau t of 1..m, checking nothing;
    all of them share w's top as their key."""
    prop = w.prop_max_order()
    first = tuple(sorted((b for b in w.top if b not in prop), key=_last))
    return [SetPartitionTableau._make(w.k, first, relabel(prop, t), w.top) for t in ts]


def tableau_from_pair(w, t):
    """Place the i-th propagating block of w (max-entry order) at the cell
    holding i in the tableau t, whose entries must be 1..m."""
    _check_pair(w, t)
    return _pair_tableaux(w, (t,))[0]


def enumerate_sspt(family, k, lam_star):
    """All standard set-partition tableaux for the family and shape,
    ordered to match the twisted basis (w outer, tableau inner)."""
    family = normalize_family(family)
    lam_star = check_label(family, k, lam_star)
    return list(_module_basis(family, k, lam_star, TABLEAU)[0])


def act_tableau(d, tab):
    """Push a tableau through a diagram placed above it.

    Returns (new tableau or None, deleted middle components).  One pass
    over the body takes each cell's top block out of the stack's top row,
    and returns None at the first cell whose component has none left (two
    propagating blocks collided, or one failed to reach the top); the top
    blocks left form the first row, and the body may be non-standard.  The
    stack's key is the tableau's blocks in canonical order, which it
    carries, and the stack's top row is the new tableau's key.
    """
    _check_action(d, tab, SetPartitionTableau)
    k = d.k
    root, top, deleted = _conjugate(d, tab._top)
    tops = {root[b[0]]: b for b in top}
    body = []
    for row in tab.body:
        cells = []
        for b in row:
            cell = tops.pop(root[k + b[0]], None)
            if cell is None:
                return None, 0
            cells.append(cell)
        body.append(tuple(cells))
    first_row = tuple(sorted(tops.values(), key=_last))
    return SetPartitionTableau._make(k, first_row, tuple(body), top), deleted


def act_natural(d, v, family=None):
    """Act on a combinatorial vector {tableau: coeff} and rewrite any
    non-standard bodies over standard ones."""
    _check_diagram(d, family)
    out = {}
    for tab, coeff in _items(v):
        moved, deleted = act_tableau(d, tab)
        if moved is not None:
            scale = coeff * LaurentPoly.monomial(deleted)
            order, filling = moved._ordered_body()
            first, top = moved.first_row, moved._top
            for u, c in straighten(filling).items():
                key = SetPartitionTableau._make(d.k, first, relabel(order, u), top)
                out[key] = out.get(key, ZERO) + c * scale
    return {key: p for key, p in out.items() if p}


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


@_memo()
def _module_basis(family, k, lam_star, basis):
    ts = standard_tableaux(lam_star)
    vectors, base = [], {}
    for w in enumerate_symmetric(family, k, sum(lam_star)):
        if basis == TWISTED:
            base[w] = len(vectors)
            vectors.extend((w, t) for t in ts)
            continue
        tabs = _pair_tableaux(w, ts)
        base[tabs[0].first_row, w.prop_max_order()] = len(vectors)
        vectors += tabs
    return _ModuleBasis(tuple(vectors), base, {t: i for i, t in enumerate(ts)})


def rep_columns(d, family, k, lam_star, basis=TWISTED):
    """Sparse matrix of d on the module: column j maps row index to the
    coefficient of basis vector i in d . (basis vector j)."""
    family = normalize_family(family)
    lam_star = check_label(family, k, lam_star)
    basis = _normalize_basis(basis)
    _check_diagram(d, family, k)
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
            {row + position[u]: monomial[e, c] for u, c in _straighten(filling)}
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
    a_cols = _tuple_of(a_cols, "a list of columns")
    out = []
    for col in _tuple_of(b_cols, "a list of columns"):
        acc = {}
        for i, c in _items(col):
            if type(i) is not int or not 0 <= i < len(a_cols):
                raise ValueError("row %r names no column of a" % (i,))
            for r, ac in _items(a_cols[i]):
                acc[r] = acc.get(r, ZERO) + c * ac
        out.append({r: c for r, c in acc.items() if c})
    return out


def column_trace(cols):
    total = ZERO
    for j, col in enumerate(_tuple_of(cols, "a list of columns")):
        _items(col)
        total = total + col.get(j, ZERO)
    return total
