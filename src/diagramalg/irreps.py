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

from .coeff import ONE, ZERO, LaurentPoly
from .diagrams import (
    _SHAPES,
    Diagram,
    _block_owner,
    _check_int_vertices,
    _fuse,
    _matchings,
    in_family,
    is_planar,
    normalize_family,
    set_partitions,
)
from .errors import (
    AlgebraMismatch,
    InvalidRank,
    RankMismatch,
    ShapeMismatch,
)
from .partitions import check_label, rank_set
from .symrep import standard_tableaux, straighten, tableau_shape


class SymmetricMDiagram:
    """A mirror-symmetric diagram, stored as its top half.

    top is a set partition of {1..k}; propagating lists the blocks that
    connect to their own mirror image below.  The remaining blocks appear
    once on top and once, mirrored, on the bottom.
    """

    __slots__ = ("k", "top", "propagating")

    def __init__(self, k, top, propagating):
        if not isinstance(k, int) or k < 1:
            raise ValueError("k must be a positive integer, got %r" % (k,))
        canon_top = tuple(sorted(tuple(sorted(b)) for b in top))
        seen = [v for b in canon_top for v in b]
        if sorted(seen) != list(range(1, k + 1)):
            raise ValueError("top blocks must partition {1..%d}" % k)
        if not canon_top[0]:  # an empty block sorts first
            raise ValueError("top blocks must not be empty")
        canon_prop = tuple(sorted(tuple(sorted(b)) for b in propagating))
        _check_int_vertices(seen + [v for b in canon_prop for v in b])
        top_set = set(canon_top)
        for b in canon_prop:
            if b not in top_set:
                raise ValueError("propagating block %r is not a top block" % (b,))
        if len(set(canon_prop)) != len(canon_prop):
            raise ValueError("repeated propagating block")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "top", canon_top)
        object.__setattr__(self, "propagating", canon_prop)

    @classmethod
    def _canonical(cls, k, top, propagating):
        """Wrap blocks that are already in canonical form, without sorting
        or checking them again."""
        w = object.__new__(cls)
        object.__setattr__(w, "k", k)
        object.__setattr__(w, "top", top)
        object.__setattr__(w, "propagating", propagating)
        return w

    def __setattr__(self, name, value):
        raise AttributeError("SymmetricMDiagram is immutable")

    def __reduce__(self):
        # rebuilt through the checks
        return (SymmetricMDiagram, (self.k, self.top, self.propagating))

    @property
    def m(self):
        return len(self.propagating)

    def prop_max_order(self):
        """Propagating blocks sorted by largest entry."""
        return tuple(sorted(self.propagating, key=max))

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
        k = d.k
        top = []
        prop = []
        for block in d.blocks:
            above = tuple(v for v in block if v <= k)
            below = tuple(v - k for v in block if v > k)
            if above and below:
                if above != below:
                    raise ValueError(
                        "propagating block %r is not mirror-symmetric" % (block,)
                    )
                top.append(above)
                prop.append(above)
            elif above:
                top.append(above)
            else:
                mirror = tuple(v + k for v in below)
                if mirror not in d.blocks:
                    raise ValueError("diagram is not mirror-symmetric")
        return cls(k, top, prop)

    def __eq__(self, other):
        return (
            isinstance(other, SymmetricMDiagram)
            and self.k == other.k
            and self.top == other.top
            and self.propagating == other.propagating
        )

    def __hash__(self):
        return hash((self.k, self.top, self.propagating))

    def __lt__(self, other):
        return (self.k, self.top, self.propagating) < (
            other.k,
            other.top,
            other.propagating,
        )

    def text(self):
        prop = set(self.propagating)
        pieces = []
        for b in self.top:
            body = " ".join(str(v) for v in b)
            if b in prop:
                pieces.append("[%s]" % body)
            else:
                pieces.append("{%s}" % body)
        return " ".join(pieces)

    def __repr__(self):
        return "SymmetricMDiagram(k=%d, %s)" % (self.k, self.text())


def _symmetric_candidates(family, k, m):
    # A top pair cannot propagate (its block would have four vertices), so
    # the pair families propagate top singles, and all of them when
    # one-vertex blocks are not allowed.
    shape = _SHAPES[family]
    if shape.pairs and not shape.singles:
        # the m propagating points, then a perfect matching of the others
        for ends in combinations(range(1, k + 1), m):
            prop = [(v,) for v in ends]
            rest = tuple(v for v in range(1, k + 1) if v not in ends)
            for pairs in _matchings(k, rest, False, shape.across, False):
                yield SymmetricMDiagram(k, prop + list(pairs), prop)
        return
    if shape.pairs:
        tops = _matchings(k, tuple(range(1, k + 1)), True, shape.across, False)
    else:
        tops = set_partitions(k)
    for top in tops:
        ends = [b for b in top if len(b) == 1] if shape.pairs else top
        for prop in combinations(ends, m):
            yield SymmetricMDiagram(k, top, prop)


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
    if m not in rank_set(family, k):
        raise InvalidRank(
            "%s diagrams on %d strands have no rank %r" % (family, k, m)
        )
    return list(_enumerate_symmetric(family, k, m))


ConjugateResult = namedtuple(
    "ConjugateResult", ["w_prime", "m_prime", "deleted", "twist"]
)


def _stack(d, blocks):
    """Stack d above a set partition of {1..k}.

    The lower layer of the stacking kernel is the blocks of the partition,
    met at their vertices.  Returns the root of every vertex (top vertex v
    of d at v, vertex v of the partition at k+v), the top vertices of each
    component that reaches the top row keyed by root in order of least
    vertex, and the number of components.
    """
    k = d.k
    blocks = tuple(blocks)
    below = [0] * k
    for i, b in enumerate(blocks):
        for v in b:
            below[v - 1] = i
    parent, components = _fuse(d, below, len(blocks))
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
    return root, tops, components


@lru_cache(maxsize=1 << 16)
def _conjugate(d, w):
    # d w d^T is mirror-symmetric and its two halves meet only through the
    # propagating blocks of w, so d stacked on the top of w decides it: a
    # component reaching the top row is a block of w', propagating when it
    # holds a propagating block of w; a middle-only component without one
    # is deleted, and its mirror image is not counted
    k = d.k
    root, tops, components = _stack(d, w.top)
    reached = {root[k + b[0]] for b in w.propagating}
    prop = tuple(b for r, b in tops.items() if r in reached)
    w_prime = SymmetricMDiagram._canonical(k, tuple(tops.values()), prop)
    deleted = components - len(reached.union(tops))
    twist = None
    if len(prop) == w.m:
        new = {root[b[0]]: j for j, b in enumerate(w_prime.prop_max_order(), 1)}
        twist = tuple(new[root[k + b[0]]] for b in w.prop_max_order())
    return ConjugateResult(w_prime, len(prop), deleted, twist)


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
    return _conjugate(d, w)


def act_twisted(d, v, family=None):
    """Act on a twisted vector {(w, t): coeff}.

    Terms where the rank drops are killed; otherwise w goes to w', the
    twist permutation acts on the tableau factor, and each deleted middle
    component contributes a factor n.
    """
    if family is not None and not in_family(d, family):
        raise AlgebraMismatch(
            "diagram %s is not in the %s family" % (d.text(), family)
        )
    out = {}
    for (w, t), coeff in v.items():
        res = conjugate(d, w)
        if res.twist is None:
            continue
        factor = LaurentPoly.coerce(coeff).shift(res.deleted)
        relabeled = tuple(
            tuple(res.twist[x - 1] for x in row) for row in t
        )
        for ts, c in straighten(relabeled).items():
            key = (res.w_prime, ts)
            out[key] = out.get(key, ZERO) + factor * c
    return {key: c for key, c in out.items() if c}


class SetPartitionTableau:
    """Blocks of {1..k} arranged as a first row plus a tableau body.

    The first row holds the non-propagating blocks (always kept sorted by
    largest entry); the body holds the propagating blocks in the cells of
    a partition shape.
    """

    __slots__ = ("k", "first_row", "body")

    def __init__(self, k, first_row, body):
        if not isinstance(k, int) or k < 1:
            raise ValueError("k must be a positive integer, got %r" % (k,))
        first = [tuple(sorted(b)) for b in first_row]
        rows = tuple(
            tuple(tuple(sorted(b)) for b in row) for row in body
        )
        if () in first or any(() in row for row in rows):
            raise ValueError("blocks must not be empty")
        first = tuple(sorted(first, key=max))
        shape = tuple(len(row) for row in rows)
        if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)) or (
            shape and shape[-1] == 0
        ):
            raise ValueError("body rows must form a partition shape")
        everything = [v for b in first for v in b] + [
            v for row in rows for b in row for v in b
        ]
        if sorted(everything) != list(range(1, k + 1)):
            raise ValueError("blocks must partition {1..%d}" % k)
        _check_int_vertices(everything)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "first_row", first)
        object.__setattr__(self, "body", rows)

    @classmethod
    def _canonical(cls, k, first_row, body):
        """Wrap a first row sorted by largest entry and a body of sorted
        blocks in a partition shape, without checking them again."""
        tab = object.__new__(cls)
        object.__setattr__(tab, "k", k)
        object.__setattr__(tab, "first_row", first_row)
        object.__setattr__(tab, "body", body)
        return tab

    def __setattr__(self, name, value):
        raise AttributeError("SetPartitionTableau is immutable")

    def __reduce__(self):
        # rebuilt through the checks
        return (SetPartitionTableau, (self.k, self.first_row, self.body))

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
        order = sorted(self.body_blocks(), key=max)
        index = {b: i + 1 for i, b in enumerate(order)}
        return tuple(tuple(index[b] for b in row) for row in self.body)

    def is_standard(self):
        """Rows increase left to right and columns top to bottom, in the
        max-entry order on blocks."""
        from .symrep import is_standard as filling_standard

        return filling_standard(self.body_filling())

    def __eq__(self, other):
        return (
            isinstance(other, SetPartitionTableau)
            and self.k == other.k
            and self.first_row == other.first_row
            and self.body == other.body
        )

    def __hash__(self):
        return hash((self.k, self.first_row, self.body))

    def __lt__(self, other):
        return (self.k, self.first_row, self.body) < (
            other.k,
            other.first_row,
            other.body,
        )

    def text(self):
        def fmt_blocks(blocks):
            if not blocks:
                return "-"
            return " ".join(
                "{%s}" % ",".join(str(v) for v in b) for b in blocks
            )

        rows = " / ".join(fmt_blocks(row) for row in self.body)
        return "%s ; %s" % (fmt_blocks(self.first_row), rows if rows else "-")

    def __repr__(self):
        return "SetPartitionTableau(k=%d, %s)" % (self.k, self.text())


def tableau_from_pair(w, t):
    """Place the i-th propagating block of w (max-entry order) at the cell
    holding i in the tableau t."""
    shape = tableau_shape(t)
    if sum(shape) != w.m:
        raise ShapeMismatch(
            "tableau with %d cells for %d propagating blocks"
            % (sum(shape), w.m)
        )
    prop = w.prop_max_order()
    nonprop = [b for b in w.top if b not in prop]
    body = tuple(tuple(prop[x - 1] for x in row) for row in t)
    return SetPartitionTableau(w.k, nonprop, body)


def pair_from_tableau(tab):
    """Inverse of tableau_from_pair."""
    props = tab.body_blocks()
    w = SymmetricMDiagram(
        tab.k, tab.first_row + tuple(props), props
    )
    return w, tab.body_filling()


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
    root, tops, components = _stack(d, chain(tab.first_row, *tab.body))
    cells = [root[k + b[0]] for row in tab.body for b in row]
    taken = set(cells)
    if len(taken) < len(cells) or not taken.issubset(tops):
        return None, 0
    body = tuple(tuple(tops[root[k + b[0]]] for b in row) for row in tab.body)
    first_row = sorted((b for r, b in tops.items() if r not in taken), key=max)
    # every component without a top vertex lay in the middle
    deleted = components - len(tops)
    return SetPartitionTableau._canonical(k, tuple(first_row), body), deleted


def act_natural(d, v, family=None):
    """Act on a combinatorial vector {tableau: coeff} and rewrite any
    non-standard bodies over standard ones."""
    if family is not None and not in_family(d, family):
        raise AlgebraMismatch(
            "diagram %s is not in the %s family" % (d.text(), family)
        )
    out = {}
    for tab, coeff in v.items():
        moved, deleted = act_tableau(d, tab)
        if moved is None:
            continue
        factor = LaurentPoly.coerce(coeff).shift(deleted)
        order = sorted(moved.body_blocks(), key=max)
        for ustd, c in straighten(moved.body_filling()).items():
            body = tuple(tuple(order[x - 1] for x in row) for row in ustd)
            tstd = SetPartitionTableau._canonical(moved.k, moved.first_row, body)
            out[tstd] = out.get(tstd, ZERO) + factor * c
    return {key: c for key, c in out.items() if c}


TWISTED = "Twisted"
TABLEAU = "Tableau"


def _normalize_basis(basis):
    b = str(basis).strip().lower()
    if b == "twisted":
        return TWISTED
    if b == "tableau":
        return TABLEAU
    raise ValueError("unknown basis %r" % (basis,))


@lru_cache(maxsize=None)
def _module_basis(family, k, lam_star, basis):
    """The basis vectors of a module in basis order, and the index of each."""
    ws = enumerate_symmetric(family, k, sum(lam_star))
    ts = standard_tableaux(lam_star)
    if basis == TWISTED:
        vectors = tuple((w, t) for w in ws for t in ts)
    else:
        vectors = tuple(tableau_from_pair(w, t) for w in ws for t in ts)
    return vectors, {v: i for i, v in enumerate(vectors)}


def rep_columns(d, family, k, lam_star, basis=TWISTED):
    """Sparse matrix of d on the module: column j maps row index to the
    coefficient of basis vector i in d . (basis vector j)."""
    family = normalize_family(family)
    lam_star = check_label(family, k, lam_star)
    basis = _normalize_basis(basis)
    if d.k != k:
        raise RankMismatch("diagram on %d strands, module at k=%d" % (d.k, k))
    if not in_family(d, family):
        raise AlgebraMismatch(
            "diagram %s is not in the %s family" % (d.text(), family)
        )
    vectors, index = _module_basis(family, k, lam_star, basis)
    act = act_twisted if basis == TWISTED else act_natural
    return [
        {index[key]: c for key, c in act(d, {v: ONE}).items()}
        for v in vectors
    ]


def rep_columns_element(elem, lam_star, basis=TWISTED):
    """Sparse matrix of an algebra element (linear combination)."""
    family, k = elem.family, elem.k
    lam_star = check_label(family, k, lam_star)
    basis = _normalize_basis(basis)
    total = [{} for _ in _module_basis(family, k, lam_star, basis)[0]]
    for diag, coeff in elem.terms():
        for j, col in enumerate(rep_columns(diag, family, k, lam_star, basis)):
            for i, c in col.items():
                total[j][i] = total[j].get(i, ZERO) + coeff * c
    return [
        {i: c for i, c in col.items() if c} for col in total
    ]


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
