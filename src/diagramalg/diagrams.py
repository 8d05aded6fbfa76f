"""Two-row set-partition diagrams and the diagram families.

A diagram on k strands is a set partition of the 2k vertices
{1,...,k, 1',...,k'}.  Internally the bottom vertex j' is stored as the
integer k + j, so a diagram is simply a set partition of {1,...,2k} in a
fixed canonical form.  Concatenation stacks one diagram on top of another,
fuses blocks through the shared middle row, and reports how many connected
components vanished from the middle; the algebra layer turns that count
into a power of the parameter n.
"""

import os
import re
from collections import namedtuple
from functools import lru_cache
from itertools import chain

from .errors import (
    CapExceeded,
    DiagramSyntaxError,
    DuplicateVertex,
    IndexOutOfRange,
    InvalidCap,
    MissingVertex,
    RankMismatch,
)

PARTITION = "Partition"
BRAUER = "Brauer"
ROOK_BRAUER = "RookBrauer"
ROOK = "Rook"
TEMPERLEY_LIEB = "TemperleyLieb"
MOTZKIN = "Motzkin"
PLANAR_ROOK = "PlanarRook"
PLANAR_PARTITION = "PlanarPartition"
SYMMETRIC_GROUP = "SymmetricGroup"

FAMILIES = (
    PARTITION,
    BRAUER,
    ROOK_BRAUER,
    ROOK,
    TEMPERLEY_LIEB,
    MOTZKIN,
    PLANAR_ROOK,
    PLANAR_PARTITION,
    SYMMETRIC_GROUP,
)

_ALIASES = {f.lower(): f for f in FAMILIES}
_ALIASES.update(
    {
        "rook-brauer": ROOK_BRAUER,
        "temperley-lieb": TEMPERLEY_LIEB,
        "tl": TEMPERLEY_LIEB,
        "planar-rook": PLANAR_ROOK,
        "planar-partition": PLANAR_PARTITION,
        "symmetric-group": SYMMETRIC_GROUP,
        "symmetric": SYMMETRIC_GROUP,
    }
)


# What each family allows of its blocks: pairs, at most two vertices per
# block; singles, one-vertex blocks; across, every two-vertex block joins
# the two rows; planar, no two blocks cross.  Every shape decision (family
# membership, bases, symmetric diagrams, ranks, class elements) reads it.
_Shape = namedtuple("_Shape", ["pairs", "singles", "across", "planar"])
_SHAPES = {
    PARTITION: _Shape(False, True, False, False),
    BRAUER: _Shape(True, False, False, False),
    ROOK_BRAUER: _Shape(True, True, False, False),
    ROOK: _Shape(True, True, True, False),
    TEMPERLEY_LIEB: _Shape(True, False, False, True),
    MOTZKIN: _Shape(True, True, False, True),
    PLANAR_ROOK: _Shape(True, True, True, True),
    PLANAR_PARTITION: _Shape(False, True, False, True),
    SYMMETRIC_GROUP: _Shape(True, False, True, False),
}


def normalize_family(name):
    """Return the canonical family tag for a (possibly lowercase) name."""
    try:
        return _ALIASES[str(name).strip().lower()]
    except KeyError:
        raise ValueError("unknown family: %r" % (name,)) from None


class Diagram:
    """A set partition of {1..2k}, hashed and compared in canonical form.

    blocks is a tuple of tuples of ints: each block sorted ascending (top
    vertices 1..k precede bottom vertices k+1..2k automatically), blocks
    sorted by their least vertex.  The block layout that stacking reads
    (_owner, see _block_owner) is cached on first use and takes no part in
    equality or hashing.
    """

    __slots__ = ("k", "blocks", "_owner")

    def __init__(self, k, blocks):
        if not isinstance(k, int) or k < 1:
            raise IndexOutOfRange("k must be a positive integer, got %r" % (k,))
        canon = tuple(sorted(map(tuple, map(sorted, blocks))))
        seen = sorted(chain.from_iterable(canon))
        if seen != list(range(1, 2 * k + 1)):
            raise ValueError("blocks must partition {1..%d}" % (2 * k))
        if not canon[0]:  # an empty block sorts first
            raise ValueError("blocks must not be empty")
        _check_int_vertices(seen)
        _set_k(self, k)
        _set_blocks(self, canon)

    @classmethod
    def _canonical(cls, k, blocks):
        """Wrap blocks that are already in canonical form, without sorting
        or checking them again."""
        d = object.__new__(cls)
        _set_k(d, k)
        _set_blocks(d, blocks)
        return d

    def __setattr__(self, name, value):
        raise AttributeError("Diagram is immutable")

    def __reduce__(self):
        # rebuilt through the checks, without the cached layout
        return (Diagram, (self.k, self.blocks))

    def __eq__(self, other):
        return (
            isinstance(other, Diagram)
            and self.k == other.k
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.k, self.blocks))

    def __lt__(self, other):
        return (self.k, self.blocks) < (other.k, other.blocks)

    def text(self):
        return format_diagram(self)

    def __repr__(self):
        return "Diagram(%d, %r)" % (self.k, self.text())


# the slots' own setters, which __setattr__ refuses to reach
_set_k = Diagram.k.__set__
_set_blocks = Diagram.blocks.__set__
_set_owner = Diagram._owner.__set__


def _check_int_vertices(vertices):
    # 1.0 and True compare and hash like 1 but are not vertices
    if set(map(type, vertices)) != {int}:
        bad = next(v for v in vertices if type(v) is not int)
        raise ValueError("vertices must be integers, got %r" % (bad,))


ConcatResult = namedtuple("ConcatResult", ["product", "deleted"])

_VERTEX_RE = re.compile(r"^(\d+)(')?$")


def vertex_name(v, k):
    """Render internal vertex number v as `i` or `i'`."""
    return str(v) if v <= k else "%d'" % (v - k)


def parse_diagram(text, k):
    """Parse `block ('|' block)*` notation, e.g. "1 1' | 2 2'" at k = 2.

    Every vertex 1..k and 1'..k' must appear exactly once.
    """
    if not isinstance(k, int) or k < 1:
        raise IndexOutOfRange("k must be a positive integer, got %r" % (k,))
    pieces = text.split("|")
    blocks = []
    seen = set()
    for piece in pieces:
        tokens = piece.split()
        if not tokens:
            raise DiagramSyntaxError("empty block in %r" % (text,))
        block = []
        for tok in tokens:
            match = _VERTEX_RE.match(tok)
            if match is None:
                raise DiagramSyntaxError("bad vertex token %r" % (tok,))
            idx = int(match.group(1))
            if not 1 <= idx <= k:
                raise IndexOutOfRange("vertex index %d outside 1..%d" % (idx, k))
            v = idx if match.group(2) is None else k + idx
            if v in seen:
                raise DuplicateVertex("vertex %s listed twice" % vertex_name(v, k))
            seen.add(v)
            block.append(v)
        blocks.append(tuple(block))
    missing = next((v for v in range(1, 2 * k + 1) if v not in seen), None)
    if missing is not None:
        raise MissingVertex("vertex %s missing" % vertex_name(missing, k))
    return Diagram(k, blocks)


class _Memo(dict):
    """key -> make(key), each value made on first use."""

    __slots__ = ("make",)

    def __init__(self, make, items=()):
        super().__init__(items)
        self.make = make

    def __missing__(self, key):
        out = self[key] = self.make(key)
        return out

    def take(self, key):
        """The value for key, dropping every other value now: a make that
        reads this memo forms a cycle with it, which only the garbage
        collector would free."""
        out = self[key]
        self.clear()
        return out


@lru_cache(maxsize=None)
def _block_renderer(k):
    # the text of a block of a k-strand diagram: vertex names joined by
    # spaces, read from a table of the names (index 0 unused)
    name = ("",) + tuple(vertex_name(v, k) for v in range(1, 2 * k + 1))
    return lambda block: " ".join(map(name.__getitem__, block))


def block_text(k):
    """A memo from each block of a k-strand diagram to its text, as in
    format_diagram; one per listing renders each block once."""
    return _Memo(_block_renderer(k))


def block_json():
    """A memo from each block to its compact JSON, e.g. [1,2]."""
    return _Memo(lambda block: "[%s]" % ",".join(map(str, block)))


def format_diagram(d):
    return " | ".join(map(_block_renderer(d.k), d.blocks))


def _block_owner(d):
    """owner[v] is the index in d.blocks of the block holding vertex v
    (index 0 unused); computed once per diagram and cached on it."""
    try:
        return d._owner
    except AttributeError:
        owner = [0] * (2 * d.k + 1)
        for i, block in enumerate(d.blocks):
            for v in block:
                owner[v] = i
        _set_owner(d, tuple(owner))
        return d._owner


def _fuse(d, below, count):
    """Stack d above a layer of count nodes; return (parent, components).

    The one union-find behind every stack, over blocks: nodes 0..n-1 are
    the blocks of d (n = len(d.blocks)), read from its cached layout, and
    n.. are the nodes of the layer below.  Middle vertex j joins d's block
    at bottom k + j to node n + below[j-1].  Path halving, finds inline;
    each union that joins two components takes one off the count.  The
    parents are left for the caller's finds.
    """
    k = d.k
    n = len(d.blocks)
    size = n + count
    parent = list(range(size))
    components = size
    for a, b in zip(_block_owner(d)[k + 1 :], below):
        b += n
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[b] = a
            components -= 1
    return parent, components


def concat(d1, d2):
    """Stack d1 above d2; return (product diagram, deleted middle components).

    The bottom row of d1 is identified with the top row of d2; connected
    components living entirely in that shared middle row are removed and
    counted.
    """
    if d1.k != d2.k:
        raise RankMismatch("cannot concatenate k=%d with k=%d" % (d1.k, d2.k))
    k = d1.k
    # the lower layer is the blocks of d2, met at its top vertices
    own1, own2 = _block_owner(d1), _block_owner(d2)
    parent, components = _fuse(d1, own2[1 : k + 1], len(d2.blocks))
    # the node of each outer vertex, tops 1..k then bottoms k+1..2k: each
    # block opens at its least vertex and grows in ascending order, so the
    # blocks come out canonical
    n1 = len(d1.blocks)
    nodes = own1[1 : k + 1] + tuple([b + n1 for b in own2[k + 1 :]])
    outer = {}
    for v, r in enumerate(nodes, 1):
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        if r in outer:
            outer[r].append(v)
        else:
            outer[r] = [v]
    # every component without an outer vertex lay in the middle and vanishes
    return ConcatResult(Diagram(k, outer.values()), components - len(outer))


def transpose(d):
    """Mirror over the horizontal axis: i <-> i'."""
    k = d.k
    return Diagram(
        k, [tuple(v + k if v <= k else v - k for v in b) for b in d.blocks]
    )


def rank(d):
    """Number of propagating blocks (blocks meeting both rows)."""
    k = d.k
    return sum(1 for b in d.blocks if b[0] <= k < b[-1])


def is_planar(d):
    """True iff no two blocks cross in the boundary order 1..k, k'..1'.

    One scan along the boundary keeps a stack of the blocks that are open
    (met, not yet finished); a block may be revisited only while it is on
    top, otherwise a block opened inside it is still open and they cross.
    """
    k = d.k
    # boundary position of vertex v: top i at i, bottom j' (v = k + j) at
    # 2k + 1 - j
    owner = [0] * (2 * k + 1)
    last = []
    for i, block in enumerate(d.blocks):
        end = 0
        for v in block:
            p = v if v <= k else 3 * k + 1 - v
            owner[p] = i
            if p > end:
                end = p
        last.append(end)
    opened = [False] * len(last)
    stack = []
    for p in range(1, 2 * k + 1):
        b = owner[p]
        if opened[b]:
            if stack[-1] != b:
                return False
        else:
            opened[b] = True
            stack.append(b)
        if last[b] == p:
            stack.pop()
    return True


def in_family(d, family):
    """Membership predicate for each diagram family."""
    try:
        shape = _SHAPES[family]
    except (KeyError, TypeError):
        shape = _SHAPES[normalize_family(family)]
    pairs, singles, across, planar = shape
    if pairs:
        k = d.k
        for b in d.blocks:
            if len(b) == 2:
                if across and not b[0] <= k < b[1]:
                    return False
            elif len(b) != 1 or not singles:
                return False
    return not planar or is_planar(d)


def identity_diagram(k):
    return Diagram(k, [(i, k + i) for i in range(1, k + 1)])


def perm_diagram(images):
    """Diagram of a permutation: bottom j joins top images[j-1]."""
    k = len(images)
    if sorted(images) != list(range(1, k + 1)):
        raise ValueError("not a permutation of 1..%d: %r" % (k, images))
    return Diagram(k, [(images[j - 1], k + j) for j in range(1, k + 1)])


def generator(kind, i, k):
    """The standard generators s_i, p_i, b_i, e_i, l_i, r_i as diagrams.

    kind is one of S, P, B, E, L, R (case-insensitive).  P allows
    1 <= i <= k; the others need 1 <= i <= k-1.
    """
    kind = str(kind).upper()
    if kind not in ("S", "P", "B", "E", "L", "R"):
        raise ValueError("unknown generator kind %r" % (kind,))
    hi = k if kind == "P" else k - 1
    if not 1 <= i <= hi:
        raise IndexOutOfRange("generator %s_%d needs 1 <= i <= %d" % (kind, i, hi))
    touched = {i} if kind == "P" else {i, i + 1}
    blocks = [(j, k + j) for j in range(1, k + 1) if j not in touched]
    if kind == "S":
        blocks += [(i, k + i + 1), (i + 1, k + i)]
    elif kind == "P":
        blocks += [(i,), (k + i,)]
    elif kind == "B":
        blocks += [(i, i + 1, k + i, k + i + 1)]
    elif kind == "E":
        blocks += [(i, i + 1), (k + i, k + i + 1)]
    elif kind == "L":
        blocks += [(i, k + i + 1), (i + 1,), (k + i,)]
    else:  # R
        blocks += [(i + 1, k + i), (i,), (k + i + 1,)]
    return Diagram(k, blocks)


def set_partitions(n):
    """All set partitions of {1..n}, canonical and in canonical order, as a
    list.  The block of the least point takes its other members in
    lexicographic order, and the points it leaves are covered the same way,
    each cover built once per call, memoised by the points it covers."""

    def cover(points):
        rest = points[1:]
        out = []

        def grow(block, left, start):
            # left: the points of rest before start that block passed over
            head = (block,)
            out.extend([head + t for t in memo[left + rest[start:]]])
            for i in range(start, len(rest)):
                grow(block + (rest[i],), left + rest[start:i], i + 1)

        grow(points[:1], (), 0)
        return out

    memo = _Memo(cover, {(): [()]})
    return memo.take(tuple(range(1, n + 1)))


def _matchings(k, points, singles, across, planar):
    """Every way to cover points with blocks of one or two vertices, as a
    list.

    singles allows one-vertex blocks; across requires each pair to join a
    top vertex (at most k) to a bottom one; planar, with points listed in
    boundary order, requires that no two pairs cross, so the points a pair
    encloses are matched among themselves.  Each pair is in ascending order.
    Each cover is built once per call, memoised by the points it covers.
    """

    def cover(points):
        first, rest = points[0], points[1:]
        out = []
        if singles:
            head = ((first,),)
            out.extend([head + t for t in memo[rest]])
        for idx, partner in enumerate(rest):
            if across and (first <= k) == (partner <= k):
                continue
            head = ((first, partner) if first < partner else (partner, first),)
            if planar:
                outer = memo[rest[idx + 1 :]]
                for inner in memo[rest[:idx]]:
                    prefix = head + inner
                    out.extend([prefix + t for t in outer])
            else:
                out.extend([head + t for t in memo[rest[:idx] + rest[idx + 1 :]]])
        return out

    memo = _Memo(cover, {(): [()]})
    return memo.take(points)


def _noncrossing(points):
    """Every non-crossing set partition of points, taken in their order,
    with each block in ascending order, as a list.

    The block of the first point either ends, and the rest is covered on
    its own, or takes a next point, and the points it passes over are
    covered among themselves (Kreweras's non-crossing partitions).  Each
    cover is built once per call, memoised by the run it covers.
    """

    def grow(block, rest):
        ended = (tuple(sorted(block)),)
        out = [ended + t for t in memo[rest]]
        for idx, nxt in enumerate(rest):
            outer = grow(block + (nxt,), rest[idx + 1 :])
            for inner in memo[rest[:idx]]:
                out.extend([inner + t for t in outer])
        return out

    memo = _Memo(lambda run: grow(run[:1], run[1:]), {(): [()]})
    return memo.take(points)


def size_cap(default):
    """The size cap on enumeration: DIAGRAMALG_CAP if set, else default."""
    env = os.environ.get("DIAGRAMALG_CAP")
    if env is None:
        return default
    try:
        return int(env)
    except ValueError:
        raise InvalidCap(
            "DIAGRAMALG_CAP must be an integer, got %r" % (env,)
        ) from None


def enumeration_cap(family):
    """Current basis-enumeration cap for a family.

    DIAGRAMALG_CAP in the environment overrides the defaults (5 for the
    partition families, 7 elsewhere).
    """
    return size_cap(7 if _SHAPES[normalize_family(family)].pairs else 5)


def enumerate_basis(family, k):
    """All diagrams of the family on k strands, in canonical order."""
    family = normalize_family(family)
    if not isinstance(k, int) or k < 1:
        raise IndexOutOfRange("k must be a positive integer, got %r" % (k,))
    cap = enumeration_cap(family)
    if k > cap:
        raise CapExceeded(
            "enumerate_basis(%s, %d) exceeds cap %d" % (family, k, cap)
        )
    pairs, singles, across, planar = _SHAPES[family]
    if planar:
        # generated in the boundary order 1..k, k'..1': each block comes
        # out ascending, but neither the blocks nor the diagrams in order
        points = tuple(range(1, k + 1)) + tuple(range(2 * k, k, -1))
        if pairs:
            raw = _matchings(k, points, singles, across, True)
        else:
            raw = _noncrossing(points)
        listing = sorted(tuple(sorted(blocks)) for blocks in raw)
    elif pairs:
        # in vertex order every matching is canonical and in basis order
        points = tuple(range(1, 2 * k + 1))
        listing = _matchings(k, points, singles, across, False)
    else:
        # set partitions come out canonical and in basis order
        listing = set_partitions(2 * k)
    return [Diagram._canonical(k, blocks) for blocks in listing]


@lru_cache(maxsize=None)
def _motzkin_numbers(n):
    m = [1, 1]
    for i in range(1, n):
        m.append(m[i] + sum(m[j] * m[i - 1 - j] for j in range(i)))
    return m[n]


def algebra_dim(family, k):
    """Dimension of the diagram algebra (size of its basis), closed form."""
    from math import comb, factorial

    from .partitions import bell, catalan, double_factorial

    family = normalize_family(family)
    if family == PARTITION:
        return bell(2 * k)
    if family == PLANAR_PARTITION:
        return catalan(2 * k)
    if family == BRAUER:
        return double_factorial(2 * k - 1)
    if family == ROOK_BRAUER:
        return sum(
            comb(2 * k, 2 * t) * double_factorial(2 * t - 1)
            for t in range(k + 1)
        )
    if family == ROOK:
        return sum(comb(k, i) ** 2 * factorial(i) for i in range(k + 1))
    if family == TEMPERLEY_LIEB:
        return catalan(k)
    if family == MOTZKIN:
        return _motzkin_numbers(2 * k)
    if family == PLANAR_ROOK:
        return comb(2 * k, k)
    return factorial(k)


_FAMILY_GENERATORS = {
    PARTITION: "SPBELR",
    PLANAR_PARTITION: "PBELR",
    SYMMETRIC_GROUP: "S",
    ROOK: "SPLR",
    BRAUER: "SE",
    ROOK_BRAUER: "SPELR",
    TEMPERLEY_LIEB: "E",
    MOTZKIN: "ELR",
    PLANAR_ROOK: "LR",
}


def family_generators(family, k):
    """The standard generating diagrams of the family at k strands."""
    out = []
    for kind in _FAMILY_GENERATORS[normalize_family(family)]:
        hi = k if kind == "P" else k - 1
        for i in range(1, hi + 1):
            out.append(generator(kind, i, k))
    return out
