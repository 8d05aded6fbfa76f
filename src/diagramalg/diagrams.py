"""Two-row set-partition diagrams and the diagram families.

A diagram on k strands is a set partition of the 2k vertices
{1,...,k, 1',...,k'}.  Internally the bottom vertex j' is stored as the
integer k + j, so a diagram is simply a set partition of {1,...,2k} in a
fixed canonical form.  Concatenation stacks one diagram on top of another,
fuses blocks through the shared middle row, and reports how many connected
components vanished from the middle; the algebra layer turns that count
into a power of the parameter n.
"""

import functools
import gc
import os
import re
from bisect import bisect_right
from collections import deque, namedtuple
from contextlib import contextmanager
from itertools import chain, repeat
from math import comb, factorial, prod
from operator import attrgetter

from .errors import (
    AlgebraMismatch,
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

FAMILIES = tuple(_SHAPES)

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


def normalize_family(name):
    """Return the canonical family tag for a (possibly lowercase) name."""
    try:
        return _ALIASES[str(name).strip().lower()]
    except KeyError:
        raise ValueError("unknown family: %r" % (name,)) from None


class _Value:
    """An immutable value.  Its fields, the public names in its __slots__
    (a private slot, as Diagram's _owner, is a cache), are set once through
    _setters, the slots' own setters, by the checking constructor, _make or
    _make_all; copies and pickles go through the checking constructor,
    values of one class order by their fields, and each keeps its own
    __eq__ and __hash__."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        cls._key = attrgetter(*cls._fields)
        cls._setters = tuple(vars(cls)[s].__set__ for s in cls.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple([getattr(self, f) for f in self._fields])

    def __lt__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) < self._key(other)

    @classmethod
    def _make_all(cls, n, *columns):
        """n values wrapped from fields already checked, one column per field
        in slot order (repeat() for a field they all share), in C-level
        passes with no Python frame per value (a deque of length 0 drains
        each)."""
        out = list(map(object.__new__, repeat(cls, n)))
        for setter, column in zip(cls._setters, columns):
            deque(map(setter, out, column), 0)
        return out


class Diagram(_Value):
    """A set partition of {1..2k}, hashed and compared in canonical form.

    blocks is a tuple of tuples of ints: each block sorted ascending (top
    vertices 1..k precede bottom vertices k+1..2k automatically), blocks
    sorted by their least vertex.  The block layout that stacking reads
    (_owner, see _block_owner) is cached on first use and takes no part in
    equality, hashing, order or copies.
    """

    __slots__ = ("k", "blocks", "_owner")

    def __init__(self, k, blocks):
        _check_k(k)
        _set_k(self, k)
        _set_blocks(self, _canonical(blocks, 2 * k))

    def __eq__(self, other):
        return (
            isinstance(other, Diagram)
            and self.k == other.k
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.k, self.blocks))

    def text(self):
        return " | ".join(map(_block_renderer(self.k), self.blocks))

    def __repr__(self):
        return "Diagram(%d, %r)" % (self.k, self.text())


# the slots' own setters, which __setattr__ refuses to reach
_set_k, _set_blocks, _set_owner = Diagram._setters


def _check_k(k):
    """Refuse k unless it is an int of at least 1; True is not a k."""
    if type(k) is not int or k < 1:
        raise IndexOutOfRange("k must be a positive integer, got %r" % (k,))


_INT = frozenset((int,))

_CACHES = []


def _memo(bound=None, check=None):
    """The one memo rule: cache the function, at most bound entries (None:
    all), and record the cache in _CACHES.  Given check, a call's arguments
    pass through check(*args), which refuses them or returns them as a
    tuple, before the cache is read, so True is never answered as 1; without
    check the cache itself is returned, and a hit costs no Python frame."""

    def declare(fn):
        cached = functools.lru_cache(maxsize=bound)(fn)
        _CACHES.append(cached)
        if check is None:
            return cached

        @functools.wraps(fn)
        def checked(*args):
            return cached(*check(*args))

        checked.cache_info, checked.cache_clear = cached.cache_info, cached.cache_clear
        return checked

    return declare


def clear_caches():
    """Empty every cache of the library, releasing what its entries hold."""
    for cached in _CACHES:
        cached.cache_clear()


def _tuple_of(value, what):
    """value as a tuple, refused with ValueError unless it is iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise ValueError("expected %s, got %r" % (what, value)) from None


def _sorted_blocks(blocks):
    """The blocks as ascending tuples in order of least vertex, and their
    vertices in order; ValueError unless all of the vertices compare."""
    try:
        canon = tuple(sorted(map(tuple, map(sorted, blocks))))
        return canon, sorted(chain.from_iterable(canon))
    except TypeError:
        raise ValueError(
            "blocks must be an iterable of iterables of comparable vertices"
        ) from None


def _canonical(blocks, n):
    """The blocks in canonical form, refused unless they cover {1..n} once
    each with int vertices.  One pass accepts a good cover (() sorts first);
    a failure is named in order: an empty block, not a cover, not an int."""
    canon, seen = _sorted_blocks(blocks)
    if seen != list(range(1, n + 1)) or not canon[0] or set(map(type, seen)) != _INT:
        if () in canon:
            raise ValueError("blocks must not be empty")
        if seen != list(range(1, n + 1)):
            raise ValueError("blocks must partition {1..%d}" % n)
        _check_int_vertices(seen)
    return canon


def _check_int_vertices(vertices):
    # 1.0 and True compare and hash like 1 but are not vertices
    if not set(map(type, vertices)) <= _INT:
        bad = next(v for v in vertices if type(v) is not int)
        raise ValueError("vertices must be integers, got %r" % (bad,))


def _check_diagram(d, family=None, k=None):
    """Refuse d unless it is a Diagram, on k strands and in family if given."""
    if not isinstance(d, Diagram):
        raise ValueError("expected a Diagram, got %r" % (d,))
    if k is not None and d.k != k:
        _check_strands(d.k, k)
    if family is not None and not in_family(d, family):
        raise AlgebraMismatch("diagram %s is not in the %s family" % (d.text(), family))


def _check_strands(k, other):
    """Refuse two objects that must share their number of strands."""
    if k != other:
        raise RankMismatch("strand counts differ: k=%d against k=%d" % (k, other))


ConcatResult = namedtuple("ConcatResult", ["product", "deleted"])

_VERTEX_RE = re.compile(r"^(\d+)(')?$")


def vertex_name(v, k):
    """Render internal vertex number v as `i` or `i'`."""
    return str(v) if v <= k else "%d'" % (v - k)


def parse_diagram(text, k):
    """Parse `block ('|' block)*` notation, e.g. "1 1' | 2 2'" at k = 2.

    Every vertex 1..k and 1'..k' must appear exactly once.
    """
    _check_k(k)
    if not isinstance(text, str):
        raise ValueError("expected diagram text, got %r" % (text,))
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

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        out = self[key] = self.make(key)
        return out


@_memo()
def _block_renderer(k):
    # the text of a block of a k-strand diagram: vertex names joined by
    # spaces, read from a table of the names (index 0 unused)
    name = ("",) + tuple(vertex_name(v, k) for v in range(1, 2 * k + 1))
    return lambda block: " ".join(map(name.__getitem__, block))


def block_text(k):
    """A memo from each block of a k-strand diagram to its text, as in
    format_diagram; one per listing renders each block once."""
    return _Memo(_block_renderer(k))


def _joined(form, sep):
    # a memo from each block to form % its vertices joined by sep
    return _Memo(lambda block: form % sep.join(map(str, block)))


def block_json():
    """A memo from each block to its compact JSON, e.g. [1,2]."""
    return _joined("[%s]", ",")


def format_diagram(d):
    _check_diagram(d)
    return d.text()


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


def _fuse(d, below, count, lower, outer):
    """Stack d above a layer of count nodes; return (roots, blocks, middle).

    The one union-find behind every stack, over blocks: nodes 0..n-1 are
    the blocks of d (n = len(d.blocks)), read from its cached layout, and
    n.. are the nodes of the layer below.  Middle vertex j joins d's block
    at bottom k + j to lower-layer node below[j-1].  Path halving; each
    union that joins two components takes one off the count.  roots[v] is
    the root of d's top vertex v for v in 1..k and roots[k + i] that of
    lower-layer node lower[i-1] (index 0 unused); equal roots mean one
    component.  blocks maps each root to its outer nodes among 1..outer,
    listed ascending and keyed in order of least node, so the blocks come
    out canonical; middle counts the components with no outer node.
    """
    k = d.k
    n = len(d.blocks)
    owner = _block_owner(d)
    parent = list(range(n + count))
    components = len(parent)
    for a, b in zip(owner[k + 1 :], below):
        b += n
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[b] = a
            components -= 1
    # two loops: one over a chain with a mapped offset made concat 5% slower
    roots = [0]
    for r in owner[1 : k + 1]:
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        roots.append(r)
    for r in lower:
        r += n
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        roots.append(r)
    blocks = {}
    for v in range(1, outer + 1):
        r = roots[v]
        if r in blocks:
            blocks[r].append(v)
        else:
            blocks[r] = [v]
    return roots, blocks, components - len(blocks)


def concat(d1, d2):
    """Stack d1 above d2; return (product diagram, deleted middle components).

    The bottom row of d1 is identified with the top row of d2; connected
    components living entirely in that shared middle row are removed and
    counted.
    """
    _check_diagram(d1)
    _check_diagram(d2, None, d1.k)
    k = d1.k
    # the lower layer is the blocks of d2, met at its top vertices and read
    # at its bottoms, so every vertex of the product is an outer node
    own2 = _block_owner(d2)
    _, blocks, middle = _fuse(d1, own2[1 : k + 1], len(d2.blocks), own2[k + 1 :], 2 * k)
    return ConcatResult(Diagram(k, blocks.values()), middle)


def transpose(d):
    """Mirror over the horizontal axis: i <-> i'."""
    _check_diagram(d)
    k = d.k
    return Diagram(
        k, [tuple(v + k if v <= k else v - k for v in b) for b in d.blocks]
    )


def rank(d):
    """Number of propagating blocks (blocks meeting both rows)."""
    _check_diagram(d)
    k = d.k
    return sum(1 for b in d.blocks if b[0] <= k < b[-1])


def is_planar(d):
    """True iff no two blocks cross in the boundary order 1..k, k'..1'.

    One scan along the boundary keeps a stack of the open blocks (met, with
    vertices still to come); a block may be met again only while it is on
    top, otherwise a block opened inside it is still open and they cross.
    """
    _check_diagram(d)
    blocks, owner = d.blocks, _block_owner(d)
    left = list(map(len, blocks))
    stack = []
    for v in (*range(1, d.k + 1), *range(2 * d.k, d.k, -1)):
        b = owner[v]
        if left[b] == len(blocks[b]):
            stack.append(b)
        elif stack[-1] != b:
            return False
        left[b] -= 1
        if not left[b]:
            stack.pop()
    return True


def in_family(d, family):
    """Membership predicate for each diagram family."""
    _check_diagram(d)
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
    _check_k(k)
    return Diagram(k, [(i, k + i) for i in range(1, k + 1)])


def _check_permutation(images):
    """Refuse images unless they are the one-line images of a permutation
    of 1..m, m their number, and return them as a tuple; True and 1.0
    compare like 1 but are not images."""
    images = _tuple_of(images, "a permutation")
    m = len(images)
    if set(map(type, images)) - {int} or sorted(images) != list(range(1, m + 1)):
        raise ValueError("not a permutation of 1..%d: %r" % (m, images))
    return images


def perm_diagram(images):
    """Diagram of a permutation: bottom j joins top images[j-1]."""
    images = _check_permutation(images)
    k = len(images)
    return Diagram(k, [(images[j - 1], k + j) for j in range(1, k + 1)])


def generator(kind, i, k):
    """The standard generators s_i, p_i, b_i, e_i, l_i, r_i as diagrams.

    kind is one of S, P, B, E, L, R (case-insensitive).  P allows
    1 <= i <= k; the others need 1 <= i <= k-1.
    """
    _check_k(k)
    kind = str(kind).upper()
    if kind not in ("S", "P", "B", "E", "L", "R"):
        raise ValueError("unknown generator kind %r" % (kind,))
    hi = k if kind == "P" else k - 1
    if type(i) is not int or not 1 <= i <= hi:
        raise IndexOutOfRange("generator %s_%r needs 1 <= i <= %d" % (kind, i, hi))
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


@contextmanager
def _collector_paused():
    """Run the body with the cyclic garbage collector off, then turn it
    back on only if it was on, also when the body raises: the one copy of
    the pause rule, for work that allocates many objects and leaves no
    reference cycle behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _unfold(memo, make, key):
    """memo[key], made first if missing: make(key) is a generator that
    yields each key it needs not yet in memo, is sent its value back and
    returns its own.  One loop runs the generators as a stack, so no call
    nests in another; no key may need itself, even through others.  The
    memo is emptied on the way out, before a build that raised is closed."""
    value = memo.get(key)
    builds = [] if value is not None else [(key, make(key))]
    try:
        while builds:
            key, build = builds[-1]
            try:
                need = build.send(value)
            except StopIteration as done:
                value = memo[key] = done.value
                builds.pop()
            else:
                builds.append((need, make(need)))
                value = None
    finally:
        memo.clear()
    return value


def _faces(others, *runs):
    """The planar key of a cover's state: the other faces and each run with
    points, in order of least point."""
    return tuple(sorted(others + tuple(filter(None, runs))))


def _covers(k, points, shape):
    """Every cover of points, ascending, by the blocks that shape allows: a
    list of canonical covers in canonical order, none sorted after it is made.

    The block of the least point left is a single when singles is set; with
    pairs set, a pair with one later point (across: a top vertex, at most
    k, and a bottom one); otherwise any later points in order.  Without
    planar, the points a block passes over are left to the rest of the
    cover.  With planar, the points left lie in faces (ascending tuples),
    and a block takes later points of its own face only: it cuts the face
    into the runs between its points in the boundary order 1..k, k'..1',
    the last run wrapping around to the first (so it takes the top points
    passed over on the way to the bottom row), and each run becomes a face.
    Without singles a pair that leaves a run of odd size has no cover and is
    dropped at once.

    Each set of points, or of faces, is covered once per call, by a
    generator (pair_cover or cover) that _unfold runs, so the caller's
    stack depth cannot change the answer.  The cyclic collector is paused
    while it builds and the memo is emptied before the pause ends: none of
    the tens of thousands of tuples can be garbage.  A CLI command runs
    whole with the collector paused (cli.run); a library caller's wrap of
    the listing runs with it as the caller left it.
    """
    pairs, singles, across, planar = shape
    memo = {(): [()]}

    def pair_cover(key):
        points, others = (key[0], key[1:]) if planar else (key, ())
        first, rest, single = points[0], points[1:], (points[:1],)
        out = []
        if singles:
            key = _faces(others, rest) if planar else rest
            tails = memo.get(key)
            if tails is None:
                tails = yield key
            out += map(single.__add__, tails)
        tops = bisect_right(rest, k) if planar else 0
        for i, nxt in enumerate(rest):
            if across and (first <= k) == (nxt <= k):
                continue
            if planar:
                # a bottom partner leaves the tops passed over to the last run
                t = tops if i >= tops else 0
                if not singles and (i - t) % 2:
                    continue
                key = _faces(others, rest[t:i], rest[:t] + rest[i + 1 :])
            else:
                key = rest[:i] + rest[i + 1 :]
            tails = memo.get(key)
            if tails is None:
                tails = yield key
            out += map(((first, nxt),).__add__, tails)
        return out

    def cover(key):
        # a state: a block from the first point, rest the points after it,
        # left the points it passed over (planar: the top points it passed
        # on its way to the bottom row) and runs the faces it cut off.  A
        # state ends its block, then pushes one child per point of rest,
        # last first so that they pop in order.
        points, others = (key[0], key[1:]) if planar else (key, ())
        out = []
        states = [(points[:1], (), (), points[1:])]
        while states:
            block, runs, left, rest = states.pop()
            key = _faces(others, *runs, left + rest) if planar else left + rest
            tails = memo.get(key)
            if tails is None:
                tails = yield key
            out += map((block,).__add__, tails)
            tops = bisect_right(rest, k) if planar else 0
            for i in range(len(rest) - 1, -1, -1):
                grown = block + rest[i : i + 1]
                if planar:
                    t = tops if i >= tops else 0
                    runs_i, left_i = runs + (rest[t:i],), left + rest[:t]
                    states.append((grown, runs_i, left_i, rest[i + 1 :]))
                else:
                    states.append((grown, runs, left + rest[:i], rest[i + 1 :]))
        return out

    start = _faces((), points) if planar else points
    with _collector_paused():
        return _unfold(memo, pair_cover if pairs else cover, start)


@_memo()
def _cover_count(shape, a, c):
    """The covers by shape of a tops and c bottoms (planar: of one face), n =
    a + c, in closed form: bell(n), or catalan(n) when planar, for a
    partition shape; across, the rook numbers, the sum over i pairs of
    C(a,i) C(c,i) i! (planar: 1 for i!); otherwise the sum over t pairs of
    C(n,2t) (2t-1)!! (planar: catalan(t), the Motzkin numbers).  Without
    singles only the terms that pair every point count."""
    from .partitions import bell, catalan, double_factorial

    pairs, singles, across, planar = shape
    n = a + c
    if not pairs:
        return (catalan if planar else bell)(n)

    def ways(t):
        # the covers by t pairs, the other points singles
        if across:
            return comb(a, t) * comb(c, t) * (1 if planar else factorial(t))
        return comb(n, 2 * t) * (catalan(t) if planar else double_factorial(2 * t - 1))

    return sum(ways(t) for t in range(n // 2 + 1) if singles or 2 * t == n)


@_memo()
def _open_count(shape, l, a, c):
    """The covers below one state of cover for shape, a partition shape,
    with the least point's block still open: l points passed over (planar:
    tops, which rejoin the outer face), then a tops and c bottoms after the
    block's last point (not planar: a = 0).  Not planar, the block takes c -
    j of the later points and the l + j others are covered: the sum of C(c,j)
    bell(l + j).  Planar, x tops and y bottoms are left past its last point
    in each row, to join the l in the outer face, and the a - x and c - y up
    to those are its points and the faces between them: the sum of
    catalan(a - x) catalan(c - y) catalan(l + x + y)."""
    from .partitions import bell, catalan

    if not shape.planar:
        return sum(comb(c, j) * bell(l + j) for j in range(c + 1))
    return sum(
        catalan(a - x) * catalan(c - y) * catalan(l + x + y)
        for x in range(a + 1)
        for y in range(c + 1)
    )


def _count_covers(k, points, shape):
    """len(_covers(k, points, shape)) from the four facts alone."""
    tops = bisect_right(points, k)
    return _cover_count(shape, tops, len(points) - tops)


def _cover_at(k, points, shape, index):
    """_covers(k, points, shape)[index], built alone: each block is chosen
    as _covers chooses it, in its order, and every choice before the one
    holding index is skipped by its count.  A partition shape's block of the
    least point has 2^(n-1) choices, so the unranker steps through cover's
    states and skips each later one with everything under it at once."""
    pairs, singles, across, planar = shape
    if type(index) is not int or not 0 <= index < _count_covers(k, points, shape):
        raise IndexOutOfRange("no cover at index %r" % (index,))

    def count(face):
        return _count_covers(k, face, shape)

    key = _faces((), points) if planar else points
    cover = []
    while key:
        points, others = (key[0], key[1:]) if planar else (key, ())
        outer = prod(map(count, others))
        block, runs, left, rest = points[:1], (), (), points[1:]
        while True:
            # the block ends here (a pair shape: as a single or a pair)
            if not pairs or singles or len(block) == 2:
                size = outer * count(left + rest)
                if index < size:
                    break
                index -= size
            tops = bisect_right(rest, k) if planar else 0
            for i, nxt in enumerate(rest):
                if pairs and across and (block[0] <= k) == (nxt <= k):
                    continue
                t = (0 if i < tops else tops) if planar else i
                a = max(tops - 1 - i, 0)
                size = outer * count(rest[t:i]) * (
                    count(left + rest[:t] + rest[i + 1 :])
                    if pairs
                    else _open_count(shape, len(left) + t, a, len(rest) - 1 - i - a)
                )
                if index < size:
                    break
                index -= size
            outer *= count(rest[t:i])
            block, runs = block + (nxt,), runs + (rest[t:i],)
            left, rest = left + rest[:t], rest[i + 1 :]
        cover.append(block)
        key = _faces(others, *runs, left + rest) if planar else left + rest
    return tuple(cover)


def size_cap():
    """The size cap, in diagrams: DIAGRAMALG_CAP if set, else 2,390,480
    (the RookBrauer algebra at k=7)."""
    env = os.environ.get("DIAGRAMALG_CAP")
    if env is None:
        return 2390480
    try:
        return int(env)
    except ValueError:
        raise InvalidCap(
            "DIAGRAMALG_CAP must be an integer, got %r" % (env,)
        ) from None


def _check_cap(caller, family, k):
    """Refuse k unless it is a positive int and the family's algebra at k
    has at most size_cap() diagrams.  Every family has at least 2^(k-1)
    diagrams on k strands, so a k past the cap's bit length is refused
    without counting."""
    _check_k(k)
    cap = size_cap()
    if k > cap.bit_length() or algebra_dim(family, k) > cap:
        raise CapExceeded("%s at k=%d exceeds the cap %d" % (caller, k, cap))


def enumerate_basis(family, k):
    """All diagrams of the family on k strands, in canonical order."""
    family = normalize_family(family)
    _check_cap("enumerate_basis", family, k)
    listing = _covers(k, tuple(range(1, 2 * k + 1)), _SHAPES[family])
    return Diagram._make_all(len(listing), repeat(k), listing)


@_memo()
def _motzkin_numbers(n):
    prev, m = 1, 1
    for i in range(2, n + 1):
        prev, m = m, ((2 * i + 1) * m + 3 * (i - 1) * prev) // (i + 2)
    return m


def algebra_dim(family, k):
    """Dimension of the diagram algebra (size of its basis), closed form."""
    from .partitions import bell, catalan, double_factorial

    family = normalize_family(family)
    _check_k(k)
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
    _check_k(k)
    return [
        generator(kind, i, k)
        for kind in _FAMILY_GENERATORS[normalize_family(family)]
        for i in range(1, k + 1 if kind == "P" else k)
    ]
