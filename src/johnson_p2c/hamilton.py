"""Hamilton-path builders for K_n-like vertex lists, J(n,k) and QJ(n,A).

The Johnson builder recursively splits J(n,k) by the element n into
X (vertices without n, isomorphic to J(n-1,k)) and Y (vertices with n,
isomorphic to J(n-1,k-1)), splicing the smaller side's Hamilton path into
an edge of the larger side's path.  The QJ builder peels the top level of
the stack.  J(n,k) is the one-level stack QJ(n,{k}), so both builders share
one memo, ``_ham_path``, keyed by ``(n, levels, s, t)``.  Recursion bottoms
out in ``_search_masks``, an exact backtracking search on any host graph
with at most ``BRUTE_FORCE_LIMIT`` (12) vertices; the same search, with two
terminal pairs, is the P2C oracle and the Johnson constructor's base case.

Every path is read through ``_ham``, the memo's one reader.  The memo
holds small canonical paths only: a one-level key with 2k > n is stored as
J(n,n-k), whose vertices are the complements, and a subgraph above
``MEMO_VERTICES`` vertices (``graphs``) is not stored at all but built
straight into the caller's list.  A read copies the memo's tuple once and
applies, in that copy, the complement and a ``_Side``'s bit as one XOR.
A large graph that is complemented or embedded is built in its caller's
masks: ``_ham`` hands that XOR down the build as ``out``, and only the
leaves apply it (memo reads and the k = 1 list), which copy anyway.  The
builders splice the paths they get in place, so a cold build holds about
its output, not every half it made on the way.

The builders work on int bitmasks (see ``subsets``).  A ``_Side`` is one
half of the split with its embedding into J(n,k), the identity on X and
setting bit n on Y, so each mirrored X/Y case is written once.
``hamilton_masks`` takes and returns masks; the public ``hamilton_johnson``
and ``hamilton_qj`` unwrap their ``ElementSet`` endpoints for it and wrap
the finished path.  ``path_json_parts`` writes a path of masks as JSON
text without wrapping it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import comb
from typing import Iterator, NamedTuple

from .errors import CoverError, EqualEndpoints, NotAVertex, SpliceEdgeNotFound
from .graphs import (
    MEMO_SIZE,
    MEMO_VERTICES,
    GenericGraph,
    JohnsonGraph,
    QJGraph,
    mask_generic,
)
from .subsets import (
    ElementSet,
    cross_masks,
    full_mask,
    foreign_key,
    k_masks,
    key_text,
    mask_elements,
    mask_keys,
    up_masks,
    vertex_json,
)

# Graphs with at most this many vertices are small enough for the exact
# search: the Hamilton builders and the P2C constructor both bottom out there.
BRUTE_FORCE_LIMIT = 12


class Path:
    """An ordered sequence of pairwise-distinct, consecutively adjacent vertices."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple):
        _set_vertices(self, vertices)

    def __setattr__(self, name, value):
        raise AttributeError("Path is immutable")

    def __reduce__(self):
        return Path, (self.vertices,)

    def __eq__(self, other):
        if other.__class__ is not Path:
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash((self.vertices,))

    def __repr__(self) -> str:
        return f"Path(vertices={self.vertices!r})"

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __getitem__(self, i):
        return self.vertices[i]

    def to_json(self):
        return [vertex_json(v) for v in self.vertices]


# The slot's own setter, which skips the immutability guard above.
_set_vertices = Path.vertices.__set__


def mask_path(masks, n: int) -> Path:
    """Wrap a path of masks over [n] as a Path of ElementSets."""
    # tuple() of a list allocates the tuple at its final size, reusing freed
    # tuples of that size; tuple() of a generator grows one by resizing, and
    # the freed path tuples then pile up in the interpreter's free lists.
    return Path(tuple([*map(ElementSet, masks, repeat(n))]))


# Vertices per part of ``path_json_parts``: the text of a whole path is never
# held at once.
EMIT_SLICE = 4096


def path_json_parts(masks: list[int], n: int) -> Iterator[str]:
    """``json.dumps([mask_elements(m) for m in masks])`` for masks over [n],
    in parts of at most ``EMIT_SLICE`` vertices each.

    [n] is cut into chunks of consecutive elements: two halves for n <= 20,
    8 elements each beyond.  Each chunk has a table from its bit patterns to
    its elements as JSON text, each followed by ", "; a vertex's text joins
    its chunks' entries and drops the last separator.
    """
    if not masks:
        yield "[]"
        return
    width = (n + 1) // 2 if n <= 20 else 8
    chunks = [
        (lo, (1 << width) - 1, _chunk_table(lo, min(lo + width, n + 1)))
        for lo in range(1, n + 1, width)
    ]
    opening = "[["
    for i in range(0, len(masks), EMIT_SLICE):
        part = masks[i : i + EMIT_SLICE]
        columns = [[table[b >> lo & m] for b in part] for lo, m, table in chunks]
        texts = [t[:-2] for t in map("".join, zip(*columns))]
        yield opening + "], [".join(texts)
        opening = "], ["
    yield "]]"


def _chunk_table(lo: int, hi: int) -> list[str]:
    """Entry b: the elements lo + i < hi with bit i set in b, each as "e, ",
    in ascending order."""
    table = [""]
    for e in range(lo, hi):
        # The entries with bit e - lo set are those without it, plus e.
        table += [text + f"{e}, " for text in table]
    return table


# ---------------------------------------------------------------------------
# Exact search on explicit graphs.


def hamilton_bruteforce(g: GenericGraph, s: int, t: int) -> Path | None:
    """Exact Hamilton path search with connectivity and dead-end pruning."""
    if s == t:
        raise EqualEndpoints(f"endpoints coincide: {s}")
    if not (g.has_vertex(s) and g.has_vertex(t)):
        raise NotAVertex(f"{s} or {t} not in graph")
    found = _cover_search(g.adjacency, ((s, t),))
    return Path(tuple(found[0])) if found is not None else None


def _search_masks(n: int, levels: tuple, pairs) -> list[list[int]] | None:
    """``_cover_search`` on the memoized explicit copy of QJ(n,levels), J(n,k)
    being ``levels == (k,)``, with the terminal pairs and the paths as masks.
    The small-graph cases of the builders and the oracle all run here."""
    generic, verts = mask_generic(n, levels)
    index = verts.index
    found = _cover_search(generic.adjacency, [(index(s), index(t)) for s, t in pairs])
    return None if found is None else [[verts[i] for i in p] for p in found]


def _cover_search(adj, pairs) -> list[list[int]] | None:
    """Cover the graph with adjacency lists ``adj`` by vertex-disjoint paths
    joining the terminal pairs (s_i, t_i), in that order; None if impossible.

    A Hamilton path is one pair, a paired 2-disjoint path cover two.  The
    paths are grown one at a time, each scanning its neighbors in adjacency
    order; path i never steps onto the terminal of a later path, and the
    last path reaches its terminal only as the last uncovered vertex.
    Vertex sets are int bitmasks over the indices, bit i for vertex i.
    """
    nbrs = [sum(1 << z for z in a) for a in adj]
    visited = sum(1 << s for s, _ in pairs)
    paths = [[s] for s, _ in pairs]
    # Per path: the later paths' start vertices (still path ends to reach),
    # the terminals still pending, the terminals it must not step onto, and
    # its own terminal.
    stages = [
        (
            sum(1 << s for s, _ in pairs[i + 1 :]),
            sum(1 << t for _, t in pairs[i:]),
            sum(1 << t for _, t in pairs[i + 1 :]),
            pairs[i][1],
        )
        for i in range(len(pairs))
    ]
    if _extend(adj, nbrs, visited, paths, stages, 0):
        return paths
    return None


def _extend(adj, nbrs, visited, paths, stages, i) -> bool:
    """Grow path i (and then the later ones) into a cover; on failure,
    undo every step taken."""
    path = paths[i]
    cur = path[-1]
    later_starts, pending, forbidden, t = stages[i]
    last = i == len(paths) - 1
    full = (1 << len(adj)) - 1
    if cur == t:
        if last:
            return visited == full
        return _extend(adj, nbrs, visited, paths, stages, i + 1)
    if not _feasible(nbrs, full ^ visited, later_starts | 1 << cur, pending):
        return False
    blocked = visited | forbidden
    for nxt in adj[cur]:
        bit = 1 << nxt
        if blocked & bit or last and nxt == t and visited | bit != full:
            continue
        path.append(nxt)
        if _extend(adj, nbrs, visited | bit, paths, stages, i):
            return True
        path.pop()
    return False


def _feasible(nbrs, unvisited, ends, pending) -> bool:
    """Reachability: every unvisited vertex connects to a path end through
    unvisited vertices.  Degree: each keeps a usable neighbor, and two
    unless it is a pending terminal."""
    reached, frontier = 0, ends
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= nbrs[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & unvisited & ~reached
        reached |= frontier
    if reached != unvisited:
        return False
    usable = unvisited | ends
    while unvisited:
        low = unvisited & -unvisited
        unvisited ^= low
        avail = nbrs[low.bit_length() - 1] & usable
        # At most one usable neighbor: only a pending terminal may keep one.
        if not avail & (avail - 1) and not (avail and pending & low):
            return False
    return True


# ---------------------------------------------------------------------------
# Complete graphs (J(n,1), J(n,n-1) and friends).


def hamilton_complete(vertices, s, t) -> Path:
    """Hamilton path of a complete graph: s, the rest in canonical order, t."""
    if s == t:
        raise EqualEndpoints(f"endpoints coincide: {s}")
    vertices = list(vertices)
    if s not in vertices or t not in vertices:
        raise NotAVertex("an endpoint is not among the given vertices")
    middle = sorted(v for v in vertices if v != s and v != t)
    return Path(tuple([s, *middle, t]))


# ---------------------------------------------------------------------------
# J(n,k) and QJ(n,A) on masks.


def hamilton_johnson(g: JohnsonGraph, s: ElementSet, t: ElementSet) -> Path:
    return _hamilton(g, s, t)


def hamilton_qj(g: QJGraph, s: ElementSet, t: ElementSet) -> Path:
    return _hamilton(g, s, t)


def _hamilton(g, s: ElementSet, t: ElementSet) -> Path:
    return mask_path(hamilton_masks(g, *mask_keys((s, t), g.n)), g.n)


def hamilton_masks(g, s, t) -> list[int]:
    """Hamilton path of J(n,k) or QJ(n,A) between two vertex keys of
    ``mask_keys``, as a new list of masks."""
    if s == t:
        raise EqualEndpoints(f"endpoints coincide: {key_text(s)}")
    if foreign_key((s, t), g.n, g.levels) is not None:
        raise NotAVertex(f"{key_text(s)} or {key_text(t)} not a vertex of {g}")
    return _ham(g.n, g.levels, s, t)


def _ham(
    n: int, levels: tuple, s: int, t: int, bit: int = 0, out: int = 0
) -> list[int]:
    """Hamilton path of QJ(n,levels) from s to t, J(n,k) being ``levels ==
    (k,)``, with ``bit`` set on every vertex: 0, or a bit above n that
    embeds the graph in a larger one (``_Side``).  Every vertex is then
    XORed with ``out``: 0, or, inside a large build that is complemented or
    embedded, the XOR from that build's masks to its caller's.  The caller
    owns the returned list.

    The one reader of the memo ``_ham_path``.  A one-level key with 2k > n
    is read as J(n,n-k), whose vertices are the complements; the
    complement, ``bit`` and ``out`` are one XOR, applied in the copy that a
    read makes anyway.  A graph above ``MEMO_VERTICES`` vertices is built
    straight into the returned list, in its final masks: the XOR goes down
    to the leaves of the build, which copy anyway."""
    flip = bit
    if len(levels) == 1 and 2 * levels[0] > n:
        flip |= full_mask(n)
        levels = (n - levels[0],)
    s ^= flip
    t ^= flip
    flip ^= out
    # QJ(n,levels) has at most 2^n vertices: count them only above the bound.
    if 1 << n > MEMO_VERTICES and sum(comb(n, a) for a in levels) > MEMO_VERTICES:
        return _ham_build(n, levels, s, t, flip)
    h = _ham_path(n, levels, s, t)
    return [v ^ flip for v in h] if flip else list(h)


@lru_cache(maxsize=MEMO_SIZE)
def _ham_path(n: int, levels: tuple, s: int, t: int) -> tuple[int, ...]:
    return tuple(_ham_build(n, levels, s, t))


def _ham_build(n: int, levels: tuple, s: int, t: int, out: int = 0) -> list[int]:
    """A new Hamilton path of QJ(n,levels) under a canonical key, a single
    level k having 2k <= n, with every vertex XORed with ``out``.  Only a
    one-level graph is ever flipped or embedded, so ``out`` is 0 on more
    levels."""
    if len(levels) == 1:
        return _ham_johnson_build(n, levels[0], s, t, out)
    return _ham_qj_build(n, levels, s, t)


def _ham_small(n: int, levels: tuple, s: int, t: int) -> list[int]:
    found = _search_masks(n, levels, ((s, t),))
    if found is None:
        raise CoverError(
            f"no Hamilton path from {s:#x} to {t:#x} in QJ({n},{set(levels)})"
        )
    return found[0]


class _Side(NamedTuple):
    """A half of J(n,k) split by the element n: X, the masks without n, a
    copy of J(n-1,k); or Y, the masks with n, a copy of J(n-1,k-1).  The
    embedding of J(n-1, self.k) into J(n,k) sets ``bit`` (0 on X, 1 << n on
    Y) and its inverse clears it."""

    n: int
    k: int
    bit: int

    def embed(self, vs: list[int]) -> list[int]:
        """Masks of J(n-1, self.k) as masks of J(n,k); X returns ``vs`` itself."""
        bit = self.bit
        return [v | bit for v in vs] if bit else vs

    def vertices(self):
        """The side's vertices as masks of J(n,k), in bit-vector order."""
        bit = self.bit
        return (v | bit for v in k_masks(self.n - 1, self.k))

    def path(self, s: int, t: int, out: int = 0) -> list[int]:
        """Hamilton path of the side between two of its vertices, as a new
        list of masks of J(n,k), each XORed with ``out``."""
        return _ham(self.n - 1, (self.k,), s, t, self.bit, out)


def _sides(n: int, k: int) -> tuple[_Side, _Side]:
    """(X, Y) of J(n,k); the side of a mask w is ``_sides(n, k)[w >> n & 1]``."""
    return _Side(n, k, 0), _Side(n, k - 1, 1 << n)


def _swappable(a: int, n: int) -> int:
    """The elements a vertex of J(n,k) trades with n to cross the split by n:
    its own on X, the ones of [n-1] it lacks on Y."""
    return (~a if a >> n & 1 else a) & full_mask(n - 1)


def _across(a: int, n: int) -> list[int]:
    """Neighbors of a on the other side of the split by n, in bit-vector order."""
    flipped = a ^ (1 << n)
    return sorted(flipped ^ (1 << e) for e in mask_elements(_swappable(a, n)))


def _ham_johnson_build(n, k, s, t, out):
    """A new Hamilton path of J(n,k) from s to t, with every vertex XORed
    with ``out``; s and t are masks of J(n,k) itself."""
    if k == 1:
        h = hamilton_complete(k_masks(n, 1), s, t)
        return [v ^ out for v in h] if out else list(h)
    # out is nonzero only above MEMO_VERTICES, never on a small graph.
    if comb(n, k) <= BRUTE_FORCE_LIMIT:
        return _ham_small(n, (k,), s, t)

    sides = _sides(n, k)
    i, j = s >> n & 1, t >> n & 1
    if i == j:
        # Both ends on one side: detour through the other side between the
        # first two path vertices.
        h = sides[i].path(s, t, out)
        a, b = h[0] ^ out, h[1] ^ out
        ap = _across(a, n)[0]
        # b has k >= 2 (X) or n-k >= 2 (Y) neighbors across, so one is not ap.
        bp = next(w for w in _across(b, n) if w != ap)
        h[1:1] = sides[1 - i].path(ap, bp, out)
        return h

    if i:
        h = _ham_johnson_build(n, k, t, s, out)
        h.reverse()
        return h

    # s in X, t in Y: end the X-path at an auxiliary vertex bridging into Y.
    x_side, y_side = sides
    # X is J(n-1,k) with n >= 6 and k >= 2 (10+ vertices), and a has k >= 2
    # neighbors in Y: neither scan runs dry.
    a = next(v for v in x_side.vertices() if v != s)
    ap = next(w for w in _across(a, n) if w != t)
    h = x_side.path(s, a, out)
    h += y_side.path(ap, t, out)
    return h


def _ham_qj_build(n, levels, s, t):
    if sum(comb(n, a) for a in levels) <= BRUTE_FORCE_LIMIT:
        return _ham_small(n, levels, s, t)

    top = levels[-1]
    lower = levels[:-1]
    s_top = s.bit_count() == top
    if s_top == (t.bit_count() == top):
        # Both ends in one part, the top level or the levels below it: detour
        # through the other part at the first edge on the part's boundary
        # level, between distinct cross neighbors (or through the apex).
        part, other = ((top,), lower) if s_top else (lower, (top,))
        h = _ham(n, part, s, t)
        i = _find_level_edge(h, part[-1])
        if top == n:
            detour = [full_mask(n)]
        else:
            # Levels are >= 1 and the top is below n here, so a vertex has
            # at least 2 neighbors on the adjacent level: one is not ap.
            ap = cross_masks(h[i], n, other[-1])[0]
            bp = next(w for w in cross_masks(h[i + 1], n, other[-1]) if w != ap)
            detour = _ham(n, other, ap, bp)
        h[i + 1 : i + 1] = detour
        return h

    if s_top:
        h = _ham_qj_build(n, levels, t, s)
        h.reverse()
        return h

    # s below, t in the top level: bridge through a cross edge.
    # A level 1 <= l < n holds n >= 2 vertices, and below a top level under
    # n a vertex has at least 2 up-neighbors: neither scan runs dry.
    a = next(v for v in k_masks(n, levels[-2]) if v != s)
    h = _ham(n, lower, s, a)
    if top == n:
        h.append(t)
    else:
        ap = next(w for w in up_masks(a, n, top) if w != t)
        h += _ham(n, (top,), ap, t)
    return h


def _find_level_edge(path, card: int, forbidden=()) -> int:
    """Index of the first path edge whose endpoints both have the given
    cardinality and avoid the forbidden vertices."""
    for i in range(len(path) - 1):
        a, b = path[i], path[i + 1]
        if (
            a.bit_count() == card
            and b.bit_count() == card
            and a not in forbidden
            and b not in forbidden
        ):
            return i
    raise SpliceEdgeNotFound(f"no usable within-level edge at cardinality {card}")
