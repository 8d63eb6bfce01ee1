"""Hamilton-path builders for K_n-like vertex lists, J(n,k) and QJ(n,A).

The Johnson builder recursively splits J(n,k) by the element n into
X (vertices without n, isomorphic to J(n-1,k)) and Y (vertices with n,
isomorphic to J(n-1,k-1)), splicing the smaller side's Hamilton path into
an edge of the larger side's path.  The QJ builder peels the top level of
the stack and splices the other part in through the EP2C expansion
(``ep2c_expand``) that ``p2c_qj`` runs on its local covers; that splice and
its vertex picks live here, below both users.  J(n,k) is the one-level
stack QJ(n,{k}), so both builders share one memo, ``_ham_path``, keyed by
``(n, levels, s, t)``.  Recursion bottoms out in ``_search_masks``, an
exact backtracking search on any host graph with at most
``BRUTE_FORCE_LIMIT`` (12) vertices; the same search, with two terminal
pairs, is the P2C oracle and the Johnson constructor's base case.

The search reads each small graph through tables built once, straight
from the graph's neighbor masks (``graphs._neighbor_masks``), and kept in
the memo ``_mask_search``, keyed by ``(n, levels)``: the vertex masks, a
mask-to-index dict, the neighbor masks, and neighbor-union tables over
chunks of ``SEARCH_CHUNK`` (8) vertices, 256 entries a chunk, so memory
grows linearly with the graph.  On these graphs it prunes by reachability
alone; on an explicit graph it also applies a degree rule (see
``_cover_search``).

Every path is read through ``_ham``, the memo's one reader.  The memo
holds small canonical paths only: a one-level key with 2k > n is stored as
J(n,n-k), whose vertices are the complements, and a subgraph above
``MEMO_VERTICES`` vertices (``graphs``) is not stored at all but built
straight into the caller's list.  A read copies the memo's tuple once and
applies, in that copy, the complement and the caller's ``out`` (say a
``_Side``'s bit) as one XOR.  A large graph that is complemented or
embedded is built in its caller's masks: ``_ham`` hands that XOR down the
build, and only the leaves apply it (memo reads and the k = 1 list), which
copy anyway.  The builders splice the paths they get in place, so a cold
build holds about its output, not every half it made on the way.

The builders work on int bitmasks (see ``subsets``).  A ``_Side`` is one
half of the split with its embedding into J(n,k), an XOR with its ``bit``:
0 on X, bit n on Y.  So each mirrored X/Y case is written once, and
``_first_across`` is the one pick of a neighbor on the other side, for the
builder here and for the Johnson P2C constructor.
``hamilton_masks`` takes and returns masks; the public ``hamilton_johnson``
and ``hamilton_qj`` unwrap their ``ElementSet`` endpoints for it and wrap
the finished path.  ``path_json_parts`` writes a path of masks as JSON
text without wrapping it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice, repeat
from math import comb
from typing import Iterator, NamedTuple

from .errors import CoverError, EqualEndpoints, NotAVertex, SpliceEdgeNotFound
from .graphs import (
    MEMO_SIZE,
    MEMO_VERTICES,
    GenericGraph,
    JohnsonGraph,
    QJGraph,
    _neighbor_masks,
)
from .subsets import (
    ElementSet,
    cross_masks,
    full_mask,
    foreign_key,
    k_masks,
    key_text,
    mask_keys,
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

    [n] is cut into c chunks of consecutive elements: two halves for
    n <= 20, 8 elements each beyond, so no table has more than 1,024
    entries.  Each chunk has a table from its bit patterns to JSON text:
    the first chunk's entries open a vertex with "], [" and list their
    elements, the others put ", " before each element.  A part's text
    interleaves its vertices' entries, chunk j in every c-th slot from j,
    and is joined once; a vertex with no element in the first chunk reads
    "[, " there, the only place that text occurs, and one replace mends it.
    """
    if not masks:
        yield "[]"
        return
    width = (n + 1) // 2 if n <= 20 else 8
    chunks = [
        (lo, (1 << width) - 1, _chunk_table(lo, min(lo + width, n + 1)))
        for lo in range(1, n + 1, width)
    ]
    c = len(chunks)
    for i in range(0, len(masks), EMIT_SLICE):
        part = masks[i : i + EMIT_SLICE]
        columns = [""] * (c * len(part))
        for j, (lo, m, table) in enumerate(chunks):
            columns[j::c] = [table[b >> lo & m] for b in part]
        if not i:
            columns[0] = "[[" + columns[0][4:]
        yield "".join(columns).replace("[, ", "[")
    yield "]]"


def _chunk_table(lo: int, hi: int) -> list[str]:
    """Entry b: the elements lo + i < hi with bit i set in b, in ascending
    order, each as ", e"; in the first chunk (lo == 1), "], [" and then
    the elements joined by ", "."""
    table = [""]
    for e in range(lo, hi):
        # The entries with bit e - lo set are those without it, plus e.
        table += [text + f", {e}" for text in table]
    if lo == 1:
        table = ["], [" + text[2:] for text in table]
    return table


# ---------------------------------------------------------------------------
# Exact search on explicit graphs.


def hamilton_bruteforce(g: GenericGraph, s: int, t: int) -> Path | None:
    """Exact Hamilton path search with connectivity and dead-end pruning."""
    if s == t:
        raise EqualEndpoints(f"endpoints coincide: {s}")
    if not (g.has_vertex(s) and g.has_vertex(t)):
        raise NotAVertex(f"{s} or {t} not in graph")
    found = _cover_search(_explicit_search(g.adjacency), ((s, t),))
    return Path(tuple(found[0])) if found is not None else None


# Vertices per chunk of the search's neighbor-union tables: a chunk's table
# has 2 ** SEARCH_CHUNK entries, so the tables grow linearly with the graph.
SEARCH_CHUNK = 8
_CHUNK_MASK = (1 << SEARCH_CHUNK) - 1


def _search_tables(adj, degree_rule: bool = True) -> tuple:
    """The graph with adjacency lists ``adj`` as the exact search reads it:
    (nbrs, chunks, full, degree).  nbrs[v] is the neighbor mask of vertex
    v, bit z for neighbor z.  chunks holds a pair (lo, table) for each run
    of SEARCH_CHUNK indices from lo: table[b] is the union of the neighbor
    masks of the vertices lo + i with bit i set in b.  full is the mask of
    every vertex.  degree is empty without the degree rule; with it, it
    holds a triple (lo, table, twice) per chunk, where twice[b] is the set
    of vertices adjacent to at least two of those vertices."""
    nbrs = tuple(sum(1 << z for z in a) for a in adj)
    chunks, degree = [], []
    for lo in range(0, len(nbrs), SEARCH_CHUNK):
        table, twice = [0], [0]
        for m in nbrs[lo : lo + SEARCH_CHUNK]:
            # The entries with this vertex's bit set are those without it,
            # plus its neighbors; those of its neighbors that were adjacent
            # to one of the chunk's vertices before are now adjacent to two.
            twice += [w | u & m for u, w in zip(table, twice)]
            table += [u | m for u in table]
        table = tuple(table)
        chunks.append((lo, table))
        if degree_rule:
            degree.append((lo, table, tuple(twice)))
    return nbrs, tuple(chunks), (1 << len(nbrs)) - 1, tuple(degree)


@lru_cache(maxsize=MEMO_SIZE)
def _mask_search(n: int, levels: tuple):
    """(vertex masks in index order, mask->index dict, ``_search_tables``)
    of QJ(n,levels), J(n,k) being ``levels == (k,)``.  The vertices are
    numbered level by level, each level in bit-vector order, as the graph's
    ``vertices()`` lists them."""
    verts = tuple(b for a in levels for b in k_masks(n, a))
    index = {b: i for i, b in enumerate(verts)}
    adj = [[index[b] for b in _neighbor_masks(a, n, levels)] for a in verts]
    # The degree rule never paid on these graphs (see ``_cover_search``).
    return verts, index, _search_tables(adj, degree_rule=False)


# Bounded apart from MEMO_SIZE, like ``verify._vertex_keys``: explicit
# graphs are arbitrary, and 16,384 of them at 16 vertices would hold about
# 700 MB of tables.  One entry serves what repeats, a sweep or a CLI oracle
# on one graph.
@lru_cache(maxsize=1)
def _explicit_search(adjacency: tuple) -> tuple:
    """``_search_tables`` of an explicit graph, with the degree rule:
    building a chunk's tables costs more than most searches on them."""
    return _search_tables(adjacency)


def _search_masks(n: int, levels: tuple, pairs) -> list[list[int]] | None:
    """``_cover_search`` on QJ(n,levels), J(n,k) being ``levels == (k,)``,
    with the terminal pairs and the paths as masks.  The small-graph cases of
    the builders and the oracle all run here."""
    verts, index, tables = _mask_search(n, levels)
    found = _cover_search(tables, [(index[s], index[t]) for s, t in pairs])
    return None if found is None else [[verts[i] for i in p] for p in found]


def _cover_search(tables, pairs) -> list[list[int]] | None:
    """Cover the graph of ``_search_tables`` by vertex-disjoint paths joining
    the terminal pairs (s_i, t_i), in that order; None if impossible.

    A Hamilton path is one pair, a paired 2-disjoint path cover two.  The
    paths are grown one at a time, depth first, each trying its neighbors in
    ascending order; path i never steps onto the terminal of a later path,
    and the last path reaches its terminal only as the last uncovered
    vertex.  Vertex sets are int bitmasks over the indices, bit i for vertex
    i.

    Two rules prune branches.  Reachability: every unvisited vertex must
    still connect to a path end (the growing end or a later path's start)
    through unvisited vertices.  Degree, if the tables carry it: every
    unvisited vertex keeps two usable neighbors (unvisited, or a path end),
    one if it is a pending terminal.  Each test takes table lookups per
    chunk of SEARCH_CHUNK vertices, not a step per vertex.  A rule only
    cuts branches that hold no cover, so the search returns the same first
    cover whichever rules it applies.  The tables of J(n,k) and QJ(n,A)
    carry no degree rule: their vertices keep many usable neighbors, and on
    every such graph measured the test cost more than it cut.  On sparse
    graphs and graphs with pendant vertices, which explicit graphs may be,
    it cuts whole subtrees that reachability leaves.
    """
    visited = 0
    for s, _ in pairs:
        visited |= 1 << s
    paths = [[s] for s, _ in pairs]
    # Per path: its terminal, the later paths' starts (path ends still to
    # reach) and the later paths' terminals, which it must not step onto.
    stages = []
    for i, (_, t) in enumerate(pairs):
        starts = forbidden = 0
        for s2, t2 in pairs[i + 1 :]:
            starts |= 1 << s2
            forbidden |= 1 << t2
        stages.append((t, starts, forbidden))
    if _extend(tables, visited, paths, stages, 0):
        return paths
    return None


def _extend(tables, visited, paths, stages, i) -> bool:
    """Grow path i (and then the later ones) into a cover; on failure,
    undo every step taken."""
    nbrs, chunks, full, degree = tables
    path = paths[i]
    cur = path[-1]
    t, starts, forbidden = stages[i]
    last = i == len(paths) - 1
    if cur == t:
        if last:
            return visited == full
        return _extend(tables, visited, paths, stages, i + 1)
    unvisited = full ^ visited
    ends = starts | 1 << cur
    if degree:
        # The vertices with at least one usable neighbor, and with two.
        usable = unvisited | ends
        once = twice = 0
        for lo, table, two in degree:
            b = usable >> lo & _CHUNK_MASK
            twice |= two[b] | once & table[b]
            once |= table[b]
        if unvisited & ~twice & ~(once & (1 << t | forbidden)):
            return False
    # Reachability: flood the unvisited vertices from the path ends.
    frontier, reached = ends, 0
    while True:
        grown = 0
        for lo, table in chunks:
            grown |= table[frontier >> lo & _CHUNK_MASK]
        frontier = grown & (unvisited ^ reached)
        if not frontier:
            return False
        reached |= frontier
        if reached == unvisited:
            break
    # The neighbors in ascending order, the terminal of the last path only
    # as its last vertex.
    steps = nbrs[cur] & ~(visited | forbidden)
    if last and unvisited != 1 << t:
        steps &= ~(1 << t)
    while steps:
        bit = steps & -steps
        steps ^= bit
        path.append(bit.bit_length() - 1)
        if _extend(tables, visited | bit, paths, stages, i):
            return True
        path.pop()
    return False


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


def _ham(n: int, levels: tuple, s: int, t: int, out: int = 0) -> list[int]:
    """Hamilton path of QJ(n,levels) from s to t, J(n,k) being ``levels ==
    (k,)``, with every vertex XORed with ``out``: 0, a bit above n that
    embeds the graph in a larger one (``_Side``), or, inside a large build
    that is complemented or embedded, the XOR from that build's masks to
    its caller's.  The caller owns the returned list.

    The one reader of the memo ``_ham_path``.  A one-level key with 2k > n
    is read as J(n,n-k), whose vertices are the complements; the
    complement and ``out`` are one XOR, applied in the copy that a read
    makes anyway.  A graph above ``MEMO_VERTICES`` vertices is built
    straight into the returned list, in its final masks: the XOR goes down
    to the leaves of the build, which copy anyway."""
    flip = 0
    if len(levels) == 1 and 2 * levels[0] > n:
        flip = full_mask(n)
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
    embedding of J(n-1, self.k) into J(n,k) XORs in ``bit`` (0 on X, 1 << n
    on Y), and so does its inverse.  ``head`` holds the side's first
    ``SIDE_HEAD`` vertices in bit-vector order, as masks of J(n,k): enough
    to find one that is none of four endpoints."""

    n: int
    k: int
    bit: int
    head: tuple[int, ...]

    def path(self, s: int, t: int, out: int = 0) -> list[int]:
        """Hamilton path of the side between two of its vertices, as a new
        list of masks of J(n,k), each XORed with ``out``."""
        bit = self.bit
        return _ham(self.n - 1, (self.k,), s ^ bit, t ^ bit, out ^ bit)


# Vertices of a side kept in its ``head``: one more than a quad's endpoints.
SIDE_HEAD = 5


@lru_cache(maxsize=MEMO_SIZE)
def _sides(n: int, k: int) -> tuple[_Side, _Side]:
    """(X, Y) of J(n,k); the side of a mask w is ``_sides(n, k)[w >> n & 1]``."""
    return tuple(
        _Side(n, j, bit, tuple(v | bit for v in islice(k_masks(n - 1, j), SIDE_HEAD)))
        for j, bit in ((k, 0), (k - 1, 1 << n))
    )


def _swappable(a: int, n: int) -> int:
    """The elements a vertex of J(n,k) trades with n to cross the split by n:
    its own on X, the ones of [n-1] it lacks on Y."""
    return (~a if a >> n & 1 else a) & (1 << n) - 2


def _first_across(a: int, n: int, avoid=()) -> int | None:
    """The first neighbor of a on the other side of the split by n, in
    bit-vector order, that is not in ``avoid``; None if every one is.
    Trading a larger element gives a smaller mask from X and a larger one
    from Y, so the traded element runs down from a's highest swappable
    element on X and up from its lowest on Y."""
    on_y = a >> n & 1
    flipped = a ^ (1 << n)
    swap = _swappable(a, n)
    while swap:
        pick = swap & -swap if on_y else 1 << swap.bit_length() - 1
        if flipped ^ pick not in avoid:
            return flipped ^ pick
        swap ^= pick
    return None


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
        ap = _first_across(a, n)
        # b has k >= 2 (X) or n-k >= 2 (Y) neighbors across, so one is not ap.
        bp = _first_across(b, n, (ap,))
        h[1:1] = sides[1 - i].path(ap, bp, out)
        return h

    if i:
        h = _ham_johnson_build(n, k, t, s, out)
        h.reverse()
        return h

    # s in X, t in Y: end the X-path at an auxiliary vertex bridging into Y.
    x_side, y_side = sides
    # X is J(n-1,k) with n >= 6 and k >= 2 (10+ vertices), and a has k >= 2
    # neighbors in Y: neither pick runs dry.
    first, second = x_side.head[:2]
    a = second if first == s else first
    ap = _first_across(a, n, (t,))
    h = x_side.path(s, a, out)
    h += y_side.path(ap, t, out)
    return h


def _ham_qj_build(n, levels, s, t):
    if sum(comb(n, a) for a in levels) <= BRUTE_FORCE_LIMIT:
        return _ham_small(n, levels, s, t)

    top = levels[-1]
    s_top = s.bit_count() == top
    if s_top == (t.bit_count() == top):
        # Both ends in one part, the top level or the levels below it: the
        # other part is spliced in through the part's boundary level.
        last = len(levels) - 1
        lo, hi = (last, last) if s_top else (0, last - 1)
        h = _ham(n, levels[lo : hi + 1], s, t)
        ep2c_expand([h], n, levels, lo, hi)
        return h

    if s_top:
        h = _ham_qj_build(n, levels, t, s)
        h.reverse()
        return h

    # s below, t in the top level: bridge through a cross edge.
    a = next(_free(n, levels[-2], (s,)))
    h = _ham(n, levels[:-1], s, a)
    if top == n:
        h.append(t)
    else:
        h += _ham(n, (top,), pick_one_avoiding(n, top, a, t), t)
    return h


# ---------------------------------------------------------------------------
# The level stack, shared by ``_ham_qj_build`` and ``p2c_qj``.  The picks
# run between levels in 1..n-1 with n >= 4: the apex level n is spliced as
# itself, ``p2c_masks`` refuses n < 4, and a stack that ``_ham_qj_build``
# splices has 13+ vertices, so n >= 4.  So each pick finds what it looks
# for; its docstring says why.


def _free(n, card, quad):
    """The vertices of level card that are no endpoint, in bit-vector order.
    A level 1..n-1 has at least n >= 4 vertices, and no caller takes more
    of them than its endpoints there leave: one beside one or three, two
    beside two."""
    return (w for w in k_masks(n, card) if w not in quad)


def _cross(a, n, card_to):
    """``cross_masks(a, n, card_to)``, read from the memo ``_cross_memo``
    when the list is no longer than ``MEMO_VERTICES`` masks."""
    # 2^n bounds the list's length: work it out only above the bound.
    if 1 << n > MEMO_VERTICES:
        c = a.bit_count()
        size = comb(n - c, card_to - c) if card_to > c else comb(c, card_to)
        if size > MEMO_VERTICES:
            return cross_masks(a, n, card_to)
    return _cross_memo(a, n, card_to)


@lru_cache(maxsize=MEMO_SIZE)
def _cross_memo(a, n, card_to) -> tuple[int, ...]:
    return tuple(cross_masks(a, n, card_to))


def pick_one_avoiding(n, card_to, a, avoid) -> int:
    """First neighbor of the mask a at level card_to, in bit-vector order,
    other than the mask ``avoid``.  Between two levels c and d in 1..n-1,
    a has C(n-c, d-c) or C(c, c-d) neighbors, at least two."""
    ws = _cross(a, n, card_to)
    return ws[ws[0] == avoid]


def pick_two_avoiding(n, card_to, a, b, avoid) -> tuple[int, int]:
    """First pair (a', b') in scan order of distinct neighbors of the masks
    a and b at level card_to, both outside `avoid`.

    a and b, the ends of a path edge, are distinct, and each has more
    neighbors there than `avoid` holds: two or more with nothing to avoid,
    and C(m, r) >= m >= 3 with 1 <= r <= m-2 for the two endpoints the
    interleaved cover avoids going up to a level d <= n-2 (m = n-c) or
    down from level n-1 (m = n-1).  So the scan fails only if a and b
    each keep one candidate, the same w, and have the same neighbors
    there; but those fix a vertex, as their intersection going up and
    their union going down."""
    cand_b = [w for w in _cross(b, n, card_to) if w not in avoid]
    for ap in _cross(a, n, card_to):
        if ap not in avoid:
            for bp in cand_b:
                if bp != ap:
                    return ap, bp


def _level_edge(paths, card, forbidden=()) -> tuple[int, int]:
    """(i, t) of the first edge paths[i][t], paths[i][t + 1], in path
    order, whose ends both lie on level card and avoid ``forbidden``."""
    for i, p in enumerate(paths):
        for t in range(len(p) - 1):
            a, b = p[t], p[t + 1]
            if a.bit_count() == card == b.bit_count() and {a, b}.isdisjoint(forbidden):
                return i, t
    raise SpliceEdgeNotFound(
        f"no within-level edge at cardinality {card} on either path"
    )


def ep2c_expand(paths, n, A, lo, hi) -> None:
    """Expand a Hamilton path or a cover of levels A[lo..hi] to all of
    QJ(n,A), on masks, in place (the EP2C expansion): a Hamilton path of
    the levels below detours through the first edge on level A[lo], one of
    the levels above through the first edge on level A[hi] apart from that
    one, each between distinct neighbors of the edge's ends.  The apex
    level J(n,n) above is a detour of its one vertex, which is adjacent to
    both ends."""
    splices = []
    down_edge = ()
    if lo > 0:
        pi, t = _level_edge(paths, A[lo])
        down_edge = paths[pi][t : t + 2]
        splices.append((t, pi, A[lo - 1], A[:lo]))
    if hi < len(A) - 1:
        pi, t = _level_edge(paths, A[hi], down_edge)
        splices.append((t, pi, A[hi + 1], A[hi + 1 :]))
    # The later index first: the two edges are disjoint, so the earlier one
    # keeps its index.
    for t, pi, card_to, others in sorted(splices, reverse=True):
        p = paths[pi]
        if card_to == n:
            detour = [full_mask(n)]
        else:
            ap, bp = pick_two_avoiding(n, card_to, p[t], p[t + 1], ())
            detour = _ham(n, others, ap, bp)
        p[t + 1 : t + 1] = detour
