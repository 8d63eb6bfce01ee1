"""Implicit graph models for J(n,k) and QJ(n,A), plus explicit fixtures.

Johnson and QJ graphs never store adjacency: the vertex currency is
``ElementSet``, and one edge rule, the neighbor masks of ``_neighbor_masks``,
serves ``neighbors``, ``adjacent`` and the exact search's own tables
(``hamilton._mask_search``), so no J(n,k) or QJ(n,A) is copied into a
``GenericGraph``: that explicit structure holds only the built-in fixtures
and graphs given by their edges, for the brute-force oracles.  Every graph
answers ``adjacent`` and ``neighbors`` only for its own vertices.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

from .errors import NotAVertex
from .subsets import (
    ElementSet,
    _Frozen,
    down_masks,
    k_subsets,
    same_level_masks,
    up_masks,
)

# The bound of every memo in the package but the tables of explicit graphs
# (``hamilton._explicit_search``) and the checker's key sets
# (``verify._vertex_keys``), each a functools LRU cache whose
# ``cache_info()`` gives its hits, misses and size.  It is above the largest
# working sets measured, so nothing is evicted there: 11,232 Hamilton paths
# (acceptance criterion 6), 10,440 oracle covers (the exhaustive J(6,3) and
# QJ(5,A) sweeps), the search tables of 22 small graphs and one split pair
# of sides per J(n,k).  Long sampled sweeps, which grew the memos without
# end, stop growing at the bound.
#
# The Hamilton memo also bounds what one entry holds: it keeps the paths of
# subgraphs with at most MEMO_VERTICES vertices, under their canonical key
# (a one-level J(n,k) as J(n,n-k) when 2k > n, read back by complementing).
# Larger subgraphs, the halves near the top of a cold build, are built
# straight into their caller's list, so a cold build's memory follows its
# output.  Every sweep graph of the acceptance criteria is below the bound.
# The level picks' neighbor lists (``hamilton._cross_memo``) are bounded so.
MEMO_SIZE = 1 << 14
MEMO_VERTICES = 1000


class _LevelGraph(_Frozen):
    """The subsets of [n] whose cardinalities are the ``levels``, with
    Johnson edges inside a level and containment edges between consecutive
    levels.  J(n,k) is the one-level graph QJ(n,{k}), so both kinds share
    this one body and differ only in how they are built and named."""

    __slots__ = ("n", "levels", "vertex_count")

    def _init(self, n: int, levels: tuple) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "vertex_count", sum(comb(n, a) for a in levels))

    def vertices(self) -> Iterator[ElementSet]:
        for a in self.levels:
            yield from k_subsets(self.n, a)

    def has_vertex(self, s) -> bool:
        return (
            isinstance(s, ElementSet)
            and s.n == self.n
            and s.bits.bit_count() in self.levels
        )

    def adjacent(self, a: ElementSet, b: ElementSet) -> bool:
        return (
            self.has_vertex(a)
            and self.has_vertex(b)
            and b.bits in _neighbor_masks(a.bits, self.n, self.levels)
        )

    def neighbors(self, s: ElementSet) -> list[ElementSet]:
        if not self.has_vertex(s):
            raise NotAVertex(f"{s} is not a vertex of {self}")
        n = self.n
        return [ElementSet(b, n) for b in _neighbor_masks(s.bits, n, self.levels)]


def _neighbor_masks(bits: int, n: int, levels) -> list[int]:
    """Neighbors of the vertex mask ``bits`` in the graph on the subsets of
    [n] with cardinalities ``levels``, in bit-vector order: Johnson
    neighbors in its level, and its supersets and subsets on the levels
    next to it."""
    i = levels.index(bits.bit_count())
    out = same_level_masks(bits, n)
    if i + 1 < len(levels):
        out += up_masks(bits, n, levels[i + 1])
    if i > 0:
        out += down_masks(bits, levels[i - 1])
    out.sort()
    return out


class JohnsonGraph(_LevelGraph):
    """The Johnson graph J(n,k) on all k-subsets of [n], n >= 1, the one
    level ``levels == (k,)``.  It admits k = 0, which no ``LevelSpec``
    does, so it is no ``QJGraph``."""

    __slots__ = ("k",)

    def __init__(self, n: int, k: int):
        if type(n) is not int or type(k) is not int:
            raise ValueError(f"n={n!r} and k={k!r} must be ints")
        if n < 1:
            raise ValueError(f"ground set size {n} below 1")
        if not 0 <= k <= n:
            raise ValueError(f"k={k} outside [0, {n}]")
        object.__setattr__(self, "k", k)
        self._init(n, (k,))

    def __reduce__(self):
        return JohnsonGraph, (self.n, self.k)

    def key(self):
        return ("johnson", self.n, self.k)

    def descriptor(self) -> dict:
        return {"kind": "johnson", "n": self.n, "k": self.k}

    def __repr__(self) -> str:
        return f"J({self.n},{self.k})"


class LevelSpec(tuple):
    """A strictly increasing tuple of level cardinalities a_1 < ... < a_m."""

    __slots__ = ()

    def __new__(cls, levels):
        levels = tuple(levels)
        if not levels:
            raise ValueError("level set must be non-empty")
        if any(type(a) is not int for a in levels):
            raise ValueError(f"levels {levels} must be ints")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError(f"levels {levels} not strictly increasing")
        if levels[0] < 1:
            raise ValueError(f"level {levels[0]} below 1")
        return super().__new__(cls, levels)


class QJGraph(_LevelGraph):
    """The stacked Johnson graph QJ(n,A).

    A vertex's level is determined by its cardinality, which must be a
    member of A.  Edges are Johnson edges inside a level plus containment
    edges between consecutive levels.
    """

    __slots__ = ()

    def __init__(self, n: int, levels):
        if type(n) is not int:
            raise ValueError(f"ground set size {n!r} must be an int")
        if not isinstance(levels, LevelSpec):
            levels = LevelSpec(levels)
        if levels[-1] > n:
            raise ValueError(f"level {levels[-1]} exceeds ground set size {n}")
        self._init(n, levels)

    def __reduce__(self):
        return QJGraph, (self.n, self.levels)

    def key(self):
        return ("qj", self.n, self.levels)

    def descriptor(self) -> dict:
        return {"kind": "qj", "n": self.n, "levels": list(self.levels)}

    def __repr__(self) -> str:
        return f"QJ({self.n},{{{','.join(map(str, self.levels))}}})"


class GenericGraph(_Frozen):
    """Explicit undirected graph on opaque indices 0..vertex_count-1."""

    __slots__ = ("vertex_count", "adjacency")

    def __init__(self, vertex_count: int, edges):
        if type(vertex_count) is not int:
            raise ValueError(f"vertex count {vertex_count!r} must be an int")
        if vertex_count < 0:
            raise ValueError(f"negative vertex count {vertex_count}")
        object.__setattr__(self, "vertex_count", vertex_count)
        adjacency = [set() for _ in range(vertex_count)]
        for a, b in edges:
            # Each endpoint by ``has_vertex``'s rule: an int, no bool, in range.
            if not (self.has_vertex(a) and self.has_vertex(b)):
                raise ValueError(f"edge ({a!r}, {b!r}) leaves 0..{vertex_count - 1}")
            if a == b:
                raise ValueError(f"self-loop at {a}")
            adjacency[a].add(b)
            adjacency[b].add(a)
        object.__setattr__(
            self, "adjacency", tuple(tuple(sorted(nbrs)) for nbrs in adjacency)
        )

    def __reduce__(self):
        edges = [(a, b) for a, nbrs in enumerate(self.adjacency) for b in nbrs if a < b]
        return GenericGraph, (self.vertex_count, edges)

    def vertices(self) -> Iterator[int]:
        return iter(range(self.vertex_count))

    def has_vertex(self, v: int) -> bool:
        return type(v) is not bool and isinstance(v, int) and 0 <= v < self.vertex_count

    def adjacent(self, a: int, b: int) -> bool:
        return self.has_vertex(a) and self.has_vertex(b) and b in self.adjacency[a]

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not self.has_vertex(v):
            raise NotAVertex(f"{v!r} is not a vertex of 0..{self.vertex_count - 1}")
        return self.adjacency[v]

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def key(self):
        return ("generic", self.vertex_count, self.adjacency)

    def descriptor(self) -> dict:
        return {"kind": "generic", "vertex_count": self.vertex_count}


def fig1_counterexample() -> tuple[GenericGraph, tuple[int, int, int, int]]:
    """The modified 3-cube separating Hamilton-connectedness from P2C.

    Vertices are indexed by the value of their 3-bit label.  The graph is
    Q3 plus the chords 000-011 and 100-111; the returned endpoint quad
    (000, 101, 100, 001) admits no paired 2-disjoint path cover.
    """
    edges = [(i, i ^ (1 << d)) for i in range(8) for d in range(3) if i < i ^ (1 << d)]
    edges += [(0b000, 0b011), (0b100, 0b111)]
    return GenericGraph(8, edges), (0b000, 0b101, 0b100, 0b001)


def to_dot(g, highlight=None) -> str:
    """DOT export; `highlight` maps edge attribute strings to vertex paths."""
    lines = ["graph G {"]
    verts = list(g.vertices())
    for v in verts:
        lines.append(f'  "{v!r}";')
    highlighted = {}
    if highlight:
        for attr, path in highlight.items():
            for a, b in zip(path, path[1:]):
                highlighted[frozenset((a, b))] = attr
    for v in verts:
        for w in g.neighbors(v):
            if v < w:
                attr = highlighted.get(frozenset((v, w)))
                suffix = f" [{attr}]" if attr else ""
                lines.append(f'  "{v!r}" -- "{w!r}"{suffix};')
    lines.append("}")
    return "\n".join(lines)
