"""Implicit graph models for J(n,k) and QJ(n,A), plus explicit fixtures.

Johnson and QJ graphs never store adjacency: the vertex currency is
``ElementSet``, every adjacency query is O(1) bit arithmetic, and neighbor
lists are the mask helpers of ``subsets`` wrapped once.
``GenericGraph`` is an explicit structure used only by the brute-force
oracles and the built-in fixtures.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterator

from .errors import NotAVertex
from .subsets import (
    ElementSet,
    down_masks,
    k_masks,
    k_subsets,
    same_level_masks,
    up_masks,
)

# The bound of every memo in the package, each a functools LRU cache whose
# ``cache_info()`` gives its hits, misses and size.  It is above the largest
# working sets measured, so nothing is evicted there: 11,232 Hamilton paths
# (acceptance criterion 6), 10,440 oracle covers (the exhaustive J(6,3) and
# QJ(5,A) sweeps) and 22 small explicit graphs.  Long sampled sweeps, which
# grew the memos without end, stop growing at the bound.
MEMO_SIZE = 1 << 14


class _LevelGraph:
    """The subsets of [n] whose cardinalities are the ``levels``, with
    Johnson edges inside a level and containment edges between consecutive
    levels.  J(n,k) is the one-level graph QJ(n,{k}), so both kinds share
    this one body and differ only in how they are built and named."""

    __slots__ = ("n", "levels")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def vertex_count(self) -> int:
        return sum(comb(self.n, a) for a in self.levels)

    def vertices(self) -> Iterator[ElementSet]:
        for a in self.levels:
            yield from k_subsets(self.n, a)

    def has_vertex(self, s: ElementSet) -> bool:
        return s.n == self.n and s.bits.bit_count() in self.levels

    def adjacent(self, a: ElementSet, b: ElementSet) -> bool:
        ca, cb = a.bits.bit_count(), b.bits.bit_count()
        if ca == cb:
            return ca in self.levels and (a.bits ^ b.bits).bit_count() == 2
        if ca > cb:
            a, b, ca, cb = b, a, cb, ca
        ia = self._index_of(ca)
        ib = self._index_of(cb)
        if ia is None or ib is None or ib != ia + 1:
            return False
        return a.bits & ~b.bits == 0

    def _index_of(self, card: int):
        """The index of the level of cardinality card; None if there is none."""
        return self.levels.index(card) if card in self.levels else None

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
    """The Johnson graph J(n,k) on all k-subsets of [n], the one level
    ``levels == (k,)``.  It admits k = 0, which no ``LevelSpec`` does, so it
    is no ``QJGraph``."""

    __slots__ = ("k",)

    def __init__(self, n: int, k: int):
        if not 0 <= k <= n:
            raise ValueError(f"k={k} outside [0, {n}]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "levels", (k,))

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
        if not isinstance(levels, LevelSpec):
            levels = LevelSpec(levels)
        if levels[-1] > n:
            raise ValueError(f"level {levels[-1]} exceeds ground set size {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "levels", levels)

    def __reduce__(self):
        return QJGraph, (self.n, self.levels)

    def key(self):
        return ("qj", self.n, self.levels)

    def descriptor(self) -> dict:
        return {"kind": "qj", "n": self.n, "levels": list(self.levels)}

    def __repr__(self) -> str:
        return f"QJ({self.n},{{{','.join(map(str, self.levels))}}})"


class GenericGraph:
    """Explicit undirected graph on opaque indices 0..vertex_count-1."""

    __slots__ = ("vertex_count", "adjacency")

    def __init__(self, vertex_count: int, edges):
        adjacency = [set() for _ in range(vertex_count)]
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at {a}")
            adjacency[a].add(b)
            adjacency[b].add(a)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(
            self, "adjacency", tuple(tuple(sorted(nbrs)) for nbrs in adjacency)
        )

    def __setattr__(self, name, value):
        raise AttributeError("GenericGraph is immutable")

    def __reduce__(self):
        edges = [(a, b) for a, nbrs in enumerate(self.adjacency) for b in nbrs if a < b]
        return GenericGraph, (self.vertex_count, edges)

    def vertices(self) -> Iterator[int]:
        return iter(range(self.vertex_count))

    def has_vertex(self, v: int) -> bool:
        return isinstance(v, int) and 0 <= v < self.vertex_count

    def adjacent(self, a: int, b: int) -> bool:
        return b in self.adjacency[a]

    def neighbors(self, v: int) -> tuple[int, ...]:
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


@lru_cache(maxsize=MEMO_SIZE)
def mask_generic(n: int, levels: tuple) -> tuple[GenericGraph, tuple[int, ...]]:
    """Materialize J(n,k) (``levels == (k,)``) or QJ(n,levels) on int masks;
    returns (graph, index->mask tuple).  Memoized: the exact searches ask
    for the same few small graphs over and over.

    Vertices are numbered level by level, each level in bit-vector order,
    as the graph's ``vertices()`` lists them.
    """
    verts = tuple(b for a in levels for b in k_masks(n, a))
    index = {b: i for i, b in enumerate(verts)}
    edges = [
        (i, index[b]) for i, a in enumerate(verts) for b in _neighbor_masks(a, n, levels)
    ]
    return GenericGraph(len(verts), edges), verts


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
