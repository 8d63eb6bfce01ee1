"""Hamilton-path builders for K_n-like vertex lists, J(n,k) and QJ(n,A).

The Johnson builder recursively splits J(n,k) by the element n into
X (vertices without n, isomorphic to J(n-1,k)) and Y (vertices with n,
isomorphic to J(n-1,k-1)), splicing the smaller side's Hamilton path into
an edge of the larger side's path.  The QJ builder peels the top level of
the stack.  Recursion bottoms out in an exact backtracking search on any
host graph with at most 12 vertices.

The builders work on int bitmasks (see ``subsets``).  On masks the X-side
embedding J(n-1,k) -> J(n,k) is the identity, the Y-side one is
``_lift_y`` and its inverse ``_drop_n``.  The public ``hamilton_johnson``
and ``hamilton_qj`` unwrap their ``ElementSet`` endpoints and wrap the
finished path.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import CoverError, EqualEndpoints, NotAVertex, SpliceEdgeNotFound
from .graphs import GenericGraph, JohnsonGraph, QJGraph, mask_generic
from .subsets import (
    ElementSet,
    down_masks,
    full_mask,
    k_masks,
    mask_elements,
    up_masks,
)

BRUTE_FORCE_LIMIT = 12

# The memos of results, keyed by masks or explicit graphs: Hamilton paths
# of explicit graphs, of J(n,k) and of QJ(n,A), and P2C covers from the
# exact oracle (filled by p2c_johnson).
_BF_CACHE: dict = {}
_JOHNSON_CACHE: dict = {}
_QJ_CACHE: dict = {}
_ORACLE_CACHE: dict = {}


def clear_caches() -> None:
    """Empty every memo, so the next construction starts cold."""
    _BF_CACHE.clear()
    _JOHNSON_CACHE.clear()
    _QJ_CACHE.clear()
    _ORACLE_CACHE.clear()
    mask_generic.cache_clear()


@dataclass(frozen=True)
class Path:
    """An ordered sequence of pairwise-distinct, consecutively adjacent vertices."""

    vertices: tuple

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __getitem__(self, i):
        return self.vertices[i]

    def reversed(self) -> "Path":
        return Path(tuple(reversed(self.vertices)))

    def to_json(self):
        return [
            v.to_json() if isinstance(v, ElementSet) else v for v in self.vertices
        ]


def mask_path(masks, n: int) -> Path:
    """Wrap a path of masks over [n] as a Path of ElementSets."""
    # tuple() of a list allocates the tuple at its final size, reusing freed
    # tuples of that size; tuple() of a generator grows one by resizing, and
    # the freed path tuples then pile up in the interpreter's free lists.
    return Path(tuple([ElementSet(b, n) for b in masks]))


def _sort_key(v):
    return v.bits if isinstance(v, ElementSet) else v


# ---------------------------------------------------------------------------
# Exact search on explicit graphs.


def hamilton_bruteforce(g: GenericGraph, s: int, t: int) -> Path | None:
    """Exact Hamilton path search with connectivity and dead-end pruning."""
    if s == t:
        raise EqualEndpoints(f"endpoints coincide: {s}")
    if not (g.has_vertex(s) and g.has_vertex(t)):
        raise NotAVertex(f"{s} or {t} not in graph")
    key = (g.key(), s, t)
    if key in _BF_CACHE:
        hit = _BF_CACHE[key]
        return Path(hit) if hit is not None else None
    result = _ham_search(g.adjacency, s, t)
    _BF_CACHE[key] = tuple(result) if result is not None else None
    return Path(tuple(result)) if result is not None else None


def _ham_search(adj, s: int, t: int) -> list[int] | None:
    n = len(adj)
    if n == 1:
        return None
    path = [s]
    visited = [False] * n
    visited[s] = True

    def feasible(cur: int) -> bool:
        # Every unvisited vertex must be reachable from cur without crossing
        # visited vertices, and (unless it is the final target) must keep at
        # least two usable neighbors to pass through.
        stack = [cur]
        seen = {cur}
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not visited[w] and w not in seen:
                    seen.add(w)
                    stack.append(w)
        for w in range(n):
            if visited[w]:
                continue
            if w not in seen:
                return False
            avail = sum(1 for z in adj[w] if not visited[z] or z == cur)
            if avail == 0:
                return False
            if avail == 1 and w != t:
                return False
        return True

    def dfs(cur: int) -> bool:
        if len(path) == n:
            return cur == t
        if not feasible(cur):
            return False
        for nxt in adj[cur]:
            if visited[nxt]:
                continue
            if nxt == t and len(path) != n - 1:
                continue
            visited[nxt] = True
            path.append(nxt)
            if dfs(nxt):
                return True
            path.pop()
            visited[nxt] = False
        return False

    return path if dfs(s) else None


# ---------------------------------------------------------------------------
# Complete graphs (J(n,1), J(n,n-1) and friends).


def hamilton_complete(vertices, s, t) -> Path:
    """Hamilton path of a complete graph: s, the rest in canonical order, t."""
    if s == t:
        raise EqualEndpoints(f"endpoints coincide: {s}")
    vertices = list(vertices)
    if s not in vertices or t not in vertices:
        raise NotAVertex("an endpoint is not among the given vertices")
    middle = sorted((v for v in vertices if v != s and v != t), key=_sort_key)
    return Path(tuple([s, *middle, t]))


# ---------------------------------------------------------------------------
# Johnson graphs.


def _ham_small(n: int, levels: tuple, s: int, t: int) -> list[int]:
    generic, verts = mask_generic(n, levels)
    found = hamilton_bruteforce(generic, verts.index(s), verts.index(t))
    if found is None:
        raise CoverError(
            f"no Hamilton path from {s:#x} to {t:#x} in QJ({n},{set(levels)})"
        )
    return [verts[i] for i in found]


def hamilton_johnson(g: JohnsonGraph, s: ElementSet, t: ElementSet) -> Path:
    if s == t:
        raise EqualEndpoints(f"endpoints coincide: {s}")
    if not (g.has_vertex(s) and g.has_vertex(t)):
        raise NotAVertex(f"{s} or {t} not a vertex of {g}")
    return mask_path(_ham_johnson(g.n, g.k, s.bits, t.bits), g.n)


def _drop_n(v: int, n: int) -> int:
    """Y-vertex of J(n,k) to its vertex of J(n-1,k-1)."""
    return v & ~(1 << n)


def _lift_y(vs, n: int) -> list[int]:
    """Vertices of J(n-1,k-1) to their Y-vertices in J(n,k)."""
    nbit = 1 << n
    return [v | nbit for v in vs]


def _y_neighbors(a: int, n: int) -> list[int]:
    """Neighbors of an X-vertex inside Y, bit-vector order: swap one element for n."""
    nbit = 1 << n
    return sorted(a ^ (1 << e) | nbit for e in mask_elements(a))


def _x_neighbors(a: int, n: int) -> list[int]:
    """Neighbors of a Y-vertex inside X, bit-vector order: swap n for a
    missing element."""
    base = a & ~(1 << n)
    return [base | (1 << e) for e in range(1, n) if not a >> e & 1]


def _ham_johnson(n: int, k: int, s: int, t: int) -> list[int]:
    key = (n, k, s, t)
    hit = _JOHNSON_CACHE.get(key)
    if hit is not None:
        return list(hit)
    result = _ham_johnson_build(n, k, s, t)
    _JOHNSON_CACHE[key] = tuple(result)
    return result


def _ham_johnson_build(n, k, s, t):
    if 2 * k > n:
        # J(n,k) and J(n,n-k) are isomorphic under complementation.
        full = full_mask(n)
        return [full ^ v for v in _ham_johnson(n, n - k, full ^ s, full ^ t)]
    if k == 1:
        return list(hamilton_complete(k_masks(n, 1), s, t))
    if comb(n, k) <= BRUTE_FORCE_LIMIT:
        return _ham_small(n, (k,), s, t)

    nbit = 1 << n
    s_in_y = bool(s & nbit)
    t_in_y = bool(t & nbit)

    if not s_in_y and not t_in_y:
        h = _ham_johnson(n - 1, k, s, t)
        a, b = h[0], h[1]
        ap = _y_neighbors(a, n)[0]
        bp = next(w for w in _y_neighbors(b, n) if w != ap)
        detour = _lift_y(_ham_johnson(n - 1, k - 1, _drop_n(ap, n), _drop_n(bp, n)), n)
        return [h[0], *detour, *h[1:]]

    if s_in_y and t_in_y:
        h = _lift_y(_ham_johnson(n - 1, k - 1, _drop_n(s, n), _drop_n(t, n)), n)
        a, b = h[0], h[1]
        ap = _x_neighbors(a, n)[0]
        bp = next(w for w in _x_neighbors(b, n) if w != ap)
        return [h[0], *_ham_johnson(n - 1, k, ap, bp), *h[1:]]

    if s_in_y:
        return list(reversed(_ham_johnson_build(n, k, t, s)))

    # s in X, t in Y: end the X-path at an auxiliary vertex bridging into Y.
    a = next(v for v in k_masks(n - 1, k) if v != s)
    ap = next(w for w in _y_neighbors(a, n) if w != t)
    h2 = _lift_y(_ham_johnson(n - 1, k - 1, _drop_n(ap, n), _drop_n(t, n)), n)
    return _ham_johnson(n - 1, k, s, a) + h2


# ---------------------------------------------------------------------------
# Stacked Johnson graphs.


def hamilton_qj(g: QJGraph, s: ElementSet, t: ElementSet) -> Path:
    if s == t:
        raise EqualEndpoints(f"endpoints coincide: {s}")
    if not (g.has_vertex(s) and g.has_vertex(t)):
        raise NotAVertex(f"{s} or {t} not a vertex of {g}")
    return mask_path(_ham_qj(g.n, g.levels.levels, s.bits, t.bits), g.n)


def _ham_qj(n: int, levels: tuple, s: int, t: int) -> list[int]:
    if len(levels) == 1:
        return _ham_johnson(n, levels[0], s, t)
    key = (n, levels, s, t)
    hit = _QJ_CACHE.get(key)
    if hit is not None:
        return list(hit)
    result = _ham_qj_build(n, levels, s, t)
    _QJ_CACHE[key] = tuple(result)
    return result


def _ham_qj_build(n, levels, s, t):
    if sum(comb(n, a) for a in levels) <= BRUTE_FORCE_LIMIT:
        return _ham_small(n, levels, s, t)

    top = levels[-1]
    below = levels[-2]
    lower = levels[:-1]
    s_top = s.bit_count() == top
    t_top = t.bit_count() == top

    if not s_top and not t_top:
        h = _ham_qj(n, lower, s, t)
        i = _find_level_edge(h, below)
        a, b = h[i], h[i + 1]
        if top == n:
            return [*h[: i + 1], full_mask(n), *h[i + 1 :]]
        ap = up_masks(a, n, top)[0]
        bp = next(w for w in up_masks(b, n, top) if w != ap)
        return [*h[: i + 1], *_ham_johnson(n, top, ap, bp), *h[i + 1 :]]

    if s_top and t_top:
        h = _ham_johnson(n, top, s, t)
        a, b = h[0], h[1]
        ap = down_masks(a, below)[0]
        bp = next(w for w in down_masks(b, below) if w != ap)
        return [h[0], *_ham_qj(n, lower, ap, bp), *h[1:]]

    if s_top:
        return list(reversed(_ham_qj_build(n, levels, t, s)))

    # s below, t in the top level: bridge through a cross edge.
    a = next(v for v in k_masks(n, below) if v != s)
    if top == n:
        return _ham_qj(n, lower, s, a) + [t]
    ap = next(w for w in up_masks(a, n, top) if w != t)
    return _ham_qj(n, lower, s, a) + _ham_johnson(n, top, ap, t)


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
