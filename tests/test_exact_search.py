"""One exact search on masks serves every small J(n,k) and QJ(n,A).

The Hamilton builders' small case, the Johnson constructor's oracle base
case and the oracle on a Johnson or QJ graph all run
``hamilton._search_masks``.  None of them goes back through the public,
validating, object-wrapping searches ``p2c_bruteforce`` and
``hamilton_bruteforce``, and ``_search_masks`` returns what those return,
mapped to masks.
"""

import hashlib
import importlib
import random
import sys
from itertools import combinations, permutations

import pytest

from johnson_p2c import (
    EndpointQuad,
    GenericGraph,
    JohnsonGraph,
    QJGraph,
    clear_caches,
    hamilton_bruteforce,
    p2c_bruteforce,
    sweep,
)
from johnson_p2c.hamilton import _search_masks
from johnson_p2c.subsets import k_masks

p2c_module = importlib.import_module("johnson_p2c.p2c_qj")


def _level_graphs(max_n, max_vertices):
    """Every J(n,k) and QJ(n,A) with n <= max_n and 2..max_vertices vertices."""
    graphs = [JohnsonGraph(n, k) for n in range(1, max_n + 1) for k in range(1, n)]
    graphs += [
        QJGraph(n, A)
        for n in range(1, max_n + 1)
        for r in range(1, n + 1)
        for A in combinations(range(1, n + 1), r)
    ]
    return [g for g in graphs if 2 <= g.vertex_count <= max_vertices]


def _explicit(g):
    """g as an explicit graph built from its own vertices and adjacency, and
    the vertex masks in index order."""
    verts = list(g.vertices())
    edges = [
        (i, j)
        for (i, a), (j, b) in combinations(enumerate(verts), 2)
        if g.adjacent(a, b)
    ]
    return GenericGraph(len(verts), edges), [w.bits for w in verts]


def test_nothing_goes_back_through_the_public_searches(monkeypatch):
    calls = []
    for public in (p2c_bruteforce, hamilton_bruteforce):

        def counting(*args, _public=public, **kwargs):
            calls.append(_public.__name__)
            return _public(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "johnson_p2c" or name.startswith("johnson_p2c."):
                for attr, value in list(vars(module).items()):
                    if value is public:
                        monkeypatch.setattr(module, attr, counting)

    clear_caches()
    for g in (JohnsonGraph(6, 3), QJGraph(5, (1, 2, 3))):
        summary = sweep(g, mode="sampled", count=300, seed=4)
        assert summary.valid == summary.total == 300
    g = JohnsonGraph(10, 5)
    quad = tuple(k_masks(10, 5))[:4]
    p1, p2 = p2c_module.p2c_masks(g, quad)
    assert len(p1) + len(p2) == g.vertex_count
    assert calls == []


def test_hamilton_search_matches_the_public_search():
    graphs = _level_graphs(12, 12)
    assert len(graphs) > 40
    for g in graphs:
        explicit, masks = _explicit(g)
        levels = tuple(g.levels)
        for (i, s), (j, t) in permutations(enumerate(masks), 2):
            found = hamilton_bruteforce(explicit, i, j)
            expected = None if found is None else [[masks[z] for z in found]]
            assert _search_masks(g.n, levels, ((s, t),)) == expected, (g, s, t)


def test_p2c_search_matches_the_public_search():
    graphs = [g for g in _level_graphs(6, 20) if g.vertex_count >= 4]
    assert len(graphs) > 40
    for g in graphs:
        explicit, masks = _explicit(g)
        levels = tuple(g.levels)
        rng = random.Random(repr(g))
        verts = list(g.vertices())
        for _ in range(8):
            idx = rng.sample(range(len(masks)), 4)
            u, v, x, y = (masks[i] for i in idx)
            by_index = p2c_bruteforce(explicit, EndpointQuad(*idx))
            on_graph = p2c_bruteforce(g, EndpointQuad(*(verts[i] for i in idx)))
            found = _search_masks(g.n, levels, ((u, v), (x, y)))
            if by_index is None:
                assert found is None and on_graph is None, (g, idx)
                continue
            assert found == [[masks[z] for z in p] for p in by_index], (g, idx)
            assert found == [[w.bits for w in p] for p in on_graph], (g, idx)


# One sha256 per small graph that the constructors search, over the search's
# answer to every ordered Hamilton pair and then every ordered P2C quad, in
# the order ``permutations`` lists them from the vertices in bit-vector order.
# Recorded before the search ran on its per-graph tables; a change of
# pruning rule or table must leave every answer as it was.
SEARCH_DIGESTS = {
    (4, (2,)): "b09e8bdc7cf82506259df8b5ee400806d3cdff69a69ace9719b24ab67049e824",
    (5, (2,)): "0ec7cbcd3da34279c4920062eaf38bc505371474cb46d62041f9867f2d29b24c",
    (5, (3,)): "4ac84296315f1f0c7961f12f0d067d457e700664244d29c929e4a98f2d350bd4",
    (4, (2, 3)): "38f8c5eae5dd88fff0a525b7725f614091a32ee265057ddb16d6efa32a13a797",
}


@pytest.mark.parametrize("n, levels", list(SEARCH_DIGESTS), ids=repr)
def test_search_answers_are_pinned(n, levels):
    verts = [b for a in levels for b in k_masks(n, a)]
    digest = hashlib.sha256()
    for s, t in permutations(verts, 2):
        digest.update(repr(_search_masks(n, levels, ((s, t),))).encode())
    for u, v, x, y in permutations(verts, 4):
        digest.update(repr(_search_masks(n, levels, ((u, v), (x, y)))).encode())
    assert digest.hexdigest() == SEARCH_DIGESTS[n, levels]
