"""Sweeps beyond the acceptance sizes (slow tier): every cover certified.

Run with ``pytest -m slow``.  One test sweeps every quad of the 11
``QJ(6,A)`` with 4 to 20 vertices, 300,600 quads, in two worker processes;
another sweeps every quad of ``J(7,2..5)``, 2,800,560 quads, the same way;
the last samples 500 quads of every ``J(8..11,k)`` with 2 <= k <= n-2.
"""

from itertools import combinations
from math import perm

import pytest

from johnson_p2c import JohnsonGraph, QJGraph, sweep


@pytest.mark.slow
def test_qj6_up_to_20_vertices_exhaustive():
    graphs = [
        QJGraph(6, A)
        for r in range(1, 7)
        for A in combinations(range(1, 7), r)
    ]
    graphs = [g for g in graphs if 4 <= g.vertex_count <= 20]
    assert len(graphs) == 11
    total = 0
    for g in graphs:
        summary = sweep(g, mode="exhaustive", jobs=2)
        assert summary.total == perm(g.vertex_count, 4), g
        assert summary.valid == summary.total, (g, summary.failures)
        total += summary.total
    assert total == 300_600


@pytest.mark.slow
@pytest.mark.parametrize("k", range(2, 6))
def test_johnson7_exhaustive(k):
    g = JohnsonGraph(7, k)
    summary = sweep(g, mode="exhaustive", jobs=2)
    assert summary.total == perm(g.vertex_count, 4), g
    assert summary.valid == summary.total, (g, summary.failures)


@pytest.mark.slow
@pytest.mark.parametrize("n", range(8, 12))
def test_johnson_sampled(n):
    for k in range(2, n - 1):
        summary = sweep(JohnsonGraph(n, k), mode="sampled", count=500)
        assert summary.valid == summary.total == 500, (n, k, summary.failures)
