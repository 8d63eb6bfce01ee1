"""Property tests of the constructors beyond the exhaustive sizes (slow tier).

Run with ``pytest -m slow``.  Hypothesis draws a graph, J(n,k) with
1 <= k <= n-1 or QJ(n,A) with at least 4 vertices, n in 4..11, and a quad
or a pair of its vertex masks; the graph's own constructor (``builder_of``)
or ``hamilton_masks`` builds on them, and ``verify.certify``, which shares
no code with the builders, is the oracle.  The runs are derandomized and
keep no example database, so every run draws the same examples.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from johnson_p2c import JohnsonGraph, QJGraph
from johnson_p2c.hamilton import hamilton_masks
from johnson_p2c.verify import builder_of, certify, host_of

pytestmark = pytest.mark.slow

PROPERTY_SETTINGS = settings(
    max_examples=500,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw):
    n = draw(st.integers(4, 11))
    if draw(st.booleans()):
        return JohnsonGraph(n, draw(st.integers(1, n - 1)))
    levels = draw(st.sets(st.integers(1, n), min_size=1))
    g = QJGraph(n, sorted(levels))
    # With n >= 4 a level below n holds 4+ vertices: only the apex alone,
    # A = {n}, holds fewer; it stands for the whole stack.
    return g if g.vertex_count >= 4 else QJGraph(n, range(1, n + 1))


@st.composite
def instances(draw, size):
    g = draw(graphs())
    verts = host_of(g).vertices()
    picks = draw(st.lists(st.sampled_from(verts), min_size=size, max_size=size, unique=True))
    return g, tuple(picks)


@PROPERTY_SETTINGS
@given(instances(4))
def test_covers_certify(instance):
    g, quad = instance
    paths = builder_of(g)(g, quad)
    report = certify(host_of(g), paths, (quad[:2], quad[2:]))
    assert report.valid, (g, quad, report)


@PROPERTY_SETTINGS
@given(instances(2))
def test_hamilton_paths_certify(instance):
    g, (s, t) = instance
    report = certify(host_of(g), [hamilton_masks(g, s, t)], ((s, t),))
    assert report.valid, (g, s, t, report)
