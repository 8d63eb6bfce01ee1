import pickle
import random
import re
from itertools import combinations

import pytest

from johnson_p2c import (
    ElementSet,
    EndpointQuad,
    GenericGraph,
    JohnsonGraph,
    LevelSpec,
    QJGraph,
    fig1_counterexample,
    hamilton_johnson,
    hamilton_qj,
    p2c_johnson,
    p2c_qj,
    to_dot,
)
from johnson_p2c.errors import NotAVertex
from johnson_p2c.hamilton import _mask_search


def es(elems, n):
    return ElementSet.from_elements(elems, n)


class TestJohnsonGraph:
    def test_vertices_j42(self):
        g = JohnsonGraph(4, 2)
        verts = list(g.vertices())
        assert len(verts) == 6
        assert verts == sorted(verts)
        assert es([1, 2], 4) in verts and es([3, 4], 4) in verts

    def test_vertex_counts(self):
        assert JohnsonGraph(4, 1).vertex_count == 4
        assert JohnsonGraph(6, 3).vertex_count == 20

    def test_regularity(self):
        for n in range(2, 9):
            for k in range(1, n):
                g = JohnsonGraph(n, k)
                deg = k * (n - k)
                assert all(len(g.neighbors(v)) == deg for v in g.vertices())

    def test_not_a_vertex(self):
        g = JohnsonGraph(4, 2)
        assert not g.has_vertex(es([1], 4))

    @pytest.mark.parametrize("g", [JohnsonGraph(4, 2), QJGraph(4, [1, 2])])
    def test_a_non_element_set_is_no_vertex(self, g):
        # An int, even the mask of a vertex, is no vertex of an implicit graph.
        for w in (3, 0b110, None, "12", (1, 2)):
            assert not g.has_vertex(w)
            with pytest.raises(NotAVertex):
                g.neighbors(w)

    @pytest.mark.parametrize("n, k", [(0, 0), (-1, 0)])
    def test_empty_ground_set_is_refused(self, n, k):
        with pytest.raises(ValueError, match="ground set size"):
            JohnsonGraph(n, k)


    def test_adjacent_needs_both_at_level_k(self):
        # Two non-vertices of different sizes that differ in two elements.
        g = JohnsonGraph(4, 2)
        assert not g.adjacent(es([1], 4), es([1, 2, 3], 4))
        assert not g.adjacent(es([1, 2], 4), es([1, 2, 3, 4], 4))
        assert not g.adjacent(es([1, 2, 3], 4), es([1, 2, 4], 4))
        assert g.adjacent(es([1, 2], 4), es([1, 3], 4))


class TestOneLevel:
    """J(n,k) is the one-level graph QJ(n,{k})."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_johnson_agrees_with_one_level_qj(self, n):
        subsets = [ElementSet(b << 1, n) for b in range(1 << n)]
        for k in range(1, n):
            j, q = JohnsonGraph(n, k), QJGraph(n, (k,))
            assert j.vertex_count == q.vertex_count
            assert list(j.vertices()) == list(q.vertices())
            for a in subsets:
                assert j.has_vertex(a) == q.has_vertex(a)
                assert [j.adjacent(a, b) for b in subsets] == [
                    q.adjacent(a, b) for b in subsets
                ]
            for v in j.vertices():
                assert j.neighbors(v) == q.neighbors(v)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_constructors_agree_with_one_level_qj(self, n):
        # Each public constructor builds the same cover or Hamilton path on
        # J(n,k) as on QJ(n,{k}), p2c_johnson included.
        for k in range(1, n):
            j, q = JohnsonGraph(n, k), QJGraph(n, [k])
            rng = random.Random(n * 100 + k)
            for _ in range(20):
                quad = EndpointQuad(*rng.sample(list(j.vertices()), 4))
                for build in (p2c_johnson, p2c_qj):
                    assert build(j, quad) == build(q, quad), (build, j, quad)
                for build in (hamilton_johnson, hamilton_qj):
                    assert build(j, quad.u, quad.v) == build(q, quad.u, quad.v)

    def test_levels_is_stored_once(self):
        g = JohnsonGraph(6, 3)
        assert g.levels == (3,) and g.levels is g.levels
        with pytest.raises(AttributeError):
            g.levels = (2,)

    @pytest.mark.parametrize("k", [0, 4])
    def test_empty_and_full_levels_still_build(self, k):
        g = JohnsonGraph(4, k)
        (v,) = g.vertices()
        assert g.vertex_count == 1 and v.cardinality() == k
        assert g.has_vertex(v) and g.neighbors(v) == []
        assert not isinstance(g, QJGraph)


class TestLevelSpec:
    def test_must_increase(self):
        with pytest.raises(ValueError):
            LevelSpec([2, 2])
        with pytest.raises(ValueError):
            LevelSpec([3, 1])
        with pytest.raises(ValueError):
            LevelSpec([])

    def test_is_a_validated_immutable_tuple(self):
        spec = LevelSpec([1, 3])
        assert isinstance(spec, tuple) and spec == (1, 3)
        assert QJGraph(4, spec).levels is spec
        with pytest.raises(AttributeError):
            spec.levels = (2,)
        with pytest.raises(ValueError):
            LevelSpec([0, 1])


class TestQJGraph:
    def test_vertex_count(self):
        g = QJGraph(4, [1, 3])
        assert g.vertex_count == 4 + 4

    def test_neighbors_cross_and_level(self):
        g = QJGraph(4, [1, 3])
        got = g.neighbors(es([1], 4))
        # 3 same-level singletons + C(3,2)=3 supersets of size 3
        assert len(got) == 6

    def test_apex_level_alone(self):
        g = QJGraph(4, [4])
        assert g.neighbors(es([1, 2, 3, 4], 4)) == []

    def test_neighbors_example_qj5(self):
        g = QJGraph(5, [2, 3])
        assert len(g.neighbors(es([1, 2], 5))) == 6 + 3

    def test_not_a_vertex(self):
        g = QJGraph(4, [1, 3])
        with pytest.raises(NotAVertex):
            g.neighbors(es([1, 2], 4))
        with pytest.raises(NotAVertex):
            g.neighbors(es([1], 5))
        assert not g.has_vertex(es([1, 2], 4))

    def test_neighbor_symmetry(self):
        for n in range(2, 7):
            for m in range(1, n + 1):
                for A in combinations(range(1, n + 1), m):
                    g = QJGraph(n, A)
                    for v in g.vertices():
                        for w in g.neighbors(v):
                            assert v in g.neighbors(w)

    def test_neighbors_match_adjacent(self):
        # The mask-built neighbor lists hold exactly the adjacent vertices,
        # in bit-vector order; the one vertex of J(n,0) or J(n,n) has none.
        graphs = [JohnsonGraph(n, k) for n in range(1, 7) for k in range(n + 1)]
        graphs += [
            QJGraph(n, A)
            for n in range(1, 6)
            for m in range(1, n + 1)
            for A in combinations(range(1, n + 1), m)
        ]
        for g in graphs:
            verts = list(g.vertices())
            for v in verts:
                want = sorted(w for w in verts if w != v and g.adjacent(v, w))
                assert g.neighbors(v) == want

    def test_same_size_non_vertices_not_adjacent(self):
        g = QJGraph(4, [1, 2])
        assert not g.adjacent(es([1, 2, 3], 4), es([1, 2, 4], 4))
        assert g.adjacent(es([1, 2], 4), es([1, 3], 4))

    def test_nonconsecutive_levels_not_adjacent(self):
        g = QJGraph(4, [1, 2, 3])
        # {1} and {1,2,3} are in non-consecutive levels: no containment edge
        assert not g.adjacent(es([1], 4), es([1, 2, 3], 4))


def test_adjacent_is_membership_in_neighbors():
    # Every graph answers only for its own vertices: adjacent(a, b) is a
    # symmetric bool, true iff both are vertices and b is a neighbor of a,
    # and neighbors of anything else raises NotAVertex, naming it without
    # an object address.  Foreign inputs: a vertex's bits over n+1, -1,
    # vertex_count, None and a string.
    graphs = [JohnsonGraph(n, k) for n in range(1, 6) for k in range(n + 1)]
    graphs += [
        QJGraph(n, A)
        for n in range(1, 6)
        for m in range(1, n + 1)
        for A in combinations(range(1, n + 1), m)
    ]
    graphs.append(fig1_counterexample()[0])
    for g in graphs:
        own = list(g.vertices())
        foreign = [-1, g.vertex_count, None, "12"]
        if not isinstance(g, GenericGraph):
            foreign += [ElementSet(v.bits, g.n + 1) for v in own]
        for w in foreign:
            with pytest.raises(NotAVertex, match=re.escape(str(w))) as refused:
                g.neighbors(w)
            assert "0x" not in str(refused.value)
        for a in own + foreign:
            nbrs = g.neighbors(a) if g.has_vertex(a) else ()
            for b in own + foreign:
                got = g.adjacent(a, b)
                assert type(got) is bool and got == g.adjacent(b, a), (g, a, b)
                assert got == (g.has_vertex(b) and b in nbrs), (g, a, b)


class TestGenericGraph:
    def test_symmetry_enforced(self):
        g = GenericGraph(3, [(0, 1), (1, 2)])
        assert g.adjacent(0, 1) and g.adjacent(1, 0)
        assert not g.adjacent(0, 2)
        assert g.edge_count == 2

    @pytest.mark.parametrize("count, edges, message", [
        # Once the one-sided adjacency ((-1,), (2,), (0, 1)), in which 2 saw
        # 0 but 0 did not see 2.
        (3, [(0, -1), (1, 2)], r"^edge \(0, -1\) leaves 0\.\.2$"),
        # Once an IndexError.
        (3, [(0, 5)], r"^edge \(0, 5\) leaves 0\.\.2$"),
        # Once a TypeError from the list index.
        (3, [(0, 1.5)], r"^edge \(0, 1\.5\) leaves 0\.\.2$"),
        (-1, [], r"^negative vertex count -1$"),
    ])
    def test_edges_outside_the_vertices_are_refused(self, count, edges, message):
        with pytest.raises(ValueError, match=message):
            GenericGraph(count, edges)

    def test_fig1(self):
        g, (u, v, x, y) = fig1_counterexample()
        assert g.vertex_count == 8
        assert g.edge_count == 14
        assert sorted(g.neighbors(0b000)) == [0b001, 0b010, 0b011, 0b100]
        assert len(g.neighbors(0b101)) == 3
        assert (u, v, x, y) == (0b000, 0b101, 0b100, 0b001)


class TestExport:
    def test_search_tables_preserve_adjacency(self):
        # The exact search's tables of every J(n,k) with n <= 7 and QJ(n,A)
        # with n <= 6, up to 20 vertices: vertices in the graph's order, and
        # bit j of nbrs[i] set iff vertices i and j are adjacent.
        graphs = [JohnsonGraph(n, k) for n in range(1, 8) for k in range(n + 1)]
        graphs += [
            QJGraph(n, A)
            for n in range(1, 7)
            for r in range(1, n + 1)
            for A in combinations(range(1, n + 1), r)
        ]
        for g in (g for g in graphs if g.vertex_count <= 20):
            masks, index, (nbrs, *_) = _mask_search(g.n, g.levels)
            verts = list(g.vertices())
            assert masks == tuple(v.bits for v in verts)
            assert index == {b: i for i, b in enumerate(masks)}
            for i, a in enumerate(verts):
                assert not nbrs[i] >> i & 1
                for j, b in enumerate(verts):
                    if i != j:
                        assert (nbrs[i] >> j & 1) == g.adjacent(a, b)

    def test_to_dot_mentions_all_vertices(self):
        g = JohnsonGraph(4, 2)
        dot = to_dot(g)
        assert dot.startswith("graph G {")
        for v in g.vertices():
            assert f'"{v!r}"' in dot

    def test_descriptors(self):
        assert JohnsonGraph(4, 2).descriptor() == {"kind": "johnson", "n": 4, "k": 2}
        assert QJGraph(4, [1, 3]).descriptor() == {
            "kind": "qj",
            "n": 4,
            "levels": [1, 3],
        }


def test_graphs_and_vertices_survive_pickling():
    # Parallel sweeps hand graphs and ElementSet quads to worker processes.
    fig1, _ = fig1_counterexample()
    graphs = [JohnsonGraph(6, 3), QJGraph(5, [1, 2, 4]), fig1]
    for g in graphs:
        copy = pickle.loads(pickle.dumps(g))
        assert type(copy) is type(g)
        assert copy.key() == g.key()
        assert copy.descriptor() == g.descriptor()
        assert list(copy.vertices()) == list(g.vertices())
    assert type(pickle.loads(pickle.dumps(graphs[1])).levels) is LevelSpec
    v = ElementSet.from_elements([1, 4], 5)
    copy = pickle.loads(pickle.dumps(v))
    assert copy == v and copy.n == 5 and hash(copy) == hash(v)
