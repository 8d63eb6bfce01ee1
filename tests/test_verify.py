import concurrent.futures
import gc
import random
import tracemalloc
from itertools import permutations

import pytest

from johnson_p2c import (
    ElementSet,
    EndpointQuad,
    JohnsonGraph,
    P2CSolution,
    QJGraph,
    check_hamilton,
    check_p2c,
    clear_caches,
    fig1_counterexample,
    hamilton_bruteforce,
    k_subsets,
    p2c_bruteforce,
    p2c_johnson,
    sweep,
)
from johnson_p2c.errors import SweepBudget, TooFewVertices, TooLargeForOracle
from johnson_p2c.graphs import GenericGraph
from johnson_p2c.hamilton import Path, _cover_search


def es(elems, n):
    return ElementSet.from_elements(elems, n)


def path(n, *sets):
    return Path(tuple(es(s, n) for s in sets))


def quad(n, *pairs):
    return EndpointQuad(*(es(p, n) for p in pairs))


class TestCheckHamilton:
    def test_valid_k3(self):
        g = JohnsonGraph(3, 1)
        p = path(3, [1], [2], [3])
        assert check_hamilton(g, p, es([1], 3), es([3], 3)).valid

    def test_partial_cover_rejected(self):
        g = JohnsonGraph(4, 2)
        p = path(4, [1, 3], [1, 4], [3, 4], [2, 4])
        report = check_hamilton(g, p, es([1, 3], 4), es([2, 4], 4))
        assert not report.valid
        assert report.violations[0][0] == "NotCovering"

    def test_repeat_rejected(self):
        g = JohnsonGraph(3, 1)
        p = path(3, [1], [2], [1])
        report = check_hamilton(g, p, es([1], 3), es([1], 3))
        assert any(code == "RepeatedVertex" for code, _ in report.violations)

    def test_wrong_endpoint(self):
        g = JohnsonGraph(3, 1)
        p = path(3, [1], [2], [3])
        report = check_hamilton(g, p, es([2], 3), es([3], 3))
        assert report.violations[0][0] == "BadEndpoint"

    def test_non_edge_step(self):
        g = JohnsonGraph(4, 2)
        p = Path(tuple(k_subsets(4, 2)))
        report = check_hamilton(g, p, p[0], p[-1])
        assert any(code == "NotAdjacentStep" for code, _ in report.violations)


class TestCheckP2C:
    def _row1(self):
        q = quad(4, [1, 2], [1, 3], [2, 3], [2, 4])
        sol = P2CSolution(
            path(4, [1, 2], [1, 4], [1, 3]), path(4, [2, 3], [3, 4], [2, 4])
        )
        return q, sol

    def test_row1_valid(self):
        g = JohnsonGraph(4, 2)
        q, sol = self._row1()
        assert check_p2c(g, q, sol).valid

    def test_orientation_tolerant(self):
        g = JohnsonGraph(4, 2)
        _, sol = self._row1()
        flipped = quad(4, [1, 2], [1, 3], [2, 4], [2, 3])
        assert check_p2c(g, flipped, sol).valid

    def test_intersecting_paths_rejected(self):
        g = JohnsonGraph(4, 2)
        q = quad(4, [1, 2], [3, 4], [1, 3], [2, 4])
        sol = P2CSolution(
            path(4, [1, 2], [2, 3], [3, 4]), path(4, [1, 3], [3, 4], [2, 4])
        )
        report = check_p2c(g, q, sol)
        assert any(code == "PathsIntersect" for code, _ in report.violations)

    def test_mutation_drop_last(self):
        g = JohnsonGraph(4, 2)
        q, sol = self._row1()
        broken = P2CSolution(sol.path_uv, Path(sol.path_xy.vertices[:-1]))
        report = check_p2c(g, q, broken)
        assert not report.valid

    def test_mutation_swap_interior_across_paths(self):
        g = JohnsonGraph(4, 2)
        q, sol = self._row1()
        p1 = list(sol.path_uv)
        p2 = list(sol.path_xy)
        p1[1], p2[1] = p2[1], p1[1]
        report = check_p2c(g, q, P2CSolution(Path(tuple(p1)), Path(tuple(p2))))
        assert not report.valid

    def test_foreign_vertex(self):
        g = JohnsonGraph(4, 2)
        q, sol = self._row1()
        bad = P2CSolution(
            Path((q.u, es([1], 4), q.v)), sol.path_xy
        )
        report = check_p2c(g, q, bad)
        assert any(code == "ForeignVertex" for code, _ in report.violations)


class TestOracle:
    def test_fig1_counterexample_quad(self):
        g, (u, v, x, y) = fig1_counterexample()
        assert p2c_bruteforce(g, EndpointQuad(u, v, x, y)) is None

    def test_fig1_regression_quad(self):
        # a quad that does admit a cover: recorded as a regression value
        g, _ = fig1_counterexample()
        sol = p2c_bruteforce(g, EndpointQuad(0b000, 0b010, 0b001, 0b011))
        assert sol is not None
        assert check_p2c(g, EndpointQuad(0b000, 0b010, 0b001, 0b011), sol).valid

    def test_j42_row6_quad(self):
        g = JohnsonGraph(4, 2)
        q = quad(4, [1, 2], [3, 4], [1, 3], [2, 4])
        sol = p2c_bruteforce(g, q)
        assert sol is not None and check_p2c(g, q, sol).valid

    def test_cap(self):
        with pytest.raises(TooLargeForOracle):
            p2c_bruteforce(
                JohnsonGraph(7, 3), quad(7, [1, 2, 3], [4, 5, 6], [1, 2, 4], [3, 5, 7])
            )

    def test_shared_endpoint_rejected(self):
        from johnson_p2c.errors import BadQuad

        g = JohnsonGraph(4, 2)
        with pytest.raises(BadQuad):
            p2c_bruteforce(
                g,
                EndpointQuad(
                    es([1, 2], 4), es([3, 4], 4), es([1, 2], 4), es([1, 3], 4)
                ),
            )

    def test_agrees_with_constructor_on_j42(self):
        g = JohnsonGraph(4, 2)
        for four in permutations(list(g.vertices()), 4):
            q = EndpointQuad(*four)
            oracle = p2c_bruteforce(g, q)
            built = p2c_johnson(g, q)
            assert oracle is not None
            assert check_p2c(g, q, oracle).valid
            assert check_p2c(g, q, built).valid


def test_exact_searches_leave_no_reference_cycles():
    # A search whose state lives in self-referencing closures leaves a
    # cycle behind on every call, which only the cyclic collector frees.
    g = JohnsonGraph(5, 2)
    verts = list(g.vertices())
    quads = [EndpointQuad(*verts[i : i + 4]) for i in range(0, 7, 2)]
    fig1, _ = fig1_counterexample()
    clear_caches()
    gc.collect()
    gc.disable()
    try:
        for q in quads:
            assert p2c_bruteforce(g, q) is not None
        for s, t in permutations(range(8), 2):
            assert hamilton_bruteforce(fig1, s, t) is not None
        freed = gc.collect()
    finally:
        gc.enable()
    assert freed == 0


def _unpruned_cover(adj, pairs):
    """Reference for the exact search: the same depth-first order without
    pruning.  Pruning only cuts branches that hold no cover, so both must
    return the same first cover, or both None."""
    used = {s for s, _ in pairs}
    paths = [[s] for s, _ in pairs]

    def grow(i):
        cur, t = paths[i][-1], pairs[i][1]
        last = i == len(pairs) - 1
        if cur == t:
            return len(used) == len(adj) if last else grow(i + 1)
        later_terminals = {z for _, z in pairs[i + 1 :]}
        for nxt in adj[cur]:
            if nxt in used or nxt in later_terminals:
                continue
            if last and nxt == t and len(used) + 1 != len(adj):
                continue
            used.add(nxt)
            paths[i].append(nxt)
            if grow(i):
                return True
            paths[i].pop()
            used.discard(nxt)
        return False

    return paths if grow(0) else None


def test_exact_search_matches_unpruned_search():
    rng = random.Random(11)
    for _ in range(40):
        nv = rng.randint(4, 8)
        edges = [(a, b) for a in range(nv) for b in range(a + 1, nv) if rng.random() < 0.5]
        adj = GenericGraph(nv, edges).adjacency
        for s, t in permutations(range(nv), 2):
            assert _cover_search(adj, ((s, t),)) == _unpruned_cover(adj, ((s, t),))
        quads = list(permutations(range(nv), 4))
        for u, v, x, y in rng.sample(quads, min(30, len(quads))):
            pairs = ((u, v), (x, y))
            assert _cover_search(adj, pairs) == _unpruned_cover(adj, pairs)


class TestSweep:
    def test_j42_exhaustive(self):
        summary = sweep(JohnsonGraph(4, 2), mode="exhaustive", constructor="johnson")
        assert summary.total == 360
        assert summary.valid == 360
        assert summary.invalid == 0 and summary.errors == 0

    def test_k4_complete(self):
        summary = sweep(JohnsonGraph(4, 1), mode="exhaustive", constructor="complete")
        assert summary.total == 24 and summary.valid == 24

    def test_fig1_oracle_finds_uncoverable_quad(self):
        g, _ = fig1_counterexample()
        summary = sweep(g, mode="exhaustive", constructor="oracle")
        assert summary.invalid > 0
        assert any(f.get("error") == "NoSolution" for f in summary.failures)

    def test_sampled_reproducible(self):
        g = QJGraph(4, [1, 2])
        a = sweep(g, mode="sampled", constructor="qj", seed=3, count=50)
        b = sweep(g, mode="sampled", constructor="qj", seed=3, count=50)
        assert a.to_json() == b.to_json()
        assert a.valid == 50

    def test_budget(self):
        with pytest.raises(SweepBudget):
            sweep(JohnsonGraph(8, 4), mode="exhaustive", budget=1000)

    def test_parallel_matches_serial(self):
        g = JohnsonGraph(4, 2)
        serial = sweep(g, mode="exhaustive", constructor="johnson", jobs=1)
        parallel = sweep(g, mode="exhaustive", constructor="johnson", jobs=2)
        assert serial.to_json() == parallel.to_json()

    @pytest.mark.parametrize(
        "graph, constructor, mode",
        [
            (fig1_counterexample()[0], "oracle", "exhaustive"),
            (QJGraph(5, [1, 2, 4]), "qj", "sampled"),
        ],
        ids=["fig1-oracle", "qj5-124"],
    )
    def test_parallel_matches_serial_beyond_johnson(self, graph, constructor, mode):
        # Workers get the graph, pickled, and draw their own quads, so every
        # graph kind sweeps in parallel, the explicit fixture included.
        kwargs = dict(mode=mode, constructor=constructor, seed=5, count=200)
        serial = sweep(graph, jobs=1, **kwargs)
        parallel = sweep(graph, jobs=2, **kwargs)
        assert serial.to_json() == parallel.to_json()

    @pytest.mark.parametrize(
        "graph, constructor",
        [
            (JohnsonGraph(5, 2), "johnson"),
            (JohnsonGraph(5, 2), "complete"),
            (QJGraph(5, (3, 5)), "qj"),
            (QJGraph(5, (3, 5)), "complete"),
        ],
        ids=["j52", "j52-complete", "qj5-35", "qj5-35-complete"],
    )
    def test_exhaustive_parallel_matches_serial(self, graph, constructor):
        # The complete-graph cover is no cover of these graphs, so the
        # failure records are compared too.
        serial = sweep(graph, mode="exhaustive", constructor=constructor, jobs=1)
        parallel = sweep(graph, mode="exhaustive", constructor=constructor, jobs=2)
        assert serial == parallel
        assert (serial.invalid > 0) == (constructor == "complete")

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_parallel_workers_get_index_ranges(self, mode, monkeypatch):
        # Workers get index ranges of the quad order, not lists of quads.
        given = []

        class InProcess:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                items = list(items)
                given.extend(items)
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
        g = JohnsonGraph(5, 2)
        kwargs = dict(mode=mode, seed=3, count=1000)
        summary = sweep(g, jobs=3, **kwargs)
        total = 5040 if mode == "exhaustive" else 1000
        third = -(-total // 3)
        assert given == [(0, third), (third, 2 * third), (2 * third, total)]
        assert summary == sweep(g, jobs=1, **kwargs)
        assert summary.total == summary.valid == total

    @pytest.mark.parametrize(
        "graph, own",
        [
            (JohnsonGraph(5, 2), "johnson"),
            (QJGraph(5, (1, 2)), "qj"),
            (fig1_counterexample()[0], "oracle"),
        ],
        ids=["johnson", "qj", "fig1"],
    )
    def test_default_constructor_is_the_graphs_own(self, graph, own):
        summary = sweep(graph, mode="sampled", count=300, seed=2)
        assert summary == sweep(graph, mode="sampled", count=300, seed=2, constructor=own)
        assert summary.total == 300 and summary.errors == 0
        if own == "oracle":
            # fig1 is the graph with quads no cover joins.
            assert summary.invalid > 0
            assert {f["error"] for f in summary.failures} == {"NoSolution"}
        else:
            assert summary.valid == 300

    @pytest.mark.parametrize(
        "graph, name, kind",
        [
            (QJGraph(5, (1, 2)), "johnson", "qj"),
            (QJGraph(5, (2,)), "johnson", "qj"),
            (fig1_counterexample()[0], "johnson", "generic"),
            (fig1_counterexample()[0], "qj", "generic"),
        ],
    )
    def test_constructor_that_cannot_run_is_refused(self, graph, name, kind):
        # Refused before any quad runs: ahead even of the budget check.
        message = f"constructor '{name}' cannot run on a {kind} graph"
        with pytest.raises(ValueError, match=message):
            sweep(graph, constructor=name, budget=0)

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    @pytest.mark.parametrize(
        "graph, cap", [(JohnsonGraph(7, 3), 20), (JohnsonGraph(6, 3), 19)]
    )
    def test_oracle_above_its_cap_is_refused(self, graph, cap, mode):
        # Refused before any quad runs: every quad would fail alike, and the
        # exhaustive sweep of J(7,3) would try 1,256,640 of them.
        message = f"^{graph.vertex_count} vertices exceeds oracle cap {cap}$"
        with pytest.raises(TooLargeForOracle, match=message):
            sweep(graph, mode=mode, constructor="oracle", count=5, oracle_cap=cap)

    def test_failing_sweep_holds_a_bounded_number_of_records(self):
        # The complete-graph cover fails every quad of J(6,3).  The summary
        # lists 10 failure records; holding all 20,000 peaked at 24 MB.
        tracemalloc.start()
        try:
            summary = sweep(
                JohnsonGraph(6, 3),
                mode="sampled",
                constructor="complete",
                seed=1,
                count=20_000,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary.invalid == 20_000 and len(summary.failures) == 10
        assert peak < 2 * 2**20

    def test_qj_constructor_runs_on_johnson(self):
        summary = sweep(JohnsonGraph(5, 2), constructor="qj")
        assert summary.total == summary.valid == 5040

    def test_sampled_needs_positive_count(self):
        g = JohnsonGraph(5, 2)
        for count in (0, -3):
            with pytest.raises(ValueError):
                sweep(g, mode="sampled", count=count)

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_too_few_vertices_is_an_error(self, mode):
        # J(3,1) has no quadruple: an empty sweep must not read as success.
        with pytest.raises(TooFewVertices):
            sweep(JohnsonGraph(3, 1), mode=mode)
