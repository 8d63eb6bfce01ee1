"""The int-native certification core and the sweep path built on it.

``frozen_check_p2c`` and ``frozen_check_hamilton`` below are the
object-level checkers as they stood before the core existed: they ask the
graph's ``has_vertex`` and ``adjacent`` per vertex and step.  The core must
give the same ``CheckReport``s, violation codes and text alike, on valid
covers and on a corpus of mutated ones, whether it is reached through the
public checkers (paths of ``ElementSet``s) or handed masks directly, as
``sweep`` and the constructors' debug check do.
"""

import hashlib
import importlib
import json
import random
from itertools import chain, combinations

import pytest

from johnson_p2c import (
    CheckReport,
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
    hamilton_johnson,
    hamilton_qj,
    p2c_bruteforce,
    p2c_johnson,
    p2c_qj,
    sweep,
)
from johnson_p2c.cli import run
from johnson_p2c.covers import mask_keys
from johnson_p2c.errors import (
    BadQuad,
    CoverError,
    InvariantViolated,
    SelectionExhausted,
)
from johnson_p2c.hamilton import Path
from johnson_p2c.verify import certify, host_of

p2c_module = importlib.import_module("johnson_p2c.p2c_qj")
verify_module = importlib.import_module("johnson_p2c.verify")


def mask_path(masks, n):
    """The reference wrap: every vertex of a path of masks a new ElementSet."""
    return Path(tuple(ElementSet(m, n) for m in masks))


# ---------------------------------------------------------------------------
# The object-level checker, frozen.


def _frozen_steps(g, path, report):
    seen = set(path)
    if len(seen) < len(path) or not all(map(g.has_vertex, path)):
        seen = set()
        for v in path:
            if not g.has_vertex(v):
                report.add("ForeignVertex", f"{v} is not a vertex of the host graph")
                return seen
            if v in seen:
                report.add("RepeatedVertex", f"{v} appears more than once")
                return seen
            seen.add(v)
    if not all(map(g.adjacent, path, path[1:])):
        a, b = next((a, b) for a, b in zip(path, path[1:]) if not g.adjacent(a, b))
        report.add("NotAdjacentStep", f"{a} -- {b} is not an edge")
    return seen


def frozen_check_hamilton(g, p, s, t):
    report = CheckReport()
    path = list(p)
    if not path or path[0] != s or path[-1] != t:
        report.add("BadEndpoint", f"expected endpoints {s} and {t}")
    _frozen_steps(g, path, report)
    if report.valid and len(path) != g.vertex_count:
        report.add(
            "NotCovering", f"{len(path)} of {g.vertex_count} vertices covered"
        )
    return report


def frozen_check_p2c(g, q, sol):
    report = CheckReport()
    p1 = list(sol.path_uv)
    p2 = list(sol.path_xy)
    if not p1 or (p1[0], p1[-1]) not in ((q.u, q.v), (q.v, q.u)):
        report.add("BadEndpoint", f"path_uv endpoints are not {{{q.u},{q.v}}}")
    if not p2 or (p2[0], p2[-1]) not in ((q.x, q.y), (q.y, q.x)):
        report.add("BadEndpoint", f"path_xy endpoints are not {{{q.x},{q.y}}}")
    s1 = _frozen_steps(g, p1, report)
    s2 = _frozen_steps(g, p2, report)
    if not report.valid:
        return report
    shared = s1 & s2
    if shared:
        report.add("PathsIntersect", f"shared vertices: {sorted(map(repr, shared))}")
        return report
    if len(s1) + len(s2) != g.vertex_count:
        report.add(
            "NotCovering",
            f"{len(s1) + len(s2)} of {g.vertex_count} vertices covered",
        )
    return report


# ---------------------------------------------------------------------------
# The corpus: graphs, valid covers and their mutations.


def _levels(g):
    return (g.k,) if isinstance(g, JohnsonGraph) else tuple(g.levels)


def _graphs():
    out = [JohnsonGraph(n, k) for n in range(4, 8) for k in range(1, n)]
    for n in range(4, 7):
        for m in range(1, n + 1):
            for A in combinations(range(1, n + 1), m):
                g = QJGraph(n, A)
                if g.vertex_count >= 4:
                    out.append(g)
    out.append(fig1_counterexample()[0])
    return out


GRAPHS = _graphs()


def _graph_id(g):
    return repr(g) if not hasattr(g, "adjacency") else "fig1"


def _build(g, q):
    if isinstance(g, JohnsonGraph):
        return p2c_johnson(g, q)
    if isinstance(g, QJGraph):
        return p2c_qj(g, q)
    return p2c_bruteforce(g, q)


def _hamilton(g, s, t):
    if isinstance(g, JohnsonGraph):
        return hamilton_johnson(g, s, t)
    if isinstance(g, QJGraph):
        return hamilton_qj(g, s, t)
    return hamilton_bruteforce(g, s, t)


def _foreign(g, v):
    """Vertices that are not of g: a wrong level, a wrong ground set, and for
    the explicit graph, indices out of range and an object of another type."""
    if not isinstance(v, ElementSet):
        return [g.vertex_count, -1, "x"]
    card = next(c for c in range(g.n + 1) if c not in _levels(g))
    return [ElementSet((1 << card + 1) - 2, g.n), ElementSet(v.bits, g.n + 1)]


def _insert_shared(g, p1, p2):
    """p2 with a vertex of p1 spliced in between two of its vertices that are
    both adjacent to it, or None if there is no such spot."""
    for i in range(len(p2) - 1):
        for w in p1:
            if g.adjacent(p2[i], w) and g.adjacent(w, p2[i + 1]):
                return p2[: i + 1] + [w] + p2[i + 1 :]
    return None


def _mutations(g, p1, p2):
    """(name, path_uv, path_xy) for mutated copies of a valid cover."""
    out = [("valid", p1, p2), ("reversed", p1[::-1], p2[::-1])]
    out.append(("swapped_paths", p2, p1))
    for name, a, b in (("uv", p1, p2), ("xy", p2, p1)):

        def put(mutant, name=name, b=b):
            return (mutant, b) if name == "uv" else (b, mutant)

        if len(a) > 2:
            out.append((f"drop_inner_{name}", *put(a[:1] + a[2:])))
            out.append((f"dup_inner_{name}", *put(a[:2] + a[1:])))
            out.append((f"dup_far_{name}", *put(a[:-1] + [a[1], a[-1]])))
            out.append((f"other_path_vertex_{name}", *put(a[:1] + [b[0]] + a[2:])))
            out.append((f"wrong_end_{name}", *put(a[:-2] + [a[-1], a[-2]])))
        if len(a) > 3:
            out.append((f"swap_inner_{name}", *put([a[0], a[2], a[1], *a[3:]])))
            out.append((f"repeat_inner_{name}", *put(a[:2] + [a[1]] + a[3:])))
        out.append((f"reversed_{name}", *put(a[::-1])))
        out.append((f"drop_end_{name}", *put(a[:-1])))
        out.append((f"dup_end_{name}", *put(a + [a[-1]])))
        out.append((f"swap_ends_{name}", *put([a[-1], *a[1:-1], a[0]])))
        out.append((f"empty_{name}", *put([])))
        for i, f in enumerate(_foreign(g, a[0])):
            out.append((f"foreign{i}_inner_{name}", *put(a[:1] + [f] + a[1:])))
            out.append((f"foreign{i}_end_{name}", *put(a[:-1] + [f])))
            if len(a) > 2:
                out.append((f"foreign{i}_for_inner_{name}", *put(a[:1] + [f] + a[2:])))
    out.append(("swap_across", [p1[0], p2[1], *p1[2:]], [p2[0], p1[1], *p2[2:]]))
    shared = _insert_shared(g, p1, p2)
    if shared is not None:
        out.append(("shared", p1, shared))
    return out


def _quads(g, count, seed):
    rng = random.Random(seed)
    verts = list(g.vertices())
    return [EndpointQuad(*rng.sample(verts, 4)) for _ in range(count)]


def _cover_corpus(g, count=3, seed=5):
    for q in _quads(g, count, seed):
        sol = _build(g, q)
        if sol is None:
            continue
        for name, p1, p2 in _mutations(g, list(sol.path_uv), list(sol.path_xy)):
            yield name, q, P2CSolution(Path(tuple(p1)), Path(tuple(p2)))


@pytest.mark.parametrize("g", GRAPHS, ids=_graph_id)
def test_check_p2c_matches_frozen_checker(g):
    codes = set()
    for name, q, sol in _cover_corpus(g):
        want = frozen_check_p2c(g, q, sol).violations
        assert check_p2c(g, q, sol).violations == want, name
        codes.update(code for code, _ in want)
    assert {"BadEndpoint", "ForeignVertex", "RepeatedVertex"} <= codes


def test_corpus_reaches_every_violation_code():
    codes = set()
    for g in GRAPHS[::7]:
        for _, q, sol in _cover_corpus(g):
            codes.update(code for code, _ in frozen_check_p2c(g, q, sol).violations)
    assert codes == {
        "BadEndpoint",
        "ForeignVertex",
        "RepeatedVertex",
        "NotAdjacentStep",
        "PathsIntersect",
        "NotCovering",
    }


@pytest.mark.parametrize("g", GRAPHS, ids=_graph_id)
def test_check_hamilton_matches_frozen_checker(g):
    verts = list(g.vertices())
    rng = random.Random(9)
    for s, t in (rng.sample(verts, 2) for _ in range(2)):
        p = list(_hamilton(g, s, t))
        for name, p1, _ in _mutations(g, p, [s, t]):
            want = frozen_check_hamilton(g, p1, s, t).violations
            assert check_hamilton(g, p1, s, t).violations == want, name
            assert check_hamilton(g, Path(tuple(p1)), s, t).violations == want, name


def _chain_link(host, paths, ends):
    """The first link of ``certify``'s one-pass chain for a graph of at most
    ``SORTED_ABOVE`` vertices that the cover fails, or None if it holds:
    no path empty, each path's ends (either way on a paired cover), the
    lengths, the key set, the steps."""
    if not all(paths):
        return "empty"
    for p, (a, b) in zip(paths, ends):
        if (p[0], p[-1]) != (a, b) and (len(paths) == 1 or (p[-1], p[0]) != (a, b)):
            return "ends"
    if sum(map(len, paths)) != host.count:
        return "length"
    if set().union(*paths) != host.keys():
        return "keys"
    if not all(map(host.steps, paths)):
        return "steps"
    return None


def test_corpus_reaches_every_link_of_the_one_pass_chain(monkeypatch):
    # Every link of the chain stops some cover of the corpus, and each such
    # cover gets the frozen checker's report from the code behind the chain;
    # only a cover that holds at every link skips that code.
    check_steps = verify_module._check_steps
    calls = []

    def counting(*args):
        calls.append(args)
        return check_steps(*args)

    monkeypatch.setattr(verify_module, "_check_steps", counting)
    reached = {"p2c": set(), "hamilton": set()}
    for g in GRAPHS:
        assert g.vertex_count <= verify_module.SORTED_ABOVE
        host = host_of(g)
        for name, q, sol in _cover_corpus(g):
            (u, v, x, y), *paths = host.unwrap((q.vertices(), *sol))
            link = _chain_link(host, paths, ((u, v), (x, y)))
            calls.clear()
            want = frozen_check_p2c(g, q, sol).violations
            assert check_p2c(g, q, sol).violations == want, (name, link)
            assert (link is None) == (not calls) == (not want), (name, link)
            reached["p2c"].add(link)
        s, t = list(g.vertices())[1:3]
        for name, p, _ in _mutations(g, list(_hamilton(g, s, t)), [s, t]):
            (s_, t_), p_ = host.unwrap(((s, t), p))
            link = _chain_link(host, [p_], ((s_, t_),))
            calls.clear()
            want = frozen_check_hamilton(g, p, s, t).violations
            assert check_hamilton(g, p, s, t).violations == want, (name, link)
            assert (link is None) == (not calls) == (not want), (name, link)
            reached["hamilton"].add(link)
    links = {None, "empty", "ends", "length", "keys", "steps"}
    assert reached == {"p2c": links, "hamilton": links}


def test_a_bool_is_foreign_on_an_explicit_graph():
    # Once True passed for the vertex 1, in a path as in the checker's view.
    g, _ = fig1_counterexample()
    q = EndpointQuad(0, 7, 2, 5)
    # Vertex 1, no endpoint, is inner to one of the paths.
    sol = p2c_bruteforce(g, q)
    mutant = P2CSolution(*(Path(tuple(w if w != 1 else True for w in p)) for p in sol))
    want = frozen_check_p2c(g, q, mutant).violations
    assert want[0] == ("ForeignVertex", "True is not a vertex of the host graph")
    assert check_p2c(g, q, mutant).violations == want
    host = host_of(g)
    assert host.unwrap([[0, True, False]]) == [[0, (True,), (False,)]]
    assert not host.holds([True]) and not host.holds([0, False])


@pytest.mark.parametrize("graph", ["J(5,2)", "fig1"])
def test_an_unhashable_vertex_is_foreign(graph):
    # The one-pass chain hashes every key; a list in place of an inner
    # vertex, the length kept, once raised TypeError there.
    if graph == "fig1":
        g, _ = fig1_counterexample()
        q = EndpointQuad(0, 7, 2, 5)
        sol = p2c_bruteforce(g, q)
    else:
        g = JohnsonGraph(5, 2)
        verts = list(g.vertices())
        q = EndpointQuad(verts[0], verts[9], verts[1], verts[2])
        sol = p2c_johnson(g, q)
    paths = [list(p) for p in sol]
    long = max(paths, key=len)
    long[1] = [1]
    mutant = P2CSolution(*(Path(tuple(p)) for p in paths))
    want = [("ForeignVertex", "[1] is not a vertex of the host graph")]
    assert check_p2c(g, q, mutant).violations == want
    assert check_hamilton(g, Path(tuple(long)), long[0], long[-1]).violations == want


def test_an_explicit_graph_keeps_its_key_set():
    g, _ = fig1_counterexample()
    host = host_of(g)
    assert host.keys() is host.keys() == frozenset(range(8))


def test_a_level_graph_keeps_its_key_set(monkeypatch):
    # A sweep certifies every cover on one host, which reads the memo once.
    memo = verify_module._vertex_keys
    reads = []

    def counting(*args):
        reads.append(args)
        return memo(*args)

    monkeypatch.setattr(verify_module, "_vertex_keys", counting)
    host = host_of(QJGraph(5, (2, 3)))
    assert host.keys() is host.keys() == frozenset(host.vertices())
    assert reads == [(5, (2, 3))]


def _silent_mutants(g, p1, p2):
    """(name, path_uv, path_xy) for covers of edges only, as many vertices
    long as g, that still repeat a vertex: a path that steps back to the
    vertex before last in place of one of its own ("revisit"), or one that
    borrows a vertex of the other path in place of one of its own
    ("borrow").  The core finds them on its sorted key list, not on the
    steps or the count."""
    out = []
    for name, a, b in (("uv", p1, p2), ("xy", p2, p1)):

        def put(mutant, name=name, b=b):
            return (mutant, b) if name == "uv" else (b, mutant)

        for i in range(2, len(a) - 1):
            if g.adjacent(a[i - 2], a[i + 1]):
                out.append((f"revisit_{name}", *put(a[:i] + [a[i - 2]] + a[i + 1 :])))
                break
        spot = next(
            (
                (j, w)
                for j in range(1, len(a) - 1)
                for w in b
                if g.adjacent(a[j - 1], w) and g.adjacent(w, a[j + 1])
            ),
            None,
        )
        if spot is not None:
            j, w = spot
            out.append((f"borrow_{name}", *put(a[:j] + [w] + a[j + 1 :])))
    return out


def _silent_corpus(g):
    """(name, quad, cover) for the ``_silent_mutants`` of a few covers of g,
    checked to pass every step and to be exactly g's vertex count long."""
    host = host_of(g)
    for q in _quads(g, 3, 5):
        sol = _build(g, q)
        if sol is None:
            continue
        for name, p1, p2 in _silent_mutants(g, list(sol.path_uv), list(sol.path_xy)):
            keys = host.unwrap((p1, p2))
            assert all(map(host.holds, keys)), name
            assert sum(map(len, keys)) == host.count, name
            yield name, q, P2CSolution(Path(tuple(p1)), Path(tuple(p2)))


@pytest.mark.parametrize("g", GRAPHS, ids=_graph_id)
def test_sorted_key_check_matches_frozen_checker(g, monkeypatch):
    # These graphs are small enough for a set per path; SORTED_ABOVE = 0
    # sends their covers through the sorted key list first.
    monkeypatch.setattr(verify_module, "SORTED_ABOVE", 0)
    for name, q, sol in chain(_cover_corpus(g), _silent_corpus(g)):
        want = frozen_check_p2c(g, q, sol).violations
        assert check_p2c(g, q, sol).violations == want, name
    verts = list(g.vertices())
    rng = random.Random(4)
    for s, t in (rng.sample(verts, 2) for _ in range(2)):
        p = list(_hamilton(g, s, t))
        mutants = [m for m in _silent_mutants(g, p, [s, t]) if m[0] == "revisit_uv"]
        for name, p1, _ in _mutations(g, p, [s, t]) + mutants:
            want = frozen_check_hamilton(g, p1, s, t).violations
            assert check_hamilton(g, p1, s, t).violations == want, name
            if name == "revisit_uv":
                assert [code for code, _ in want] == ["RepeatedVertex"]


def test_silent_corpus_reaches_repeats_and_shared_vertices():
    codes = {}
    for g in GRAPHS:
        for name, q, sol in _silent_corpus(g):
            for code, _ in frozen_check_p2c(g, q, sol).violations:
                codes.setdefault(name.split("_")[0], set()).add(code)
    assert codes == {"revisit": {"RepeatedVertex"}, "borrow": {"PathsIntersect"}}


@pytest.mark.parametrize("g", GRAPHS, ids=_graph_id)
def test_silent_corpus_matches_frozen_checker_on_the_key_set(g):
    # At the default SORTED_ABOVE these covers, as long as g and stepping
    # along edges only, are judged by their union against g's key set.
    assert g.vertex_count <= verify_module.SORTED_ABOVE
    for name, q, sol in _silent_corpus(g):
        want = frozen_check_p2c(g, q, sol).violations
        assert want and check_p2c(g, q, sol).violations == want, name


@pytest.mark.parametrize(
    "g", [JohnsonGraph(6, 3), QJGraph(5, (1, 2, 3)), fig1_counterexample()[0]],
    ids=_graph_id,
)
def test_key_set_check_names_a_foreign_key_and_an_empty_path(g):
    verts = list(g.vertices())
    q = EndpointQuad(*verts[:4])
    p1, p2 = (list(p) for p in _build(g, q))
    longer, other = (p1, p2) if len(p1) > len(p2) else (p2, p1)
    # As many vertices as g, one of them foreign: the key sets differ.
    for foreign in _foreign(g, longer[1]):
        mutant = [longer[0], foreign, *longer[2:]]
        cover = (mutant, other) if longer is p1 else (other, mutant)
        sol = P2CSolution(*(Path(tuple(p)) for p in cover))
        want = frozen_check_p2c(g, q, sol).violations
        assert [code for code, _ in want] == ["ForeignVertex"], foreign
        assert check_p2c(g, q, sol).violations == want, foreign
    # An empty path beside the Hamilton path of the other pair, which covers
    # g alone, and beside the other path of a valid cover.
    whole = list(_hamilton(g, q.x, q.y))
    for cover in (([], whole), ([], p2)):
        sol = P2CSolution(*(Path(tuple(p)) for p in cover))
        want = frozen_check_p2c(g, q, sol).violations
        assert want[0][0] == "BadEndpoint"
        assert check_p2c(g, q, sol).violations == want, len(cover[1])


@pytest.mark.parametrize(
    "g",
    [JohnsonGraph(6, 3), QJGraph(7, (2, 3, 4)), fig1_counterexample()[0]],
    ids=_graph_id,
)
def test_valid_small_covers_are_certified_by_the_key_set(g, monkeypatch):
    # No walk with membership tests, and no per-path set code, for a valid
    # cover of a graph at or below SORTED_ABOVE.
    def refuse(*args):
        raise RuntimeError("a valid small cover took the slow path")

    for host_class in (verify_module._Masks, verify_module._Indices):
        monkeypatch.setattr(host_class, "holds", refuse)
    monkeypatch.setattr(verify_module, "_check_steps", refuse)
    summary = sweep(g, mode="sampled", seed=2, count=200)
    # fig1 is the counterexample: the oracle proves some quads uncoverable.
    assert summary.total == 200 and summary.valid > 150
    assert {f.get("error") for f in summary.failures} <= {"NoSolution"}
    for q in _quads(g, 3, 8):
        sol = _build(g, q)
        assert sol is None or check_p2c(g, q, sol).valid


def test_non_vertex_objects_are_foreign():
    # The object-level checker asked a J(n,k) for ``v.n`` and raised
    # AttributeError on anything but an ElementSet; the core names it.
    g = JohnsonGraph(4, 2)
    q = EndpointQuad(*list(g.vertices())[:4])
    sol = p2c_johnson(g, q)
    bad = P2CSolution(Path((q.u, 6, q.v)), sol.path_xy)
    assert check_p2c(g, q, bad).violations[0] == (
        "ForeignVertex",
        "6 is not a vertex of the host graph",
    )


# ---------------------------------------------------------------------------
# Masks handed to the core directly, as sweep and the debug check do.


class _NotAMask:
    """Stands in, for the frozen checker, for a mask with bit 0 set: it is
    no vertex and prints as the mask's set text."""

    n = -1

    def __init__(self, bits):
        self.bits = bits

    def __repr__(self):
        return "{%s}" % ",".join(
            str(e) for e in range(self.bits.bit_length()) if self.bits >> e & 1
        )


def _mask_mutants(g, bits):
    """(mask, stand-in for the frozen checker) pairs of non-vertices."""
    n = g.n
    card = next(c for c in range(n + 1) if c not in _levels(g))
    low = (1 << card + 1) - 2
    above = bits | 1 << n + 1
    return [
        (bits | 1, _NotAMask(bits | 1)),
        (above, ElementSet(above, n + 1)),
        (low, ElementSet(low, n)),
    ]


def _wrap(g, masks):
    return [ElementSet(b, g.n) if isinstance(b, int) else b for b in masks]


def _is_mask_cover(g, sol):
    return all(
        isinstance(v, ElementSet) and v.n == g.n for v in (*sol.path_uv, *sol.path_xy)
    )


@pytest.mark.parametrize("g", GRAPHS[:-1], ids=_graph_id)
def test_core_on_masks_matches_frozen_checker(g):
    host = host_of(g)
    for name, q, sol in _cover_corpus(g, count=2, seed=3):
        quad = tuple(w.bits for w in q.vertices())
        p1, p2 = ([v.bits for v in p] for p in (sol.path_uv, sol.path_xy))
        if _is_mask_cover(g, sol):
            got = certify(host, (p1, p2), (quad[:2], quad[2:])).violations
            assert got == frozen_check_p2c(g, q, sol).violations, name
        if name != "valid":
            continue
        for i in (0, 1, len(p1) - 1):
            for mask, stand_in in _mask_mutants(g, p1[i]):
                m1 = p1[:i] + [mask] + p1[i + 1 :]
                got = certify(host, (m1, p2), (quad[:2], quad[2:])).violations
                wrapped = _wrap(g, p1[:i]) + [stand_in] + _wrap(g, p1[i + 1 :])
                frozen = P2CSolution(Path(tuple(wrapped)), sol.path_xy)
                assert got == frozen_check_p2c(g, q, frozen).violations, (i, mask)
                assert got and got[-1][0] in ("ForeignVertex", "NotAdjacentStep")


def test_host_lists_vertices_in_graph_order():
    for g in GRAPHS:
        want = [v if isinstance(v, int) else v.bits for v in g.vertices()]
        assert host_of(g).vertices() == want


def test_debug_check_uses_the_core_on_masks(monkeypatch):
    # An intermediate cover that drops a vertex is named by the core.
    solve_small = p2c_module._solve_small

    def drop_one(*args):
        p1, p2 = solve_small(*args)
        longer = p1 if len(p1) > len(p2) else p2
        del longer[1]
        return p1, p2

    monkeypatch.setattr(p2c_module, "_solve_small", drop_one)
    g = JohnsonGraph(5, 3)
    quad = ([1, 2, 3], [3, 4, 5], [1, 2, 4], [2, 4, 5])
    q = EndpointQuad(*(ElementSet.from_elements(w, 5) for w in quad))
    with pytest.raises(InvariantViolated) as info:
        p2c_johnson(g, q, debug=True)
    assert str(info.value) == (
        "invalid cover of J(5,3): [('NotCovering', '9 of 10 vertices covered')]"
    )


# Four endpoints on level 3 of QJ(5,{2,3}): the local cover is the small
# J(5,3), which the EP2C expansion then joins to level 2.
QJ_ONE_LEVEL_QUAD = ([1, 2, 3], [3, 4, 5], [1, 2, 4], [2, 4, 5])


def test_debug_check_reaches_the_nested_subproblems_of_qj(monkeypatch):
    monkeypatch.setattr(
        p2c_module, "_solve_small", _drop_one(p2c_module._solve_small)
    )
    g = QJGraph(5, (2, 3))
    q = EndpointQuad(*(ElementSet.from_elements(w, 5) for w in QJ_ONE_LEVEL_QUAD))
    assert not check_p2c(g, q, p2c_qj(g, q)).valid
    with pytest.raises(InvariantViolated) as info:
        p2c_qj(g, q, debug=True)
    # The inner J(5,3) is named, not the QJ graph the expansion builds.
    assert str(info.value) == (
        "invalid cover of J(5,3): [('NotCovering', '9 of 10 vertices covered')]"
    )


def test_debug_context_is_reset_after_a_failed_check(monkeypatch):
    monkeypatch.setattr(
        p2c_module, "_solve_small", _drop_one(p2c_module._solve_small)
    )
    calls = []

    def counting(*args):
        calls.append(args)
        return certify(*args)

    monkeypatch.setattr(p2c_module, "certify", counting)
    g = JohnsonGraph(5, 3)
    quad = mask_keys(
        [ElementSet.from_elements(w, 5) for w in QJ_ONE_LEVEL_QUAD], 5
    )
    with pytest.raises(InvariantViolated):
        p2c_module.p2c_masks(g, quad, True)
    assert len(calls) == 1
    # Neither a solver called outside any entry nor an entry without debug
    # certifies anything once the failed entry has returned.
    p2c_module._solve(5, 3, *quad)
    p2c_module.p2c_masks(g, quad)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# The sweep path: mask entries, no ElementSet per cover vertex.


def _mask_entry_cases():
    for n in range(4, 9):
        for k in range(1, n):
            yield JohnsonGraph(n, k)
    for n in range(4, 7):
        for m in range(1, n + 1):
            for A in combinations(range(1, n + 1), m):
                g = QJGraph(n, A)
                if g.vertex_count >= 4:
                    yield g


@pytest.mark.parametrize("g", list(_mask_entry_cases()), ids=repr)
def test_public_constructor_is_wrapped_mask_entry(g):
    public = p2c_johnson if isinstance(g, JohnsonGraph) else p2c_qj
    for q in _quads(g, 6, 17):
        p1, p2 = p2c_module.p2c_masks(g, tuple(w.bits for w in q.vertices()))
        sol = public(g, q)
        assert sol == P2CSolution(mask_path(p1, g.n), mask_path(p2, g.n))
        # The wrapper ends its paths at the quad's own objects.
        assert sol.path_uv[0] is q.u and sol.path_xy[-1] is q.y


# Quads the constructors refuse, as (element list, ground set size), and
# the error, recorded while the constructors still validated the quad with
# EndpointQuad.validate on ElementSets.
BAD_QUADS = [
    (JohnsonGraph(5, 2), [([1, 2], 5), ([1, 2], 5), ([1, 3], 5), ([2, 4], 5)],
     "BadQuad: endpoints not pairwise distinct: ({1,2}, {1,2}, {1,3}, {2,4})"),
    (JohnsonGraph(5, 2), [([1, 2], 5), ([1, 2, 3], 5), ([1, 3], 5), ([2, 4], 5)],
     "BadQuad: {1,2,3} is not a vertex of the host graph"),
    (JohnsonGraph(5, 2), [([1, 2], 5), ([3, 4], 5), ([1, 3], 6), ([2, 4], 5)],
     "BadQuad: {1,3} is not a vertex of the host graph"),
    # Refused with the QJ wording since J(n,k) and QJ(n,A) share one mask
    # entry; the range check of p2c_johnson itself keeps its own text.
    (JohnsonGraph(3, 1), [([1], 3), ([1], 3), ([2], 3), ([3], 3)],
     "OutOfTheoremRange: J(3,1) has n < 4"),
    (QJGraph(5, (1, 3)), [([1], 5), ([1, 2], 5), ([1, 2, 3], 5), ([4], 5)],
     "BadQuad: {1,2} is not a vertex of the host graph"),
    (QJGraph(5, (1, 3)), [([1], 5), ([2], 5), ([2], 5), ([1, 2, 3], 5)],
     "BadQuad: endpoints not pairwise distinct: ({1}, {2}, {2}, {1,2,3})"),
    (QJGraph(5, (1, 3, 5)), [([1], 5), ([2], 5), ([1, 2, 3, 4, 5], 5), ([1, 2, 3], 7)],
     "BadQuad: {1,2,3} is not a vertex of the host graph"),
    (QJGraph(3, (1, 2)), [([1], 3), ([2], 3), ([3], 3), ([1, 2], 3)],
     "OutOfTheoremRange: QJ(3,{1,2}) has n < 4"),
]


@pytest.mark.parametrize("g, quad, error", BAD_QUADS)
def test_mask_entry_refuses_bad_quads_as_before(g, quad, error):
    # The mask entry and its wrapper p2c_qj refuse the quad with the same
    # text on either kind of graph.  A bad quad is refused so by the graph's
    # own constructor too, and by EndpointQuad.validate and the oracle, as
    # all share one validator.
    build = p2c_johnson if isinstance(g, JohnsonGraph) else p2c_qj
    q = EndpointQuad(*(ElementSet.from_elements(e, n) for e, n in quad))
    keys = mask_keys(q.vertices(), g.n)
    refusers = [lambda: p2c_qj(g, q), lambda: p2c_module.p2c_masks(g, keys)]
    if error.startswith("BadQuad"):
        refusers += [
            lambda: build(g, q), lambda: q.validate(g), lambda: p2c_bruteforce(g, q)
        ]
    for refuse in refusers:
        with pytest.raises(CoverError) as info:
            refuse()
        assert f"{type(info.value).__name__}: {info.value}" == error


def test_validate_returns_vertex_keys():
    g = QJGraph(5, (2, 3))
    q = EndpointQuad(*list(g.vertices())[3:7])
    assert q.validate(g) == [w.bits for w in q.vertices()]
    fig, _ = fig1_counterexample()
    assert EndpointQuad(0, 1, 2, 3).validate(fig) == (0, 1, 2, 3)
    # A vertex of another type is named as the object, on either kind of graph.
    for host, first in ((g, 0), (fig, "a")):
        with pytest.raises(BadQuad) as info:
            EndpointQuad(0, 1, "a", 3).validate(host)
        assert str(info.value) == f"{first} is not a vertex of the host graph"
        with pytest.raises(BadQuad) as info:
            EndpointQuad("a", 1, "a", 3).validate(host)
        assert str(info.value) == "endpoints not pairwise distinct: ('a', 1, 'a', 3)"


def test_absorb_apex_refuses_bad_quads():
    # The apex construction must not take a vertex's mask unchecked: a
    # vertex over [6] would come back in the cover as one over [5], and a
    # repeated one be named by its mask in an error of the complete-graph
    # cover.  Its one way in, p2c_qj, checks the quad first.
    g = QJGraph(5, (4, 5))
    sets = ([1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 4, 5])
    a, b, c = (ElementSet.from_elements(e, 5) for e in sets)
    foreign = ElementSet.from_elements([2, 3, 4, 5], 6)
    with pytest.raises(BadQuad) as info:
        p2c_qj(g, EndpointQuad(a, b, c, foreign))
    assert str(info.value) == "{2,3,4,5} is not a vertex of the host graph"
    repeated = (
        "endpoints not pairwise distinct: ({1,2,3,4}, {1,2,3,4}, {1,2,3,5}, {1,2,4,5})"
    )
    with pytest.raises(BadQuad) as info:
        p2c_qj(g, EndpointQuad(a, a, b, c))
    assert str(info.value) == repeated
    with pytest.raises(BadQuad) as info:
        p2c_module.p2c_masks(g, (a.bits, a.bits, b.bits, c.bits))
    assert str(info.value) == repeated


def test_absorb_apex_is_wrapped_mask_entry():
    g = QJGraph(5, (3, 4, 5))
    for q in _quads(g, 20, 2):
        quad = tuple(w.bits for w in q.vertices())
        p1, p2 = p2c_module.p2c_masks(g, quad)
        sol = p2c_qj(g, q)
        assert sol == P2CSolution(mask_path(p1, g.n), mask_path(p2, g.n))
        assert check_p2c(g, q, sol).valid


@pytest.mark.parametrize(
    "g, constructor",
    [(JohnsonGraph(6, 3), "johnson"), (QJGraph(5, (1, 2, 3)), "qj")],
    ids=["J(6,3)", "QJ(5,{1,2,3})"],
)
def test_sweep_builds_no_element_set_per_cover_vertex(g, constructor, monkeypatch):
    init = ElementSet.__init__
    calls = []

    def counting(self, bits, n):
        calls.append(bits)
        init(self, bits, n)

    monkeypatch.setattr(ElementSet, "__init__", counting)
    summary = sweep(g, mode="sampled", constructor=constructor, seed=4, count=300)
    assert summary.valid == 300
    # Before, every quad wrapped its cover: 300 covers of 20 or 25 vertices.
    assert len(calls) <= g.vertex_count + 4


# Sweep summaries of sampled sweeps (seed 7, 60 quads) under a broken
# constructor: (module, function replaced, graph, constructor, sha256 of
# the summary's JSON, its first failure).  Recorded while sweeps still
# wrapped every cover in ElementSets and certified it with the
# object-level checker.
def _drop_one(solve):
    def broken(*args):
        p1, p2 = solve(*args)
        longer = p1 if len(p1) > len(p2) else p2
        del longer[1]
        return p1, p2

    return broken


def _raise_exhausted(solve):
    def broken(n, k, *quad):
        raise SelectionExhausted(f"oracle found no cover of J({n},{k})")

    return broken


def _mutate(change):
    """A breaker of ``_solve`` that applies ``change`` to the paths of the
    outermost call only, the one with no ``_solve`` frame above it: a
    one-level cover, or a level that the stacked construction covers.  The
    Johnson induction's own calls, which read ``_solve`` too, pass through
    unchanged: the digests below were recorded with a seam that saw the
    outermost calls only."""

    def wrap(solve):
        depth = 0

        def broken(n, k, u, v, x, y):
            nonlocal depth
            depth += 1
            try:
                p1, p2 = solve(n, k, u, v, x, y)
            finally:
                depth -= 1
            return (p1, p2) if depth else change(p1, p2, n, k)

        return broken

    return wrap


def _swap_inner(p1, p2, n, k):
    if len(p1) > 3:
        p1[1], p1[2] = p1[2], p1[1]
    return p1, p2


def _wrong_level(p1, p2, n, k):
    if len(p1) > 2:
        p1[1] = (1 << (k + 2)) - 2
    return p1, p2


def _repeat(p1, p2, n, k):
    if len(p2) > 2:
        p2[1] = p2[-1]
    return p1, p2


BROKEN = [
    ("drop_one", p2c_module, "_solve_small", _drop_one,
     JohnsonGraph(5, 3), "johnson",
     "603568b674f2cd517ba767107917939df8a33ab4d2c582c01df5e898ea58b918",
     {"quad": [[1, 2, 3], [1, 2, 4], [2, 4, 5], [1, 3, 4]],
      "violations": [{"code": "NotCovering", "detail": "9 of 10 vertices covered"}]}),
    ("raise", p2c_module, "_solve_small", _raise_exhausted,
     JohnsonGraph(5, 2), "johnson",
     "e128a0079d2f11d40f03176180b580a810ac2da0f6a8870d9e87f14927cff001",
     {"quad": [[1, 2], [1, 3], [3, 5], [2, 3]],
      "error": "SelectionExhausted: oracle found no cover of J(5,2)"}),
    ("swap_inner", p2c_module, "_solve", _mutate(_swap_inner),
     QJGraph(5, (1, 2, 3)), "qj",
     "a03551b05a114f1a7e7f6e20965d98419be2e8016328d995feaa2ada76821413",
     {"quad": [[1, 2, 5], [1, 3], [1, 2, 3], [2, 3, 5]],
      "violations": [{"code": "NotAdjacentStep",
                      "detail": "{1,3,4} -- {2,3,5} is not an edge"}]}),
    ("wrong_level", p2c_module, "_solve", _mutate(_wrong_level),
     QJGraph(5, (2, 3)), "qj",
     "b1274c1621169f28c82ee5ef8226fb0978e4ab4adf2e72407397e278c9e9d2b9",
     {"quad": [[1, 2, 3], [1, 2, 5], [2, 4, 5], [1, 2, 4]],
      "violations": [{"code": "ForeignVertex",
                      "detail": "{1,2,3,4} is not a vertex of the host graph"}]}),
    ("repeat", p2c_module, "_solve", _mutate(_repeat),
     QJGraph(6, (2, 4, 6)), "qj",
     "0bd862dcfbf0b49bb78aece47a3d8ebd20163a462b7ceaa52a70d19bfb7f58e7",
     {"quad": [[1, 2, 3, 4, 5, 6], [2, 4], [1, 3, 4, 6], [1, 4, 5, 6]],
      "violations": [{"code": "RepeatedVertex",
                      "detail": "{1,2,3,5} appears more than once"}]}),
    ("bad_end", p2c_module, "_solve",
     _mutate(lambda p1, p2, n, k: (p1[:-1], p2)),
     QJGraph(5, (2,)), "qj",
     "fbe086a4e38b0c5b74d02f1591042e33bd86d4508692ed6af463e01697fdd2cf",
     {"quad": [[1, 2], [1, 3], [3, 5], [2, 3]],
      "violations": [{"code": "BadEndpoint",
                      "detail": "path_uv endpoints are not {{1,2},{1,3}}"}]}),
    ("steal", p2c_module, "_solve",
     _mutate(lambda p1, p2, n, k: (p1, p2 + [p1[-2]])),
     QJGraph(6, (3,)), "qj",
     "83624a185250ec17deb8d5094581ba651fc55ee13e63f9f62bf1113517ffea39",
     None),
    ("swap_paths", p2c_module, "_solve",
     _mutate(lambda p1, p2, n, k: (p2, p1)),
     QJGraph(5, (1, 2)), "qj",
     "a37d7b55510840acec0f5baeeafa121a34a3a1cb847ce27e9f2bedf365653437",
     None),
]


@pytest.mark.parametrize(
    "bit, text", [(1, "{0,1,2,4}"), (1 << 6, "{1,2,4,6}")], ids=["bit0", "above_n"]
)
def test_sweep_names_a_mask_outside_the_ground_set(bit, text, monkeypatch):
    # Wrapping such a mask in an ElementSet raised ValueError and ended the
    # whole sweep; the core reports it as a foreign vertex of that quad.
    def change(p1, p2, n, k):
        if 0b10110 in p1[1:-1]:
            p1[p1.index(0b10110)] |= bit
        return p1, p2

    monkeypatch.setattr(p2c_module, "_solve", _mutate(change)(p2c_module._solve))
    g = QJGraph(5, (3,))
    summary = sweep(g, mode="sampled", constructor="qj", seed=1, count=40)
    assert summary.invalid > 0 and summary.valid + summary.invalid == 40
    detail = f"{text} is not a vertex of the host graph"
    for failure in summary.failures:
        assert failure["violations"] == [{"code": "ForeignVertex", "detail": detail}]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "name, module, attr, breaker, g, constructor, digest, first",
    BROKEN,
    ids=[case[0] for case in BROKEN],
)
def test_broken_constructor_failure_records_unchanged(
    name, module, attr, breaker, g, constructor, digest, first, jobs, monkeypatch
):
    monkeypatch.setattr(module, attr, breaker(getattr(module, attr)))
    clear_caches()
    try:
        summary = sweep(
            g, mode="sampled", constructor=constructor, seed=7, count=60, jobs=jobs
        )
    finally:
        clear_caches()
    text = json.dumps(summary.to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    if first is not None:
        assert summary.failures[0] == first


@pytest.mark.parametrize(
    "graph",
    [
        ["--graph", "johnson", "--n", "6", "--k", "3"],
        ["--graph", "qj", "--n", "5", "--levels", "1,2,3"],
        ["--fixture", "fig1"],
    ],
    ids=["johnson", "qj", "fig1"],
)
def test_cli_sweep_jobs_2_matches_jobs_1(graph, capsys):
    outs = []
    for jobs in ("1", "2"):
        code = run(["sweep", *graph, "--mode", "sampled", "--count", "150",
                    "--seed", "3", "--jobs", jobs])
        out = capsys.readouterr().out
        outs.append((code, out))
    assert outs[0] == outs[1]
    assert json.loads(outs[0][1])["total"] == 150
