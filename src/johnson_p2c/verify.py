"""Certificates and ground truth.

``check_hamilton`` and ``check_p2c`` certify a path or a two-path cover of
a ``JohnsonGraph``, a ``QJGraph`` or a ``GenericGraph``.  Each unwraps its
paths once into int vertex keys, the masks of J(n,k) and QJ(n,A) or the
indices of an explicit graph, and hands them to one certification core,
``certify``.  The core checks the endpoints, and then whether the paths
cover the graph exactly, along edges.  On a graph of at most
``SORTED_ABOVE`` vertices a valid cover passes one short-circuit chain
before any report is built: no path is empty, each ends at its pair, the
lengths sum to the vertex count and the keys make up the graph's key set
(``_vertex_keys``, kept for ``KEY_SETS`` graphs), so each vertex is on
them once; then only the steps are walked, with bit arithmetic on masks
(``steps``).  On a larger graph the core walks each path once, checking
membership and steps (``holds``), and checks repeats, disjointness and
coverage on one sorted list of every vertex key, 8 B a vertex: the keys
of a valid cover are ``count`` distinct ones.  Only a cover that fails
either test is checked with a set per path, and only a path that fails
there is walked again, in order, to find the vertex or step to name; a
violation's text is formatted only then.  A vertex that is not one of the
graph's kind (an ``ElementSet`` over another ground set, an object of
another type, a bool on an explicit graph) becomes a 1-tuple around
itself: it fails membership and compares equal to what it equalled
before.  The constructors' debug check, ``sweep`` and the CLI's ``p2c``
and ``hamilton`` hand their mask lists to the core directly.  The core
shares no code with the constructors.

``p2c_bruteforce`` is the exact oracle: a backtracking search that either
produces a checkable cover or proves none exists.  ``sweep`` runs a
constructor's mask-level entry, which ``builder_of`` picks for the graph,
over every (or a sampled set of) endpoint quadruples of vertex keys and
certifies each result on the core, so no ``ElementSet`` is built per cover
vertex.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial
from itertools import islice, permutations
from math import perm
from operator import contains, lt
from typing import NamedTuple

from .covers import EndpointQuad, P2CSolution, wrap_cover
from .errors import CoverError, SweepBudget, TooFewVertices, TooLargeForOracle
from .graphs import GenericGraph, JohnsonGraph
from .hamilton import Path, _cover_search, _explicit_search, _search_masks
from .subsets import k_masks, key_text, mask_elements, mask_keys

DEFAULT_ORACLE_CAP = 20
DEFAULT_SWEEP_BUDGET = 2_000_000
# A cover of a graph with more vertices is certified on one sorted list of
# its keys first, 8 B a vertex.  A smaller one, as sweeps certify by the
# thousand, is compared with the graph's key set, which a memo holds for
# ``KEY_SETS`` graphs.
SORTED_ABOVE = 1000
# A sweep or a loop of ``check_p2c`` calls needs one graph's key set; a debug
# build certifies every subgraph it solves, 12 to 23 distinct ones over 150
# quads of J(10,5), J(12,6), J(13,4), QJ(7,{2,3,4}) or QJ(8,{2,3,4,5}).
KEY_SETS = 32
# A sweep summary lists this many failure records, the first by
# ``_failure_key``; a sweep cuts its records back to as many whenever it
# holds more than twice as many.
FAILURES_SHOWN = 10


class CheckReport:
    """The violations found by a check, as (code, detail) pairs."""

    __slots__ = ("violations",)

    def __init__(self, violations=None):
        self.violations = [] if violations is None else violations

    def __eq__(self, other):
        if other.__class__ is not CheckReport:
            return NotImplemented
        return self.violations == other.violations

    __hash__ = None

    def __repr__(self) -> str:
        return f"CheckReport(violations={self.violations!r})"

    @property
    def valid(self) -> bool:
        return not self.violations

    def add(self, code: str, detail: str) -> None:
        self.violations.append((code, detail))

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [{"code": c, "detail": d} for c, d in self.violations],
        }


# ---------------------------------------------------------------------------
# The certification core, on int vertex keys.


class _Masks:
    """J(n,k) or QJ(n,A) as the core sees it: a vertex key is a mask."""

    __slots__ = ("n", "count", "levels", "outside", "gaps", "_keys")

    def __init__(self, g):
        levels = tuple(g.levels)
        self.n = g.n
        self.count = g.vertex_count
        self.levels = levels
        self.outside = ~(((1 << g.n) - 1) << 1)
        self._keys = None
        # |a ^ b| along an edge between two consecutive levels, a in b.
        self.gaps = {}
        for a, b in zip(levels, levels[1:]):
            self.gaps[a, b] = self.gaps[b, a] = b - a

    def unwrap(self, paths) -> list[list]:
        return [mask_keys(p, self.n) for p in paths]

    def vertices(self) -> list[int]:
        """Every vertex mask, in the order of the graph's ``vertices()``."""
        return [b for a in self.levels for b in k_masks(self.n, a)]

    def keys(self) -> frozenset:
        """The vertex masks, read from the memo once and then kept: a sweep
        certifies every cover on one host."""
        if self._keys is None:
            self._keys = _vertex_keys(self.n, self.levels)
        return self._keys

    def steps(self, p) -> bool:
        """Whether every step of p, a path of vertex masks, is an edge:
        |a ^ b| is 2 inside a level and the gap between consecutive levels."""
        it = iter(p)
        a = next(it, 0)
        if len(self.levels) == 1:
            for b in it:
                if (a ^ b).bit_count() != 2:
                    return False
                a = b
            return True
        gaps, ca = self.gaps, a.bit_count()
        for b in it:
            cb = b.bit_count()
            if (a ^ b).bit_count() != (2 if ca == cb else gaps.get((ca, cb))):
                return False
            a, ca = b, cb
        return True

    def holds(self, p) -> bool:
        """Whether every vertex of p is a member and every step an edge."""
        levels, outside = self.levels, self.outside
        try:
            for b in p:
                if b.bit_count() not in levels or b & outside:
                    return False
        except AttributeError:
            # A key that is no int.
            return False
        return self.steps(p)

    show = staticmethod(key_text)

    def json(self, v):
        return mask_elements(v)


class _Indices:
    """An explicit graph as the core sees it: a vertex key is an index."""

    __slots__ = ("count", "adjacency", "_keys")

    def __init__(self, g: GenericGraph):
        self.count = g.vertex_count
        self.adjacency = g.adjacency
        self._keys = frozenset(range(self.count))

    def unwrap(self, paths) -> list[list]:
        is_index = self.is_index
        return [[v if is_index(v) else (v,) for v in p] for p in paths]

    def is_index(self, v) -> bool:
        """Whether v is a vertex index: an int, no bool, in range."""
        return type(v) is not bool and isinstance(v, int) and 0 <= v < self.count

    def vertices(self) -> list[int]:
        return list(range(self.count))

    def keys(self) -> frozenset:
        return self._keys

    def steps(self, p) -> bool:
        """Whether every step of p, a path of vertex indices, is an edge."""
        heads = map(self.adjacency.__getitem__, p)
        return all(map(contains, heads, islice(p, 1, None)))

    def holds(self, p) -> bool:
        """Whether every vertex of p is an index and every step an edge."""
        return all(map(self.is_index, p)) and self.steps(p)

    def show(self, v) -> str:
        return str(v[0]) if type(v) is tuple else str(v)

    def json(self, v):
        return v


def host_of(g):
    """The core's view of a J(n,k), QJ(n,A) or explicit graph."""
    return _Indices(g) if isinstance(g, GenericGraph) else _Masks(g)


@lru_cache(maxsize=KEY_SETS)
def _vertex_keys(n: int, levels: tuple) -> frozenset:
    """The vertex masks of QJ(n,levels), J(n,k) being ``levels == (k,)``."""
    return frozenset(b for a in levels for b in k_masks(n, a))


def certify(host, paths, ends) -> CheckReport:
    """Certify paths of vertex keys on the graph ``host`` sees.

    One path is a Hamilton path and must run from ``ends[0][0]`` to
    ``ends[0][1]``; two paths are a paired cover, each joining its pair of
    ``ends`` either way.  The paths, lists of keys, must be vertex-disjoint,
    step along edges and together cover the graph exactly once.  On a graph
    of at most ``SORTED_ABOVE`` vertices (read per call) a valid cover
    passes one short-circuit chain and gets an empty report: no path is
    empty, each ends at its pair, the lengths sum to ``host.count``, the
    keys make up ``host.keys()``, and ``host.steps`` holds on each path.
    On a larger graph every path must pass ``host.holds``, and repeats,
    disjointness and coverage are checked on one sorted list of every key.
    A cover that fails either test is checked again, endpoints first, by
    one walk per path that names the violation.
    """
    if host.count <= SORTED_ABOVE:
        try:
            if len(paths) == 2:
                (p1, p2), ((u, v), (x, y)) = paths, ends
                if (
                    p1
                    and p2
                    and (p1[0] == u and p1[-1] == v or p1[0] == v and p1[-1] == u)
                    and (p2[0] == x and p2[-1] == y or p2[0] == y and p2[-1] == x)
                    and len(p1) + len(p2) == host.count
                    and host.keys() == {*p1, *p2}
                    and host.steps(p1)
                    and host.steps(p2)
                ):
                    return CheckReport()
            else:
                (p,), ((s, t),) = paths, ends
                if (
                    p
                    and p[0] == s
                    and p[-1] == t
                    and len(p) == host.count
                    and host.keys() == {*p}
                    and host.steps(p)
                ):
                    return CheckReport()
        except TypeError:
            # A key that cannot be hashed fails the chain; the report code
            # tests membership before it hashes a key, and names it.
            pass
    report = CheckReport()
    show = host.show
    if len(paths) == 1:
        (p,), ((s, t),) = paths, ends
        if not p or p[0] != s or p[-1] != t:
            report.add("BadEndpoint", f"expected endpoints {show(s)} and {show(t)}")
    else:
        for name, p, (a, b) in zip(("path_uv", "path_xy"), paths, ends):
            if not p or (p[0], p[-1]) not in ((a, b), (b, a)):
                report.add(
                    "BadEndpoint", f"{name} endpoints are not {{{show(a)},{show(b)}}}"
                )
    if host.count > SORTED_ABOVE:
        if all(map(host.holds, paths)):
            # Members joined by edges: the cover is exact iff its keys,
            # sorted, are host.count distinct ones.
            keys = paths[0] + paths[1] if len(paths) == 2 else list(paths[0])
            keys.sort()
            if len(keys) == host.count and all(map(lt, keys, islice(keys, 1, None))):
                return report
    seen = [_check_steps(host, p, report) for p in paths]
    if not report.valid:
        return report
    if len(seen) == 2:
        shared = seen[0] & seen[1]
        if shared:
            shown = sorted(map(show, shared))
            report.add("PathsIntersect", f"shared vertices: {shown}")
            return report
    covered = sum(map(len, seen))
    if covered != host.count:
        report.add("NotCovering", f"{covered} of {host.count} vertices covered")
    return report


def _check_steps(host, p, report: CheckReport) -> set:
    """Walk a path: report its first foreign or repeated vertex, or else its
    first step that is no edge, and return the set of its vertices up to the
    first foreign or repeated one."""
    show = host.show
    seen = set()
    for v in p:
        if not host.holds((v,)):
            report.add("ForeignVertex", f"{show(v)} is not a vertex of the host graph")
            return seen
        if v in seen:
            report.add("RepeatedVertex", f"{show(v)} appears more than once")
            return seen
        seen.add(v)
    if not host.steps(p):
        i = next(i for i in range(len(p) - 1) if not host.steps(p[i : i + 2]))
        report.add("NotAdjacentStep", f"{show(p[i])} -- {show(p[i + 1])} is not an edge")
    return seen


def check_hamilton(g, p, s, t) -> CheckReport:
    """Valid iff p runs from s to t, steps along edges, and covers V(g)."""
    host = host_of(g)
    (s, t), p = host.unwrap(((s, t), p))
    return certify(host, [p], ((s, t),))


def check_p2c(g, q: EndpointQuad, sol: P2CSolution) -> CheckReport:
    """Valid iff the two paths are disjoint, edge-respecting, endpoint-correct
    (either orientation per path) and together cover V(g) exactly."""
    host = host_of(g)
    (u, v, x, y), *paths = host.unwrap((q.vertices(), sol.path_uv, sol.path_xy))
    return certify(host, paths, ((u, v), (x, y)))


# ---------------------------------------------------------------------------
# Exact P2C oracle.


def p2c_bruteforce(g, q: EndpointQuad, cap: int = DEFAULT_ORACLE_CAP):
    """Exact search for a paired 2-disjoint path cover; None if impossible."""
    found = _oracle_paths(g, q.validate(g), cap)
    if found is None:
        return None
    if isinstance(g, GenericGraph):
        return P2CSolution(Path(tuple(found[0])), Path(tuple(found[1])))
    return wrap_cover(q, found, g.n)


def _oracle_paths(g, quad, cap: int):
    """``p2c_bruteforce`` on vertex keys, for a quad known to be valid."""
    _check_oracle_cap(g, cap)
    u, v, x, y = quad
    if isinstance(g, GenericGraph):
        return _cover_search(_explicit_search(g.adjacency), ((u, v), (x, y)))
    return _search_masks(g.n, tuple(g.levels), ((u, v), (x, y)))


def _check_oracle_cap(g, cap: int) -> None:
    if g.vertex_count > cap:
        raise TooLargeForOracle(f"{g.vertex_count} vertices exceeds oracle cap {cap}")


# ---------------------------------------------------------------------------
# Sweeps.


class SweepSummary(NamedTuple):
    graph: dict
    mode: dict
    total: int
    valid: int
    invalid: int
    errors: int
    failures: list

    def to_json(self) -> dict:
        return self._asdict()


def builder_of(g, name: str | None = None, oracle_cap: int = DEFAULT_ORACLE_CAP):
    """The constructor ``name`` of g on vertex keys: (g, quad) to the two
    paths' keys, or None where the oracle proves there is no cover.

    ``None`` names the graph's own: johnson for J(n,k), qj for QJ(n,A),
    both the one mask entry ``p2c_masks``, and oracle for an explicit
    graph.  A name that cannot run on g (johnson on any other graph, qj on
    an explicit one) raises ValueError, and the oracle on a graph above
    ``oracle_cap`` raises ``TooLargeForOracle``.
    This is the one place that tells the graph kinds apart to pick a
    builder."""
    # Local imports keep verify free of a static dependency on the builders.
    from .p2c_qj import p2c_complete, p2c_masks

    explicit = isinstance(g, GenericGraph)
    if name is None:
        name = "oracle" if explicit else "johnson" if isinstance(g, JohnsonGraph) else "qj"
    if name == "johnson" and not isinstance(g, JohnsonGraph) or name == "qj" and explicit:
        kind = g.descriptor()["kind"]
        raise ValueError(f"constructor {name!r} cannot run on a {kind} graph")
    if name in ("johnson", "qj"):
        return p2c_masks
    if name == "complete":
        return partial(_complete_paths, p2c_complete, host_of(g).vertices())
    if name == "oracle":
        _check_oracle_cap(g, oracle_cap)
        return partial(_oracle_paths, cap=oracle_cap)
    raise ValueError(f"unknown constructor {name!r}")


def _complete_paths(p2c_complete, verts, g, quad):
    """The complete-graph cover of the vertex keys ``verts``, as two lists."""
    sol = p2c_complete(verts, EndpointQuad(*quad))
    return list(sol.path_uv), list(sol.path_xy)


def _quads(verts, mode_json):
    """A sweep's quads in order: every ordered quad of ``verts`` in
    ``permutations`` order, or ``count`` draws of ``random.Random(seed)``."""
    if mode_json["kind"] == "exhaustive":
        return permutations(verts, 4)
    rng = random.Random(mode_json["seed"])
    return (tuple(rng.sample(verts, 4)) for _ in range(mode_json["count"]))


def _failure_key(failure) -> str:
    return str(failure["quad"])


def _run_quads(g, build, verts, mode_json, bounds):
    """Build and certify the sweep's quads with indices in ``range(*bounds)``.
    Of the failure records, the ``FAILURES_SHOWN`` first by ``_failure_key``
    are among those returned: the sort is stable, so ties stay in quad
    order."""
    host = host_of(g)
    total = valid = invalid = errors = 0
    failures = []
    for quad in islice(_quads(verts, mode_json), *bounds):
        total += 1
        try:
            paths = build(g, quad)
        except CoverError as exc:
            errors += 1
            failure = {"error": f"{type(exc).__name__}: {exc}"}
        else:
            if paths is None:
                invalid += 1
                failure = {"error": "NoSolution"}
            else:
                u, v, x, y = quad
                report = certify(host, paths, ((u, v), (x, y)))
                if report.valid:
                    valid += 1
                    continue
                invalid += 1
                failure = {"violations": report.to_json()["violations"]}
        failures.append({"quad": list(map(host.json, quad)), **failure})
        if len(failures) > 2 * FAILURES_SHOWN:
            failures.sort(key=_failure_key)
            del failures[FAILURES_SHOWN:]
    return total, valid, invalid, errors, failures


def sweep(
    g,
    mode: str = "exhaustive",
    constructor: str | None = None,
    seed: int = 0,
    count: int = 1000,
    budget: int = DEFAULT_SWEEP_BUDGET,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    jobs: int = 1,
) -> SweepSummary:
    """Run a constructor over endpoint quadruples and certify every result.
    The constructor defaults to the graph's own (``builder_of``); one that
    cannot run on the graph raises ValueError, and the oracle above its cap
    ``TooLargeForOracle``, before any quad runs.  A graph
    with fewer than 4 vertices has no quadruple and raises
    ``TooFewVertices`` rather than report an empty success.

    The quads are drawn from the graph's vertex keys (masks, or indices of
    an explicit graph) listed in ``vertices()`` order, and the constructor
    and the checker run on those keys.  With ``jobs`` > 1 each worker
    process draws and runs one index range of the quads, and the summary
    equals the one-process summary; ``jobs`` below 1 raises ValueError."""
    build = builder_of(g, constructor, oracle_cap)
    if jobs < 1:
        raise ValueError(f"sweep needs at least one job, got {jobs}")
    verts = host_of(g).vertices()
    nv = len(verts)
    if nv < 4:
        raise TooFewVertices(f"need at least 4 vertices to sweep, got {nv}")
    if mode == "exhaustive":
        n_quads = perm(nv, 4)
        if n_quads > budget:
            raise SweepBudget(f"{n_quads} quads exceeds budget {budget}")
        mode_json = {"kind": "exhaustive"}
    elif mode == "sampled":
        if count <= 0:
            raise ValueError(f"sampled sweep needs a positive count, got {count}")
        n_quads = count
        mode_json = {"kind": "sampled", "seed": seed, "count": count}
    else:
        raise ValueError(f"unknown sweep mode {mode!r}")

    run = partial(_run_quads, g, build, verts, mode_json)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # Each worker draws its own index range of the quad order, so no
        # process holds the whole list of quads.
        chunk = -(-n_quads // jobs)
        ranges = [(i, min(i + chunk, n_quads)) for i in range(0, n_quads, chunk)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, ranges))
    else:
        results = [run((0, n_quads))]

    total = sum(r[0] for r in results)
    valid = sum(r[1] for r in results)
    invalid = sum(r[2] for r in results)
    errors = sum(r[3] for r in results)
    failures = [f for r in results for f in r[4]]
    failures.sort(key=_failure_key)
    return SweepSummary(
        graph=g.descriptor(),
        mode=mode_json,
        total=total,
        valid=valid,
        invalid=invalid,
        errors=errors,
        failures=failures[:FAILURES_SHOWN],
    )

