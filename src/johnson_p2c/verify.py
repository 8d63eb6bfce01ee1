"""Certificates and ground truth.

``check_hamilton`` and ``check_p2c`` validate paths and covers against any
graph view exposing ``vertices()``, ``has_vertex`` and ``adjacent``.
``p2c_bruteforce`` is the exact oracle: a backtracking search that either
produces a checkable cover or proves none exists.  ``sweep`` drives a
constructor over every (or a sampled set of) endpoint quadruples and
certifies each result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

from .covers import EndpointQuad, P2CSolution
from .errors import CoverError, SweepBudget, TooFewVertices, TooLargeForOracle
from .graphs import GenericGraph, JohnsonGraph, mask_generic
from .hamilton import Path, _cover_search, mask_path
from .subsets import vertex_json

DEFAULT_ORACLE_CAP = 20
DEFAULT_SWEEP_BUDGET = 2_000_000


@dataclass
class CheckReport:
    violations: list = field(default_factory=list)

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


def _check_path_steps(g, path, report: CheckReport) -> set:
    """Report the path's first foreign, repeated or non-adjacent step, and
    return the set of its vertices (all of them if nothing was reported)."""
    seen = set(path)
    if len(seen) < len(path) or not all(map(g.has_vertex, path)):
        # Find the first offending vertex in path order.
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


def check_hamilton(g, p, s, t) -> CheckReport:
    """Valid iff p runs from s to t, steps along edges, and covers V(g)."""
    report = CheckReport()
    path = list(p)
    if not path or path[0] != s or path[-1] != t:
        report.add("BadEndpoint", f"expected endpoints {s} and {t}")
    _check_path_steps(g, path, report)
    if report.valid and len(path) != g.vertex_count:
        report.add(
            "NotCovering", f"{len(path)} of {g.vertex_count} vertices covered"
        )
    return report


def check_p2c(g, q: EndpointQuad, sol: P2CSolution) -> CheckReport:
    """Valid iff the two paths are disjoint, edge-respecting, endpoint-correct
    (either orientation per path) and together cover V(g) exactly."""
    report = CheckReport()
    p1 = list(sol.path_uv)
    p2 = list(sol.path_xy)
    if not p1 or (p1[0], p1[-1]) not in ((q.u, q.v), (q.v, q.u)):
        report.add("BadEndpoint", f"path_uv endpoints are not {{{q.u},{q.v}}}")
    if not p2 or (p2[0], p2[-1]) not in ((q.x, q.y), (q.y, q.x)):
        report.add("BadEndpoint", f"path_xy endpoints are not {{{q.x},{q.y}}}")
    s1 = _check_path_steps(g, p1, report)
    s2 = _check_path_steps(g, p2, report)
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
# Exact P2C oracle.


def p2c_bruteforce(g, q: EndpointQuad, cap: int = DEFAULT_ORACLE_CAP):
    """Exact search for a paired 2-disjoint path cover; None if impossible."""
    q.validate(g)
    if g.vertex_count > cap:
        raise TooLargeForOracle(
            f"{g.vertex_count} vertices exceeds oracle cap {cap}"
        )
    if isinstance(g, GenericGraph):
        found = _cover_search(g.adjacency, ((q.u, q.v), (q.x, q.y)))
        if found is None:
            return None
        return P2CSolution(Path(tuple(found[0])), Path(tuple(found[1])))
    # A J(n,k) or QJ(n,A): search its memoized explicit copy on masks.
    levels = (g.k,) if isinstance(g, JohnsonGraph) else g.levels
    generic, masks = mask_generic(g.n, levels)
    u, v, x, y = (masks.index(w.bits) for w in q.vertices())
    found = _cover_search(generic.adjacency, ((u, v), (x, y)))
    if found is None:
        return None
    p1, p2 = ([masks[i] for i in p] for p in found)
    return P2CSolution(mask_path(p1, g.n), mask_path(p2, g.n))


# ---------------------------------------------------------------------------
# Sweeps.


@dataclass
class SweepSummary:
    graph: dict
    mode: dict
    total: int
    valid: int
    invalid: int
    errors: int
    failures: list

    def to_json(self) -> dict:
        return {
            "graph": self.graph,
            "mode": self.mode,
            "total": self.total,
            "valid": self.valid,
            "invalid": self.invalid,
            "errors": self.errors,
            "failures": self.failures,
        }


def _constructor_fn(name: str, oracle_cap: int):
    # Local imports keep verify free of a static dependency on the builders.
    from .p2c_johnson import p2c_complete, p2c_johnson
    from .p2c_qj import p2c_qj

    if name == "johnson":
        return p2c_johnson
    if name == "qj":
        return p2c_qj
    if name == "complete":
        return lambda g, q: p2c_complete(list(g.vertices()), q)
    if name == "oracle":
        return lambda g, q: p2c_bruteforce(g, q, cap=oracle_cap)
    raise ValueError(f"unknown constructor {name!r}")


def _quad_json(q: EndpointQuad) -> list:
    return [vertex_json(w) for w in q.vertices()]


def _run_quads(g, quads, constructor: str, oracle_cap: int):
    fn = _constructor_fn(constructor, oracle_cap)
    total = valid = invalid = errors = 0
    failures = []
    for quad in quads:
        total += 1
        q = EndpointQuad(*quad)
        try:
            sol = fn(g, q)
        except CoverError as exc:
            errors += 1
            failures.append(
                {"quad": _quad_json(q), "error": f"{type(exc).__name__}: {exc}"}
            )
            continue
        if sol is None:
            invalid += 1
            failures.append({"quad": _quad_json(q), "error": "NoSolution"})
            continue
        report = check_p2c(g, q, sol)
        if report.valid:
            valid += 1
        else:
            invalid += 1
            failures.append(
                {"quad": _quad_json(q), "violations": report.to_json()["violations"]}
            )
    return total, valid, invalid, errors, failures


def sweep(
    g,
    mode: str = "exhaustive",
    constructor: str = "johnson",
    seed: int = 0,
    count: int = 1000,
    budget: int = DEFAULT_SWEEP_BUDGET,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    jobs: int = 1,
) -> SweepSummary:
    """Run a constructor over endpoint quadruples and certify every result.
    A graph with fewer than 4 vertices has no quadruple and raises
    ``TooFewVertices`` rather than report an empty success."""
    verts = list(g.vertices())
    nv = len(verts)
    if nv < 4:
        raise TooFewVertices(f"need at least 4 vertices to sweep, got {nv}")
    if mode == "exhaustive":
        n_quads = nv * (nv - 1) * (nv - 2) * (nv - 3)
        if n_quads > budget:
            raise SweepBudget(f"{n_quads} quads exceeds budget {budget}")
        quads = _ordered_quads(verts)
        mode_json = {"kind": "exhaustive"}
    elif mode == "sampled":
        if count <= 0:
            raise ValueError(f"sampled sweep needs a positive count, got {count}")
        rng = random.Random(seed)
        quads = [tuple(rng.sample(verts, 4)) for _ in range(count)]
        mode_json = {"kind": "sampled", "seed": seed, "count": count}
    else:
        raise ValueError(f"unknown sweep mode {mode!r}")

    if jobs > 1:
        results = _sweep_parallel(g, quads, constructor, oracle_cap, jobs)
    else:
        results = [_run_quads(g, quads, constructor, oracle_cap)]

    total = sum(r[0] for r in results)
    valid = sum(r[1] for r in results)
    invalid = sum(r[2] for r in results)
    errors = sum(r[3] for r in results)
    failures = [f for r in results for f in r[4]]
    failures.sort(key=lambda f: str(f["quad"]))
    return SweepSummary(
        graph=g.descriptor(),
        mode=mode_json,
        total=total,
        valid=valid,
        invalid=invalid,
        errors=errors,
        failures=failures[:10],
    )


def _ordered_quads(verts):
    for u in verts:
        for v in verts:
            if v == u:
                continue
            for x in verts:
                if x == u or x == v:
                    continue
                for y in verts:
                    if y == u or y == v or y == x:
                        continue
                    yield (u, v, x, y)


def _sweep_parallel(g, quads, constructor, oracle_cap, jobs):
    from concurrent.futures import ProcessPoolExecutor

    quads = list(quads)
    chunk = max(1, (len(quads) + jobs - 1) // jobs)
    batches = [quads[i : i + chunk] for i in range(0, len(quads), chunk)]
    run = partial(_run_quads, g, constructor=constructor, oracle_cap=oracle_cap)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run, batches))
