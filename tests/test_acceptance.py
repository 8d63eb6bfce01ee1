"""Acceptance gate: the eight release criteria, each with its time budget.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in
captured output on failure).  Caches are cleared per criterion so the
reported runtimes are cold-start figures.
"""

import random
import time
from itertools import combinations, permutations

from johnson_p2c import (
    ElementSet,
    EndpointQuad,
    JohnsonGraph,
    P2CSolution,
    QJGraph,
    Relabeling,
    apply_relabeling,
    check_hamilton,
    check_p2c,
    clear_caches,
    complement,
    fig1_counterexample,
    hamilton_bruteforce,
    hamilton_johnson,
    hamilton_qj,
    p2c_bruteforce,
    p2c_complete,
    p2c_johnson,
    p2c_qj,
)
from johnson_p2c.hamilton import Path


def es(elems, n):
    return ElementSet.from_elements(elems, n)


def _reset():
    clear_caches()


def _report(name, started, limit, ok):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{status}] {name}: {elapsed:.2f}s (limit {limit:.0f}s)")
    assert ok, name
    assert elapsed < limit, f"{name} exceeded {limit}s ({elapsed:.2f}s)"


J42_ROWS = [
    ([1, 2], [1, 3], [2, 3], [2, 4],
     [[1, 2], [1, 4], [1, 3]], [[2, 3], [3, 4], [2, 4]]),
    ([1, 2], [2, 4], [1, 3], [2, 3],
     [[1, 2], [1, 4], [2, 4]], [[1, 3], [3, 4], [2, 3]]),
    ([1, 2], [2, 3], [1, 3], [2, 4],
     [[1, 2], [2, 3]], [[1, 3], [1, 4], [3, 4], [2, 4]]),
    ([1, 2], [1, 3], [2, 4], [3, 4],
     [[1, 2], [1, 4], [1, 3]], [[2, 4], [2, 3], [3, 4]]),
    ([1, 2], [2, 4], [1, 3], [3, 4],
     [[1, 2], [2, 3], [2, 4]], [[1, 3], [1, 4], [3, 4]]),
    ([1, 2], [3, 4], [1, 3], [2, 4],
     [[1, 2], [2, 3], [3, 4]], [[1, 3], [1, 4], [2, 4]]),
]


def test_criterion_1_j42_reference_rows():
    """All six reference covers of J(4,2) validate verbatim."""
    started = time.perf_counter()
    g = JohnsonGraph(4, 2)
    ok = True
    for u, v, x, y, puv, pxy in J42_ROWS:
        q = EndpointQuad(es(u, 4), es(v, 4), es(x, 4), es(y, 4))
        sol = P2CSolution(
            Path(tuple(es(w, 4) for w in puv)),
            Path(tuple(es(w, 4) for w in pxy)),
        )
        ok = ok and check_p2c(g, q, sol).valid
    _report("criterion 1: J(4,2) reference covers", started, 1.0, ok)


def test_criterion_2_complete_graphs():
    """p2c_complete on K_n, 4 <= n <= 8, every ordered quad."""
    started = time.perf_counter()
    ok = True
    for n in range(4, 9):
        g = JohnsonGraph(n, 1)
        verts = list(g.vertices())
        for four in permutations(verts, 4):
            q = EndpointQuad(*four)
            ok = ok and check_p2c(g, q, p2c_complete(verts, q)).valid
    _report("criterion 2: complete graphs n=4..8 exhaustive", started, 5.0, ok)


def test_criterion_3_johnson_exhaustive():
    """p2c_johnson exhaustive for 4 <= n <= 6, plus oracle cross-check J(5,2)."""
    _reset()
    started = time.perf_counter()
    ok = True
    for n in range(4, 7):
        for k in range(1, n):
            g = JohnsonGraph(n, k)
            for four in permutations(list(g.vertices()), 4):
                q = EndpointQuad(*four)
                ok = ok and check_p2c(g, q, p2c_johnson(g, q)).valid
    g = JohnsonGraph(5, 2)
    for four in permutations(list(g.vertices()), 4):
        q = EndpointQuad(*four)
        oracle = p2c_bruteforce(g, q)
        ok = ok and oracle is not None and check_p2c(g, q, oracle).valid
    _report("criterion 3: J(n,k) n=4..6 exhaustive + oracle cross-check", started, 60.0, ok)


def test_criterion_4_qj_desk_scale():
    """p2c_qj: n=4 exhaustive over all level sets; n=5 exhaustive <= 20
    vertices, else 1000 seeded samples each."""
    _reset()
    started = time.perf_counter()
    ok = True
    for m in range(1, 5):
        for A in combinations(range(1, 5), m):
            g = QJGraph(4, A)
            verts = list(g.vertices())
            if len(verts) < 4:
                continue
            for four in permutations(verts, 4):
                q = EndpointQuad(*four)
                ok = ok and check_p2c(g, q, p2c_qj(g, q)).valid
    for m in range(1, 6):
        for A in combinations(range(1, 6), m):
            g = QJGraph(5, A)
            verts = list(g.vertices())
            if len(verts) < 4:
                continue
            if len(verts) <= 20:
                quads = permutations(verts, 4)
            else:
                rng = random.Random(0)
                quads = (tuple(rng.sample(verts, 4)) for _ in range(1000))
            for four in quads:
                q = EndpointQuad(*four)
                ok = ok and check_p2c(g, q, p2c_qj(g, q)).valid
    _report("criterion 4: QJ(n,A) n=4 exhaustive, n=5 mixed", started, 120.0, ok)


def test_criterion_5_fig1_separation():
    """The modified 3-cube is Hamilton-connected yet admits no cover for
    the quad (000, 101, 100, 001)."""
    started = time.perf_counter()
    g, (u, v, x, y) = fig1_counterexample()
    ok = True
    pairs = 0
    for s, t in permutations(range(8), 2):
        p = hamilton_bruteforce(g, s, t)
        if p is not None and check_hamilton(g, p, s, t).valid:
            pairs += 1
    ok = ok and pairs == 56
    ok = ok and p2c_bruteforce(g, EndpointQuad(u, v, x, y)) is None
    _report("criterion 5: Hamilton-connected non-coverable fixture", started, 1.0, ok)


def test_criterion_6_hamilton_builders():
    """Hamilton builders exhaustive: all J(n,k) with C(n,k) <= 20 and all
    QJ(n,A) with n <= 5."""
    _reset()
    started = time.perf_counter()
    ok = True
    for n in range(2, 7):
        for k in range(1, n):
            g = JohnsonGraph(n, k)
            if g.vertex_count > 20:
                continue
            for s, t in permutations(list(g.vertices()), 2):
                ok = ok and check_hamilton(g, hamilton_johnson(g, s, t), s, t).valid
    for n in range(2, 6):
        for m in range(1, n + 1):
            for A in combinations(range(1, n + 1), m):
                g = QJGraph(n, A)
                verts = list(g.vertices())
                if len(verts) < 2:
                    continue
                for s, t in permutations(verts, 2):
                    ok = ok and check_hamilton(g, hamilton_qj(g, s, t), s, t).valid
    _report("criterion 6: Hamilton builders exhaustive", started, 60.0, ok)


def test_criterion_7_performance():
    """Large-instance covers: J(14,7) under 2s, J(16,8) under 10s."""
    _reset()
    ok = True
    g = JohnsonGraph(14, 7)
    vs = list(g.vertices())
    q = EndpointQuad(vs[0], vs[-1], vs[1], vs[-2])
    started = time.perf_counter()
    ok = ok and check_p2c(g, q, p2c_johnson(g, q)).valid
    _report("criterion 7a: J(14,7) cover", started, 2.0, ok)

    _reset()
    g = JohnsonGraph(16, 8)
    vs = list(g.vertices())
    q = EndpointQuad(vs[0], vs[-1], vs[1], vs[-2])
    started = time.perf_counter()
    ok = ok and check_p2c(g, q, p2c_johnson(g, q)).valid
    _report("criterion 7b: J(16,8) cover", started, 10.0, ok)


def test_criterion_8_equivariance():
    """Relabeling and complement equivariance on 500 seeded instances."""
    _reset()
    started = time.perf_counter()
    rng = random.Random(20260823)
    ok = True
    for _ in range(500):
        n = rng.randint(4, 7)
        k = rng.randint(1, n - 1)
        g = JohnsonGraph(n, k)
        verts = list(g.vertices())
        if len(verts) < 4:
            continue
        u, v, x, y = rng.sample(verts, 4)
        q = EndpointQuad(u, v, x, y)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        r = Relabeling(perm)
        qi = EndpointQuad(*(apply_relabeling(r, w) for w in (u, v, x, y)))
        sol = p2c_johnson(g, qi)
        pulled = P2CSolution(
            Path(tuple(apply_relabeling(r.inverse(), w) for w in sol.path_uv)),
            Path(tuple(apply_relabeling(r.inverse(), w) for w in sol.path_xy)),
        )
        ok = ok and check_p2c(g, q, pulled).valid
        sol = p2c_johnson(g, q)
        gc = JohnsonGraph(n, n - k)
        qc = EndpointQuad(*(complement(w) for w in (u, v, x, y)))
        mapped = P2CSolution(
            Path(tuple(complement(w) for w in sol.path_uv)),
            Path(tuple(complement(w) for w in sol.path_xy)),
        )
        ok = ok and check_p2c(gc, qc, mapped).valid
    _report("criterion 8: equivariance, 500 seeded instances", started, 60.0, ok)
