"""Paired 2-disjoint path covers of complete graphs and J(n,k).

The Johnson constructor runs a double induction: complement reduction when
k < n < 2k, then a split of J(n,k) by the element n into X (without n,
isomorphic to J(n-1,k)) and Y (with n, isomorphic to J(n-1,k-1)), with the
dispatch driven by how many of the four endpoints contain n.  Subproblems
on at most 12 vertices are answered by the exact oracle, which also covers
the J(4,2) base case.

The induction runs on int bitmasks: the X embedding is the identity, the
Y embedding is ``_lift_y``/``_drop_n``, complementation is an XOR with the
full mask.  ``p2c_johnson`` unwraps the ``ElementSet`` endpoints once and
wraps the finished paths once.
"""

from __future__ import annotations

from math import comb

from .covers import EndpointQuad, P2CSolution
from .errors import (
    BadQuad,
    InvariantViolated,
    OutOfTheoremRange,
    SelectionExhausted,
    SpliceEdgeNotFound,
    TooFewVertices,
)
from .graphs import JohnsonGraph, QJGraph, mask_generic
from .hamilton import (
    _ORACLE_CACHE,
    Path,
    _drop_n,
    _ham_johnson,
    _lift_y,
    _sort_key,
    _x_neighbors,
    _y_neighbors,
    mask_path,
)
from .subsets import ElementSet, full_mask, k_masks

ORACLE_GUARD = 12


def p2c_complete(vertices, q: EndpointQuad) -> P2CSolution:
    """Complete-graph cover: <u,v> plus <x, rest in canonical order, y>."""
    vertices = list(vertices)
    if len(vertices) < 4:
        raise TooFewVertices(f"need at least 4 vertices, got {len(vertices)}")
    if len(set(q.vertices())) != 4:
        raise BadQuad(f"endpoints not pairwise distinct: {q.vertices()}")
    for w in q.vertices():
        if w not in vertices:
            raise BadQuad(f"{w} is not among the given vertices")
    rest = sorted((w for w in vertices if w not in q.vertices()), key=_sort_key)
    return P2CSolution(
        Path((q.u, q.v)), Path(tuple([q.x, *rest, q.y]))
    )


def p2c_johnson(g: JohnsonGraph, q: EndpointQuad, debug: bool = False) -> P2CSolution:
    """Paired 2-disjoint path cover of J(n,k), n >= 4, 1 <= k <= n-1."""
    if g.n < 4 or not 1 <= g.k <= g.n - 1:
        raise OutOfTheoremRange(f"{g} outside n >= 4, 1 <= k <= n-1")
    q.validate(g)
    p1, p2 = _solve(g.n, g.k, *(w.bits for w in q.vertices()), debug)
    return P2CSolution(mask_path(p1, g.n), mask_path(p2, g.n))


def _debug_check(n, levels, quad, p1, p2):
    """Certify an intermediate cover of J(n,k) (one level) or QJ(n,levels)
    given on masks; raises AssertionError naming the violations."""
    from .verify import check_p2c

    g = JohnsonGraph(n, levels[0]) if len(levels) == 1 else QJGraph(n, levels)
    q = EndpointQuad(*(ElementSet(w, n) for w in quad))
    report = check_p2c(g, q, P2CSolution(mask_path(p1, n), mask_path(p2, n)))
    if not report.valid:
        raise AssertionError(f"invalid cover of {g}: {report.violations}")


def _orient(p1, p2, u, v, x, y):
    """Return the two paths as (u-to-v, x-to-y)."""
    if {p1[0], p1[-1]} == {u, v}:
        puv, pxy = p1, p2
    else:
        puv, pxy = p2, p1
    if puv[0] != u:
        puv = list(reversed(puv))
    if pxy[0] != x:
        pxy = list(reversed(pxy))
    if not (puv[0] == u and puv[-1] == v and pxy[0] == x and pxy[-1] == y):
        raise InvariantViolated("the two paths do not end at the paired endpoints")
    return puv, pxy


def _solve_small(n, k, u, v, x, y):
    from .verify import p2c_bruteforce

    key = (n, k, u, v, x, y)
    hit = _ORACLE_CACHE.get(key)
    if hit is None:
        generic, verts = mask_generic(n, (k,))
        sol = p2c_bruteforce(generic, EndpointQuad(*map(verts.index, (u, v, x, y))))
        if sol is None:
            raise SelectionExhausted(f"oracle found no cover of J({n},{k})")
        hit = (
            tuple(verts[i] for i in sol.path_uv),
            tuple(verts[i] for i in sol.path_xy),
        )
        _ORACLE_CACHE[key] = hit
    return list(hit[0]), list(hit[1])


def _solve(n, k, u, v, x, y, debug=False):
    """Oriented (u-to-v, x-to-y) cover of J(n,k) on masks; assumes a valid quad."""
    p1, p2 = _dispatch(n, k, u, v, x, y, debug)
    p1, p2 = _orient(p1, p2, u, v, x, y)
    if debug:
        _debug_check(n, (k,), (u, v, x, y), p1, p2)
    return p1, p2


def _dispatch(n, k, u, v, x, y, debug):
    if k == 1 or k == n - 1:
        sol = p2c_complete(k_masks(n, k), EndpointQuad(u, v, x, y))
        return list(sol.path_uv), list(sol.path_xy)
    if comb(n, k) <= ORACLE_GUARD:
        return _solve_small(n, k, u, v, x, y)
    if 2 * k > n:
        full = full_mask(n)
        p1, p2 = _solve(n, n - k, full ^ u, full ^ v, full ^ x, full ^ y, debug)
        return [full ^ w for w in p1], [full ^ w for w in p2]

    nbit = 1 << n
    in_y = [bool(w & nbit) for w in (u, v, x, y)]
    cnt = sum(in_y)
    if cnt == 4:
        return _case_all_in_y(n, k, u, v, x, y, debug)
    if cnt == 0:
        return _case_all_in_x(n, k, u, v, x, y, debug)
    if cnt == 1:
        return _case_one_in_y(n, k, u, v, x, y, in_y, debug)
    if cnt == 3:
        return _case_one_in_x(n, k, u, v, x, y, in_y, debug)
    return _case_two_in_y(n, k, u, v, x, y, in_y, debug)


def _case_all_in_y(n, k, u, v, x, y, debug):
    nbit = 1 << n
    s1, s2 = _solve(
        n - 1, k - 1, _drop_n(u, n), _drop_n(v, n), _drop_n(x, n), _drop_n(y, n), debug
    )
    paths = [_lift_y(s1, n), _lift_y(s2, n)]
    for p in paths:
        for i in range(len(p) - 1):
            a, b = p[i], p[i + 1]
            free = full_mask(n - 1) & ~(a | b)
            if not free:
                continue
            repl = free & -free
            detour = _ham_johnson(n - 1, k, a ^ nbit | repl, b ^ nbit | repl)
            p[i + 1 : i + 1] = detour
            return paths[0], paths[1]
    raise SpliceEdgeNotFound(f"no spliceable edge in J({n},{k}) with all endpoints in Y")


def _case_all_in_x(n, k, u, v, x, y, debug):
    paths = list(_solve(n - 1, k, u, v, x, y, debug))
    for p in paths:
        for i in range(len(p) - 1):
            a, b = p[i], p[i + 1]
            common = a & b
            if not common:
                continue
            low = common & -common
            detour = _lift_y(_ham_johnson(n - 1, k - 1, a ^ low, b ^ low), n)
            p[i + 1 : i + 1] = detour
            return paths[0], paths[1]
    raise SpliceEdgeNotFound(f"no spliceable edge in J({n},{k}) with all endpoints in X")


def _pairing(u, v, x, y):
    return {u: v, v: u, x: y, y: x}


def _case_one_in_y(n, k, u, v, x, y, in_y, debug):
    # Exactly one endpoint contains n: it heads into Y via a bridge vertex.
    w = (u, v, x, y)[in_y.index(True)]
    partner = _pairing(u, v, x, y)[w]
    q1, q2 = [z for z in (u, v, x, y) if z not in (w, partner)]
    excluded = {partner, q1, q2}
    a = next(z for z in k_masks(n - 1, k) if z not in excluded)
    s1, s2 = _solve(n - 1, k, a, partner, q1, q2, debug)
    b = next(z for z in _y_neighbors(a, n) if z != w)
    bridge = _lift_y(_ham_johnson(n - 1, k - 1, _drop_n(w, n), _drop_n(b, n)), n)
    return bridge + s1, s2


def _case_one_in_x(n, k, u, v, x, y, in_y, debug):
    # Exactly one endpoint avoids n: mirror of the previous case inside Y.
    w = (u, v, x, y)[in_y.index(False)]
    partner = _pairing(u, v, x, y)[w]
    q1, q2 = [z for z in (u, v, x, y) if z not in (w, partner)]
    excluded = {partner, q1, q2}
    nbit = 1 << n
    a = next(z for z in (c | nbit for c in k_masks(n - 1, k - 1)) if z not in excluded)
    s1, s2 = _solve(
        n - 1,
        k - 1,
        _drop_n(a, n),
        _drop_n(partner, n),
        _drop_n(q1, n),
        _drop_n(q2, n),
        debug,
    )
    b = next(z for z in _x_neighbors(a, n) if z != w)
    bridge = _ham_johnson(n - 1, k, w, b)
    return bridge + _lift_y(s1, n), _lift_y(s2, n)


def _case_two_in_y(n, k, u, v, x, y, in_y, debug):
    quad = (u, v, x, y)
    odd = next(
        (e for e in range(1, n + 1) if sum(w >> e & 1 for w in quad) != 2), None
    )
    if odd is not None:
        # Swap an unbalanced element with n and re-dispatch: the swapped quad
        # no longer has exactly two endpoints containing n.
        swap = (1 << odd) | (1 << n)

        def relabel(w):
            return w ^ swap if (w >> odd ^ w >> n) & 1 else w

        p1, p2 = _solve(n, k, *map(relabel, quad), debug)
        return [relabel(w) for w in p1], [relabel(w) for w in p2]

    if n != 2 * k:
        raise InvariantViolated(f"balanced element counts in J({n},{k}) force n = 2k")
    pair_y = {w for w, flag in zip(quad, in_y) if flag}
    if pair_y == {u, v} or pair_y == {x, y}:
        # One pair lives entirely in Y, the other entirely in X: two
        # independent Hamilton paths.
        if pair_y == {u, v}:
            p_uv = _lift_y(_ham_johnson(n - 1, k - 1, _drop_n(u, n), _drop_n(v, n)), n)
            p_xy = _ham_johnson(n - 1, k, x, y)
        else:
            p_uv = _ham_johnson(n - 1, k, u, v)
            p_xy = _lift_y(_ham_johnson(n - 1, k - 1, _drop_n(x, n), _drop_n(y, n)), n)
        return p_uv, p_xy

    # One endpoint of each pair lies in Y.  Two bridged covers,
    # one in X and one in Y, joined by the edges a-a' and b-b'.
    w1 = u if u in pair_y else v
    p1_ = v if w1 == u else u
    w2 = x if x in pair_y else y
    p2_ = y if w2 == x else x
    a, ap, b, bp = _pick_bridges(n, k, w1, w2, p1_, p2_)
    solx1, solx2 = _solve(n - 1, k, p1_, ap, p2_, bp, debug)
    soly1, soly2 = _solve(
        n - 1,
        k - 1,
        _drop_n(a, n),
        _drop_n(w1, n),
        _drop_n(b, n),
        _drop_n(w2, n),
        debug,
    )
    # solx1 runs p1_ -> ap; soly1 runs a -> w1; joined via the edge ap-a.
    return solx1 + _lift_y(soly1, n), solx2 + _lift_y(soly2, n)


def _pick_bridges(n, k, w1, w2, p1_, p2_):
    """First (a, a', b, b') in scan order: a,b in Y distinct and not w1/w2,
    a',b' their X-neighbors, distinct and not p1_/p2_."""
    y_vertices = _lift_y(k_masks(n - 1, k - 1), n)
    partners = {p1_, p2_}
    for a in y_vertices:
        if a == w1 or a == w2:
            continue
        for ap in _x_neighbors(a, n):
            if ap in partners:
                continue
            for b in y_vertices:
                if b == w1 or b == w2 or b == a:
                    continue
                for bp in _x_neighbors(b, n):
                    if bp in partners or bp == ap:
                        continue
                    return a, ap, b, bp
    raise SelectionExhausted(f"no bridge pair found in J({n},{k})")
