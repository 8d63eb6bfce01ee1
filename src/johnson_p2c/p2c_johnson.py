"""Paired 2-disjoint path covers of complete graphs and J(n,k).

The Johnson constructor runs a double induction: complement reduction when
k < n < 2k, then a split of J(n,k) by the element n into X (without n,
isomorphic to J(n-1,k)) and Y (with n, isomorphic to J(n-1,k-1)), with the
dispatch driven by how many of the four endpoints contain n.  Subproblems
on at most 12 vertices, the J(4,2) base case among them, are answered by
the exact search ``hamilton._search_masks``.

The induction runs on int bitmasks: each mirrored X/Y case is written once
on a ``_Side`` (``hamilton``), whose embedding is an XOR with 0 on X and
with bit n on Y; complementation is an XOR with the full mask.  Both, and
the complement flip of ``p2c_qj``, solve in other masks through one
helper, ``_solve_xor``, which XORs the quad in and both paths back.  The
neighbors across the split come from one pick, ``hamilton._first_across``.
``p2c_johnson_masks`` takes the quad as masks, validates it and returns
the two paths as mask lists; ``p2c_johnson`` unwraps the ``ElementSet``
endpoints once and wraps the finished paths once.

Every subproblem, here and in ``p2c_qj``, ends in ``_finish``, which
orients its two paths and, while an entry point called with ``debug=True``
runs, certifies them: the mask entries set one context variable for the
length of the call, so no solver function passes a flag on.
"""

from __future__ import annotations

from contextvars import ContextVar
from functools import lru_cache
from itertools import islice, repeat
from math import comb

from .covers import EndpointQuad, P2CSolution, check_quad, not_distinct
from .errors import (
    BadQuad,
    InvariantViolated,
    OutOfTheoremRange,
    SelectionExhausted,
    TooFewVertices,
)
from .graphs import MEMO_SIZE, JohnsonGraph, QJGraph
from .hamilton import (
    BRUTE_FORCE_LIMIT,
    Path,
    _explicit_search,
    _first_across,
    _ham_path,
    _mask_search,
    _search_masks,
    _sides,
    _swappable,
)
from .subsets import ElementSet, full_mask, k_masks, mask_keys
from .verify import _vertex_keys, certify, host_of


def clear_caches() -> None:
    """Empty every memo, so the next construction starts cold."""
    _ham_path.cache_clear()
    _oracle_cover.cache_clear()
    _mask_search.cache_clear()
    _explicit_search.cache_clear()
    _sides.cache_clear()
    _vertex_keys.cache_clear()


def p2c_complete(vertices, q: EndpointQuad) -> P2CSolution:
    """Complete-graph cover: <u,v> plus <x, rest in canonical order, y>."""
    vertices = list(vertices)
    if len(vertices) < 4:
        raise TooFewVertices(f"need at least 4 vertices, got {len(vertices)}")
    if len(set(q.vertices())) != 4:
        raise not_distinct(map(repr, q.vertices()))
    for w in q.vertices():
        if w not in vertices:
            raise BadQuad(f"{w} is not among the given vertices")
    rest = sorted(w for w in vertices if w not in q.vertices())
    return P2CSolution(
        Path((q.u, q.v)), Path(tuple([q.x, *rest, q.y]))
    )


def p2c_johnson(g: JohnsonGraph, q: EndpointQuad, debug: bool = False) -> P2CSolution:
    """Paired 2-disjoint path cover of J(n,k) = QJ(n,{k}), n >= 4, 1 <= k < n."""
    paths = p2c_johnson_masks(g, mask_keys(q.vertices(), g.n), debug)
    return _wrap_cover(q, paths, g.n)


def p2c_johnson_masks(g: JohnsonGraph, quad, debug: bool = False):
    """``p2c_johnson`` on masks: the quad (u, v, x, y) as four masks in, the
    masks of the u-to-v and x-to-y paths out, as two lists.  With ``debug``,
    every intermediate cover is certified too."""
    n, levels = g.n, g.levels
    if n < 4 or len(levels) != 1 or not 1 <= levels[0] <= n - 1:
        raise OutOfTheoremRange(f"{g} outside n >= 4, 1 <= k <= n-1")
    return _with_debug(debug, _solve, n, levels[0], *check_quad(quad, n, levels))


# Whether the construction under way certifies every intermediate cover.  The
# mask entries set it for the length of one call; only ``_finish`` reads it.
_certifying = ContextVar("certifying", default=False)


def _with_debug(on, solve, *args):
    """``solve(*args)`` with intermediate covers certified iff ``on``."""
    token = _certifying.set(on)
    try:
        return solve(*args)
    finally:
        _certifying.reset(token)


def _wrap_cover(q: EndpointQuad, paths, n: int) -> P2CSolution:
    """The oriented mask paths as ``ElementSet`` paths that end at the quad's
    own vertex objects."""
    u, v, x, y = q.vertices()
    p1, p2 = paths
    return P2CSolution(_end_path(u, p1, v, n), _end_path(x, p2, y, n))


def _end_path(first, masks, last, n) -> Path:
    """``mask_path`` of an oriented path that reuses the vertex objects of
    its ends: only the inner vertices are wrapped anew."""
    inner = map(ElementSet, islice(masks, 1, len(masks) - 1), repeat(n))
    return Path(tuple([first, *inner, last]))


def _finish(n, levels, quad, p1, p2):
    """The two paths of a cover of J(n,k) (one level) or QJ(n,levels) on
    masks, oriented as (u-to-v, x-to-y).  While intermediate covers are
    being certified, raises InvariantViolated naming the violations."""
    u, v, x, y = quad
    p1, p2 = _orient(p1, p2, u, v, x, y)
    if _certifying.get():
        g = JohnsonGraph(n, levels[0]) if len(levels) == 1 else QJGraph(n, levels)
        report = certify(host_of(g), (p1, p2), ((u, v), (x, y)))
        if not report.valid:
            raise InvariantViolated(f"invalid cover of {g}: {report.violations}")
    return p1, p2


def _orient(p1, p2, u, v, x, y):
    """Return the two paths as (u-to-v, x-to-y)."""
    ends = p1[0], p1[-1]
    if ends == (u, v) or ends == (v, u):
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
    """The oracle's cover of a small J(n,k); the caller owns the lists."""
    p1, p2 = _oracle_cover(n, k, u, v, x, y)
    return list(p1), list(p2)


@lru_cache(maxsize=MEMO_SIZE)
def _oracle_cover(n, k, u, v, x, y):
    found = _search_masks(n, (k,), ((u, v), (x, y)))
    if found is None:
        raise SelectionExhausted(f"oracle found no cover of J({n},{k})")
    return tuple(found[0]), tuple(found[1])


def _solve(n, k, u, v, x, y):
    """Oriented (u-to-v, x-to-y) cover of J(n,k) on masks; assumes a valid quad."""
    p1, p2 = _dispatch(n, k, u, v, x, y)
    return _finish(n, (k,), (u, v, x, y), p1, p2)


def _dispatch(n, k, u, v, x, y):
    if k == 1 or k == n - 1:
        sol = p2c_complete(k_masks(n, k), EndpointQuad(u, v, x, y))
        return list(sol.path_uv), list(sol.path_xy)
    if comb(n, k) <= BRUTE_FORCE_LIMIT:
        return _solve_small(n, k, u, v, x, y)
    if 2 * k > n:
        return _solve_xor(_solve, n, n - k, (u, v, x, y), full_mask(n))

    quad = (u, v, x, y)
    in_y = [w >> n & 1 for w in quad]
    cnt = sum(in_y)
    sides = _sides(n, k)
    if cnt in (0, 4):
        side = cnt // 4
        return _case_all_on_one_side(n, sides[side], sides[1 - side], quad)
    if cnt in (1, 3):
        # One endpoint, quad[i], apart from the other three: in Y if cnt is
        # 1, else in X.
        side, i = cnt // 3, in_y.index(cnt == 1)
        return _case_one_apart(n, sides[side], sides[1 - side], quad, i)
    return _case_two_in_y(n, k, quad, in_y, sides)


def _solve_xor(solve, n, level, quad, mask):
    """``solve(n, level, ...)`` on the quad XORed with ``mask``, both paths
    XORed back: a cover in masks that differ from the caller's by one XOR."""
    # List comprehensions: [*map(mask.__xor__, p)] takes nearly twice as
    # long on a half of J(18,9).
    p1, p2 = solve(n, level, *[w ^ mask for w in quad])
    return [w ^ mask for w in p1], [w ^ mask for w in p2]


def _solve_on(side, quad):
    """Oriented cover of one side of the split, on masks of J(n,k); on X,
    whose embedding is the identity, the quad goes in as it is."""
    if side.bit:
        return _solve_xor(_solve, side.n - 1, side.k, quad, side.bit)
    return _solve(side.n - 1, side.k, *quad)


def _case_all_on_one_side(n, side, other, quad):
    # Cover the side, then detour through the other side at the first edge
    # of the u-v path, whose ends trade a common element for n: adjacent
    # vertices share k-1 >= 1 elements on X and both lack n-k-1 >= 1 of
    # [n-1] on Y, as k >= 2 and n >= 2k here, so ``common`` is never 0.
    nbit = 1 << n
    paths = _solve_on(side, quad)
    p = paths[0]
    a, b = p[0], p[1]
    common = _swappable(a, n) & _swappable(b, n)
    e = common & -common
    p[1:1] = other.path(a ^ nbit ^ e, b ^ nbit ^ e)
    return paths


def _case_one_apart(n, side, other, quad, i):
    # Three endpoints on this side: cover it from a bridge vertex a, its first
    # vertex that is no endpoint, in place of the lone endpoint quad[i], which
    # reaches a through the other side; quad[i ^ 1] is its partner.
    lone, partner = quad[i], quad[i ^ 1]
    q1, q2 = quad[2:] if i < 2 else quad[:2]
    # With n >= 6 and k >= 2 each side has 5+ vertices, 3 of them endpoints,
    # and a has k >= 2 (X) or n-k >= 2 (Y) neighbors across: neither pick
    # runs dry.
    a = next(z for z in side.head if z not in quad)
    s1, s2 = _solve_on(side, (a, partner, q1, q2))
    b = _first_across(a, n, (lone,))
    p = other.path(lone, b)
    p += s1
    return p, s2


def _case_two_in_y(n, k, quad, in_y, sides):
    # The elements of [n] in an odd number of endpoints, in all four or in
    # none: those not in exactly two.
    u, v, x, y = quad
    unbalanced = u ^ v ^ x ^ y | u & v & x & y | full_mask(n) & ~(u | v | x | y)
    if unbalanced:
        # Swap the lowest unbalanced element with n and re-dispatch: the
        # swapped quad no longer has exactly two endpoints containing n.
        odd = (unbalanced & -unbalanced).bit_length() - 1
        swap = (1 << odd) | (1 << n)

        def relabel(ws):
            return [w ^ swap if (w >> odd ^ w >> n) & 1 else w for w in ws]

        p1, p2 = _solve(n, k, *relabel(quad))
        return relabel(p1), relabel(p2)

    # Every element lies in exactly two of the four k-subsets, so 4k = 2n.
    if in_y[0] == in_y[1]:
        # One pair lives entirely in Y, the other entirely in X: two
        # independent Hamilton paths.
        return sides[in_y[0]].path(u, v), sides[in_y[2]].path(x, y)

    # One endpoint of each pair lies in Y.  Two bridged covers,
    # one in X and one in Y, joined by the edges a-a' and b-b'.
    w1, p1_ = (u, v) if in_y[0] else (v, u)
    w2, p2_ = (x, y) if in_y[2] else (y, x)
    x_side, y_side = sides
    a, ap, b, bp = _pick_bridges(y_side, w1, w2, p1_, p2_)
    solx1, solx2 = _solve_on(x_side, (p1_, ap, p2_, bp))
    soly1, soly2 = _solve_on(y_side, (a, w1, b, w2))
    # solx1 runs p1_ -> ap; soly1 runs a -> w1; joined via the edge ap-a.
    solx1 += soly1
    solx2 += soly2
    return solx1, solx2


def _pick_bridges(y_side, w1, w2, p1_, p2_):
    """First (a, a', b, b') in scan order: a,b in Y distinct and not w1/w2,
    a',b' their X-neighbors, distinct and not p1_/p2_.

    The scan never runs dry.  Here n = 2k >= 6, so Y is J(n-1,k-1) with 10+
    vertices, each with n-k >= 3 neighbors in X.  The first a that is not
    w1/w2 has a neighbor a' other than the two partners.  A b whose
    neighbors across all lie in {p1_, p2_, a'} has exactly those n-k = 3,
    and those neighbors fix b (the elements of [n-1] they all hold are
    b's), so at most one b fails, and Y's head leaves at least two
    candidates for b after a."""
    n = y_side.n
    a, *rest = (z for z in y_side.head if z != w1 and z != w2)
    ap = _first_across(a, n, (p1_, p2_))
    avoid = (p1_, p2_, ap)
    for b in rest:
        bp = _first_across(b, n, avoid)
        if bp is not None:
            return a, ap, b, bp
