"""Paired 2-disjoint path covers of complete graphs, J(n,k) and QJ(n,A).

J(n,k) is the one-level stack QJ(n,{k}), so both graph classes have one
mask entry, ``p2c_masks``: it refuses graphs outside the theorem, checks
the quad (u, v, x, y) of four masks and returns the masks of the two paths
as lists.  ``p2c_johnson`` and ``p2c_qj`` are its wrappers, which take an
``EndpointQuad`` of ``ElementSet``s and return wrapped paths that end at
the quad's own objects; ``p2c_johnson`` also refuses any graph that is not
one level in 1..n-1.

One level is covered by the Johnson double induction (``_solve``):
complement reduction when k < n < 2k, then a split of J(n,k) by the
element n into X (without n, isomorphic to J(n-1,k)) and Y (with n,
isomorphic to J(n-1,k-1)), with the dispatch driven by how many of the four
endpoints contain n.  Subproblems on at most 12 vertices, the J(4,2) base
case among them, are answered by the exact search
``hamilton._search_masks``.  Each mirrored X/Y case is written once on a
``_Side`` (``hamilton``), whose embedding is an XOR with 0 on X and with
bit n on Y; complementation is an XOR with the full mask.  Both, and the
mirror of a stack through complementation, solve in other masks through
one helper, ``_solve_xor``, which XORs the quad in and both paths back.
The neighbors across the split come from one pick,
``hamilton._first_across``.

A stack is covered by ``_solve_qj``: it first solves a local cover on the
contiguous level range spanned by the four endpoints, then expands it to
the whole stack by splicing Hamilton paths of the level ranges below and
above through boundary-level edges (the EP2C expansion, ``ep2c_expand``,
in place).  ``_solve_qj`` is the one reader of the endpoints' levels: it
orders the endpoints by level once and picks the local cover by how they
sit on one to four levels; each case finds an endpoint's partner as
``quad[e ^ 1]``.  An apex level J(n,n) is absorbed separately
(``_absorb_apex``): its single vertex is either spliced into a top-level
edge by the same expansion or attached by a pendant cross edge.  The
auxiliary vertices of the lemmas come from two picks on masks: the first
vertices of a level that are no endpoint (``_free``), and a first neighbor
on another level (``pick_one_avoiding``, and ``pick_two_avoiding`` for the
ends of an edge).  The picks and the expansion live in ``hamilton``, whose
QJ Hamilton builder splices levels the same way.

Every subproblem ends in ``_finish``, which orients its two paths where
they do not already run u to v and x to y and, while an entry point called
with ``debug=True`` runs, certifies them: such a call of the mask entry
sets one context variable for its length, and a plain call writes none, so
no solver function passes a flag on and the off path costs one read.
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
    _cross_memo,
    _explicit_search,
    _first_across,
    _free,
    _ham,
    _ham_path,
    _level_edge,
    _mask_search,
    _search_masks,
    _sides,
    _swappable,
    ep2c_expand,
    pick_one_avoiding,
    pick_two_avoiding,
)
from .subsets import ElementSet, full_mask, k_masks, mask_keys
from .verify import _vertex_keys, certify, host_of


def clear_caches() -> None:
    """Empty every memo, so the next construction starts cold."""
    _ham_path.cache_clear()
    _cross_memo.cache_clear()
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
    ends = q.vertices()
    if len(set(ends)) != 4:
        raise not_distinct(map(repr, ends))
    for w in ends:
        if w not in vertices:
            raise BadQuad(f"{w} is not among the given vertices")
    rest = sorted(w for w in vertices if w not in ends)
    return P2CSolution(
        Path((q.u, q.v)), Path(tuple([q.x, *rest, q.y]))
    )


def p2c_johnson(g: JohnsonGraph, q: EndpointQuad, debug: bool = False) -> P2CSolution:
    """Paired 2-disjoint path cover of J(n,k) = QJ(n,{k}), n >= 4, 1 <= k < n."""
    n, levels = g.n, g.levels
    if n < 4 or len(levels) != 1 or not 1 <= levels[0] <= n - 1:
        raise OutOfTheoremRange(f"{g} outside n >= 4, 1 <= k <= n-1")
    return p2c_qj(g, q, debug)


def p2c_qj(g: QJGraph, q: EndpointQuad, debug: bool = False) -> P2CSolution:
    """Paired 2-disjoint path cover of QJ(n,A), n >= 4, at least 4 vertices."""
    paths = p2c_masks(g, mask_keys(q.vertices(), g.n), debug)
    return _wrap_cover(q, paths, g.n)


def p2c_masks(g, quad, debug: bool = False):
    """The cover of J(n,k) or QJ(n,A) on masks: the quad (u, v, x, y) as four
    masks in, the masks of the u-to-v and x-to-y paths out, as two lists.
    With ``debug``, every intermediate cover is certified too, under the
    context that ``_with_debug`` sets; without it the solver runs directly
    and no context is written.  The one way into the Johnson induction, the
    stacked and the apex construction."""
    if g.n < 4:
        raise OutOfTheoremRange(f"{g} has n < 4")
    if g.vertex_count < 4:
        raise OutOfTheoremRange(f"{g} has fewer than 4 vertices")
    check_quad(quad, g.n, g.levels)
    solve = _absorb_apex if g.n in g.levels else _solve_qj
    if debug:
        return _with_debug(solve, g.n, g.levels, *quad)
    return solve(g.n, g.levels, *quad)


# Whether the construction under way certifies every intermediate cover.  The
# mask entry sets it for the length of a ``debug=True`` call and leaves it
# unset otherwise; only ``_finish`` reads it.
_certifying = ContextVar("certifying", default=False)


def _with_debug(solve, *args):
    """``solve(*args)`` with every intermediate cover certified."""
    token = _certifying.set(True)
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
    if not (p1[0] == u and p1[-1] == v and p2[0] == x and p2[-1] == y):
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


# ---------------------------------------------------------------------------
# One level: the Johnson induction.


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
    in_y = (u >> n & 1, v >> n & 1, x >> n & 1, y >> n & 1)
    cnt = in_y[0] + in_y[1] + in_y[2] + in_y[3]
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
    u, v, x, y = quad
    p1, p2 = solve(n, level, u ^ mask, v ^ mask, x ^ mask, y ^ mask)
    # List comprehensions: [*map(mask.__xor__, p)] takes nearly twice as
    # long on a half of J(18,9).
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
    for a in side.head:
        if a not in quad:
            break
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
        # A mask holding one of the two trades it for the other; written out
        # three times, as a nested function costs more than the swap.
        swap = (1 << odd) | (1 << n)
        u, v, x, y = [w ^ swap if (w >> odd ^ w >> n) & 1 else w for w in quad]
        p1, p2 = _solve(n, k, u, v, x, y)
        return (
            [w ^ swap if (w >> odd ^ w >> n) & 1 else w for w in p1],
            [w ^ swap if (w >> odd ^ w >> n) & 1 else w for w in p2],
        )

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


# ---------------------------------------------------------------------------
# Stacks: the local cover, its expansion and the apex level J(n,n).


def _absorb_apex(n, A, u, v, x, y):
    """Oriented (u-to-v, x-to-y) cover of QJ(n,A) on masks, via the cover of
    QJ(n, A-{n}); A ends in n and holds another level."""
    apex = full_mask(n)
    quad = (u, v, x, y)
    if apex not in quad:
        p1, p2 = _solve_qj(n, A[:-1], u, v, x, y)
        ep2c_expand([p1, p2], n, A, 0, len(A) - 2)
    else:
        # The apex is quad[e]: a level-top vertex that is no endpoint stands
        # in for it and reaches it by a pendant edge.
        e = quad.index(apex)
        q1, q2 = quad[2:] if e < 2 else quad[:2]
        cp = next(_free(n, A[-2], quad))
        p1, p2 = _solve_qj(n, A[:-1], cp, quad[e ^ 1], q1, q2)
        p1.insert(0, apex)
    return _finish(n, A, quad, p1, p2)


def _solve_qj(n, A, u, v, x, y):
    """Oriented (u-to-v, x-to-y) cover of QJ(n,A) on masks; A excludes n.

    The one reader of the endpoints' levels: quad[e] lies on level A[lv[e]],
    and ``order`` lists the endpoints e by level, ties in quad order, on the
    levels i <= j <= k <= l.  How they sit there picks the local cover of
    A[i..l], which the EP2C expansion extends to all of A; an endpoint's
    partner is quad[e ^ 1]."""
    if len(A) == 1:
        return _solve(n, A[0], u, v, x, y)
    quad = (u, v, x, y)
    lv = [A.index(w.bit_count()) for w in quad]
    order = sorted(range(4), key=lv.__getitem__)
    e1, e2, e3, e4 = order
    s = i, j, k, l = [lv[e] for e in order]
    if i == l:
        local = _solve(n, A[i], u, v, x, y)
    elif i == k or j == l:
        local = _local_trio(n, A, quad, lv, e4 if i == k else e1)
    elif i < j and k == l:
        # Mirror through complementation so the doubled level is lowest.
        flipped = tuple(n - a for a in reversed(A[i : l + 1]))
        local = _solve_xor(_solve_qj, n, flipped, quad, full_mask(n))
    elif e1 ^ 1 == e2 and j < k:
        # The lower pair lies below the upper one: two Hamilton stacks, cut
        # below the top level if the endpoints sit on two levels, else above
        # the lower pair.
        c = l if k == l else j + 1
        low = _ham(n, A[i:c], quad[e1], quad[e2])
        local = low, _ham(n, A[c : l + 1], quad[e3], quad[e4])
    elif k == l:
        local = _local_interleaved(n, A, quad, order, s)
    elif i == j:
        local = _local_doubled_low(n, A, quad, order, s)
    elif j == k:
        local = _local_doubled_middle(n, A, quad, order, s)
    else:
        local = _local_four_levels(n, A, quad, order, s)
    ep2c_expand(local, n, A, i, l)
    return _finish(n, A, quad, *local)


def _local_trio(n, A, quad, lv, e):
    """quad[e] alone on its level, the other three endpoints on level A[t]:
    those three are covered on A[t] from a vertex a in place of quad[e],
    which a reaches through the levels between."""
    lone = quad[e]
    t, l = lv[e ^ 1], lv[e]
    q1, q2 = quad[2:] if e < 2 else quad[:2]
    a = next(_free(n, A[t], quad))
    step = t + 1 if t < l else t - 1
    ap = pick_one_avoiding(n, A[step], a, lone)
    bridge = _ham(n, A[min(step, l) : max(step, l) + 1], ap, lone)
    s1, s2 = _solve(n, A[t], q1, q2, quad[e ^ 1], a)
    return [s1, s2 + bridge]


def _local_interleaved(n, A, quad, order, s):
    """One endpoint of each pair on level A[i], the other on A[l]: u, x
    low and v, y high."""
    u, x, v, y = (quad[e] for e in order)
    i, l = s[0], s[3]
    if A[l] < n - 1:
        p1 = _ham(n, A[i:l], u, x)
        _, t = _level_edge([p1], A[l - 1])
        a, b = p1[t], p1[t + 1]
        ap, bp = pick_two_avoiding(n, A[l], a, b, {v, y})
        s1, s2 = _solve(n, A[l], ap, v, bp, y)
        tail = p1[:t:-1]
        tail += s2
        del p1[t + 1 :]
        p1 += s1
        return [p1, tail]

    p2 = _ham(n, (A[l],), v, y)
    c, d = p2[0], p2[1]
    cp, dp = pick_two_avoiding(n, A[l - 1], c, d, {u, x})
    s1, s2 = _solve_qj(n, A[i:l], cp, u, dp, x)
    s1.reverse()
    s1.append(c)
    p2[:1] = reversed(s2)
    return [s1, p2]


def _local_doubled_low(n, A, quad, order, s):
    """One endpoint of each pair on level A[i], one on A[k] and one on A[l]
    above: the lower levels are covered up to a vertex a of A[k] in place
    of the top endpoint, which a' above a reaches through A[k+1..l]."""
    e3, e4 = order[2:]
    i, _, k, l = s
    mid, top = quad[e3], quad[e4]
    a = next(_free(n, A[k], quad))
    ap = pick_one_avoiding(n, A[k + 1], a, top)
    s1, s2 = _solve_qj(n, A[i : k + 1], quad[e3 ^ 1], mid, quad[e4 ^ 1], a)
    bridge = _ham(n, A[k + 1 : l + 1], ap, top)
    return [s1, s2 + bridge]


def _local_doubled_middle(n, A, quad, order, s):
    """Two endpoints on the middle level A[j], one on A[i] below and one on
    A[l] above: two auxiliary middle vertices a and b reach down to a' and
    up to b'."""
    e1, e2, e3, e4 = order
    i, j, _, l = s
    low, top = quad[e1], quad[e4]
    a, b = islice(_free(n, A[j], quad), 2)
    ap = pick_one_avoiding(n, A[j - 1], a, low)
    bp = pick_one_avoiding(n, A[j + 1], b, top)
    h_high = _ham(n, A[j + 1 : l + 1], bp, top)
    if e2 ^ 1 == e3:
        # Middle pair covered inside its level; the outer pair threads both
        # Hamilton stacks through a and b.
        s1, s2 = _solve(n, A[j], quad[e2], quad[e3], a, b)
        h_low = _ham(n, A[i:j], low, ap)
        return [h_low + s2 + h_high, s1]
    # Middle holds one endpoint of each pair.
    s1, s2 = _solve(n, A[j], quad[e1 ^ 1], a, quad[e4 ^ 1], b)
    h_low = _ham(n, A[i:j], ap, low)
    return [s1 + h_low, s2 + h_high]


def _local_four_levels(n, A, quad, order, s):
    """One endpoint on each of four levels, the lowest two not a pair."""
    e1, _, e3, _ = order
    w1, w2, w3, w4 = (quad[e] for e in order)
    i, j, k, l = s
    a = next(_free(n, A[j], quad))
    b = next(_free(n, A[k], quad))
    ap = pick_one_avoiding(n, A[j - 1], a, w1)
    bp = pick_one_avoiding(n, A[k + 1], b, w4)
    h_low = _ham(n, A[i:j], w1, ap)
    h_high = _ham(n, A[k + 1 : l + 1], w4, bp)

    if e1 ^ 1 == e3:
        # Pairs (w1,w3) and (w2,w4): middle cover joins a to w3 and b to w2.
        s1, s2 = _solve_qj(n, A[j : k + 1], a, w3, b, w2)
        h_low += s1
        s2.reverse()
        s2 += reversed(h_high)
        return [h_low, s2]

    # Pairs (w1,w4) and (w2,w3): middle cover joins a to b and w2 to w3.
    s1, s2 = _solve_qj(n, A[j : k + 1], a, b, w2, w3)
    h_low += s1
    h_low += reversed(h_high)
    return [h_low, s2]
