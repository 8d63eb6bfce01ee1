"""Paired 2-disjoint path covers of stacked Johnson graphs QJ(n,A).

The construction first solves a local cover on the contiguous level range
spanned by the four endpoints, then expands it to the whole stack by
splicing Hamilton paths of the level ranges below and above through
boundary-level edges (the EP2C expansion, ``ep2c_expand``, in place).
``_solve_qj`` is the one reader of the endpoints' levels: it orders the
endpoints by level once and picks the local cover by how they sit on one to
four levels; each case finds an endpoint's partner as ``quad[e ^ 1]``.  An
apex level J(n,n) is absorbed separately (``_absorb_apex``): its single
vertex is either spliced into a top-level edge by the same expansion or
attached by a pendant cross edge.

Vertices are int bitmasks throughout, as in the Johnson constructor, and
the mirror through complementation that puts a doubled top level lowest is
the Johnson constructor's own XOR map-back, ``p2c_johnson._solve_xor``.  The
auxiliary vertices of the lemmas come from two picks on masks: the first
vertices of a level that are no endpoint (``_free``), and a first neighbor
on another level (``pick_one_avoiding``, and ``pick_two_avoiding`` for the
ends of an edge).  The picks and the expansion live in ``hamilton``, whose
QJ Hamilton builder splices levels the same way.  ``p2c_qj_masks`` takes
the quad as four masks and returns the two paths as mask lists; it is the
one way into both the stacked and the apex construction.  ``p2c_qj`` is
its wrapper, which takes an ``EndpointQuad`` of ``ElementSet``s and returns
wrapped paths that end at the quad's own objects.
"""

from __future__ import annotations

from itertools import islice

from .covers import EndpointQuad, P2CSolution, check_quad
from .errors import OutOfTheoremRange
from .graphs import QJGraph
from .hamilton import (
    _free,
    _ham,
    _level_edge,
    ep2c_expand,
    pick_one_avoiding,
    pick_two_avoiding,
)
from .p2c_johnson import (
    _finish,
    _solve as _solve_johnson,
    _solve_xor,
    _with_debug,
    _wrap_cover,
)
from .subsets import full_mask, mask_keys


# ---------------------------------------------------------------------------
# Apex absorption (level J(n,n)).


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


# ---------------------------------------------------------------------------
# Top-level entry point.


def p2c_qj(g: QJGraph, q: EndpointQuad, debug: bool = False) -> P2CSolution:
    """Paired 2-disjoint path cover of QJ(n,A), n >= 4, at least 4 vertices."""
    paths = p2c_qj_masks(g, mask_keys(q.vertices(), g.n), debug)
    return _wrap_cover(q, paths, g.n)


def p2c_qj_masks(g: QJGraph, quad, debug: bool = False):
    """``p2c_qj`` on masks: the quad (u, v, x, y) as four masks in, the masks
    of the u-to-v and x-to-y paths out, as two lists.  With ``debug``, every
    intermediate cover is certified too."""
    if g.n < 4:
        raise OutOfTheoremRange(f"{g} has n < 4")
    if g.vertex_count < 4:
        raise OutOfTheoremRange(f"{g} has fewer than 4 vertices")
    check_quad(quad, g.n, g.levels)
    solve = _absorb_apex if g.n in g.levels else _solve_qj
    return _with_debug(debug, solve, g.n, g.levels, *quad)


def _solve_qj(n, A, u, v, x, y):
    """Oriented (u-to-v, x-to-y) cover of QJ(n,A) on masks; A excludes n.

    The one reader of the endpoints' levels: quad[e] lies on level A[lv[e]],
    and ``order`` lists the endpoints e by level, ties in quad order, on the
    levels i <= j <= k <= l.  How they sit there picks the local cover of
    A[i..l], which the EP2C expansion extends to all of A; an endpoint's
    partner is quad[e ^ 1]."""
    if len(A) == 1:
        return _solve_johnson(n, A[0], u, v, x, y)
    quad = (u, v, x, y)
    lv = [A.index(w.bit_count()) for w in quad]
    order = sorted(range(4), key=lv.__getitem__)
    e1, e2, e3, e4 = order
    s = i, j, k, l = [lv[e] for e in order]
    if i == l:
        local = _solve_johnson(n, A[i], u, v, x, y)
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
    s1, s2 = _solve_johnson(n, A[t], q1, q2, quad[e ^ 1], a)
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
        s1, s2 = _solve_johnson(n, A[l], ap, v, bp, y)
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
        s1, s2 = _solve_johnson(n, A[j], quad[e2], quad[e3], a, b)
        h_low = _ham(n, A[i:j], low, ap)
        return [h_low + s2 + h_high, s1]
    # Middle holds one endpoint of each pair.
    s1, s2 = _solve_johnson(n, A[j], quad[e1 ^ 1], a, quad[e4 ^ 1], b)
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
