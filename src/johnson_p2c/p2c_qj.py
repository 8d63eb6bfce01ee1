"""Paired 2-disjoint path covers of stacked Johnson graphs QJ(n,A).

The construction first solves a local cover on the contiguous level range
spanned by the four endpoints (dispatch on how the endpoints are
distributed over one to four levels), then expands it to the whole stack
by splicing Hamilton paths of the level ranges below and above through
boundary-level edges (the EP2C expansion).  An apex level J(n,n) is
absorbed separately (``_absorb_apex``): its single vertex is either
inserted into a top-level edge or attached by a pendant cross edge.

Vertices are int bitmasks throughout, as in the Johnson constructor; the
lemma functions ``pick_one_avoiding``, ``pick_two_avoiding`` and
``ep2c_expand`` take and return masks.  ``p2c_qj_masks`` takes the quad as
four masks and returns the two paths as mask lists; it is the one way into
both the stacked and the apex construction.  ``p2c_qj`` is its wrapper,
which takes an ``EndpointQuad`` of ``ElementSet``s and returns wrapped
paths that end at the quad's own objects.
"""

from __future__ import annotations

from .covers import EndpointQuad, P2CSolution, check_quad
from .errors import (
    LemmaPreconditionViolated,
    OutOfTheoremRange,
    SelectionExhausted,
    SpliceEdgeNotFound,
)
from .graphs import QJGraph
from .hamilton import _find_level_edge, _ham
from .p2c_johnson import (
    _finish,
    _pairing,
    _solve as _solve_johnson,
    _with_debug,
    _wrap_cover,
)
from .subsets import cross_masks, full_mask, k_masks, mask_keys


# ---------------------------------------------------------------------------
# Neighbor selection (distinct-neighbor and single-neighbor picks).


def _check_cards(n, card_from, card_to, *vertices):
    if not (1 <= card_from <= n and 0 <= card_to <= n) or card_from == card_to:
        raise LemmaPreconditionViolated(
            f"bad level cardinalities {card_from} -> {card_to} for n={n}"
        )
    for w in vertices:
        if w.bit_count() != card_from:
            raise LemmaPreconditionViolated(f"{w:#x} is not at level {card_from}")


def pick_one_avoiding(n, card_from, card_to, a, avoid) -> int:
    """Smallest neighbor of the mask a at the target level outside `avoid`."""
    _check_cards(n, card_from, card_to, a)
    for w in cross_masks(a, n, card_to):
        if w not in avoid:
            return w
    raise SelectionExhausted(
        f"no neighbor of {a:#x} at cardinality {card_to} avoiding {set(avoid)}"
    )


def pick_two_avoiding(n, card_from, card_to, a, b, avoid) -> tuple[int, int]:
    """First pair (a', b') in scan order of distinct neighbors of the masks
    a and b at the target level, both outside `avoid`."""
    _check_cards(n, card_from, card_to, a, b)
    if a == b:
        raise LemmaPreconditionViolated("a and b must be distinct")
    cand_b = [w for w in cross_masks(b, n, card_to) if w not in avoid]
    for ap in cross_masks(a, n, card_to):
        if ap in avoid:
            continue
        for bp in cand_b:
            if bp != ap:
                return ap, bp
    raise SelectionExhausted(
        f"no distinct neighbor pair for {a:#x},{b:#x} at cardinality {card_to}"
    )


# ---------------------------------------------------------------------------
# EP2C expansion.


def _locate_level_edge(paths, card, forbidden=()):
    for pi, p in enumerate(paths):
        try:
            return pi, _find_level_edge(p, card, forbidden)
        except SpliceEdgeNotFound:
            continue
    raise SpliceEdgeNotFound(
        f"no within-level edge at cardinality {card} on either path"
    )


def ep2c_expand(paths, n, A, lo, hi):
    """Expand a local cover of levels A[lo..hi] to all of QJ(n,A), on masks:
    a Hamilton path of the levels below detours through the first edge on
    level A[lo], one of the levels above through the first edge on level
    A[hi] apart from that one."""
    paths = [list(paths[0]), list(paths[1])]
    splices = []
    down_edge = ()
    if lo > 0:
        pi, t = _locate_level_edge(paths, A[lo])
        down_edge = paths[pi][t : t + 2]
        splices.append((t, pi, A[lo], A[lo - 1], A[:lo]))
    if hi < len(A) - 1:
        pi, t = _locate_level_edge(paths, A[hi], down_edge)
        splices.append((t, pi, A[hi], A[hi + 1], A[hi + 1 :]))
    # The later index first: the two edges are disjoint, so the earlier one
    # keeps its index.
    for t, pi, card, card_to, others in sorted(splices, reverse=True):
        p = paths[pi]
        ap, bp = pick_two_avoiding(n, card, card_to, p[t], p[t + 1], frozenset())
        p[t + 1 : t + 1] = _ham(n, others, ap, bp)
    return paths


# ---------------------------------------------------------------------------
# Apex absorption (level J(n,n)).


def _absorb_apex(n, A, u, v, x, y):
    """Oriented (u-to-v, x-to-y) cover of QJ(n,A) on masks, via the cover of
    QJ(n, A-{n}); A ends in n and holds another level."""
    sub_levels = A[:-1]
    apex = full_mask(n)
    top = sub_levels[-1]
    quad = (u, v, x, y)

    if apex not in quad:
        p1, p2 = _solve_qj(n, sub_levels, u, v, x, y)
        pi, t = _locate_level_edge([p1, p2], top)
        (p1, p2)[pi].insert(t + 1, apex)
    else:
        partner = _pairing(u, v, x, y)[apex]
        others = [w for w in quad if w not in (apex, partner)]
        cp = _first_vertex(n, top, (partner, *others))
        p1, p2 = _solve_qj(n, sub_levels, cp, partner, others[0], others[1])
        p1 = [apex] + p1
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
    """Oriented (u-to-v, x-to-y) cover of QJ(n,A) on masks; A excludes n."""
    if len(A) == 1:
        return _solve_johnson(n, A[0], u, v, x, y)
    levels = [A.index(w.bit_count()) for w in (u, v, x, y)]
    lo, hi = min(levels), max(levels)
    local = _local_p2c(n, A, levels, u, v, x, y)
    p1, p2 = ep2c_expand(local, n, A, lo, hi)
    return _finish(n, A, (u, v, x, y), p1, p2)


def _flip_solve(n, A, lo, hi, u, v, x, y):
    """Solve on the complement-flipped level range and map the cover back."""
    flipped = tuple(n - a for a in reversed(A[lo : hi + 1]))
    full = full_mask(n)
    p1, p2 = _solve_qj(n, flipped, full ^ u, full ^ v, full ^ x, full ^ y)
    return [full ^ w for w in p1], [full ^ w for w in p2]


def _local_p2c(n, A, levels, u, v, x, y):
    """Cover of QJ(n, A[lo..hi]) where lo..hi is the endpoint level range."""
    lo, hi = min(levels), max(levels)
    distinct = sorted(set(levels))
    if len(distinct) == 1:
        return _solve_johnson(n, A[lo], u, v, x, y)
    if len(distinct) == 2:
        return _local_two_levels(n, A, levels, u, v, x, y)
    if len(distinct) == 3:
        return _local_three_levels(n, A, levels, u, v, x, y)
    return _local_four_levels(n, A, levels, u, v, x, y)


def _first_vertex(n, card, excluded):
    for w in k_masks(n, card):
        if w not in excluded:
            return w
    raise SelectionExhausted(f"level {card} exhausted avoiding {excluded}")


def _local_two_levels(n, A, levels, u, v, x, y):
    i, j = min(levels), max(levels)
    low_count = sum(1 for li in levels if li == i)

    if low_count in (1, 3):
        return _local_trio(n, A, levels, u, v, x, y)
    if levels[0] == levels[1]:
        # Aligned: each pair occupies a single level.  The lower pair rides a
        # Hamilton path of the lower stack, the upper pair one of the top level.
        low_pair, high_pair = ((u, v), (x, y)) if levels[0] == i else ((x, y), (u, v))
        p_low = _ham(n, A[i:j], low_pair[0], low_pair[1])
        p_high = _ham(n, (A[j],), high_pair[0], high_pair[1])
        return [p_low, p_high]
    return _local_interleaved(n, A, i, j, u, v, x, y)


def _local_interleaved(n, A, i, j, u, v, x, y):
    """One endpoint of each pair per level; u,x low and v,y high after
    normalization."""
    if u.bit_count() == A[j]:
        u, v = v, u
    if x.bit_count() == A[j]:
        x, y = y, x

    if A[j] < n - 1:
        p1 = _ham(n, A[i:j], u, x)
        t = _find_level_edge(p1, A[j - 1])
        a, b = p1[t], p1[t + 1]
        ap, bp = pick_two_avoiding(n, A[j - 1], A[j], a, b, {v, y})
        s1, s2 = _solve_johnson(n, A[j], ap, v, bp, y)
        tail = p1[:t:-1]
        tail += s2
        del p1[t + 1 :]
        p1 += s1
        return [p1, tail]

    p2 = _ham(n, (A[j],), v, y)
    c, d = p2[0], p2[1]
    cp, dp = pick_two_avoiding(n, A[j], A[j - 1], c, d, {u, x})
    s1, s2 = _solve_qj(n, A[i:j], cp, u, dp, x)
    s1.reverse()
    s1.append(c)
    p2[:1] = reversed(s2)
    return [s1, p2]


def _local_trio(n, A, levels, u, v, x, y):
    """Three endpoints on one level, the fourth on the other."""
    endpoints = (u, v, x, y)
    counts = {li: sum(1 for lw in levels if lw == li) for li in set(levels)}
    # Two levels hold the four endpoints, one of them and three of them.
    lone_level = next(li for li, c in counts.items() if c == 1)
    trio_level = next(li for li, c in counts.items() if c == 3)
    lone = endpoints[levels.index(lone_level)]
    pairing = _pairing(u, v, x, y)
    partner = pairing[lone]
    other_pair = [w for w in endpoints if w not in (lone, partner)]

    a = _first_vertex(n, A[trio_level], set(endpoints) - {lone})
    if trio_level < lone_level:
        ap = pick_one_avoiding(n, A[trio_level], A[trio_level + 1], a, {lone})
        bridge = _ham(n, A[trio_level + 1 : lone_level + 1], ap, lone)
    else:
        ap = pick_one_avoiding(n, A[trio_level], A[trio_level - 1], a, {lone})
        bridge = _ham(n, A[lone_level:trio_level], ap, lone)
    s1, s2 = _solve_johnson(
        n, A[trio_level], other_pair[0], other_pair[1], partner, a
    )
    return [s1, s2 + bridge]


def _local_three_levels(n, A, levels, u, v, x, y):
    endpoints = (u, v, x, y)
    distinct = sorted(set(levels))
    i, j, l = distinct
    counts = {li: sum(1 for lw in levels if lw == li) for li in distinct}
    if counts[l] == 2:
        # Mirror through complementation so the doubled level is lowest.
        lo, hi = i, l
        p1, p2 = _flip_solve(n, A, lo, hi, u, v, x, y)
        return [p1, p2]
    pairing = _pairing(u, v, x, y)
    if counts[i] == 2:
        doubled = [w for w, lw in zip(endpoints, levels) if lw == i]
        if pairing[doubled[0]] == doubled[1]:
            # Doubled level holds a full pair: two independent Hamilton paths.
            other = [w for w in endpoints if w not in doubled]
            if other[0].bit_count() > other[1].bit_count():
                other = [other[1], other[0]]
            p_low = _ham(n, (A[i],), doubled[0], doubled[1])
            p_high = _ham(n, A[i + 1 : l + 1], other[0], other[1])
            return [p_low, p_high]
        # Doubled level holds one endpoint of each pair.
        e_mid = endpoints[levels.index(j)]
        e_top = endpoints[levels.index(l)]
        uu = pairing[e_mid]
        xx = pairing[e_top]
        a = _first_vertex(n, A[j], {e_mid})
        ap = pick_one_avoiding(n, A[j], A[j + 1], a, {e_top})
        s1, s2 = _solve_qj(n, A[i : j + 1], uu, e_mid, xx, a)
        bridge = _ham(n, A[j + 1 : l + 1], ap, e_top)
        return [s1, s2 + bridge]

    # Doubled level is the middle one: two auxiliary middle vertices a and b
    # reach down to a' and up to b'.
    doubled = [w for w, lw in zip(endpoints, levels) if lw == j]
    e_low = endpoints[levels.index(i)]
    e_top = endpoints[levels.index(l)]
    a = _first_vertex(n, A[j], set(doubled))
    b = _first_vertex(n, A[j], set(doubled) | {a})
    ap = pick_one_avoiding(n, A[j], A[j - 1], a, {e_low})
    bp = pick_one_avoiding(n, A[j], A[j + 1], b, {e_top})
    if pairing[doubled[0]] == doubled[1]:
        # Middle pair covered inside its level; the outer pair threads both
        # Hamilton stacks through a and b.
        s1, s2 = _solve_johnson(n, A[j], doubled[0], doubled[1], a, b)
        h_low = _ham(n, A[i:j], e_low, ap)
        h_high = _ham(n, A[j + 1 : l + 1], bp, e_top)
        return [h_low + s2 + h_high, s1]
    # Middle holds one endpoint of each pair.
    f_low = pairing[e_low]  # middle endpoint paired with the bottom one
    f_top = pairing[e_top]
    s1, s2 = _solve_johnson(n, A[j], f_low, a, f_top, b)
    h_low = _ham(n, A[i:j], ap, e_low)
    h_high = _ham(n, A[j + 1 : l + 1], bp, e_top)
    return [s1 + h_low, s2 + h_high]


def _local_four_levels(n, A, levels, u, v, x, y):
    endpoints = (u, v, x, y)
    order = sorted(range(4), key=lambda idx: levels[idx])
    e1, e2, e3, e4 = (endpoints[idx] for idx in order)
    i, j, k, l = (levels[idx] for idx in order)
    pairing = _pairing(u, v, x, y)

    if pairing[e1] == e2:
        # Two aligned Hamilton stacks.
        p_low = _ham(n, A[i : j + 1], e1, e2)
        p_high = _ham(n, A[j + 1 : l + 1], e3, e4)
        return [p_low, p_high]

    a = _first_vertex(n, A[j], {e2})
    b = _first_vertex(n, A[k], {e3})
    ap = pick_one_avoiding(n, A[j], A[j - 1], a, {e1})
    bp = pick_one_avoiding(n, A[k], A[k + 1], b, {e4})
    h_low = _ham(n, A[i:j], e1, ap)
    h_high = _ham(n, A[k + 1 : l + 1], e4, bp)

    if pairing[e1] == e3:
        # Pairs (e1,e3) and (e2,e4): middle cover joins a to e3 and b to e2.
        s1, s2 = _solve_qj(n, A[j : k + 1], a, e3, b, e2)
        h_low += s1
        s2.reverse()
        s2 += reversed(h_high)
        return [h_low, s2]

    # Pairs (e1,e4) and (e2,e3): middle cover joins a to b and e2 to e3.
    s1, s2 = _solve_qj(n, A[j : k + 1], a, b, e2, e3)
    h_low += s1
    h_low += reversed(h_high)
    return [h_low, s2]
