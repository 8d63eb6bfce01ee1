import importlib
import random
from itertools import permutations

import pytest

from johnson_p2c import (
    ElementSet,
    EndpointQuad,
    JohnsonGraph,
    P2CSolution,
    QJGraph,
    Relabeling,
    apply_relabeling,
    check_p2c,
    complement,
    k_subsets,
    p2c_complete,
    p2c_johnson,
)
from johnson_p2c.errors import (
    BadQuad,
    InvariantViolated,
    OutOfTheoremRange,
    SelectionExhausted,
    TooFewVertices,
)
from johnson_p2c.hamilton import Path, _sides
from johnson_p2c.p2c_qj import _finish, _orient, _pick_bridges, _solve_small
from johnson_p2c.subsets import k_masks, same_level_masks

p2c_module = importlib.import_module("johnson_p2c.p2c_qj")


def es(elems, n):
    return ElementSet.from_elements(elems, n)


def quad(n, *pairs):
    return EndpointQuad(*(es(p, n) for p in pairs))


# All essentially distinct covers of J(4,2), used verbatim as test vectors.
J42_VECTORS = [
    # (u, v, x, y, path_uv, path_xy)
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


class TestP2CComplete:
    def test_k4(self):
        verts = list(k_subsets(4, 1))
        sol = p2c_complete(verts, quad(4, [1], [2], [3], [4]))
        assert sol.path_uv.vertices == (es([1], 4), es([2], 4))
        assert sol.path_xy.vertices == (es([3], 4), es([4], 4))

    def test_k5(self):
        verts = list(k_subsets(5, 1))
        sol = p2c_complete(verts, quad(5, [1], [2], [3], [5]))
        assert sol.path_uv.vertices == (es([1], 5), es([2], 5))
        assert sol.path_xy.vertices == (es([3], 5), es([4], 5), es([5], 5))

    def test_k6(self):
        verts = list(k_subsets(6, 1))
        sol = p2c_complete(verts, quad(6, [1], [6], [2], [5]))
        assert sol.path_uv.vertices == (es([1], 6), es([6], 6))
        assert sol.path_xy.vertices == tuple(es([e], 6) for e in (2, 3, 4, 5))

    def test_exhaustive_k4_to_k8(self):
        for n in range(4, 9):
            g = JohnsonGraph(n, 1)
            verts = list(g.vertices())
            for four in permutations(verts, 4):
                q = EndpointQuad(*four)
                assert check_p2c(g, q, p2c_complete(verts, q)).valid

    def test_too_few(self):
        with pytest.raises(TooFewVertices):
            p2c_complete(list(k_subsets(3, 1)), quad(3, [1], [2], [3], [3]))

    def test_bad_quad(self):
        verts = list(k_subsets(4, 1))
        with pytest.raises(BadQuad):
            p2c_complete(verts, quad(4, [1], [1], [2], [3]))


class TestJ42Vectors:
    def test_table_rows_valid(self):
        g = JohnsonGraph(4, 2)
        for u, v, x, y, puv, pxy in J42_VECTORS:
            q = quad(4, u, v, x, y)
            sol = P2CSolution(
                Path(tuple(es(w, 4) for w in puv)),
                Path(tuple(es(w, 4) for w in pxy)),
            )
            assert check_p2c(g, q, sol).valid

    def test_constructor_covers_each_row_quad(self):
        g = JohnsonGraph(4, 2)
        for u, v, x, y, _, _ in J42_VECTORS:
            q = quad(4, u, v, x, y)
            assert check_p2c(g, q, p2c_johnson(g, q)).valid


class TestP2CJohnson:
    def test_j63_cover(self):
        g = JohnsonGraph(6, 3)
        q = quad(6, [1, 2, 3], [4, 5, 6], [1, 2, 4], [3, 5, 6])
        sol = p2c_johnson(g, q)
        assert check_p2c(g, q, sol).valid
        assert len(sol.path_uv) + len(sol.path_xy) == 20

    def test_j51_delegates_to_complete(self):
        g = JohnsonGraph(5, 1)
        q = quad(5, [1], [2], [3], [5])
        sol = p2c_johnson(g, q)
        assert sol.path_uv.vertices == (es([1], 5), es([2], 5))

    def test_orientation(self):
        g = JohnsonGraph(6, 3)
        q = quad(6, [2, 3, 5], [1, 2, 3], [4, 5, 6], [1, 4, 6])
        sol = p2c_johnson(g, q)
        assert sol.path_uv[0] == q.u and sol.path_uv[-1] == q.v
        assert sol.path_xy[0] == q.x and sol.path_xy[-1] == q.y

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (5, 3), (6, 2), (6, 4)])
    def test_exhaustive(self, n, k):
        g = JohnsonGraph(n, k)
        verts = list(g.vertices())
        for four in permutations(verts, 4):
            q = EndpointQuad(*four)
            assert check_p2c(g, q, p2c_johnson(g, q)).valid

    def test_out_of_range(self):
        with pytest.raises(OutOfTheoremRange, match=r"^J\(3,1\) outside n >= 4, 1 <= k <= n-1$"):
            p2c_johnson(JohnsonGraph(3, 1), quad(3, [1], [2], [3], [1]))
        with pytest.raises(OutOfTheoremRange):
            p2c_johnson(
                JohnsonGraph(4, 4),
                quad(4, [1, 2, 3, 4], [1, 2, 3, 4], [1, 2, 3, 4], [1, 2, 3, 4]),
            )
        # A QJ graph is refused unless it is one level in range.
        for n, levels in ((6, [2, 3]), (5, [1, 4]), (4, [4]), (3, [1])):
            q = quad(n, [1], [2], [3], [1, 2])
            with pytest.raises(OutOfTheoremRange, match=r"outside n >= 4, 1 <= k <= n-1$"):
                p2c_johnson(QJGraph(n, levels), q)

    def test_bad_quad_duplicate(self):
        g = JohnsonGraph(5, 2)
        with pytest.raises(BadQuad):
            p2c_johnson(g, quad(5, [1, 2], [1, 2], [2, 3], [3, 4]))

    def test_deterministic(self):
        g = JohnsonGraph(7, 3)
        q = quad(7, [1, 2, 3], [4, 5, 7], [2, 4, 6], [1, 5, 6])
        a = p2c_johnson(g, q)
        b = p2c_johnson(g, q)
        assert a.path_uv.vertices == b.path_uv.vertices
        assert a.path_xy.vertices == b.path_xy.vertices


class TestEquivariance:
    def test_relabeling(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(4, 7)
            k = rng.randint(1, n - 1)
            g = JohnsonGraph(n, k)
            verts = list(g.vertices())
            if len(verts) < 4:
                continue
            u, v, x, y = rng.sample(verts, 4)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            r = Relabeling(perm)
            q = EndpointQuad(u, v, x, y)
            qi = EndpointQuad(*(apply_relabeling(r, w) for w in (u, v, x, y)))
            sol = p2c_johnson(g, qi)
            pulled = P2CSolution(
                Path(tuple(apply_relabeling(r.inverse(), w) for w in sol.path_uv)),
                Path(tuple(apply_relabeling(r.inverse(), w) for w in sol.path_xy)),
            )
            assert check_p2c(g, q, pulled).valid

    def test_complement(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(4, 7)
            k = rng.randint(1, n - 1)
            g = JohnsonGraph(n, k)
            verts = list(g.vertices())
            if len(verts) < 4:
                continue
            u, v, x, y = rng.sample(verts, 4)
            q = EndpointQuad(u, v, x, y)
            sol = p2c_johnson(g, q)
            gc = JohnsonGraph(n, n - k)
            qc = EndpointQuad(*(complement(w) for w in (u, v, x, y)))
            mapped = P2CSolution(
                Path(tuple(complement(w) for w in sol.path_uv)),
                Path(tuple(complement(w) for w in sol.path_xy)),
            )
            assert check_p2c(gc, qc, mapped).valid


class TestOrient:
    # _orient works on bitmask paths; a mis-ended path is a typed error,
    # which, unlike an assert, survives python -O.
    def test_orients_both_paths(self):
        u, v, x, y = 0b10, 0b100, 0b1000, 0b10000
        puv, pxy = _orient([y, x], [v, u], u, v, x, y)
        assert puv == [u, v] and pxy == [x, y]

    def test_mis_ended_paths_raise(self):
        u, v, x, y = 0b10, 0b100, 0b1000, 0b10000
        with pytest.raises(InvariantViolated):
            _orient([u, x], [v, y], u, v, x, y)
        with pytest.raises(InvariantViolated):
            _orient([u, v], [x, u], u, v, x, y)

    def test_finish_orients_as_orient_does(self):
        # _finish skips _orient for paths that already run u-to-v and
        # x-to-y; in each of the 8 ways to present a cover it returns what
        # _orient returns, and mis-ended paths still raise.
        q = (0b110, 0b11000, 0b1010, 0b100100)
        p1, p2 = _solve_small(5, 2, *q)
        for swap in (False, True):
            for flip1 in (False, True):
                for flip2 in (False, True):
                    a = p1[::-1] if flip1 else p1
                    b = p2[::-1] if flip2 else p2
                    a, b = (b, a) if swap else (a, b)
                    assert _finish(5, (2,), q, a, b) == _orient(a, b, *q) == (p1, p2)
        with pytest.raises(InvariantViolated, match="paired endpoints"):
            _finish(5, (2,), q, p1[:-1] + p2[-1:], p2[:-1] + p1[-1:])

    def test_a_sub_solver_with_swapped_ends_is_caught(self, monkeypatch):
        # The oracle's cover of J(5,2) with the last vertices of its two
        # paths swapped: u runs to y and x to v.  _finish must refuse it.
        oracle = p2c_module._solve_small

        def swapped(*args):
            p1, p2 = oracle(*args)
            return p1[:-1] + p2[-1:], p2[:-1] + p1[-1:]

        monkeypatch.setattr(p2c_module, "_solve_small", swapped)
        g = JohnsonGraph(5, 2)
        q = quad(5, [1, 2], [3, 4], [1, 3], [2, 5])
        with pytest.raises(InvariantViolated, match="paired endpoints"):
            p2c_johnson(g, q)


def test_an_oracle_search_that_finds_nothing_is_typed(monkeypatch):
    # Every quad of a small J(n,k) has a cover, so the search the oracle
    # runs always finds one; a search that finds none is a typed error,
    # not a crash.  _search_masks is patched where _oracle_cover reads it.
    monkeypatch.setattr(p2c_module, "_search_masks", lambda *args: None)
    p2c_module.clear_caches()
    q = quad(5, [1, 2], [3, 4], [1, 3], [2, 5])
    no_cover = r"^oracle found no cover of J\(5,2\)$"
    with pytest.raises(SelectionExhausted, match=no_cover):
        p2c_johnson(JohnsonGraph(5, 2), q)


def _pick_bridges_by_full_scan(n, k, w1, w2, p1_, p2_):
    """The first (a, a', b, b') of the four nested scans ``_pick_bridges``
    replaced: a and b over every Y vertex of J(n,k), a' and b' over every
    neighbor across, each in bit-vector order."""
    nbit = 1 << n
    y_vertices = [w for w in k_masks(n, k) if w & nbit]

    def across(a):
        return [w for w in same_level_masks(a, n) if (w ^ a) & nbit]

    for a in y_vertices:
        if a in (w1, w2):
            continue
        for ap in across(a):
            if ap in (p1_, p2_):
                continue
            for b in y_vertices:
                if b in (w1, w2, a):
                    continue
                for bp in across(b):
                    if bp not in (p1_, p2_, ap):
                        return a, ap, b, bp


@pytest.mark.parametrize("n, sampled", [(6, None), (8, 20000), (10, 20000)])
def test_pick_bridges_matches_the_full_scan(n, sampled):
    # The bridged case of J(2k,k): w1, w2 in Y, their partners p1_, p2_ in
    # X; every such case of J(6,3), a seeded sample on the larger graphs.
    k = n // 2
    y_side = _sides(n, k)[1]
    xs = [w for w in k_masks(n, k) if not w >> n & 1]
    ys = [w for w in k_masks(n, k) if w >> n & 1]
    if sampled is None:
        cases = [
            (w1, w2, p1_, p2_)
            for w1, w2 in permutations(ys, 2)
            for p1_, p2_ in permutations(xs, 2)
        ]
        assert len(cases) == 8100
    else:
        rng = random.Random(n)
        cases = [(*rng.sample(ys, 2), *rng.sample(xs, 2)) for _ in range(sampled)]
    for case in cases:
        want = _pick_bridges_by_full_scan(n, k, *case)
        assert _pick_bridges(y_side, *case) == want, case


class TestLargeGroundSet:
    def test_j64_2_cover(self):
        g = JohnsonGraph(64, 2)
        q = quad(64, [1, 2], [63, 64], [1, 64], [2, 63])
        sol = p2c_johnson(g, q)
        assert check_p2c(g, q, sol).valid
        assert len(sol.path_uv) + len(sol.path_xy) == g.vertex_count == 2016
