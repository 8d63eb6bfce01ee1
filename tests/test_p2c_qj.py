import random
from itertools import combinations, permutations

import pytest

from johnson_p2c import (
    ElementSet,
    EndpointQuad,
    QJGraph,
    check_p2c,
    p2c_qj,
)
from johnson_p2c.errors import BadQuad, OutOfTheoremRange, SpliceEdgeNotFound
from johnson_p2c.p2c_qj import _solve, ep2c_expand, pick_one_avoiding, pick_two_avoiding
from johnson_p2c.subsets import cross_masks, k_masks


def es(elems, n):
    return ElementSet.from_elements(elems, n)


def mask(elems, n):
    return es(elems, n).bits


def quad(n, *pairs):
    return EndpointQuad(*(es(p, n) for p in pairs))


# The lemma functions work on bitmasks (bit e = element e).
class TestPickOne:
    def test_down_to_singletons(self):
        got = pick_one_avoiding(4, 1, mask([1, 2, 3], 4), mask([2], 4))
        assert got == mask([1], 4)

    def test_up_scan_order(self):
        got = pick_one_avoiding(5, 2, mask([1], 5), mask([1, 2], 5))
        assert got == mask([1, 3], 5)

    def test_only_two_supersets(self):
        got = pick_one_avoiding(4, 3, mask([1, 2], 4), mask([1, 2, 3], 4))
        assert got == mask([1, 2, 4], 4)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_never_runs_dry(self, n):
        # Between two levels in 1..n-1 a vertex has two or more neighbors,
        # so one is left whatever single vertex is avoided.
        for c in range(1, n):
            for d in range(1, n):
                if c == d:
                    continue
                for a in k_masks(n, c):
                    ws = cross_masks(a, n, d)
                    for avoid in (*ws, a):
                        assert pick_one_avoiding(n, d, a, avoid) == next(
                            w for w in ws if w != avoid
                        )


class TestPickTwo:
    def test_distinct_up(self):
        ap, bp = pick_two_avoiding(
            5, 2, mask([1], 5), mask([2], 5), {mask([1, 2], 5), mask([1, 3], 5)}
        )
        assert ap != bp
        assert ap not in {mask([1, 2], 5), mask([1, 3], 5)}
        assert ap >> 1 & 1 and bp >> 2 & 1

    def test_special_two_level_case(self):
        # A = {1, n-1}: distinct level-(n-1) neighbors exist avoiding any two
        avoid = {mask([1, 2, 3], 4), mask([1, 2, 4], 4)}
        ap, bp = pick_two_avoiding(4, 3, mask([1], 4), mask([2], 4), avoid)
        assert ap != bp and not {ap, bp} & avoid

    def test_disjoint_down(self):
        ap, bp = pick_two_avoiding(6, 2, mask([1, 2, 3], 6), mask([4, 5, 6], 6), ())
        assert ap == mask([1, 2], 6) and bp == mask([4, 5], 6)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_never_runs_dry(self, n):
        # The ends of an edge of level c, with nothing to avoid going to
        # any other level, or avoiding two vertices going up to a level
        # d <= n-2 or down from level n-1, as the interleaved cover does.
        for c in range(1, n):
            for d in range(1, n):
                if c == d:
                    continue
                for a in k_masks(n, c):
                    for b in k_masks(n, c):
                        if (a ^ b).bit_count() != 2:
                            continue
                        avoids = [()]
                        if d < c == n - 1 or c < d <= n - 2:
                            avoids += combinations(k_masks(n, d), 2)
                        for avoid in avoids:
                            got = pick_two_avoiding(n, d, a, b, avoid)
                            assert got is not None, (c, d, a, b, avoid)


class TestEP2CExpand:
    def test_identity_on_full_range(self):
        p1, p2 = _solve(
            4, 2, mask([1, 2], 4), mask([1, 3], 4), mask([2, 3], 4), mask([2, 4], 4)
        )
        paths = [list(p1), list(p2)]
        ep2c_expand(paths, 4, (2,), 0, 0)
        assert paths == [p1, p2]

    def test_no_edge_to_splice_at_is_typed(self):
        # A local cover with no edge inside its lowest level has nowhere to
        # splice the levels below: a typed error, not a crash.
        paths = [[mask([1, 2], 4), mask([1, 2, 3], 4)], [mask([3, 4], 4)]]
        no_edge = "^no within-level edge at cardinality 2 on either path$"
        with pytest.raises(SpliceEdgeNotFound, match=no_edge):
            ep2c_expand(paths, 4, (1, 2, 3), 1, 2)

    def test_downward_splice(self):
        # local cover of levels {2,3} inside QJ(4,{1,2,3})
        # endpoints confined to levels {2,3} of QJ(4,{1,2,3}): the expansion
        # must absorb all four level-1 vertices through one downward splice
        n, A = 4, (1, 2, 3)
        g = QJGraph(n, A)
        q = quad(n, [1, 2], [1, 2, 3], [3, 4], [1, 3, 4])
        sol = p2c_qj(g, q)
        assert check_p2c(g, q, sol).valid
        assert len(sol.path_uv) + len(sol.path_xy) == 4 + 6 + 4

    def test_both_splices(self):
        n, A = 5, (1, 2, 3, 4)
        g = QJGraph(n, A)
        q = quad(n, [1, 2], [2, 3], [1, 3], [4, 5])  # endpoints all at level 2
        sol = p2c_qj(g, q)
        report = check_p2c(g, q, sol)
        assert report.valid
        assert len(sol.path_uv) + len(sol.path_xy) == 5 + 10 + 10 + 5


class TestAbsorbApex:
    def test_apex_not_endpoint(self):
        g = QJGraph(5, [4, 5])
        verts = [w for w in g.vertices() if w.cardinality() == 4]
        q = EndpointQuad(*verts[:4])
        sol = p2c_qj(g, q)
        assert check_p2c(g, q, sol).valid
        apex = es([1, 2, 3, 4, 5], 5)
        assert apex in set(sol.path_uv) | set(sol.path_xy)

    def test_apex_as_endpoint(self):
        g = QJGraph(4, [1, 2, 3, 4])
        apex = es([1, 2, 3, 4], 4)
        q = EndpointQuad(apex, es([1, 2, 3], 4), es([1], 4), es([2, 3], 4))
        sol = p2c_qj(g, q)
        assert check_p2c(g, q, sol).valid
        assert sol.path_uv[0] == apex

    def test_apex_pick_that_runs_dry_is_typed(self):
        # The three other endpoints fill level 2 of QJ(3,{2,3}), so no level-2
        # vertex is left to stand in for the apex.  p2c_qj, the one way into
        # the apex construction, refuses n < 4 first with a CoverError that
        # sweep catches; from n = 4 on a level below n has 4+ vertices.
        g = QJGraph(3, [2, 3])
        q = quad(3, [1, 2, 3], [1, 2], [1, 3], [2, 3])
        with pytest.raises(OutOfTheoremRange, match=r"^QJ\(3,\{2,3\}\) has n < 4$"):
            p2c_qj(g, q)


class TestP2CQJ:
    def test_two_level_cover(self):
        g = QJGraph(4, [1, 2])
        q = quad(4, [1], [2], [1, 2], [3, 4])
        sol = p2c_qj(g, q)
        assert check_p2c(g, q, sol).valid
        assert len(sol.path_uv) + len(sol.path_xy) == 10

    def test_three_spread_levels(self):
        g = QJGraph(5, [1, 2, 4])
        q = quad(5, [1], [1, 2], [2, 3, 4, 5], [3, 4])
        sol = p2c_qj(g, q)
        assert check_p2c(g, q, sol).valid
        assert len(sol.path_uv) + len(sol.path_xy) == 20

    def test_single_level_delegates(self):
        from johnson_p2c import JohnsonGraph, p2c_johnson

        gq = QJGraph(5, [2])
        gj = JohnsonGraph(5, 2)
        q = quad(5, [1, 2], [3, 4], [1, 3], [2, 5])
        a = p2c_qj(gq, q)
        b = p2c_johnson(gj, q)
        assert a.path_uv.vertices == b.path_uv.vertices
        assert a.path_xy.vertices == b.path_xy.vertices

    def test_orientation(self):
        g = QJGraph(5, [2, 3])
        q = quad(5, [4, 5], [1, 2, 3], [2, 4], [1, 3, 5])
        sol = p2c_qj(g, q)
        assert sol.path_uv[0] == q.u and sol.path_uv[-1] == q.v
        assert sol.path_xy[0] == q.x and sol.path_xy[-1] == q.y

    def test_out_of_range(self):
        with pytest.raises(OutOfTheoremRange):
            p2c_qj(QJGraph(3, [1, 2]), quad(3, [1], [2], [1, 2], [2, 3]))
        with pytest.raises(OutOfTheoremRange):
            p2c_qj(
                QJGraph(4, [4]),
                quad(4, [1, 2, 3, 4], [1, 2, 3, 4], [1, 2, 3, 4], [1, 2, 3, 4]),
            )

    def test_bad_quad(self):
        g = QJGraph(4, [1, 2])
        with pytest.raises(BadQuad):
            p2c_qj(g, quad(4, [1], [1], [2], [1, 2]))

    @pytest.mark.parametrize("A", [(1, 2), (1, 3), (2, 3), (1, 2, 3), (1, 2, 3, 4)])
    def test_exhaustive_n4(self, A):
        g = QJGraph(4, A)
        verts = list(g.vertices())
        for four in permutations(verts, 4):
            q = EndpointQuad(*four)
            assert check_p2c(g, q, p2c_qj(g, q, debug=True)).valid

    def test_sampled_n5(self):
        rng = random.Random(0)
        for m in range(2, 6):
            for A in combinations(range(1, 6), m):
                g = QJGraph(5, A)
                verts = list(g.vertices())
                if len(verts) < 4:
                    continue
                for _ in range(60):
                    q = EndpointQuad(*rng.sample(verts, 4))
                    assert check_p2c(g, q, p2c_qj(g, q)).valid

    def test_deterministic(self):
        g = QJGraph(5, [2, 3])
        q = quad(5, [1, 2], [1, 2, 3], [4, 5], [2, 3, 4])
        a = p2c_qj(g, q)
        b = p2c_qj(g, q)
        assert a.path_uv.vertices == b.path_uv.vertices
        assert a.path_xy.vertices == b.path_xy.vertices
