import importlib
import math
from itertools import combinations, permutations

import pytest

from johnson_p2c import (
    ElementSet,
    EndpointQuad,
    GenericGraph,
    JohnsonGraph,
    QJGraph,
    check_hamilton,
    check_p2c,
    clear_caches,
    fig1_counterexample,
    hamilton_bruteforce,
    hamilton_complete,
    hamilton_johnson,
    hamilton_qj,
    k_subsets,
    p2c_johnson,
    p2c_qj,
)
from johnson_p2c import hamilton
from johnson_p2c.errors import EqualEndpoints, NotAVertex
from johnson_p2c.graphs import MEMO_SIZE, mask_generic
from johnson_p2c.verify import certify, host_of

# The package attribute ``p2c_johnson`` is the function of that name.
p2c_johnson_module = importlib.import_module("johnson_p2c.p2c_johnson")


def es(elems, n):
    return ElementSet.from_elements(elems, n)


class TestHamiltonComplete:
    def test_k4(self):
        verts = list(k_subsets(4, 1))
        p = hamilton_complete(verts, es([1], 4), es([4], 4))
        assert list(p) == [es([1], 4), es([2], 4), es([3], 4), es([4], 4)]

    def test_k2(self):
        verts = list(k_subsets(2, 1))
        p = hamilton_complete(verts, es([1], 2), es([2], 2))
        assert list(p) == [es([1], 2), es([2], 2)]

    def test_k5_endpoints(self):
        verts = list(k_subsets(5, 1))
        p = hamilton_complete(verts, es([3], 5), es([1], 5))
        assert p[0] == es([3], 5) and p[-1] == es([1], 5) and len(p) == 5

    def test_equal_endpoints(self):
        verts = list(k_subsets(4, 1))
        with pytest.raises(EqualEndpoints):
            hamilton_complete(verts, es([1], 4), es([1], 4))

    def test_missing_endpoint(self):
        with pytest.raises(NotAVertex):
            hamilton_complete(list(k_subsets(4, 1)), es([1], 4), es([1, 2], 4))


class TestHamiltonBruteforce:
    def test_path_graph(self):
        g = GenericGraph(3, [(0, 1), (1, 2)])
        assert list(hamilton_bruteforce(g, 0, 2)) == [0, 1, 2]

    def test_star_has_none(self):
        g = GenericGraph(4, [(0, 1), (0, 2), (0, 3)])
        assert hamilton_bruteforce(g, 1, 2) is None

    def test_fig1_hamilton_connected(self):
        g, _ = fig1_counterexample()
        for s, t in permutations(range(8), 2):
            p = hamilton_bruteforce(g, s, t)
            assert p is not None
            assert check_hamilton(g, p, s, t).valid


class TestHamiltonJohnson:
    def test_j42(self):
        g = JohnsonGraph(4, 2)
        s, t = es([1, 2], 4), es([1, 3], 4)
        p = hamilton_johnson(g, s, t)
        assert check_hamilton(g, p, s, t).valid
        assert len(p) == 6

    def test_j63(self):
        g = JohnsonGraph(6, 3)
        s, t = es([1, 2, 3], 6), es([4, 5, 6], 6)
        p = hamilton_johnson(g, s, t)
        assert check_hamilton(g, p, s, t).valid
        assert len(p) == 20

    def test_exhaustive_small(self):
        for n in range(2, 7):
            for k in range(1, n):
                if math.comb(n, k) > 20:
                    continue
                g = JohnsonGraph(n, k)
                for s, t in permutations(list(g.vertices()), 2):
                    assert check_hamilton(g, hamilton_johnson(g, s, t), s, t).valid

    def test_agrees_with_bruteforce_existence(self):
        # wherever the exact search applies, the builder must also succeed
        for n in range(2, 6):
            for k in range(1, n):
                if math.comb(n, k) > 12:
                    continue
                g = JohnsonGraph(n, k)
                generic, masks = mask_generic(n, (k,))
                verts = list(g.vertices())
                assert masks == tuple(v.bits for v in verts)
                for (i, s), (j, t) in permutations(enumerate(verts), 2):
                    exact = hamilton_bruteforce(generic, i, j)
                    built = hamilton_johnson(g, s, t)
                    assert exact is not None
                    assert check_hamilton(g, built, s, t).valid

    def test_deterministic(self):
        g = JohnsonGraph(7, 3)
        s, t = es([1, 2, 3], 7), es([5, 6, 7], 7)
        assert list(hamilton_johnson(g, s, t)) == list(hamilton_johnson(g, s, t))

    def test_equal_endpoints(self):
        with pytest.raises(EqualEndpoints):
            hamilton_johnson(JohnsonGraph(4, 2), es([1, 2], 4), es([1, 2], 4))


class TestHamiltonQJ:
    def test_qj_4_12(self):
        g = QJGraph(4, [1, 2])
        s, t = es([1], 4), es([1, 2], 4)
        p = hamilton_qj(g, s, t)
        assert check_hamilton(g, p, s, t).valid
        assert len(p) == 10

    def test_qj_4_134(self):
        g = QJGraph(4, [1, 3, 4])
        s, t = es([2], 4), es([1, 2, 3, 4], 4)
        p = hamilton_qj(g, s, t)
        assert check_hamilton(g, p, s, t).valid
        assert len(p) == 9

    def test_single_level_delegates(self):
        g = QJGraph(5, [2])
        s, t = es([1, 2], 5), es([4, 5], 5)
        assert list(hamilton_qj(g, s, t)) == list(
            hamilton_johnson(JohnsonGraph(5, 2), s, t)
        )

    def test_exhaustive_n_le_5(self):
        for n in range(2, 6):
            for m in range(2, n + 1):
                for A in combinations(range(1, n + 1), m):
                    g = QJGraph(n, A)
                    for s, t in permutations(list(g.vertices()), 2):
                        assert check_hamilton(g, hamilton_qj(g, s, t), s, t).valid


class TestLargeGroundSet:
    def test_j70_1_path(self):
        g = JohnsonGraph(70, 1)
        s, t = es([70], 70), es([1], 70)
        p = hamilton_johnson(g, s, t)
        assert check_hamilton(g, p, s, t).valid and len(p) == 70

    def test_complemented_complete_graph_above_the_memo(self):
        # J(1001,1000) is read as J(1001,1), which has more than
        # MEMO_VERTICES vertices: the k = 1 leaf applies the complement.
        n = 1001
        g = JohnsonGraph(n, n - 1)
        full = (1 << n + 1) - 2
        s, t = full ^ 1 << 5, full ^ 1 << 700
        p = hamilton.hamilton_masks(g, s, t)
        assert certify(host_of(g), [p], ((s, t),)).valid
        canonical = hamilton.hamilton_masks(JohnsonGraph(n, 1), s ^ full, t ^ full)
        assert p == [v ^ full for v in canonical]


def test_clear_caches_empties_every_memo():
    for g in (JohnsonGraph(6, 3), QJGraph(5, [1, 2, 3])):
        q = EndpointQuad(*list(g.vertices())[:4])
        sol = p2c_johnson(g, q) if isinstance(g, JohnsonGraph) else p2c_qj(g, q)
        assert check_p2c(g, q, sol).valid
    memos = [hamilton._ham_path, p2c_johnson_module._oracle_cover, mask_generic]
    assert all(memo.cache_info().currsize for memo in memos)
    clear_caches()
    assert [memo.cache_info().currsize for memo in memos] == [0, 0, 0]
    # One bound for every memo, and a finite one.
    sizes = {memo.cache_info().maxsize for memo in memos}
    assert sizes == {MEMO_SIZE} and MEMO_SIZE > 0
