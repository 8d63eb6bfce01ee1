import math
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from johnson_p2c import (
    ElementSet,
    JohnsonGraph,
    QJGraph,
    Relabeling,
    apply_relabeling,
    complement,
    k_subsets,
)
from johnson_p2c.subsets import (
    cross_masks,
    down_masks,
    full_mask,
    k_masks,
    same_level_masks,
    up_masks,
)


def es(elems, n):
    return ElementSet.from_elements(elems, n)


def mask(elems):
    return sum(1 << e for e in elems)


class TestElementSet:
    def test_roundtrip(self):
        s = es([1, 3, 4], 5)
        assert s.elements() == (1, 3, 4)
        assert s.cardinality() == 3
        assert 3 in s and 2 not in s

    def test_immutable(self):
        s = es([1], 4)
        with pytest.raises(AttributeError):
            s.bits = 0

    def test_out_of_range_element(self):
        with pytest.raises(ValueError):
            es([5], 4)

    def test_a_bool_is_no_element(self):
        # Once [True, 2] was the set {1,2}: a JSON true passed for 1.
        with pytest.raises(ValueError, match=r"^element True outside \[1\.\.5\]$"):
            es([True, 2], 5)

    @pytest.mark.parametrize("elements", [[1.0, 2], ["1"], [None]])
    def test_a_non_int_is_no_element(self, elements):
        # Once 1.0 failed at << and "1" or None at <=, as TypeErrors.
        with pytest.raises(ValueError, match=r"^element .* outside \[1\.\.5\]$"):
            es(elements, 5)

    def test_ordering_is_bit_vector_order(self):
        # {2,3} packs to a smaller word than {1,4}
        assert es([2, 3], 4) < es([1, 4], 4)

    def test_json(self):
        assert es([2, 4], 5).to_json() == [2, 4]


class TestComplement:
    def test_examples(self):
        assert complement(es([1, 2], 4)) == es([3, 4], 4)
        assert complement(es([], 4)) == es([1, 2, 3, 4], 4)
        assert complement(es([1, 3, 5], 5)) == es([2, 4], 5)

    def test_involution_exhaustive(self):
        for n in range(1, 9):
            for k in range(0, n + 1):
                for s in k_subsets(n, k):
                    assert complement(complement(s)) == s


class TestJohnsonAdjacent:
    def test_examples(self):
        g = JohnsonGraph(4, 2)
        assert g.adjacent(es([1, 2], 4), es([1, 3], 4))
        assert not g.adjacent(es([1, 2], 4), es([1, 2], 4))
        assert not g.adjacent(es([1, 2], 4), es([3, 4], 4))

    def test_complement_isomorphism(self):
        # J(n,k) and J(n,n-k) are isomorphic via complementation
        for n in range(2, 8):
            for k in range(1, n):
                g, h = JohnsonGraph(n, k), JohnsonGraph(n, n - k)
                for a, b in combinations(list(k_subsets(n, k)), 2):
                    assert g.adjacent(a, b) == h.adjacent(complement(a), complement(b))


class TestCrossAdjacent:
    def test_examples(self):
        g = QJGraph(4, [1, 2, 4])
        assert g.adjacent(es([1], 4), es([1, 2], 4))
        assert g.adjacent(es([1, 2], 4), es([1], 4))
        assert not g.adjacent(es([1], 4), es([2, 3], 4))
        assert g.adjacent(es([1, 2], 4), es([1, 2, 3, 4], 4))


class TestNeighborEnumeration:
    def test_up_neighbors_example(self):
        got = up_masks(mask([1]), 4, 2)
        assert got == [mask([1, 2]), mask([1, 3]), mask([1, 4])]

    def test_up_neighbors_unique_superset(self):
        assert up_masks(mask([1, 2, 3]), 4, 4) == [mask([1, 2, 3, 4])]

    def test_up_neighbors_counts(self):
        for n in range(1, 11):
            for s in k_masks(n, min(2, n)):
                p = s.bit_count()
                for q in range(p + 1, n + 1):
                    got = up_masks(s, n, q)
                    assert len(got) == math.comb(n - p, q - p)
                    assert got == sorted(got)
                    assert all(s & ~w == 0 and w.bit_count() == q for w in got)

    def test_down_neighbors(self):
        assert down_masks(mask([2, 4]), 1) == [mask([2]), mask([4])]
        for n in range(1, 9):
            s = full_mask(n)
            for q in range(n):
                got = down_masks(s, q)
                assert got == list(k_masks(n, q))

    def test_cross_neighbors_by_direction(self):
        s = mask([2, 4])
        assert cross_masks(s, 5, 3) == up_masks(s, 5, 3)
        assert cross_masks(s, 5, 1) == down_masks(s, 1)

    def test_same_level_examples(self):
        want = [mask(p) for p in ([1, 3], [2, 3], [1, 4], [2, 4])]
        assert same_level_masks(mask([1, 2]), 4) == want
        assert same_level_masks(mask([3, 4]), 4) == want
        assert len(same_level_masks(mask([1, 2, 3]), 6)) == 9

    def test_same_level_counts(self):
        for n in range(2, 11):
            for k in (1, n // 2, n - 1):
                for s in k_masks(n, k):
                    got = same_level_masks(s, n)
                    assert len(got) == k * (n - k)
                    assert got == sorted(got)
                    assert all((s ^ w).bit_count() == 2 for w in got)

    def test_same_level_degenerate(self):
        # J(n,0) and J(n,n) have one vertex and no edges.
        assert same_level_masks(full_mask(4), 4) == []
        assert same_level_masks(0, 4) == []


class TestKSubsets:
    def test_counts_and_order(self):
        for n in range(1, 9):
            for k in range(0, n + 1):
                out = list(k_subsets(n, k))
                assert len(out) == math.comb(n, k)
                assert out == sorted(out)
                assert len(set(out)) == len(out)
                assert all(s.cardinality() == k for s in out)


class TestRelabeling:
    def test_examples(self):
        assert apply_relabeling(Relabeling.swap(1, 4, 4), es([1, 2], 4)) == es([2, 4], 4)
        assert apply_relabeling(Relabeling.identity(5), es([2, 5], 5)) == es([2, 5], 5)
        assert apply_relabeling(Relabeling.swap(3, 5, 5), es([1, 3], 5)) == es([1, 5], 5)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            Relabeling([1, 1, 3])

    @pytest.mark.parametrize("i, j, n", [(0, 2, 3), (2, 4, 3), (1, -1, 3), (1, 1, 0)])
    def test_swap_outside_the_ground_set(self, i, j, n):
        # (0, 2, 3) once swapped 3 and 2 through index -1; (2, 4, 3) raised
        # an IndexError.
        with pytest.raises(ValueError, match=rf"^swap of {i} and {j} leaves \[{n}\]$"):
            Relabeling.swap(i, j, n)

    @pytest.mark.parametrize("r, s", [
        (Relabeling.identity(3), es([4, 5], 5)),
        (Relabeling.identity(5), es([1, 2], 3)),
    ])
    def test_ground_sets_must_match(self, r, s):
        # Once an IndexError, once a silent success.
        with pytest.raises(ValueError, match="relabeling of"):
            apply_relabeling(r, s)

    @given(st.data())
    def test_inverse_roundtrip(self, data):
        n = data.draw(st.integers(2, 10))
        perm = data.draw(st.permutations(range(1, n + 1)))
        k = data.draw(st.integers(0, n))
        elems = data.draw(st.lists(st.integers(1, n), max_size=k, unique=True))
        r = Relabeling(perm)
        s = es(elems, n)
        assert apply_relabeling(r.inverse(), apply_relabeling(r, s)) == s

    @given(st.data())
    def test_preserves_adjacency(self, data):
        n = data.draw(st.integers(3, 9))
        k = data.draw(st.integers(1, n - 1))
        verts = list(k_subsets(n, k))
        a = data.draw(st.sampled_from(verts))
        b = data.draw(st.sampled_from(verts))
        perm = data.draw(st.permutations(range(1, n + 1)))
        r = Relabeling(perm)
        g = JohnsonGraph(n, k)
        if a != b:
            assert g.adjacent(a, b) == g.adjacent(
                apply_relabeling(r, a), apply_relabeling(r, b)
            )
