"""Labeled rooted trees: coding, enumeration, descent polynomial."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gamma_forest.errors import LimitExceededError
from gamma_forest.poly import drake_polynomial
from gamma_forest.rooted_trees import (
    PruferCode,
    RootedTree,
    complement,
    des,
    descent_polynomial,
    enumerate_rooted_trees,
    prufer_decode,
    prufer_encode,
    tree_to_json_dict,
)


class TestPruferCodec:
    def test_reference_decode(self):
        edges = prufer_decode(PruferCode(4, (2, 3)))
        assert sorted(edges) == [(1, 2), (2, 3), (3, 4)]

    def test_decode_star(self):
        # constant sequence c,c,... decodes to the star centered at c
        edges = prufer_decode(PruferCode(5, (3, 3, 3)))
        assert sorted(edges) == [(1, 3), (2, 3), (3, 4), (3, 5)]

    def test_encode_inverts_decode_exhaustive(self):
        from itertools import product

        for n in (2, 3, 4, 5):
            for seq in product(range(1, n + 1), repeat=n - 2):
                code = PruferCode(n, seq)
                assert prufer_encode(n, prufer_decode(code)) == code

    def test_round_trip_random_large(self):
        rng = random.Random(20260814)
        for _ in range(10_000):
            n = rng.randint(2, 40)
            seq = tuple(rng.randint(1, n) for _ in range(n - 2))
            code = PruferCode(n, seq)
            assert prufer_encode(n, prufer_decode(code)) == code

    @given(st.integers(min_value=2, max_value=30).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.integers(min_value=1, max_value=n),
                min_size=n - 2,
                max_size=n - 2,
            ),
        )
    ))
    @settings(max_examples=200)
    def test_round_trip_property(self, pair):
        n, seq = pair
        code = PruferCode(n, tuple(seq))
        assert prufer_encode(n, prufer_decode(code)) == code

    @pytest.mark.parametrize(
        "n, edges, fault",
        [
            (3, [(1, 2), (2, 5)], "label outside"),
            (3, [(0, 1), (1, 2)], "label outside"),
            (4, [(1, 1), (2, 2), (3, 4), (1, 2)], "self-loop"),
            (3, [(1, 2), (2, 1)], "repeated"),
            (4, [(1, 2), (2, 3)], "expected 3 edges"),
            (4, [(1, 2), (2, 3), (1, 3)], "do not connect"),
            (5, [(1, 2), (2, 3), (3, 1), (4, 5)], "do not connect"),
        ],
    )
    def test_encode_rejects_edge_sets_that_are_not_trees(self, n, edges, fault):
        with pytest.raises(ValueError, match=fault):
            prufer_encode(n, edges)

    def test_validation(self):
        with pytest.raises(ValueError):
            PruferCode(4, (1,))  # wrong length
        with pytest.raises(ValueError):
            PruferCode(4, (0, 1))  # label out of range
        with pytest.raises(ValueError):
            PruferCode(1, ())  # needs two vertices


class TestRootedTree:
    def test_parent_validation(self):
        t = RootedTree(3, 1, (0, 0, 1, 1))
        assert t.root == 1
        with pytest.raises(ValueError):
            RootedTree(3, 1, (0, 0, 1))  # wrong length
        with pytest.raises(ValueError):
            RootedTree(3, 1, (0, 0, 3, 2))  # 2 -> 3 -> 2 cycle
        with pytest.raises(ValueError):
            RootedTree(3, 2, (0, 0, 1, 1))  # root must have parent 0

    def test_des(self):
        # chain 1 -> 3 -> 2: edge (3,2) is the only descent
        t = RootedTree(3, 1, (0, 0, 3, 1))
        assert des(t) == 1

    def test_complement_swaps_statistic(self):
        for t in enumerate_rooted_trees(5):
            assert des(complement(t)) == 4 - des(t)

    def test_json_dict(self):
        t = RootedTree(3, 1, (0, 0, 3, 1))
        assert tree_to_json_dict(t) == {"n": 3, "root": 1, "edges": [[3, 2], [1, 3]]}


class TestEnumeration:
    def test_counts(self):
        for n in range(1, 7):
            assert sum(1 for _ in enumerate_rooted_trees(n)) == n ** (n - 1)

    def test_all_distinct(self):
        seen = set()
        for t in enumerate_rooted_trees(5):
            key = (t.root, t.parent)
            assert key not in seen
            seen.add(key)

    def test_cap(self):
        with pytest.raises(LimitExceededError):
            list(enumerate_rooted_trees(10))
        assert sum(1 for _ in enumerate_rooted_trees(4, cap=4)) == 64
        with pytest.raises(LimitExceededError):
            list(enumerate_rooted_trees(5, cap=4))


class TestDescentPolynomial:
    def test_small_reference(self):
        assert descent_polynomial(1).coeffs == (1,)
        assert descent_polynomial(2).coeffs == (1, 1)
        assert descent_polynomial(3).coeffs == (2, 5, 2)

    def test_matches_enumeration(self):
        # the rerooting fast path must agree with naive per-tree counting
        for n in range(2, 7):
            hist = [0] * n
            for t in enumerate_rooted_trees(n):
                hist[des(t)] += 1
            while hist and hist[-1] == 0:
                hist.pop()
            assert descent_polynomial(n).coeffs == tuple(hist)

    def test_matches_product_form(self):
        for n in range(1, 9):
            assert descent_polynomial(n).coeffs == drake_polynomial(n).coeffs

    def test_parallel_matches_sequential(self):
        for n in (5, 6, 7):
            assert (
                descent_polynomial(n, threads=2).coeffs
                == descent_polynomial(n).coeffs
            )
        assert descent_polynomial(7, threads=4).coeffs == drake_polynomial(7).coeffs

    def test_cap(self):
        with pytest.raises(LimitExceededError):
            descent_polynomial(10)
        with pytest.raises(LimitExceededError):
            descent_polynomial(6, cap=5)
        assert descent_polynomial(6, cap=6).coeffs == drake_polynomial(6).coeffs
