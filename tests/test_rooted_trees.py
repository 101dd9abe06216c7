"""Labeled rooted trees: coding, enumeration, descent polynomial.

The SHA-256 digests pin decode order and the (root, seq) stream exactly; they
were recorded from the two-decoder code that this module had before it moved
onto a single parent-array decode.
"""

import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import gamma_forest._pool as pool
from gamma_forest import cli, rooted_trees
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


# sha256 of repr([prufer_decode(code) for every sequence on [n], lexicographic])
DECODE_DIGESTS = {
    2: "aaefeb4ebe51a378427195edb61210d2f7bdd7aca923483997720a4a8a84a012",
    3: "7ee54062521246c7b60538a58a32caf410d598383158cfa535171043c2ef0d56",
    4: "79cce4ecc9973dace151d49ed53d4f5d595c1e00c0bcedf548407d7ff1f72a0e",
    5: "82cea2448678e8b45e30fbe4cbd2304b03ea74138909552af7c1122acee61af6",
    6: "75bc89a23a5d79f111d36926114481808913325dbc856637be9e409b8ead44d6",
    7: "58029338d1f21488f654dee10d3a14ead60fd27e2c57cb46f0460b048bfcd242",
}
# sha256 of repr([(t.root, t.parent) for t in enumerate_rooted_trees(6)])
ROOTED_6_DIGEST = "3f7de400197e19e07e05dd071e4a8621530cd7a1010121c0b9059fb3a1866483"


def sha256_of(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


class TestPruferCodec:
    def test_reference_decode(self):
        edges = prufer_decode(PruferCode(4, (2, 3)))
        assert sorted(edges) == [(1, 2), (2, 3), (3, 4)]
        # edges come out in removal order, not sorted
        assert prufer_decode(PruferCode(6, (4, 1, 4, 6))) == (
            (2, 4), (1, 3), (1, 4), (4, 6), (5, 6),
        )

    @pytest.mark.parametrize("n", sorted(DECODE_DIGESTS))
    def test_decode_digest(self, n):
        out = [
            prufer_decode(PruferCode(n, seq))
            for seq in product(range(1, n + 1), repeat=n - 2)
        ]
        assert sha256_of(out) == DECODE_DIGESTS[n]

    def test_decode_star(self):
        # constant sequence c,c,... decodes to the star centered at c
        edges = prufer_decode(PruferCode(5, (3, 3, 3)))
        assert sorted(edges) == [(1, 3), (2, 3), (3, 4), (3, 5)]

    def test_encode_inverts_decode_exhaustive(self):
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
            (3, [(1.0, 2), (2, 3)], "not an int"),
            (3, [(True, 2), (2, 3)], "not an int"),
            (3.0, [(1, 2), (2, 3)], "must be an int"),
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
        for seq in ((True, 2), (2.0, 3), ("2", 3)):
            with pytest.raises(ValueError, match="is not an int"):
                PruferCode(4, seq)
        with pytest.raises(ValueError, match="must be an int"):
            PruferCode(4.0, (2, 3))


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
        # a bool or float size or label, where an int belongs
        for n, root, parent in (
            (2, True, (0, 0, 1)),
            (2, 1, (0, 0, True)),
            (2.0, 1, (0, 0, 1)),
            (2, 1.0, (0, 0, 1)),
            (2, 1, (0, 0, 1.0)),
        ):
            with pytest.raises(ValueError, match="must be ints"):
                RootedTree(n, root, parent)

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
        for n in (5, 6):
            seen = set()
            for t in enumerate_rooted_trees(n):
                key = (t.root, t.parent)
                assert key not in seen
                seen.add(key)
            assert len(seen) == n ** (n - 1)

    def test_stream_digest(self):
        trees = [(t.root, t.parent) for t in enumerate_rooted_trees(6)]
        assert sha256_of(trees) == ROOTED_6_DIGEST

    def test_cap(self):
        with pytest.raises(LimitExceededError):
            list(enumerate_rooted_trees(10))
        assert sum(1 for _ in enumerate_rooted_trees(4, cap=4)) == 64
        with pytest.raises(LimitExceededError):
            list(enumerate_rooted_trees(5, cap=4))
        for bad in (2.5, 3.0, True):
            with pytest.raises(ValueError, match="positive integer"):
                list(enumerate_rooted_trees(bad))


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

    def test_shards_in_process_match_sequential(self, monkeypatch):
        # every shard prefix, without forking a pool
        serial = descent_polynomial(7)
        shard_counts = []

        def in_process(fn, tasks, threads):
            shard_counts.append(len(tasks))
            return [fn(t) for t in tasks]

        monkeypatch.setattr(pool, "map_shards", in_process)
        for threads in (2, 3, 4, 16):
            assert descent_polynomial(7, threads=threads) == serial, threads
        assert shard_counts == [49, 49, 49, 343]

    def test_cap(self):
        with pytest.raises(LimitExceededError):
            descent_polynomial(10)
        with pytest.raises(LimitExceededError):
            descent_polynomial(6, cap=5)
        for bad in (2.5, 3.0, True):
            with pytest.raises(ValueError, match="positive integer"):
                descent_polynomial(bad)
        assert descent_polynomial(6, cap=6).coeffs == drake_polynomial(6).coeffs


class TestIndependence:
    """The descent engine and its oracle, enumerate_rooted_trees, decode
    Prufer sequences each on their own: with either decode patched to
    raise, the other side still gives its answer."""

    @staticmethod
    def down(*args):
        raise RuntimeError("patched to raise")

    def test_enumeration_and_rows_run_without_decode(self, monkeypatch):
        def outputs():
            trees = [(t.root, t.parent) for t in enumerate_rooted_trees(5)]
            rows = cli.FAMILIES["rooted"].rows
            return trees, [list(rows("des", 5, fmt)) for fmt in ("text", "json", "csv")]

        expected = outputs()
        monkeypatch.setattr(rooted_trees, "_decode", self.down)
        assert outputs() == expected

    def test_descent_engine_runs_without_rooted_blocks(self, monkeypatch):
        monkeypatch.setattr(rooted_trees, "_rooted_blocks", self.down)
        assert descent_polynomial(6) == drake_polynomial(6)
