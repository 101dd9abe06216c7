"""Labeled rooted trees: coding, enumeration, descent polynomial.

The SHA-256 digests pin decode order and the (root, seq) stream exactly; they
were recorded from the two-decoder code that this module had before it moved
onto a single parent-array decode.
"""

import ast
import random
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gamma_forest import cli, rooted_trees
from gamma_forest.errors import LimitExceededError
from gamma_forest.poly import drake_polynomial
from gamma_forest.rooted_trees import RootedTree, descent_polynomial, enumerate_rooted_trees
import oracles
from oracles import (
    PruferCode,
    complement,
    des,
    prufer_decode,
    prufer_encode,
    rooted_descents,
    rooted_descents_total,
    sha256_of,
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

    @pytest.mark.parametrize("n", range(3, 7))
    def test_blocks_yield_copies(self, n):
        # zeroing every block once read leaves the rest of the stream as it
        # was, so no root sees an earlier root's reroot
        def drain(wipe):
            for root, block in rooted_trees._rooted_blocks(n, n):
                yield root, list(block)
                if wipe:
                    block[:] = bytes(len(block))

        assert list(drain(True)) == list(drain(False))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_block_records_carry_des(self, n):
        # a record is a parent array and then des: counted once at root n,
        # and moved along the path that each reroot reverses
        w = n + 2
        roots = set()
        for root, block in rooted_trees._rooted_blocks(n, n):
            roots.add(root)
            assert len(block) == w * (n if n > 2 else 1)
            for o in range(0, len(block), w):
                t = RootedTree(n, root, block[o : o + w - 1])
                assert block[o + w - 1] == des(t), (root, list(block[o : o + w]))
        assert roots == set(range(1, n + 1))

    def test_blocks_hold_one_table(self):
        # the records of the trees rooted at n fill one table of n^(n-2)
        # (n+2) bytes, not an object per sequence
        tracemalloc.start()
        try:
            for _ in rooted_trees._rooted_blocks(7, 7):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 7**5 * 8

    def test_table_stays_within_its_cap(self, monkeypatch):
        # the n = 6 table takes 6^4 * 8 bytes: a cap of that keeps it, one
        # byte less makes none, and then every root decodes its own trees
        size = 6**4 * 8
        peaks = []
        for cap in (size, size - 1):
            monkeypatch.setattr(rooted_trees, "TABLE_BYTES", cap)
            tracemalloc.start()
            try:
                for _ in rooted_trees._rooted_blocks(6, 6):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] >= size > 4 * peaks[1]

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
        # the forest walk must agree with naive per-tree counting
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

    @pytest.mark.parametrize("n", range(1, 8))
    def test_walk_matches_block_records_per_root(self, n):
        # each root's counts against the des bytes of that root's records,
        # which a Prufer decode and its reroots give
        hist = {root: [0] * n for root in range(1, n + 1)}
        for root, block in rooted_trees._rooted_blocks(n, n):
            for d in block[n + 1 :: n + 2]:
                hist[root][d] += 1
        for root in range(1, n + 1):
            assert rooted_trees._root_descents(n, root) == hist[root], root

    def test_cap(self):
        with pytest.raises(LimitExceededError):
            descent_polynomial(10)
        with pytest.raises(LimitExceededError):
            descent_polynomial(6, cap=5)
        for bad in (2.5, 3.0, True):
            with pytest.raises(ValueError, match="positive integer"):
                descent_polynomial(bad)
        assert descent_polynomial(6, cap=6).coeffs == drake_polynomial(6).coeffs


class TestDecompositionOracle:
    """oracles.rooted_descents, the root-deletion recurrence, against the
    product form far above the rooted cap, and against the engine and the
    enumeration blocks root by root."""

    RECURRENCE = {"rooted_descents", "rooted_descents_total", "_forests", "_component"}

    def test_product_form_matches_recurrence(self):
        for n in range(1, 31):
            assert drake_polynomial(n).coeffs == rooted_descents_total(n), n

    def test_engine_matches_recurrence(self):
        for n in range(1, 8):
            assert descent_polynomial(n).coeffs == rooted_descents_total(n), n

    @pytest.mark.parametrize("n, roots", [(n, range(1, n + 1)) for n in range(1, 9)] + [(9, (1, 5, 9))])
    def test_walk_matches_recurrence_per_root(self, n, roots):
        # every root up to n = 8, and above the cap of the enumeration
        # checks, the lowest, a middle and the highest root at n = 9
        for root in roots:
            assert tuple(rooted_trees._root_descents(n, root)) == rooted_descents(n, root), root

    @pytest.mark.parametrize("n, roots", [(n, range(1, n + 1)) for n in range(1, 7)] + [(7, (1, 5))])
    def test_block_records_match_recurrence_per_root(self, n, roots):
        # the des byte of every record, tallied per root
        hist = {root: [0] * n for root in roots}
        for root, block in rooted_trees._rooted_blocks(n, n):
            if root in hist:
                for d in block[n + 1 :: n + 2]:
                    hist[root][d] += 1
        for root in roots:
            assert tuple(hist[root]) == rooted_descents(n, root), root

    def test_recurrence_reads_nothing_from_the_package(self):
        # its functions name nothing that oracles.py imports from the package,
        # and no other oracle
        tree = ast.parse(Path(oracles.__file__).read_text())
        package = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.module.startswith("gamma_forest")]
        others = {a.asname or a.name for node in package for a in node.names}
        others |= {node.name for node in tree.body if isinstance(node, ast.FunctionDef | ast.ClassDef)}
        others -= self.RECURRENCE
        fns = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in self.RECURRENCE]
        assert {fn.name for fn in fns} == self.RECURRENCE
        for fn in fns:
            assert not any(isinstance(x, ast.Import | ast.ImportFrom) for x in ast.walk(fn)), fn.name
            read = {x.id for x in ast.walk(fn) if isinstance(x, ast.Name)}
            assert not read & others, (fn.name, read & others)


class TestIndependence:
    """The descent engine walks forests, and its oracle,
    enumerate_rooted_trees, decodes Prufer sequences: with either patched to
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
        monkeypatch.setattr(rooted_trees, "_root_descents", self.down)
        assert outputs() == expected

    def test_descent_engine_runs_without_rooted_blocks(self, monkeypatch):
        monkeypatch.setattr(rooted_trees, "_rooted_blocks", self.down)
        assert descent_polynomial(6) == drake_polynomial(6)
