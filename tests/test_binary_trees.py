"""Normalized binary trees: statistics, colorings, the incremental engine.

The SHA-256 digests pin the engines' full outputs, double-pair counts and row
order included; they were recorded from the code that ran the joint tally on
one backtracking engine and the rows and comb-type tally on tuple trees.
"""

import hashlib
import math
from collections import Counter
from itertools import product

import pytest

from gamma_forest import binary_trees
from gamma_forest.binary_trees import (
    ROW_STATS,
    bicolored_comb_census,
    bicolored_lyndon_census,
    comb_type,
    comb_type_tally,
    distribution_ndnl_nlyn,
    distribution_ndrd_rdes,
    enumerate_bicolored_combs,
    enumerate_bicolored_lyndon,
    enumerate_colored_combs,
    enumerate_normalized,
    free_count,
    insert_leaf,
    is_ndnl,
    is_ndrd,
    joint_statistics,
    leaf_count,
    marginal,
    nlyn,
    normalized_rows,
    rdes,
    tree_from_string,
    tree_to_string,
    valency,
)
from gamma_forest.errors import LimitExceededError
from gamma_forest.poly import drake_polynomial, evaluate, gamma_closed_form


# sha256 of repr(sorted(joint_statistics(n).items()))
JOINT_DIGESTS = {
    1: "7d71a286db4009112d220b6e5a089a15dce5e0fb05b4b4f4ad28f10f9ab9eb83",
    2: "4de60d9a79744d67d2f907c78bbbcb26b277e92a39c1ecf274ae89234f208e13",
    3: "5c281c30389a5352086785ecbb45fc6752aa8dc5860f28e2da8cadfc9fc2c4f4",
    4: "046261b4e14cb7dd06f2fc69674540e4deaa9823aac65a735b4a0593501b1226",
    5: "9bb0f4a32c41e647e168802c3b7e0ffc03a9b70b5e23ae3304f1dd7cc6531414",
    6: "834acaa7253fb5272abe4b0f9f939671c6bb3b9250f5fd13aea7cee51699f53c",
    7: "ae057f08a571478a62ab51ef9deeb1fc41c1ecbe5d1fec8f253e02d1dd1d1868",
    8: "8d62a704e6430f40cc5c730f379f94b64167e76b9b01b1253b104ee2366822db",
}
# sha256 of repr(sorted(comb_type_tally(8).items()))
COMB_TALLY_8_DIGEST = "c8c40121a6b8055165a311a50b3274d4d1ca7555dfd0a5fde354446d498f1756"
# sha256 of repr(list(normalized_rows(8, stat)))
ROWS_8_DIGESTS = {
    "rdes": "75a9d186550ee05cac2346bf245a9c410202c5000058aabad347fdf8a52c24c5",
    "nlyn": "9dd3eefd81d8eb14c755daec6f9f714503c43526921e784ff263bf83576976b9",
    "free": "0330a0a8115eee1030427f1f2d94166c924898d54ff1cb8b2c3a86e883f4a368",
    "combtype": "112af1e6a3e7bfbe06897d0d0f2b80fd0f32128f541437c06406b75549871135",
}


def sha256_of(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


class TestEnumeration:
    def test_counts(self):
        for n in range(1, 9):
            assert sum(1 for _ in enumerate_normalized(n)) == double_factorial(
                2 * n - 3
            )

    def test_trees_are_normalized(self):
        # every internal node's valency must sit in its left subtree
        def ok(t):
            if isinstance(t, int):
                return True
            left, right = t
            return valency(left) < valency(right) and ok(left) and ok(right)

        for t in enumerate_normalized(6):
            assert ok(t)
            assert leaf_count(t) == 6

    def test_all_distinct(self):
        seen = set()
        for t in enumerate_normalized(7):
            assert t not in seen
            seen.add(t)

    def test_insert_positions(self):
        # inserting into a tree on [n-1] at each preorder slot gives 2n-3 results
        base = ((1, 2), 3)
        results = {insert_leaf(base, pos, 4) for pos in range(5)}
        assert len(results) == 5

    def test_cap(self):
        with pytest.raises(LimitExceededError):
            list(enumerate_normalized(11))
        with pytest.raises(LimitExceededError):
            list(enumerate_normalized(5, cap=4))
        for bad in (2.5, 3.0, True):
            with pytest.raises(ValueError, match="positive integer"):
                list(enumerate_normalized(bad))
            with pytest.raises(ValueError, match="positive integer"):
                list(enumerate_bicolored_combs(bad))
            with pytest.raises(ValueError, match="positive integer"):
                list(enumerate_bicolored_lyndon(bad))


class TestStatistics:
    def test_reference_tree(self):
        t = ((1, 2), (3, (4, 5)))
        assert valency(t) == 1
        assert rdes(t) == 2  # (3,(4,5)) and (4,5) are internal right children
        assert not is_ndrd(t)  # they form a chain
        # only (1,2) is free: not a right child, and its right child is a leaf
        assert free_count(t) == 1

    def test_small_tree_statistics(self):
        assert rdes((1, 2)) == 0
        assert free_count((1, 2)) == 1
        assert nlyn((1, 2)) == 0
        assert comb_type((1, 2)) == (1,)
        assert rdes((1, (2, 3))) == 1
        assert free_count((1, (2, 3))) == 0
        assert comb_type((1, (2, 3))) == (2,)
        assert rdes(((1, 2), 3)) == 0
        assert free_count(((1, 2), 3)) == 2
        assert comb_type(((1, 2), 3)) == (1, 1)

    def test_lyndon_reference(self):
        # leaf left child always Lyndon; otherwise compare right valencies
        assert nlyn((1, (2, 3))) == 0
        # ((1,3),2): left child (1,3), valency(R(L)) = 3 > valency(R) = 2 holds
        assert nlyn(((1, 3), 2)) == 0
        # ((1,2),3): valency(R(L)) = 2 < 3 = valency(R): root non-Lyndon
        assert nlyn(((1, 2), 3)) == 1
        # the two Lyndon trees on [3] are exactly (n-1)! = 2 of the three
        assert sum(1 for t in enumerate_normalized(3) if nlyn(t) == 0) == 2

    def test_comb_type_partitions_nodes(self):
        for n in range(2, 8):
            for t in enumerate_normalized(n):
                ct = comb_type(t)
                assert sum(ct) == n - 1
                assert ct == tuple(sorted(ct, reverse=True))

    def test_free_plus_double_rdes_on_ndrd(self):
        for n in range(2, 9):
            for t in enumerate_normalized(n):
                if is_ndrd(t):
                    assert free_count(t) + 2 * rdes(t) == n - 1

    def test_lyndon_count_is_factorial(self):
        for n in range(1, 8):
            count = sum(1 for t in enumerate_normalized(n) if nlyn(t) == 0)
            assert count == math.factorial(n - 1)

    def test_string_round_trip(self):
        for t in enumerate_normalized(6):
            assert tree_from_string(tree_to_string(t)) == t

    @pytest.mark.parametrize(
        "text, pos",
        [
            ("(1,2", 4), ("(1", 2), ("", 0), ("(", 1), ("(1,2)x", 5), ("(1;2)", 2), ("(1,²)", 3),
            pytest.param("(" * 1200, 1200, id="1200-open"),
        ],
    )
    def test_malformed_string_names_position(self, text, pos):
        with pytest.raises(ValueError, match=f"at position {pos} in"):
            tree_from_string(text)

    def test_deep_string_parses(self):
        # a left comb deeper than the recursion limit; walk its spine
        # iteratively, since tuple == recurses too
        node = tree_from_string("(" * 2999 + "1" + "".join(f",{i})" for i in range(2, 3001)))
        for i in range(3000, 1, -1):
            assert node[1] == i
            node = node[0]
        assert node == 1


class TestJointEngine:
    def test_engine_matches_per_tree_statistics(self):
        # the incremental tally must agree with the direct per-tree functions
        for n in range(1, 8):
            direct = Counter()
            for t in enumerate_normalized(n):
                direct[
                    (rdes(t), is_ndrd(t), nlyn(t), is_ndnl(t), free_count(t))
                ] += 1
            engine = Counter()
            for (r, d, nl, dl, f), c in joint_statistics(n).items():
                engine[(r, d == 0, nl, dl == 0, f)] += c
            assert engine == direct

    def test_rows_engine_matches_per_tree_statistics(self):
        oracles = {"rdes": rdes, "nlyn": nlyn, "free": free_count, "combtype": comb_type}
        for n in range(1, 8):
            trees = list(enumerate_normalized(n))
            for stat, oracle in oracles.items():
                expected = [(tree_to_string(t), oracle(t)) for t in trees]
                assert list(normalized_rows(n, stat)) == expected, (n, stat)
            assert comb_type_tally(n) == Counter(comb_type(t) for t in trees)

    def test_rows_engine_caps_and_stats(self):
        with pytest.raises(LimitExceededError):
            list(normalized_rows(11, "rdes"))
        with pytest.raises(LimitExceededError):
            comb_type_tally(5, cap=4)
        with pytest.raises(ValueError):
            list(normalized_rows(4, "des"))
        for bad in (2.5, 3.0, True):
            with pytest.raises(ValueError, match="positive integer"):
                list(normalized_rows(bad, "rdes"))
            with pytest.raises(ValueError, match="positive integer"):
                comb_type_tally(bad)

    def test_marginal_matches_per_tree_statistics(self):
        oracles = {"rdes": rdes, "nlyn": nlyn, "free": free_count}
        for n in range(1, 8):
            tally = joint_statistics(n)
            for stat, oracle in oracles.items():
                expected = Counter(oracle(t) for t in enumerate_normalized(n))
                assert marginal(tally, stat) == expected, (n, stat)

    def test_parallel_matches_sequential(self):
        for n in (7, 8):
            assert joint_statistics(n, threads=3) == joint_statistics(n)

    @pytest.mark.parametrize("n", sorted(JOINT_DIGESTS))
    def test_joint_digest(self, n):
        assert sha256_of(sorted(joint_statistics(n).items())) == JOINT_DIGESTS[n]

    def test_comb_tally_digest(self):
        assert sha256_of(sorted(comb_type_tally(8).items())) == COMB_TALLY_8_DIGEST

    @pytest.mark.parametrize("stat", ROW_STATS)
    def test_rows_digest(self, stat):
        assert sha256_of(list(normalized_rows(8, stat))) == ROWS_8_DIGESTS[stat]

    def test_engines_call_no_per_tree_function(self, monkeypatch):
        # the per-tree functions are the engines' oracles, so no engine may
        # lean on them
        def engines():
            return (
                joint_statistics(6),
                comb_type_tally(6),
                {stat: list(normalized_rows(6, stat)) for stat in ROW_STATS},
            )

        expected = engines()

        def banned(*args, **kwargs):
            raise AssertionError("an engine called a per-tree function")

        for name in (
            "enumerate_normalized", "insert_leaf", "tree_to_string", "leaf_count", "node_count",
            "valency", "rdes", "is_ndrd", "nlyn", "is_ndnl", "free_count", "comb_type",
        ):
            monkeypatch.setattr(binary_trees, name, banned)
        assert engines() == expected

    @pytest.mark.parametrize(
        "n, prefix",
        [
            (11, (2, 0, 4, 3, 8, 10)),
            (11, (2, 4, 6, 8, 10, 12)),  # always the last leaf: one long chain
            (12, (1, 4, 6, 0, 9, 12, 5)),
            (12, (0, 0, 0, 0, 0, 0, 0)),  # always the root: a left comb
        ],
    )
    def test_sampled_shard_above_cap(self, n, prefix):
        # the walker's children against the per-tree functions on the same
        # trees, built by insert_leaf at the same positions, above the cap
        trees = [1]
        for m in range(2, n + 1):
            fixed = 0 <= m - 3 < len(prefix)
            positions = (prefix[m - 3],) if fixed else range(2 * m - 3)
            trees = [insert_leaf(t, pos, m) for t in trees for pos in positions]
        expected = [
            (rdes(t), is_ndrd(t), nlyn(t), is_ndnl(t), free_count(t), comb_type(t)) for t in trees
        ]
        engine = []
        splits: dict = {}
        for arrays, nodes, root, key in binary_trees._walk(n, prefix):
            order = binary_trees._preorder_nodes(arrays, root)
            keys = binary_trees._child_keys(arrays, nodes, key)
            combs = binary_trees._comb_children(arrays, order, splits)
            for v in order:
                r, d, nl, dl, f = keys[v]
                engine.append((r, d == 0, nl, dl == 0, f, combs[v]))
        assert 3000 < len(engine) < 8000
        assert engine == expected

    def test_shards_in_process_match_sequential(self, monkeypatch):
        # every shard prefix, without forking a pool
        serial = joint_statistics(8)
        monkeypatch.setattr(
            binary_trees, "map_shards", lambda fn, tasks, threads: [fn(t) for t in tasks]
        )
        for threads in (2, 3, 4):
            assert joint_statistics(8, threads=threads) == serial, threads

    def test_total_mass(self):
        for n in range(1, 9):
            assert sum(joint_statistics(n).values()) == double_factorial(2 * n - 3)

    def test_cap(self):
        with pytest.raises(LimitExceededError):
            joint_statistics(11)
        with pytest.raises(LimitExceededError):
            joint_statistics(5, cap=4)
        for bad in (2.5, 3.0, True):
            with pytest.raises(ValueError, match="positive integer"):
                joint_statistics(bad)
            with pytest.raises(ValueError, match="positive integer"):
                distribution_ndrd_rdes(bad)


class TestDistributions:
    def test_ndrd_rdes_matches_gamma(self):
        for n in range(1, 9):
            assert (
                distribution_ndrd_rdes(n).gammas == gamma_closed_form(n).gammas
            )

    def test_ndnl_nlyn_matches_gamma(self):
        for n in range(1, 9):
            assert (
                distribution_ndnl_nlyn(n).gammas == gamma_closed_form(n).gammas
            )

    def test_degree_field(self):
        assert distribution_ndrd_rdes(5).degree == 4


class TestBicoloredCombs:
    def test_explicit_matches_census(self):
        for n in range(1, 7):
            hist = Counter()
            for _t, colors in enumerate_bicolored_combs(n):
                hist[sum(colors)] += 1
            census = bicolored_comb_census(n)
            assert tuple(hist[i] for i in range(len(census.coeffs))) == census.coeffs

    def test_census_matches_product_form(self):
        for n in range(1, 9):
            assert bicolored_comb_census(n).coeffs == drake_polynomial(n).coeffs

    def test_fiber_size(self):
        # each NDRD tree contributes exactly 2^free colorings
        for n in range(2, 7):
            per_tree = Counter()
            for t, _colors in enumerate_bicolored_combs(n):
                per_tree[t] += 1
            for t in enumerate_normalized(n):
                if is_ndrd(t):
                    assert per_tree[t] == 2 ** free_count(t)
                else:
                    assert per_tree[t] == 0

    def test_forced_ones_count(self):
        # colorings of a tree all share rdes(t) forced one-colors at the
        # parents of internal right children
        for t, colors in enumerate_bicolored_combs(5):
            assert sum(colors) >= rdes(t)

    def test_total_is_tree_count(self):
        for n in range(1, 8):
            total = sum(1 for _ in enumerate_bicolored_combs(n))
            assert total == n ** (n - 1)


class TestBicoloredLyndon:
    def test_explicit_matches_census(self):
        for n in range(1, 7):
            hist = Counter()
            for _t, colors in enumerate_bicolored_lyndon(n):
                hist[sum(colors)] += 1
            census = bicolored_lyndon_census(n)
            assert tuple(hist[i] for i in range(len(census.coeffs))) == census.coeffs

    def test_census_matches_product_form(self):
        for n in range(1, 9):
            assert bicolored_lyndon_census(n).coeffs == drake_polynomial(n).coeffs

    def test_fiber_size(self):
        for n in range(2, 7):
            per_tree = Counter()
            for t, _colors in enumerate_bicolored_lyndon(n):
                per_tree[t] += 1
            for t in enumerate_normalized(n):
                if is_ndnl(t):
                    assert per_tree[t] == 2 ** (n - 1 - 2 * nlyn(t))
                else:
                    assert per_tree[t] == 0

    def test_total_is_tree_count(self):
        for n in range(1, 8):
            total = sum(1 for _ in enumerate_bicolored_lyndon(n))
            assert total == n ** (n - 1)


class TestColoredCombs:
    def test_reference_count(self):
        assert sum(1 for _ in enumerate_colored_combs(3, 3)) == 21

    def test_colors_decrease_along_chains(self):
        from gamma_forest.binary_trees import _InternalInfo

        for t, coloring in enumerate_colored_combs(4, 3):
            assert all(1 <= c <= 3 for c in coloring)
            info = _InternalInfo(t)
            for i in range(len(coloring)):
                j = info.right_child[i]
                if j >= 0:
                    assert coloring[i] > coloring[j]

    def test_count_matches_product_formula(self):
        # summing over trees the product of binomials reproduces the
        # two-variable specialization mass at k colors
        from gamma_forest.symfunc import product_form_count

        for n in range(1, 6):
            for k in range(1, 5):
                direct = sum(1 for _ in enumerate_colored_combs(n, k))
                formula = sum(
                    product_form_count(t, k) for t in enumerate_normalized(n)
                )
                assert direct == formula

    def test_two_colors_matches_bicolored_total(self):
        # k = 2 with colors {1,2} is the bicolored comb model in disguise
        for n in range(1, 7):
            assert sum(1 for _ in enumerate_colored_combs(n, 2)) == sum(
                1 for _ in enumerate_bicolored_combs(n)
            )

    def test_caps(self):
        with pytest.raises(LimitExceededError):
            list(enumerate_colored_combs(9, 2))
        with pytest.raises(LimitExceededError):
            list(enumerate_colored_combs(3, 6))
        for bad in (2.5, 3.0, True):
            with pytest.raises(ValueError, match="positive integer"):
                list(enumerate_colored_combs(bad, 2))
            with pytest.raises(ValueError, match="positive integer"):
                list(enumerate_colored_combs(3, bad))
