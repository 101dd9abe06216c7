"""Normalized binary trees: statistics, colorings, the incremental engine.

The SHA-256 digests pin the engines' full outputs, double-pair counts and row
order included; they were recorded from the code that ran the joint tally on
one backtracking engine and the rows and comb-type tally on tuple trees.  The
rendered rows at n = 8 were recorded while the command line still formatted
each line apart from the string splice that makes its tree.  The
digests of the three coloring enumerators were recorded from the code that
built each coloring from an in-order table of the tree and a product over its
free nodes or chains; the colored-comb digests sort each tree's colorings, so
they pin the set of colorings per tree.
"""

import hashlib
import math
import sys
from collections import Counter
from itertools import groupby, islice, product

import pytest

from gamma_forest import binary_trees, cli, stirling
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
    joint_statistics,
    marginal,
    tree_to_string,
    valency,
)
from gamma_forest.errors import LimitExceededError
from gamma_forest.poly import drake_polynomial, evaluate, gamma_closed_form
from gamma_forest.symfunc import comb_type_expansion, specialize_two_vars
import oracles
from oracles import (
    double_factorial,
    free_count,
    is_ndnl,
    is_ndrd,
    nlyn,
    normalized_rows,
    product_form_count,
    rdes,
    sha256_of,
)


# sha256 of repr(list(enumerate_normalized(n)))
TREE_STREAM_DIGESTS = {
    1: "080a9ed428559ef602668b4c00f114f1a11c3f6b02a435f0bdc154578e4d7f22",
    2: "d2befae1db2d4c20710e1f23f51084df36739e60fe17a2cdf44b1d2cf82f34d2",
    3: "f10878af4ca55f5044bb19274025aee062f9aaa2b0ff08756ebd1d1da4cdb427",
    4: "ef54785813d2d96c9c7ff42d11b5f0cd7ac72b2a441307fe84fece6852f28cc8",
    5: "e02093e1994346888c9ad6a83374bc8c8ac1d5001ad959530481bf3374f9d95f",
    6: "c4b5abfc79b30a46d3d4001e3110e0127a5f222ce29ceaca51f446e1af8ff5ac",
    7: "b78de65adab9c9b40aaf9f9ae8897bdb95b8c4e20dd0c588fe918f1fbb6b39b6",
    8: "aeafbbf06a2dda236de7281b2dd7c60c53d37520ae340e2d7fb0e0f22d9679fc",
}
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
# sha256 of "".join(cli._render_rows("normalized", stat, 8, fmt)); "stat-fmt"
RENDERED_ROWS_8_DIGESTS = {
    "combtype-json": "6dcc7c311e77c59f147b4e66f52aa3d5889b7097a5888dd5ede6b2305cbef89b",
    "rdes-text": "a0d17f1703448b891115c1deb3772dc804faa7dd4b7cc05a162f14a3fec006d0",
    "nlyn-csv": "2c79fabe743d08fb115c5309c73c4a09b7e26d020c831c06e62267215d54f39b",
    "free-json": "35a75a22b3d03eb6f0324461d8f2cdc2c3a40e245932551d838c29033ff5a510",
}
# sha256 of repr(list(enumerate_bicolored_combs(n)))
BICOLORED_COMBS_DIGESTS = {
    1: "851c366d8b71b994bb7d64152273c50eb73ffbb7367ab0b3bc6b4e39c02a6cbf",
    2: "b67f90b858d07e61295bae7eca068e8ea4934499d389cbf24089c0746f12374f",
    3: "ee94364c4fc7072b5b2e4175b0a7de52ff6aa0fd2a32a8d80e22f7f0a8e9b7c0",
    4: "0562bba43411d9eb5374397147601661d2282724d9419729369d64d807566116",
    5: "66c4be60491a7449c5f21a3ee1834740daf267c984ae17125d2a3b33ee1b2178",
    6: "f5296032f1be9ca3dbb029c3ffb40b37270c8cc58ce07b98e982beeeeac63135",
    7: "84f5dbaa21211084734ccae31acad381529a1e4a8afbb70a0058ed67747405af",
}
# sha256 of repr(list(enumerate_bicolored_lyndon(n)))
BICOLORED_LYNDON_DIGESTS = {
    1: "851c366d8b71b994bb7d64152273c50eb73ffbb7367ab0b3bc6b4e39c02a6cbf",
    2: "b67f90b858d07e61295bae7eca068e8ea4934499d389cbf24089c0746f12374f",
    3: "f300aa7f55af20722a2837a82f18d36a5f5fba019669625329fa07cd35507b5d",
    4: "50db9d480da2e33c28bbdb4d431e66858661ecbe5a85c64a9682223bdaa40c1e",
    5: "172999a746032a48727d3339846294efc89bde2c27b048bc0160c2bc41e11172",
    6: "ddd922c6d22e8819ec415b1ef26c21c7dc4485dded4f8b7bf812419ebcf69141",
    7: "6de99d508421e266cee0fef5d548c5c08db3ed62ff68e8222ae6cfb0868ce698",
}
# sha256 of repr(sorted_per_tree(enumerate_colored_combs(n, k))), keyed by (n, k)
COLORED_COMBS_DIGESTS = {
    (1, 1): "851c366d8b71b994bb7d64152273c50eb73ffbb7367ab0b3bc6b4e39c02a6cbf",
    (1, 2): "851c366d8b71b994bb7d64152273c50eb73ffbb7367ab0b3bc6b4e39c02a6cbf",
    (1, 3): "851c366d8b71b994bb7d64152273c50eb73ffbb7367ab0b3bc6b4e39c02a6cbf",
    (1, 4): "851c366d8b71b994bb7d64152273c50eb73ffbb7367ab0b3bc6b4e39c02a6cbf",
    (1, 5): "851c366d8b71b994bb7d64152273c50eb73ffbb7367ab0b3bc6b4e39c02a6cbf",
    (2, 1): "73652c185547e7697eb381860b9d1eb290c7fdd01c0162bf732baf687504c14b",
    (2, 2): "3a6e650322cf74bca2ce2c5b63d1aa278c0739c94b675b6787d68348d20e7c52",
    (2, 3): "56ead3876738edb015b389b7a1e4ef67aefcc73c31a6964aad17a4b8cc1ba652",
    (2, 4): "e8c0efbe16911eb405b27866d708bb67bdcf8e7c1f16008ae22b6f29a295f864",
    (2, 5): "58c6f5a68d5580f33410262a8c6fff65e8050d824fc446f31be488e624df003d",
    (3, 1): "0eb4df6278a0d4f112dcced119cee58fa4320559fe072dab0d1835d7838be599",
    (3, 2): "364197f71fd63eba022032a5604c33ccccfe22c725795f35b3e477a03b0e9af8",
    (3, 3): "11c08374207f1b301f378c55b58abb11cc4e6e3dbcc06a82769c7f1b00576429",
    (3, 4): "f8b24bbdbeed117ab46d9ab55477f275c8c6d76830d9eeb7216bf96ffb39278d",
    (3, 5): "3d428d1c14ffe68cf034978bed5759ec79d7f3126f332a6168048ea3a02a6313",
    (4, 1): "567843535b90ba2a40ddeda20f007109b5d1f4ccb5c9a13f583b1b0b89b5044a",
    (4, 2): "441ef9d273de8e227f9c7a4a76edcd4cc7988fb48ec313dd818d8601c9bcf879",
    (4, 3): "430b969c01a3ae341b81959e515154c0d919a5ea7fef9a9a8f2a3734107b555d",
    (4, 4): "1c4dee60f9c2afe37f8f9aa507a613cfe448d5ee354289930b4924c458776255",
    (4, 5): "d500205522ccdc61621585f30ded31c68cd3d7c979c6b52b3a200c116e097b5e",
    (5, 1): "eb30e0229334118e299c1f163107f89101f9182bda2bd6e684b8862bd5499df5",
    (5, 2): "2499792192893f34c24ce6a7b4f71f8219f44a83982212d97c4b62337eb1ed95",
    (5, 3): "cac5098a2a9463e6d6f7280bb98254da02784eae63476be927bc6733db8a99c3",
    (5, 4): "6f078ae4dae287f2eb5db933f1db1fa8813b75ddc1e401b8b57c30a5396ea919",
    (5, 5): "6127b91452dbcad4cf78ec9783459ab85cdd13d0e0c54e5cdb2085f7a47fed26",
    (6, 1): "4a3e39b1b60db9d17d9fc6434d247abba153ed536c204f92707cbef4766b8f46",
    (6, 2): "d9e70e47ffe13a036c659a209839dcf14913c1878803256bbb37e25d1bf05804",
    (6, 3): "01ce8ce714621e53d9a1f0a587c0720ce23dc3b5d29b90b2a72884f8e517e763",
}


def sorted_per_tree(pairs):
    """The (tree, coloring) pairs with each tree's colorings sorted, trees kept
    in stream order."""
    out = []
    for t, group in groupby(pairs, key=lambda pair: pair[0]):
        out.extend((t, colors) for colors in sorted(colors for _t, colors in group))
    return out


def internal_nodes(t):
    """(subtree, left, right) per internal node of t in left-to-right order,
    the order of a coloring; left and right index an internal child, -1 a leaf."""
    out = []

    def walk(node):
        if isinstance(node, int):
            return -1
        left = walk(node[0])
        i = len(out)
        out.append(None)
        out[i] = (node, left, walk(node[1]))
        return i

    walk(t)
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
            assert tree_to_string(t).count(",") == 5

    def test_all_distinct(self):
        seen = set()
        for t in enumerate_normalized(7):
            assert t not in seen
            seen.add(t)

    @pytest.mark.parametrize("n", sorted(TREE_STREAM_DIGESTS))
    def test_stream_digest(self, n):
        # the order of the stream, which the goldens, rows and shards rely on
        assert sha256_of(list(enumerate_normalized(n))) == TREE_STREAM_DIGESTS[n]

    def test_insert_positions(self):
        # inserting into a tree on [n-1] at each preorder slot gives 2n-3 results
        base = ((1, 2), 3)
        results = set(binary_trees._insertions(base, 4))
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
        # distinct strings for distinct trees: the string determines the tree
        strings = [tree_to_string(t) for t in enumerate_normalized(7)]
        assert len(set(strings)) == len(strings) == 10395

    def test_deep_string_round_trips(self):
        # a left comb deeper than the recursion limit, built without
        # recursion, writes as its pinned text
        node = 1
        for i in range(2, 3001):
            node = (node, i)
        text = "(" * 2999 + "1" + "".join(f",{i})" for i in range(2, 3001))
        assert tree_to_string(node) == text


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

    @pytest.mark.parametrize(
        "t",
        [10, (1, 10), ((1, 10), (2, 11)), (((1, 12), (3, 4)), ((2, 11), 10)), (1, (2, (3, 13)))],
    )
    def test_key_spans_keep_label_widths(self, t):
        # each node's substring, in preorder, from the shape key alone
        def preorder(u):
            yield u
            if isinstance(u, tuple):
                yield from preorder(u[0])
                yield from preorder(u[1])

        s = tree_to_string(t)
        key = s.translate(binary_trees._SHAPE)
        assert set(key) <= set("(),0") and len(key) == len(s)
        spans = binary_trees._key_spans(key)
        assert [s[a:b] for a, b in spans] == [tree_to_string(u) for u in preorder(t)]

    def test_key_spans_reference(self):
        assert binary_trees._key_spans("((0,00),(0,00))") == (
            (0, 15), (1, 7), (2, 3), (4, 6), (8, 14), (9, 10), (11, 13)
        )

    @pytest.mark.parametrize(
        "stat, oracle",
        [("combtype", comb_type), ("nlyn", nlyn), ("rdes", rdes), ("free", free_count)],
    )
    def test_rows_above_cap_match_per_tree_statistics(self, stat, oracle):
        # at n = 11 labels 10 and 11 take two digits, so the shape keys do
        # too; combtype, rdes and free are read once per shape key
        size = 10_000
        rows = list(islice(normalized_rows(11, stat, 11), size))
        expected = [(tree_to_string(t), oracle(t)) for t in islice(enumerate_normalized(11, 11), size)]
        assert len(rows) == size
        assert rows == expected

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

    @pytest.mark.parametrize("n", sorted(JOINT_DIGESTS))
    def test_joint_digest(self, n):
        assert sha256_of(sorted(joint_statistics(n).items())) == JOINT_DIGESTS[n]

    def test_comb_tally_digest(self):
        assert sha256_of(sorted(comb_type_tally(8).items())) == COMB_TALLY_8_DIGEST

    def test_comb_tally_matches_rows(self):
        # the recurrence over comb types against the walker's per-tree rows
        for n in range(1, 9):
            assert Counter(v for _, v in normalized_rows(n, "combtype")) == comb_type_tally(n), n

    @pytest.mark.parametrize("n", range(11, 21))
    def test_comb_tally_above_cap(self, n):
        # the tally counts every tree, and its e-expansion specializes to the
        # descent polynomial, far above the enumeration cap
        assert sum(comb_type_tally(n, cap=n).values()) == double_factorial(2 * n - 3)
        assert specialize_two_vars(comb_type_expansion(n, n)) == drake_polynomial(n)

    def test_comb_tally_walks_no_tree(self, monkeypatch):
        def banned(*args, **kwargs):
            raise AssertionError("comb_type_tally walked the trees")

        for name in ("_class_children", "_load", "_comb_children"):
            monkeypatch.setattr(binary_trees, name, banned)
        assert sum(comb_type_tally(10).values()) == double_factorial(17)

    @pytest.mark.parametrize("stat", ROW_STATS)
    def test_rows_digest(self, stat):
        assert sha256_of(list(normalized_rows(8, stat))) == ROWS_8_DIGESTS[stat]

    @pytest.mark.parametrize("case", sorted(RENDERED_ROWS_8_DIGESTS))
    def test_rendered_rows_digest(self, case):
        stat, fmt = case.split("-")
        text = "".join(cli._render_rows("normalized", stat, 8, fmt))
        assert hashlib.sha256(text.encode()).hexdigest() == RENDERED_ROWS_8_DIGESTS[case]

    def test_engines_call_no_per_tree_function(self, monkeypatch):
        # the package's per-tree functions serve the command line and the
        # colored models, so no engine may lean on them; the per-tree oracles
        # are out of the engines' reach (test_callers.py)
        def engines():
            return (
                joint_statistics(6),
                comb_type_tally(6),
                {stat: list(normalized_rows(6, stat)) for stat in ROW_STATS},
            )

        expected = engines()

        def banned(*args, **kwargs):
            raise AssertionError("an engine called a per-tree function")

        for name in ("enumerate_normalized", "_insertions", "tree_to_string", "valency", "comb_type"):
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
        # the class codes' children and their statistics against the
        # per-tree functions on the same trees, built by _insertions at the
        # same positions, above the cap; prefix fixes the positions of
        # leaves 3, 4, ...
        arrays = tuple([0] * (2 * n - 3) for _ in range(5))
        trees, codes = [1], [bytes(binary_trees._HEAD + 1)]
        for m in range(2, n):
            fixed = 0 <= m - 3 < len(prefix)
            positions = (prefix[m - 3],) if fixed else range(2 * m - 3)
            trees = [
                child
                for t in trees
                for pos, child in enumerate(binary_trees._insertions(t, m))
                if pos in positions
            ]
            codes = [
                child
                for code in codes
                for pos, child in enumerate(binary_trees._class_children(code, arrays))
                if pos in positions
            ]
        expected = [
            (rdes(t), is_ndrd(t), nlyn(t), is_ndnl(t), free_count(t), comb_type(t))
            for parent in trees
            for t in binary_trees._insertions(parent, n)
        ]
        engine = []
        for code in codes:
            heads = [child[: binary_trees._HEAD] for child in binary_trees._class_children(code, arrays)]
            values = {stat: binary_trees._class_values(code, stat, arrays) for stat in ROW_STATS}
            for stat in ("rdes", "nlyn", "free"):
                assert values[stat] == [h[binary_trees.JOINT_KEY[stat]] for h in heads]
            combs = values["combtype"]
            engine += [(h[0], h[1] == 0, h[2], h[3] == 0, h[4], c) for h, c in zip(heads, combs)]
        assert 3000 < len(engine) < 8000
        assert engine == expected

    def test_class_tally_matches_the_tree_walk(self):
        # the class tally against one over the oracle walker's trees, tree by
        # tree
        for n in range(2, 10):
            trees = Counter()
            for arrays, nodes, _root, key in oracles._walk(n):
                trees.update(binary_trees._child_keys(arrays, nodes, key))
            assert joint_statistics(n) == trees, n

    @pytest.mark.parametrize("stat", ROW_STATS)
    def test_rows_read_each_class_once(self, stat, monkeypatch):
        # the rows memoize their statistics per class of the trees on [7],
        # nlyn included, and walk no tree
        calls = []
        class_values = binary_trees._class_values

        def counted(code, *args):
            calls.append(code)
            return class_values(code, *args)

        def banned(*args, **kwargs):
            raise AssertionError("the rows reached the oracle walker")

        monkeypatch.setattr(binary_trees, "_class_values", counted)
        monkeypatch.setattr(oracles, "_walk", banned)
        monkeypatch.setattr(oracles, "_preorder_nodes", banned)
        for _ in binary_trees._row_blocks(8, stat):
            pass
        assert len(calls) == len(set(calls)) == len(binary_trees._tree_classes(7)) == 903

    def test_class_counts(self):
        # the large Schroeder numbers: a class is a shape with nonlyn flags
        counts = [len(binary_trees._tree_classes(m)) for m in range(1, 11)]
        assert counts == [1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049]

    def test_tally_above_cap(self):
        tally = joint_statistics(11, cap=11)
        gamma = gamma_closed_form(11)
        assert binary_trees.ndrd_rdes(tally, 11) == gamma
        assert binary_trees.ndnl_nlyn(tally, 11) == gamma
        assert binary_trees.comb_census(tally) == drake_polynomial(11)
        assert binary_trees.lyndon_census(tally, 11) == drake_polynomial(11)
        assert sum(tally.values()) == double_factorial(19)

    def test_classes_share_no_function_with_the_word_classes(self):
        # the two class walks are the two sides of the stirling.*-equidistribution
        # checks, so neither may run a function of the other
        def functions(fn, *args):
            seen = set()

            def record(frame, event, arg):
                if event == "call":
                    seen.add(frame.f_code)

            sys.setprofile(record)
            try:
                fn(*args)
            finally:
                sys.setprofile(None)
            return seen

        trees = functions(joint_statistics, 7)
        words = functions(stirling.pair_statistics, 6)
        assert binary_trees._tree_classes.__code__ in trees
        assert stirling._classes.__code__ in words
        package = {c for c in trees & words if "gamma_forest" in c.co_filename}
        assert {c.co_name for c in package} <= {"check_size"}

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

    @pytest.mark.parametrize("n", sorted(BICOLORED_COMBS_DIGESTS))
    def test_stream_digest(self, n):
        assert sha256_of(list(enumerate_bicolored_combs(n))) == BICOLORED_COMBS_DIGESTS[n]


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

    @pytest.mark.parametrize("n", sorted(BICOLORED_LYNDON_DIGESTS))
    def test_stream_digest(self, n):
        assert sha256_of(list(enumerate_bicolored_lyndon(n))) == BICOLORED_LYNDON_DIGESTS[n]


class TestColoredCombs:
    def test_reference_count(self):
        assert sum(1 for _ in enumerate_colored_combs(3, 3)) == 21

    def test_colors_decrease_along_chains(self):
        for t, coloring in enumerate_colored_combs(4, 3):
            assert all(1 <= c <= 3 for c in coloring)
            for i, (_node, _left, j) in enumerate(internal_nodes(t)):
                if j >= 0:
                    assert coloring[i] > coloring[j]

    @pytest.mark.parametrize("n, k", sorted(COLORED_COMBS_DIGESTS))
    def test_stream_digest(self, n, k):
        pairs = sorted_per_tree(enumerate_colored_combs(n, k))
        assert sha256_of(pairs) == COLORED_COMBS_DIGESTS[n, k]

    def test_count_matches_product_formula(self):
        # summing over trees the product of binomials reproduces the
        # two-variable specialization mass at k colors
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


def min_leaf(t):
    return t if isinstance(t, int) else min(min_leaf(t[0]), min_leaf(t[1]))


def comb_rule(nodes, colors):
    # a right descent is colored 0 and its parent 1
    assert set(colors) <= {0, 1}
    for i, (_node, _left, right) in enumerate(nodes):
        if right >= 0:
            assert colors[right] == 0 and colors[i] == 1


def lyndon_rule(nodes, colors):
    # a non-Lyndon node is colored 0 and its left child 1
    assert set(colors) <= {0, 1}
    for i, (node, left, _right) in enumerate(nodes):
        if left >= 0 and min_leaf(node[0][1]) <= min_leaf(node[1]):
            assert colors[i] == 0 and colors[left] == 1


def chain_rule(k):
    # colors in [1, k] strictly decrease along right-child edges
    def rule(nodes, colors):
        assert all(1 <= c <= k for c in colors)
        for i, (_node, _left, right) in enumerate(nodes):
            if right >= 0:
                assert colors[i] > colors[right]

    return rule


class TestColoringRules:
    """Every yielded coloring obeys its model's rule, checked on a test-local
    in-order walk; each tree's colorings are distinct and in lexicographic
    order."""

    @staticmethod
    def check(pairs, rule):
        for t, group in groupby(pairs, key=lambda pair: pair[0]):
            colorings = [colors for _t, colors in group]
            assert colorings == sorted(set(colorings))
            nodes = internal_nodes(t)
            for colors in colorings:
                assert len(colors) == len(nodes)
                rule(nodes, colors)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bicolored_combs(self, n):
        self.check(enumerate_bicolored_combs(n), comb_rule)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bicolored_lyndon(self, n):
        self.check(enumerate_bicolored_lyndon(n), lyndon_rule)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_colored_combs(self, n):
        for k in range(1, 5):
            self.check(enumerate_colored_combs(n, k), chain_rule(k))
