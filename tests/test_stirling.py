"""Stirling permutations: enumeration order, pair statistics, distributions."""

import hashlib
from collections import Counter
from itertools import islice, permutations

import pytest
from hypothesis import given, settings, strategies as st

from gamma_forest import cli, stirling
from gamma_forest.errors import LimitExceededError
from gamma_forest.poly import gamma_closed_form
from gamma_forest.stirling import (
    distribution_naas_aapair,
    distribution_ntns_tnpair,
    enumerate_stirling,
    marginal,
    pair_statistics,
    statistics_rows,
)
from oracles import (
    MalformedWordError,
    aapair,
    as_word,
    double_factorial,
    is_naas,
    is_ntns,
    is_stirling,
    nlyn,
    rdes,
    sha256_of,
    tnpair,
    word_to_string,
)


# sha256 of repr(list(enumerate_stirling(n)))
WORD_STREAM_DIGESTS = {
    1: "dba010dc185ba44cc16ac8ed5e5bbbe721e8dc9d928b5377686d1b3a9d786530",
    2: "359fe6bb91061f05bca811b1d4e7dde79cdd388c0646250aa73022159f47155f",
    3: "cdf208bf7e1217eaddf9a93ddb95e84a16399af384dd4e3f24a67b62d078b58f",
    4: "6369b6ccc24595d982e9621e5055ef0f56ef1100a7634058d0f134d76ff1a992",
    5: "f0e0517ffc8058c8aefaf946b326e974ff341d34e2b98448cfe61babc6f2e8b2",
    6: "4d6a725ab4eaf12b2a5e40ee14087a8c6db549f94befe6110987ddaf8017b7ce",
    7: "744aebf352c422d12f85102fa6f1b26e369827fa40e19d32876100b640cc6789",
}

# sha256 of repr(list(statistics_rows(n)))
ROWS_DIGESTS = {
    6: "36229924f356e7dcaaf34ca88fbe9c7a56c198a8a51b3da780b8f085bb53719f",
    7: "bd2db93257215b1cf9ca482080a10b0380bdce024a276e6712ab09cc6c4fefef",
    8: "236106a0f6d72470d0818077a641914048399845ba5bc5eb5c7c1c615459cab2",
}
# sha256 of "".join(cli._render_rows("stirling", "tnpair", 7, fmt))
RENDERED_ROWS_7_DIGESTS = {
    "text": "bf410e152a0cd3dd85e4ba5158a581c31b522dcc3da752fd0f9f5ba2bb9e4205",
    "csv": "05bdb7ea91dbf7f989a32165e92661781d6286f4b125092041a182cf9dce72f4",
    "json": "b35fb120a009840c2071da8a9e86621c74760877eb641377a4e15fdb6e893daf",
}


def list_digest(items) -> str:
    """sha256 of repr(list(items)), without holding the list."""
    h = hashlib.sha256(b"[")
    sep = b""
    for item in items:
        h.update(sep + repr(item).encode())
        sep = b", "
    h.update(b"]")
    return h.hexdigest()


def naive_is_stirling(word) -> bool:
    w = as_word(word)
    first = {}
    second = {}
    for i, a in enumerate(w):
        if a in first:
            second[a] = i
        else:
            first[a] = i
    letters = sorted(first)
    if letters != list(range(1, len(letters) + 1)):
        return False
    # between the two copies of a, everything must exceed a
    for a in letters:
        for i in range(first[a] + 1, second[a]):
            if w[i] < a:
                return False
    return True


def naive_aapair(word) -> int:
    w = as_word(word)
    first = {}
    second = {}
    for i, a in enumerate(w):
        if a in first:
            second[a] = i
        else:
            first[a] = i
    return sum(
        1
        for a in first
        for b in first
        if a < b and second[a] + 1 == first[b]
    )


def naive_tnpair(word) -> int:
    w = as_word(word)
    first_seen = {}
    second_occ = {}
    for i, a in enumerate(w):
        if a in first_seen:
            second_occ[a] = i
        else:
            first_seen[a] = i
    return sum(
        1
        for a in second_occ
        for b in second_occ
        if a < b and second_occ[a] == second_occ[b] + 1
    )


# classes of words of order 0..7 (little Schroeder numbers)
CLASS_COUNTS = [1, 1, 3, 11, 45, 197, 903, 4279]


def class_key(w) -> bytes:
    """One byte per position: 1 for a second occurrence, 2 for a first
    occurrence right after the second occurrence of a smaller letter, 0 for
    any other first occurrence."""
    out = []
    seen = set()
    for i, c in enumerate(w):
        if c in seen:
            out.append(1)
        else:
            out.append(2 if i and out[-1] == 1 and w[i - 1] < c else 0)
            seen.add(c)
    return bytes(out)


def pair_oracle_inputs():
    """The Stirling words of order 5, then all 2520 arrangements of 11223344:
    the pair statistics are defined on any word whose letters appear twice."""
    arrangements = sorted(set(permutations((1, 1, 2, 2, 3, 3, 4, 4))))
    assert len(arrangements) == 2520
    return [*enumerate_stirling(5), *arrangements]


class TestWordValidation:
    def test_as_word_from_string(self):
        assert as_word("1221") == (1, 2, 2, 1)

    def test_as_word_from_ints(self):
        assert as_word([1, 2, 2, 1]) == (1, 2, 2, 1)
        w = (1, 2, 2, 1)
        assert as_word(w) is w  # a tuple of ints is returned as it is

    @pytest.mark.parametrize(
        "word",
        [[1.5, 1, 2, 2.9], (1, 1, 2.0, 2), [True, True], (1, 1, False, False), ["1", "1"],
         "1\u00b212", "1 1", ""],
    )
    def test_as_word_rejects_letters_that_are_not_ints(self, word):
        with pytest.raises(MalformedWordError):
            as_word(word)

    def test_statistics_reject_letters_that_are_not_ints(self):
        with pytest.raises(MalformedWordError):
            is_stirling([1.9, 1, 2, 2])
        with pytest.raises(MalformedWordError):
            aapair("1\u00b212")

    def test_rejects_singletons(self):
        with pytest.raises(MalformedWordError):
            aapair("121")

    def test_rejects_triples(self):
        with pytest.raises(MalformedWordError):
            aapair("111222")
        with pytest.raises(MalformedWordError):
            aapair("111")

    def test_pair_statistics_accept_any_alphabet(self):
        # statistics are defined for every word with each letter twice, even
        # off the contiguous alphabet
        assert aapair((3, 3, 5, 5)) == 1
        assert tnpair((5, 3, 3, 5)) == 0


class TestStackDiscipline:
    def test_reference(self):
        assert is_stirling("1122")
        assert is_stirling("1221")
        assert is_stirling("2211")
        assert not is_stirling("1212")
        assert not is_stirling("2121")
        assert not is_stirling("2112")

    def test_matches_naive_oracle_exhaustive(self):
        from itertools import permutations

        for n in (2, 3):
            base = tuple(sorted(list(range(1, n + 1)) * 2))
            for w in set(permutations(base)):
                assert is_stirling(w) == naive_is_stirling(w), w

    @given(st.permutations([1, 1, 2, 2, 3, 3, 4, 4]))
    @settings(max_examples=300)
    def test_matches_naive_oracle_random(self, w):
        assert is_stirling(tuple(w)) == naive_is_stirling(tuple(w))


class TestEnumeration:
    def test_counts(self):
        for n in range(1, 8):
            assert sum(1 for _ in enumerate_stirling(n)) == double_factorial(
                2 * n - 1
            )

    def test_canonical_small_order(self):
        assert [word_to_string(w) for w in enumerate_stirling(1)] == ["11"]
        assert [word_to_string(w) for w in enumerate_stirling(2)] == [
            "1122",
            "1221",
            "2211",
        ]

    @pytest.mark.parametrize("n", sorted(WORD_STREAM_DIGESTS))
    def test_stream_digest(self, n):
        # the order of the stream, which the goldens and rows rely on
        assert sha256_of(list(enumerate_stirling(n))) == WORD_STREAM_DIGESTS[n]

    def test_all_valid_and_distinct(self):
        seen = set()
        for w in enumerate_stirling(5):
            assert is_stirling(w)
            assert w not in seen
            seen.add(w)

    def test_cap(self):
        with pytest.raises(LimitExceededError):
            list(enumerate_stirling(9))
        with pytest.raises(LimitExceededError):
            list(enumerate_stirling(5, cap=4))
        for bad in (2.5, 3.0, True):
            with pytest.raises(ValueError, match="positive integer"):
                list(enumerate_stirling(bad))


class TestPairStatistics:
    def test_table_values(self):
        rows = list(statistics_rows(2))
        assert rows == [
            ("1122", 1, 0, True, True),
            ("1221", 0, 1, True, True),
            ("2211", 0, 0, True, True),
        ]

    def test_insertion_engine_matches_per_word_statistics(self):
        for n in range(1, 8):
            expected = [
                (word_to_string(w), aapair(w), tnpair(w), is_naas(w), is_ntns(w))
                for w in enumerate_stirling(n)
            ]
            assert list(statistics_rows(n)) == expected
            assert pair_statistics(n) == Counter(row[1:] for row in expected)

    def test_marginal_matches_per_word_statistics(self):
        for n in range(1, 7):
            tally = pair_statistics(n)
            for stat, oracle in (("aapair", aapair), ("tnpair", tnpair)):
                expected = Counter(oracle(w) for w in enumerate_stirling(n))
                assert marginal(tally, stat) == expected, (n, stat)

    def test_engine_calls_no_per_word_function(self, monkeypatch):
        # the rows walk their own strings, so stirling.count's word stream has
        # no other reader; the per-word oracles are out of the engines' reach
        # (test_callers.py)
        expected = pair_statistics(6), list(statistics_rows(6))

        def banned(*args, **kwargs):
            raise AssertionError("the engine called a per-word function")

        for name in ("enumerate_stirling", "_words"):
            monkeypatch.setattr(stirling, name, banned)
        assert (pair_statistics(6), list(statistics_rows(6))) == expected

    def test_pair_tally_reads_no_word_stream(self, monkeypatch):
        # the tally walks classes; it shares no word stream with enumerate_stirling
        expected = [pair_statistics(n) for n in range(1, 8)]

        def banned(*args, **kwargs):
            raise AssertionError("the pair tally read the word stream")

        for name in ("_words", "enumerate_stirling"):
            monkeypatch.setattr(stirling, name, banned)
        assert [pair_statistics(n) for n in range(1, 8)] == expected

    def test_pair_tally_matches_the_word_loop(self):
        # the loop over every word of order n - 1 that the class walk replaced
        for n in range(1, 8):
            expected = Counter()
            for w in stirling._words(n - 1):
                expected.update(stirling._child_profiles(w))
            assert pair_statistics(n) == expected, n

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_rows_digest(self, n):
        assert list_digest(statistics_rows(n)) == ROWS_DIGESTS[n]

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_rendered_rows_digest(self, fmt):
        text = "".join(cli._render_rows("stirling", "tnpair", 7, fmt))
        assert hashlib.sha256(text.encode()).hexdigest() == RENDERED_ROWS_7_DIGESTS[fmt]

    def test_rows_profile_each_class_once(self, monkeypatch):
        # the rows look _child_profiles up once per class of parent words
        calls = []
        child_profiles = stirling._child_profiles

        def counted(w):
            calls.append(w)
            return child_profiles(w)

        monkeypatch.setattr(stirling, "_child_profiles", counted)
        for n in range(1, 9):
            calls.clear()
            for _ in stirling._row_blocks(n):
                pass
            assert len(calls) == len(stirling._classes(n - 1)), n
        assert len(calls) == CLASS_COUNTS[7]

    def test_insertion_engine_comma_separated_words(self):
        # from order 10 on, words are written with commas; compare a prefix,
        # which at order 11 holds letters 10 and 11 together, and check that
        # the letters' inner encoding never reaches a word cell
        firsts = {
            10: "1,1,2,2,3,3,4,4,5,5,6,6,7,7,8,8,9,9,10,10",
            11: "1,1,2,2,3,3,4,4,5,5,6,6,7,7,8,8,9,9,10,10,11,11",
        }
        for n, first in firsts.items():
            rows = list(islice(statistics_rows(n, cap=n), 300))
            words = list(islice(enumerate_stirling(n, cap=n), 300))
            assert rows == [
                (word_to_string(w), aapair(w), tnpair(w), is_naas(w), is_ntns(w)) for w in words
            ]
            assert rows[0][0] == first
            assert all(set(row[0]) <= set("0123456789,") for row in rows)

    def test_engine_caps(self):
        with pytest.raises(LimitExceededError):
            list(statistics_rows(9))
        with pytest.raises(LimitExceededError):
            pair_statistics(5, cap=4)
        for bad in (2.5, 3.0, True):
            with pytest.raises(ValueError, match="positive integer"):
                pair_statistics(bad)
            with pytest.raises(ValueError, match="positive integer"):
                list(statistics_rows(bad))

    def test_matches_naive_exhaustive(self):
        for w in pair_oracle_inputs():
            assert aapair(w) == naive_aapair(w)
            assert tnpair(w) == naive_tnpair(w)

    def test_chain_freedom_characterizations(self):
        # a word is chain-free exactly when no letter is both the small end
        # of one adjacency pair and the large end of another
        for w in pair_oracle_inputs():
            aa_pairs = []
            tn_pairs = []
            first = {}
            second = {}
            for i, a in enumerate(w):
                if a in first:
                    second[a] = i
                else:
                    first[a] = i
            for a in first:
                for b in first:
                    if a < b and second[a] + 1 == first[b]:
                        aa_pairs.append((a, b))
                    if a < b and second[a] == second[b] + 1:
                        tn_pairs.append((a, b))
            assert is_naas(w) == (
                not ({a for a, _ in aa_pairs} & {b for _, b in aa_pairs})
            )
            assert is_ntns(w) == (
                not ({a for a, _ in tn_pairs} & {b for _, b in tn_pairs})
            )


class TestWordClasses:
    def test_class_key_fixes_profiles_and_child_keys(self):
        # the words of a class have the same _child_profiles, and their
        # children at each gap fall in one class
        for m in range(7):
            pair = (m + 1, m + 1)
            by_key = {}
            for w in stirling._words(m):
                children = [class_key(w[:g] + pair + w[g:]) for g in range(len(w), -1, -1)]
                seen = (stirling._child_profiles(w), children)
                assert by_key.setdefault(class_key(w), seen) == seen, w

    def test_class_counts(self):
        for m, expected in enumerate(CLASS_COUNTS):
            classes = stirling._classes(m)
            assert len(classes) == expected
            assert sum(count for count, _ in classes.values()) == double_factorial(2 * m - 1)

    def test_classes_match_the_words(self):
        # the keys the walk builds by slicing are the keys of the words it counts
        for m in range(7):
            words = list(stirling._words(m))
            classes = stirling._classes(m)
            assert {key: count for key, (count, _) in classes.items()} == Counter(
                map(class_key, words)
            )
            members = set(words)
            for key, (_, w) in classes.items():
                assert w in members
                assert class_key(w) == key


class TestDistributions:
    def test_match_closed_form(self):
        for m in range(1, 8):
            expected = gamma_closed_form(m + 1).gammas
            assert distribution_naas_aapair(m).gammas == expected
            assert distribution_ntns_tnpair(m).gammas == expected

    def test_match_closed_form_above_cap(self):
        tally = pair_statistics(9, cap=9)
        expected = gamma_closed_form(10).gammas
        assert stirling.naas_aapair(tally, 9).gammas == expected
        assert stirling.ntns_tnpair(tally, 9).gammas == expected

    def test_degree_field(self):
        # the distribution expands a polynomial of degree m + 1 - 1 = m
        assert distribution_naas_aapair(4).degree == 4
        assert distribution_ntns_tnpair(4).degree == 4

    def test_cap(self):
        with pytest.raises(LimitExceededError):
            distribution_naas_aapair(9)
        with pytest.raises(LimitExceededError):
            distribution_ntns_tnpair(5, cap=4)
        for bad in (2.5, 3.0, True):
            with pytest.raises(ValueError, match="positive integer"):
                distribution_naas_aapair(bad)


class TestEquidistribution:
    def test_tree_statistics_match_word_statistics(self):
        from gamma_forest.binary_trees import enumerate_normalized

        for n in range(2, 8):
            tree_rdes = Counter(rdes(t) for t in enumerate_normalized(n))
            tree_nlyn = Counter(nlyn(t) for t in enumerate_normalized(n))
            word_tn = Counter(tnpair(w) for w in enumerate_stirling(n - 1))
            word_aa = Counter(aapair(w) for w in enumerate_stirling(n - 1))
            assert tree_rdes == word_tn
            assert tree_nlyn == word_aa
