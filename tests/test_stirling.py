"""Stirling permutations: enumeration order, pair statistics, distributions."""

from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from gamma_forest.errors import LimitExceededError
from gamma_forest.poly import gamma_closed_form
from gamma_forest.stirling import (
    MalformedWordError,
    aapair,
    as_word,
    distribution_naas_aapair,
    distribution_ntns_tnpair,
    enumerate_stirling,
    is_naas,
    is_ntns,
    is_stirling,
    marginal,
    pair_statistics,
    statistics_rows,
    tnpair,
    word_to_string,
)


def double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


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

    def test_insertion_engine_comma_separated_words(self):
        # from order 10 on, words are written with commas; compare a prefix
        rows = list(islice(statistics_rows(10, cap=10), 60))
        words = list(islice(enumerate_stirling(10, cap=10), 60))
        assert rows == [
            (word_to_string(w), aapair(w), tnpair(w), is_naas(w), is_ntns(w)) for w in words
        ]
        assert rows[0][0] == "1,1,2,2,3,3,4,4,5,5,6,6,7,7,8,8,9,9,10,10"

    def test_engine_caps(self):
        with pytest.raises(LimitExceededError):
            list(statistics_rows(9))
        with pytest.raises(LimitExceededError):
            pair_statistics(5, cap=4)

    def test_matches_naive_exhaustive(self):
        for w in enumerate_stirling(5):
            assert aapair(w) == naive_aapair(w)
            assert tnpair(w) == naive_tnpair(w)

    def test_chain_freedom_characterizations(self):
        # a word is chain-free exactly when no letter is both the small end
        # of one adjacency pair and the large end of another
        for w in enumerate_stirling(5):
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


class TestDistributions:
    def test_match_closed_form(self):
        for m in range(1, 8):
            expected = gamma_closed_form(m + 1).gammas
            assert distribution_naas_aapair(m).gammas == expected
            assert distribution_ntns_tnpair(m).gammas == expected

    def test_degree_field(self):
        # the distribution expands a polynomial of degree m + 1 - 1 = m
        assert distribution_naas_aapair(4).degree == 4
        assert distribution_ntns_tnpair(4).degree == 4

    def test_cap(self):
        with pytest.raises(LimitExceededError):
            distribution_naas_aapair(9)
        with pytest.raises(LimitExceededError):
            distribution_ntns_tnpair(5, cap=4)


class TestEquidistribution:
    def test_tree_statistics_match_word_statistics(self):
        from gamma_forest.binary_trees import enumerate_normalized, nlyn, rdes

        for n in range(2, 8):
            tree_rdes = Counter(rdes(t) for t in enumerate_normalized(n))
            tree_nlyn = Counter(nlyn(t) for t in enumerate_normalized(n))
            word_tn = Counter(tnpair(w) for w in enumerate_stirling(n - 1))
            word_aa = Counter(aapair(w) for w in enumerate_stirling(n - 1))
            assert tree_rdes == word_tn
            assert tree_nlyn == word_aa
