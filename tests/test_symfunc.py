"""Elementary symmetric expansions and the colored-comb generating function."""

import math
from collections import Counter
from fractions import Fraction
from itertools import groupby, permutations
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from gamma_forest import binary_trees
from gamma_forest.binary_trees import (
    _chain_colorings,
    _insertions,
    enumerate_colored_combs,
    enumerate_normalized,
)
from gamma_forest.errors import LimitExceededError
from gamma_forest.poly import drake_polynomial, gamma_closed_form, to_gamma_basis
from gamma_forest.symfunc import (
    ESymExpansion,
    MultivariatePoly,
    Partition,
    comb_type_expansion,
    expand_e_lambda,
    expansion_in_variables,
    f_mcomb_direct,
    product_form_count,
    specialize_two_vars,
)


class TestPartition:
    def test_normalizes(self):
        assert Partition((1, 3, 2)).parts == (3, 2, 1)
        assert Partition((2, 0, 1)).parts == (2, 1)
        assert Partition(()).parts == ()

    def test_weight(self):
        assert Partition((3, 2, 1)).weight == 6
        assert Partition(()).weight == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition((2, -1))


# accepted before: a float part or coefficient made weights and counts floats,
# and a bool stood in for 1 or 0
INEXACT = [1.5, 2.0, Fraction(2), True, False]


class TestExactInts:
    @pytest.mark.parametrize("bad", INEXACT)
    def test_partition_rejects_parts_that_are_not_ints(self, bad):
        with pytest.raises(TypeError, match="parts must be ints"):
            Partition((2, bad))

    @pytest.mark.parametrize("bad", INEXACT)
    def test_expansion_rejects_coefficients_that_are_not_ints(self, bad):
        with pytest.raises(TypeError, match="coefficients must be ints"):
            ESymExpansion({Partition((2, 1)): bad})

    @pytest.mark.parametrize("bad", INEXACT)
    def test_multivariate_rejects_coefficients_that_are_not_ints(self, bad):
        with pytest.raises(TypeError, match="coefficients must be ints"):
            MultivariatePoly(2, {(1, 0): 1, (0, 1): bad})
        with pytest.raises(TypeError, match="k and coefficients must be ints"):
            MultivariatePoly(bad, {})

    @pytest.mark.parametrize("bad", INEXACT)
    def test_multivariate_rejects_exponents_that_are_not_ints(self, bad):
        with pytest.raises(TypeError, match="exponents must be ints"):
            MultivariatePoly(2, {(1, 0): 1, (bad, 1): 1})


class TestExpandELambda:
    def test_single_part(self):
        # e_m in k variables has C(k, m) square-free monomials
        for m in range(0, 5):
            for k in range(1, 6):
                p = expand_e_lambda(Partition((m,)), k)
                if m > k:
                    assert p.is_zero()
                else:
                    assert len(p.terms) == math.comb(k, m)
                    assert all(c == 1 for _e, c in p.terms)

    def test_product_structure(self):
        # e_{(2,1)} = e_2 * e_1
        k = 3
        e2 = expand_e_lambda(Partition((2,)), k)
        e1 = expand_e_lambda(Partition((1,)), k)
        prod = {}
        for ea, ca in e2.terms:
            for eb, cb in e1.terms:
                key = tuple(x + y for x, y in zip(ea, eb))
                prod[key] = prod.get(key, 0) + ca * cb
        assert expand_e_lambda(Partition((2, 1)), k).as_dict() == prod

    def test_empty_partition_is_one(self):
        p = expand_e_lambda(Partition(()), 3)
        assert p.as_dict() == {(0, 0, 0): 1}

    def test_rejects_k_that_is_not_a_positive_int(self):
        for bad in (0, -1, 2.5, 2.0, True):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                expand_e_lambda(Partition((1,)), bad)

    @given(
        st.lists(st.integers(min_value=1, max_value=3), max_size=3),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=100)
    def test_mass_is_product_of_binomials(self, parts, k):
        lam = Partition(tuple(parts))
        p = expand_e_lambda(lam, k)
        expected = 1
        for part in lam.parts:
            expected *= math.comb(k, part)
        assert p.evaluate_all_ones() == expected


class TestCombTypeExpansion:
    def test_reference_small(self):
        assert comb_type_expansion(2).as_dict() == {(1,): 1}
        assert comb_type_expansion(3).as_dict() == {(1, 1): 2, (2,): 1}

    def test_weight(self):
        for n in range(2, 8):
            f = comb_type_expansion(n)
            assert f.weight == n - 1
            assert all(lam.weight == n - 1 for lam, _c in f.terms)

    def test_coefficients_count_trees(self):
        # total coefficient mass is the number of normalized trees
        for n in range(1, 8):
            f = comb_type_expansion(n)
            total = sum(c for _lam, c in f.terms)
            assert total == sum(1 for _ in enumerate_normalized(n))

    def test_cap(self):
        with pytest.raises(LimitExceededError):
            comb_type_expansion(11)
        for bad in (2.5, 3.0, True):
            with pytest.raises(ValueError, match="positive integer"):
                comb_type_expansion(bad)


class TestSpecialization:
    def test_matches_product_form(self):
        for n in range(1, 9):
            f = comb_type_expansion(n)
            assert specialize_two_vars(f).coeffs == drake_polynomial(n).coeffs

    def test_gamma_extraction(self):
        for n in range(1, 9):
            p = specialize_two_vars(comb_type_expansion(n))
            assert to_gamma_basis(p).gammas == gamma_closed_form(n).gammas

    def test_parts_above_two_vanish(self):
        f = ESymExpansion({Partition((3,)): 5})
        assert specialize_two_vars(f).coeffs == ()


class TestFMComb:
    def test_direct_matches_expansion(self):
        for n in range(1, 7):
            f = comb_type_expansion(n)
            for k in range(1, 4):
                assert f_mcomb_direct(n, k).terms == expansion_in_variables(f, k).terms

    def test_mass_counts_colored_combs(self):
        for n in range(1, 6):
            for k in range(1, 4):
                assert f_mcomb_direct(n, k).evaluate_all_ones() == sum(
                    1 for _ in enumerate_colored_combs(n, k)
                )

    def test_shape_grouping_matches_per_tree_colorings(self):
        # f_mcomb_direct colors each shape once; here every tree is colored
        # on its own, and trees without a coloring are kept as well.  Each
        # tree's shape (labels 0) is built by the same insertions as the tree.
        shape_of = {1: 0}
        for n in range(1, 7):
            if n > 1:
                shape_of = {
                    child: child_shape
                    for t, s in shape_of.items()
                    for child, child_shape in zip(_insertions(t, n), _insertions(s, 0))
                }
            trees = list(enumerate_normalized(n))
            for k in range(1, 5):
                per_tree = dict.fromkeys(trees, [])
                for t, pairs in groupby(enumerate_colored_combs(n, k), itemgetter(0)):
                    per_tree[t] = list(map(itemgetter(1), pairs))
                by_shape: dict = {}
                colorings: Counter = Counter()
                for t, cs in per_tree.items():
                    s = shape_of[t]
                    if s not in by_shape:
                        by_shape[s] = list(_chain_colorings(s, k, k + 1))
                    assert cs == by_shape[s], (t, k)
                    colorings.update(cs)
                tally: Counter = Counter()
                for colors, c in colorings.items():
                    tally[tuple(colors.count(j) for j in range(1, k + 1))] += c
                assert f_mcomb_direct(n, k).terms == tuple(sorted(tally.items()))

    def test_reads_no_tree_stream(self, monkeypatch):
        # the shapes are tallied over shapes, so the tuple-tree stream that
        # product-form-mass walks on its other side is not read here
        def banned(*args, **kwargs):
            raise AssertionError("f_mcomb_direct walked the trees")

        monkeypatch.setattr(binary_trees, "enumerate_normalized", banned)
        assert f_mcomb_direct(7, 3) == expansion_in_variables(comb_type_expansion(7), 3)

    def test_symmetric_under_variable_permutation(self):
        for n in (3, 4, 5):
            poly = f_mcomb_direct(n, 3)
            d = poly.as_dict()
            for exps, c in d.items():
                for perm in permutations(exps):
                    assert d.get(tuple(perm), 0) == c

    def test_reference_mass(self):
        assert f_mcomb_direct(3, 3).evaluate_all_ones() == 21

    def test_expansion_rejects_k_that_is_not_a_positive_int(self):
        f = comb_type_expansion(3)
        for bad in (0, -1, 2.5, 2.0, True):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                expansion_in_variables(f, bad)

    def test_caps(self):
        with pytest.raises(LimitExceededError):
            f_mcomb_direct(9, 2)
        with pytest.raises(LimitExceededError):
            f_mcomb_direct(3, 7)
        for bad in (2.5, 3.0, True):
            with pytest.raises(ValueError, match="positive integer"):
                f_mcomb_direct(bad, 2)
            with pytest.raises(ValueError, match="positive integer"):
                f_mcomb_direct(3, bad)


class TestProductFormCount:
    def test_per_tree_reference(self):
        # comb type (1,1) with k colors: each singleton chain picks freely
        assert product_form_count(((1, 2), 3), 3) == 9
        # comb type (2): a chain of length 2 picks an unordered pair
        assert product_form_count((1, (2, 3)), 3) == 3

    def test_rejects_k_that_is_not_a_positive_int(self):
        for bad in (0, -1, 2.5, 2.0, True):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                product_form_count(((1, 2), 3), bad)

    def test_totals_match_enumeration(self):
        for n in range(1, 6):
            for k in range(1, 4):
                total = sum(
                    product_form_count(t, k) for t in enumerate_normalized(n)
                )
                assert total == sum(1 for _ in enumerate_colored_combs(n, k))
