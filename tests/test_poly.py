"""Polynomial arithmetic, gamma basis, product formula, Eulerian checks."""

import doctest
import importlib
import pkgutil
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import gamma_forest
from gamma_forest import poly
from gamma_forest.poly import (
    GammaVector,
    IntPolynomial,
    NotPalindromicError,
    add_binomial_row,
    drake_polynomial,
    eulerian_gamma_count,
    eulerian_polynomial,
    evaluate,
    from_gamma_basis,
    gamma_closed_form,
    is_palindromic,
    to_gamma_basis,
)


def test_doctests():
    # the examples in the docstrings of every module of the package
    modules = [gamma_forest] + [
        importlib.import_module(f"gamma_forest.{m.name}") for m in pkgutil.iter_modules(gamma_forest.__path__)
    ]
    for module in modules:
        assert doctest.testmod(module).failed == 0, module.__name__


def subset_sum_gammas(n):
    """Reference for gamma_closed_form: the paper's subset sum, one subset at
    a time.  O(2^q) with q = (n - 1) // 2, so only for small n."""
    if n % 2 == 1:
        q = (n - 1) // 2
        prefactor = 1
    else:
        q = (n - 2) // 2
        prefactor = n // 2
    index_set = range(1, q + 1)
    gammas = []
    for j in range(q + 1):
        total = 0
        for used in combinations(index_set, j):
            term = 1
            for i in used:
                term *= (n - 2 * i) ** 2
            for s in set(index_set) - set(used):
                term *= s * (n - s)
            total += term
        gammas.append(prefactor * total)
    return tuple(gammas)


class TestIntPolynomial:
    def test_trailing_zeros_stripped(self):
        assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)

    def test_zero_polynomial(self):
        z = IntPolynomial([])
        assert z.coeffs == ()
        assert z.degree == -1
        assert IntPolynomial([0, 0]).coeffs == ()

    def test_add(self):
        a = IntPolynomial([1, 2])
        b = IntPolynomial([0, -2, 3])
        assert (a + b).coeffs == (1, 0, 3)

    def test_mul(self):
        a = IntPolynomial([1, 1])
        assert (a * a).coeffs == (1, 2, 1)
        assert (a * IntPolynomial([])).coeffs == ()

    def test_call_horner(self):
        p = IntPolynomial([1, 2, 3])
        assert p(0) == 1
        assert p(1) == 6
        assert p(10) == 321
        assert p(Fraction(1, 2)) == Fraction(11, 4)

    def test_immutability(self):
        p = IntPolynomial([1, 2])
        with pytest.raises(Exception):
            p.coeffs = (3,)

    @pytest.mark.parametrize("bad", [2.0, 1.5, Fraction(2), True, False])
    def test_rejects_inexact_coefficients(self, bad):
        with pytest.raises(TypeError):
            IntPolynomial([bad, 5, 2])
        with pytest.raises(TypeError):
            IntPolynomial([2, 5, bad])

    def test_float_input_never_reaches_peeling(self):
        # accepted before, when peeling returned the float gammas (2.0, 1.0)
        with pytest.raises(TypeError):
            to_gamma_basis(IntPolynomial([2.0, 5, 2]))


class TestBinomialRow:
    def test_matches_repeated_multiplication(self):
        power = IntPolynomial([1])  # (1+t)^m
        for m in range(41):
            acc = []
            add_binomial_row(acc, 1, 0, m)
            assert acc == list(power.coeffs)
            j = m % 3
            acc = [5]
            add_binomial_row(acc, -7, j, m)
            expected = IntPolynomial([5]) + IntPolynomial([0] * j + [-7]) * power
            assert IntPolynomial(acc) == expected
            power = power * IntPolynomial([1, 1])

    def test_keeps_a_longer_accumulator_length(self):
        acc = [1, 2, 3, 4]
        add_binomial_row(acc, 1, 0, 1)
        assert acc == [2, 3, 3, 4]


class TestGammaBasis:
    def test_round_trip_reference(self):
        g = GammaVector((6, 8), 3)
        assert from_gamma_basis(g).coeffs == (6, 26, 26, 6)
        assert to_gamma_basis(IntPolynomial([6, 26, 26, 6])).gammas == (6, 8)

    def test_constant(self):
        assert to_gamma_basis(IntPolynomial([7])).gammas == (7,)

    def test_zero_polynomial_has_empty_gamma(self):
        g = to_gamma_basis(IntPolynomial([]))
        assert g.gammas == ()
        assert from_gamma_basis(g).coeffs == ()

    def test_not_palindromic_rejected(self):
        with pytest.raises(NotPalindromicError):
            to_gamma_basis(IntPolynomial([1, 2]))
        with pytest.raises(NotPalindromicError):
            to_gamma_basis(IntPolynomial([1, 0, 2]))

    def test_length_validation(self):
        with pytest.raises(ValueError):
            GammaVector((1, 2, 3), 3)  # degree 3 allows only 2 entries

    @pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(1, 2), True])
    def test_rejects_inexact_gammas(self, bad):
        with pytest.raises(TypeError):
            GammaVector([bad], 0)
        with pytest.raises(TypeError):
            GammaVector([1, bad], 3)
        with pytest.raises(TypeError):
            GammaVector([2, 1], bad)

    @given(
        st.integers(min_value=0, max_value=60).flatmap(
            lambda d: st.lists(
                st.integers(min_value=-50, max_value=50),
                min_size=d // 2 + 1,
                max_size=d // 2 + 1,
            ).map(lambda gs: (gs, d))
        )
    )
    def test_round_trip_random(self, pair):
        gammas, degree = pair
        if gammas[0] == 0:
            gammas[0] = 1  # gamma_0 scales (1+t)^d, so it alone fixes the degree
        g = GammaVector(tuple(gammas), degree)
        p = from_gamma_basis(g)
        assert p.degree == degree
        assert is_palindromic(p)
        assert to_gamma_basis(p).gammas == tuple(gammas)

    def test_zero_leading_gamma_drops_degree(self):
        # without the (1+t)^d term the result sits below degree d and is no
        # longer palindromic about its own center
        p = from_gamma_basis(GammaVector((0, 1), 2))
        assert p.coeffs == (0, 1)
        with pytest.raises(NotPalindromicError):
            to_gamma_basis(p)

    @given(st.lists(st.integers(min_value=-30, max_value=30), max_size=10))
    def test_palindromize_then_peel(self, half):
        coeffs = half + half[::-1]
        p = IntPolynomial(coeffs)
        if not is_palindromic(p):
            return
        assert from_gamma_basis(to_gamma_basis(p)).coeffs == p.coeffs


class TestDrakePolynomial:
    def test_reference_values(self):
        assert drake_polynomial(1).coeffs == (1,)
        assert drake_polynomial(2).coeffs == (1, 1)
        assert drake_polynomial(3).coeffs == (2, 5, 2)
        assert drake_polynomial(4).coeffs == (6, 26, 26, 6)
        assert drake_polynomial(5).coeffs == (24, 154, 269, 154, 24)
        assert drake_polynomial(8).coeffs == (
            5040, 69264, 319024, 655248, 655248, 319024, 69264, 5040,
        )

    def test_counts_trees_at_one(self):
        for n in range(1, 21):
            assert evaluate(drake_polynomial(n), 1) == n ** (n - 1)

    def test_palindromic(self):
        for n in range(1, 21):
            assert is_palindromic(drake_polynomial(n))

    def test_degree(self):
        for n in range(1, 12):
            assert drake_polynomial(n).degree == n - 1

    def test_rational_roots(self):
        # the product form vanishes at t = -(n-i)/i for each factor
        for n in range(2, 11):
            p = drake_polynomial(n)
            for i in range(1, n):
                assert evaluate(p, Fraction(-(n - i), i)) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            drake_polynomial(0)
        for fn in (drake_polynomial, gamma_closed_form, eulerian_polynomial, eulerian_gamma_count):
            for bad in (2.5, 3.0, True):
                with pytest.raises(ValueError, match="positive integer"):
                    fn(bad)


class TestGammaClosedForm:
    def test_reference_values(self):
        assert gamma_closed_form(1).gammas == (1,)
        assert gamma_closed_form(2).gammas == (1,)
        assert gamma_closed_form(3).gammas == (2, 1)
        assert gamma_closed_form(4).gammas == (6, 8)
        assert gamma_closed_form(5).gammas == (24, 58, 9)

    def test_matches_peeling(self):
        for n in range(1, 21):
            assert (
                gamma_closed_form(n).gammas
                == to_gamma_basis(drake_polynomial(n)).gammas
            )

    def test_matches_peeling_large_n(self):
        for n in [*range(21, 61), 200]:
            closed = gamma_closed_form(n)
            peeled = to_gamma_basis(drake_polynomial(n))
            assert closed == peeled

    def test_matches_subset_sum(self):
        for n in range(1, 25):
            assert gamma_closed_form(n).gammas == subset_sum_gammas(n)

    def test_leading_gamma_is_factorial(self):
        import math

        for n in range(1, 15):
            assert gamma_closed_form(n).gammas[0] == math.factorial(n - 1)

    def test_all_positive(self):
        for n in range(1, 21):
            assert all(g > 0 for g in gamma_closed_form(n).gammas)


class TestIndependence:
    """The identities checked elsewhere compare computations that must not
    share a path: the closed form against peeling of the product form, and
    the product form against censuses built from binomial rows."""

    @staticmethod
    def _forbid(monkeypatch, *names):
        def forbidden(*args, **kwargs):
            raise AssertionError("an independent computation took a shared path")

        for name in names:
            monkeypatch.setattr(poly, name, forbidden)

    def test_closed_form_uses_neither_product_nor_conversion(self, monkeypatch):
        self._forbid(
            monkeypatch,
            "drake_polynomial",
            "to_gamma_basis",
            "from_gamma_basis",
            "add_binomial_row",
        )
        for n in (8, 9):
            assert poly.gamma_closed_form(n).gammas == subset_sum_gammas(n)

    def test_product_form_skips_binomial_row(self, monkeypatch):
        self._forbid(monkeypatch, "add_binomial_row")
        assert poly.drake_polynomial(5).coeffs == (24, 154, 269, 154, 24)


class TestEulerian:
    def test_reference_values(self):
        assert eulerian_polynomial(1).coeffs == (1,)
        assert eulerian_polynomial(2).coeffs == (1, 1)
        assert eulerian_polynomial(3).coeffs == (1, 4, 1)
        assert eulerian_polynomial(4).coeffs == (1, 11, 11, 1)

    def test_counts_permutations_at_one(self):
        import math

        for n in range(1, 9):
            assert evaluate(eulerian_polynomial(n), 1) == math.factorial(n)

    def test_gamma_count_matches_peeling(self):
        for n in range(1, 9):
            assert (
                eulerian_gamma_count(n).gammas
                == to_gamma_basis(eulerian_polynomial(n)).gammas
            )

    def test_gamma_reference(self):
        assert eulerian_gamma_count(3).gammas == (1, 2)
        assert eulerian_gamma_count(4).gammas == (1, 8)
