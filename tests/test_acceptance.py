"""Acceptance gate: one test per acceptance criterion, exact assertions.

Each test prints a single PASS line on success; pytest -v adds its own
per-test verdict.  Time bounds are asserted where the criterion sets one.
"""

import math
import time
from collections import Counter

from gamma_forest.binary_trees import (
    bicolored_comb_census,
    bicolored_lyndon_census,
    distribution_ndnl_nlyn,
    distribution_ndrd_rdes,
    enumerate_bicolored_combs,
    enumerate_normalized,
    joint_statistics,
)
from gamma_forest.poly import (
    drake_polynomial,
    eulerian_gamma_count,
    eulerian_polynomial,
    evaluate,
    gamma_closed_form,
    to_gamma_basis,
)
from gamma_forest.rooted_trees import descent_polynomial
from gamma_forest.stirling import (
    enumerate_stirling,
    naas_aapair,
    ntns_tnpair,
    pair_statistics,
    statistics_rows,
)
from gamma_forest.symfunc import (
    comb_type_expansion,
    expansion_in_variables,
    f_mcomb_direct,
    specialize_two_vars,
)
from oracles import _pairs, double_factorial, free_count, is_ndrd


def test_criterion_01_descent_polynomial_matches_product():
    t0 = time.perf_counter()
    for n in range(1, 9):
        assert descent_polynomial(n).coeffs == drake_polynomial(n).coeffs, n
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS criterion 01: descent polynomial equals product form, "
          f"n=1..8 in {elapsed:.1f}s")


def test_criterion_02_product_form_counts_trees():
    for n in range(1, 21):
        assert evaluate(drake_polynomial(n), 1) == n ** (n - 1), n
    print("PASS criterion 02: product form evaluates to n^(n-1) at t=1, n=1..20")


def test_criterion_03_gamma_closed_form_matches_peeling():
    for n in range(1, 21):
        assert (
            gamma_closed_form(n).gammas == to_gamma_basis(drake_polynomial(n)).gammas
        ), n
    assert gamma_closed_form(3).gammas == (2, 1)
    assert gamma_closed_form(5).gammas == (24, 58, 9)
    print("PASS criterion 03: closed-form gamma equals peeled gamma, n=1..20")


def test_criterion_04_ndrd_rdes_distribution_is_gamma():
    t0 = time.perf_counter()
    for n in range(1, 10):
        assert (
            distribution_ndrd_rdes(n).gammas == gamma_closed_form(n).gammas
        ), n
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 04: NDRD trees by rdes give gamma, n=1..9 "
          f"in {elapsed:.1f}s")


def test_criterion_05_ndnl_nlyn_distribution_is_gamma():
    t0 = time.perf_counter()
    for n in range(1, 10):
        assert (
            distribution_ndnl_nlyn(n).gammas == gamma_closed_form(n).gammas
        ), n
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 05: Lyndon-marked trees by nlyn give gamma, n=1..9 "
          f"in {elapsed:.1f}s")


def test_criterion_06_bicolored_censuses_match_product():
    t0 = time.perf_counter()
    for n in range(1, 9):
        expected = drake_polynomial(n).coeffs
        assert bicolored_comb_census(n).coeffs == expected, n
        assert bicolored_lyndon_census(n).coeffs == expected, n
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"PASS criterion 06: bicolored comb and Lyndon censuses match the "
          f"product form, n=1..8 in {elapsed:.1f}s")


def test_criterion_07_stirling_distributions_match_gamma():
    t0 = time.perf_counter()
    for n in range(2, 10):
        m = n - 1
        expected = gamma_closed_form(n).gammas
        tally = pair_statistics(m)  # one tally per m, read by both views
        assert ntns_tnpair(tally, m).gammas == expected, n
        assert naas_aapair(tally, m).gammas == expected, n
    rows = list(statistics_rows(2))
    assert rows == [
        ("1122", 1, 0, True, True),
        ("1221", 0, 1, True, True),
        ("2211", 0, 0, True, True),
    ]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 07: chain-free Stirling words give gamma and the "
          f"reference table is reproduced, n=2..9 in {elapsed:.1f}s")


def test_criterion_08_equidistribution_trees_vs_words():
    for n in range(2, 10):
        tree_rdes: Counter = Counter()
        tree_nlyn: Counter = Counter()
        for (r, _d, nl, _dl, _f), c in joint_statistics(n).items():
            tree_rdes[r] += c
            tree_nlyn[nl] += c
        word_tn: Counter = Counter()
        word_aa: Counter = Counter()
        for w in enumerate_stirling(n - 1):
            ascending, nested = _pairs(w)
            word_tn[len(nested)] += 1
            word_aa[len(ascending)] += 1
        assert tree_rdes == word_tn, n
        assert tree_nlyn == word_aa, n
    print("PASS criterion 08: rdes/tnpair and nlyn/aapair are equidistributed, "
          "n=2..9")


def test_criterion_09_symmetric_function_expansions():
    t0 = time.perf_counter()
    for n in range(1, 8):
        f = comb_type_expansion(n)
        for k in range(1, 4):
            assert f_mcomb_direct(n, k).terms == expansion_in_variables(f, k).terms
    for n in range(1, 10):
        assert (
            specialize_two_vars(comb_type_expansion(n)).coeffs
            == drake_polynomial(n).coeffs
        ), n
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 09: colored-comb function matches its e-expansion "
          f"(n<=7, k<=3) and two-variable specialization matches the product "
          f"form (n<=9) in {elapsed:.1f}s")


def test_criterion_10_structural_counts_and_identities():
    for n in range(1, 10):
        tally = joint_statistics(n)
        assert sum(tally.values()) == double_factorial(2 * n - 3), n
        for (r, d, _nl, _dl, f), _c in tally.items():
            if d == 0:
                assert f + 2 * r == n - 1, (n, r, f)
        lyndon = sum(c for (_r, _d, nl, _dl, _f), c in tally.items() if nl == 0)
        assert lyndon == math.factorial(n - 1), n
        ndrd_mass = sum(
            c * 2**f for (r, d, _nl, _dl, f), c in tally.items() if d == 0
        )
        assert ndrd_mass == n ** (n - 1), n
    for n in range(2, 7):
        fibers: Counter = Counter()
        for t, _colors in enumerate_bicolored_combs(n):
            fibers[t] += 1
        for t in enumerate_normalized(n):
            assert fibers[t] == (2 ** free_count(t) if is_ndrd(t) else 0), (n, t)
    for m in range(1, 9):
        assert (
            sum(1 for _ in enumerate_stirling(m)) == double_factorial(2 * m - 1)
        ), m
    print("PASS criterion 10: free+2*rdes identity, 2^free fibers, and the "
          "(2n-3)!!, (2n-1)!!, (n-1)! counts all hold")


def test_criterion_11_eulerian_gamma_interpretation():
    assert eulerian_polynomial(3).coeffs == (1, 4, 1)
    assert eulerian_gamma_count(3).gammas == (1, 2)
    for n in range(1, 9):
        assert (
            eulerian_gamma_count(n).gammas
            == to_gamma_basis(eulerian_polynomial(n)).gammas
        ), n
    print("PASS criterion 11: Eulerian gamma coefficients count permutations "
          "with no double descent and no final descent, n=1..8")
