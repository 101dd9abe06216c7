"""Integer partitions, elementary symmetric expansions, and specializations.

Symmetric functions appear here in two concrete forms: as integer
combinations of e_lambda indexed by partitions (ESymExpansion), and as
explicit multivariate polynomials truncated to k variables
(MultivariatePoly).  The bridge between trees and polynomials is the comb
type: grouping normalized trees by it yields an e-expansion whose
specialization x_1 = 1, x_2 = t, rest 0 recovers the descent polynomial,
since e_(2^j 1^m) maps to t^j (1+t)^m and every other e_lambda vanishes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Mapping

from . import binary_trees
from .errors import check_size
from .poly import IntPolynomial, _exact_ints, add_binomial_row

FMC_CAP_N = 8
FMC_CAP_K = 4


@dataclass(frozen=True, init=False)
class Partition:
    """An integer partition as a weakly decreasing tuple of positive parts.

    Construction sorts and drops zeros; the empty partition is valid and has
    weight 0.
    """

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int] = ()):
        ps = sorted((p for p in _exact_ints(parts, "parts") if p != 0), reverse=True)
        if ps and ps[-1] < 0:
            raise ValueError("parts must be positive")
        object.__setattr__(self, "parts", tuple(ps))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


@dataclass(frozen=True, init=False)
class ESymExpansion:
    """An integer combination of elementary symmetric functions e_lambda.

    All partitions share one weight; zero coefficients are dropped.  The
    empty expansion has weight 0 by convention.
    """

    terms: tuple[tuple[Partition, int], ...]
    weight: int

    def __init__(self, terms: Mapping[Partition, int] | Iterable[tuple[Partition, int]]):
        items = dict(terms)
        _exact_ints(items.values(), "coefficients")
        cleaned = {lam: c for lam, c in items.items() if c != 0}
        weights = {lam.weight for lam in cleaned}
        if len(weights) > 1:
            raise ValueError(f"mixed weights in expansion: {sorted(weights)}")
        weight = weights.pop() if weights else 0
        ordered = tuple(sorted(cleaned.items(), key=lambda kv: kv[0].parts))
        object.__setattr__(self, "terms", ordered)
        object.__setattr__(self, "weight", weight)

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return {lam.parts: c for lam, c in self.terms}


@dataclass(frozen=True, init=False)
class MultivariatePoly:
    """A polynomial in x_1 .. x_k with integer coefficients.

    Stored as a sorted tuple of (exponent vector, coefficient) pairs; all
    exponent vectors have length k and zero coefficients are dropped, so
    equality is structural.
    """

    k: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    def __init__(self, k: int, terms: Mapping[tuple[int, ...], int] | Iterable[tuple[tuple[int, ...], int]] = ()):
        items = dict(terms)
        _exact_ints([k, *items.values()], "k and coefficients")
        for exps in items:
            if len(_exact_ints(exps, "exponents")) != k:
                raise ValueError(f"exponent vector {exps} does not have length {k}")
        cleaned = {tuple(exps): c for exps, c in items.items() if c != 0}
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "terms", tuple(sorted(cleaned.items())))

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate_all_ones(self) -> int:
        return sum(c for _, c in self.terms)


def _multiply_terms(
    a: dict[tuple[int, ...], int], b: dict[tuple[int, ...], int]
) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _elementary(m: int, k: int) -> dict[tuple[int, ...], int]:
    # e_m in k variables: one squarefree monomial per m-subset
    out: dict[tuple[int, ...], int] = {}
    for subset in combinations(range(k), m):
        exps = [0] * k
        for i in subset:
            exps[i] = 1
        out[tuple(exps)] = 1
    return out


def expand_e_lambda(lam: Partition, k: int) -> MultivariatePoly:
    """Expansion of the product of e_part over parts of lam in k variables.

    Any part above k makes the whole product zero; that is a valid result,
    not an error.
    """
    check_size("expand_e_lambda", k, name="k")
    acc: dict[tuple[int, ...], int] = {(0,) * k: 1}
    for part in lam:
        if part > k:
            return MultivariatePoly(k, {})
        acc = _multiply_terms(acc, _elementary(part, k))
        if not acc:
            break
    return MultivariatePoly(k, acc)


def comb_type_expansion(n: int, cap: int = binary_trees.DEFAULT_CAP) -> ESymExpansion:
    """Sum of e over comb types of all normalized trees on [n].

    The coefficient of e_lambda counts the trees with comb type lambda; the
    coefficients add up to (2n-3)!! for n >= 2.
    """
    check_size("comb_type_expansion", n, cap)
    tally = binary_trees.comb_type_tally(n, cap)
    return ESymExpansion({Partition(parts): c for parts, c in tally.items()})


def f_mcomb_direct(
    n: int, k: int, cap_n: int = FMC_CAP_N, cap_k: int = FMC_CAP_K
) -> MultivariatePoly:
    """Color-count generating polynomial of colored combs, by direct enumeration.

    Each coloring contributes the monomial whose j-th exponent counts the
    internal nodes colored j.  Colorings read only a tree's shape (labels 0),
    so shapes are tallied, through the insertions of enumerate_normalized, and
    colored once.
    """
    check_size("f_mcomb_direct", n, cap_n)
    check_size("f_mcomb_direct (colors)", k, cap_k, "k")
    shapes = Counter({0: 1})
    for _ in range(n - 1):
        children: Counter = Counter()
        for shape, count in shapes.items():
            for child in binary_trees._insertions(shape, 0):
                children[child] += count
        shapes = children
    acc: dict[tuple[int, ...], int] = {}
    for shape, count in shapes.items():
        for colors in binary_trees._chain_colorings(shape, k, k + 1):
            exps = [0] * k
            for c in colors:
                exps[c - 1] += 1
            key = tuple(exps)
            acc[key] = acc.get(key, 0) + count
    return MultivariatePoly(k, acc)


def expansion_in_variables(f: ESymExpansion, k: int) -> MultivariatePoly:
    """Evaluate an e-expansion as an explicit polynomial in x_1 .. x_k."""
    check_size("expansion_in_variables", k, name="k")
    acc: dict[tuple[int, ...], int] = {}
    for lam, c in f.terms:
        for exps, ce in expand_e_lambda(lam, k).terms:
            acc[exps] = acc.get(exps, 0) + c * ce
    return MultivariatePoly(k, acc)


def specialize_two_vars(f: ESymExpansion) -> IntPolynomial:
    """Apply x_1 = 1, x_2 = t, all other variables 0 to an e-expansion.

    e_1 becomes 1 + t, e_2 becomes t, and e_m vanishes for m >= 3, so
    e_lambda maps to t^j (1+t)^m when lambda = (2^j, 1^m) and to zero
    otherwise.
    """
    out: list[int] = []
    for lam, c in f.terms:
        if any(part > 2 for part in lam.parts):
            continue
        twos = sum(1 for part in lam.parts if part == 2)
        add_binomial_row(out, c, twos, len(lam.parts) - twos)
    return IntPolynomial(out)


def product_form_count(t: binary_trees.Tree, k: int) -> int:
    """Number of admissible colorings of one tree with colors in [1, k].

    Within each maximal right-child chain the colors are distinct and forced
    into decreasing order, so each block of size L contributes C(k, L).
    """
    check_size("product_form_count", k, name="k")
    result = 1
    for part in binary_trees.comb_type(t):
        result *= comb(k, part)
    return result


def expansion_to_json_list(f: ESymExpansion) -> list[dict]:
    """JSON form [{"lambda":[2,1],"coeff":"1"}, ...] with bigint-safe coefficients."""
    return [{"lambda": list(lam.parts), "coeff": str(c)} for lam, c in f.terms]
