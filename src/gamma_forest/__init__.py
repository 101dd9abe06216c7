"""Exact enumeration and verification of descent statistics on labeled
rooted trees, normalized binary trees, and Stirling permutations.

Everything is integer-exact: polynomial coefficients are Python ints, so
results stay correct far past the range where floating point would drift.
"""

from .binary_trees import (
    bicolored_comb_census,
    bicolored_lyndon_census,
    comb_type,
    distribution_ndnl_nlyn,
    distribution_ndrd_rdes,
    enumerate_bicolored_combs,
    enumerate_bicolored_lyndon,
    enumerate_colored_combs,
    enumerate_normalized,
    joint_statistics,
    valency,
)
from .errors import LimitExceededError
from .poly import (
    GammaVector,
    IntPolynomial,
    NotPalindromicError,
    drake_polynomial,
    eulerian_gamma_count,
    eulerian_polynomial,
    evaluate,
    from_gamma_basis,
    gamma_closed_form,
    is_palindromic,
    to_gamma_basis,
)
from .rooted_trees import (
    RootedTree,
    descent_polynomial,
    enumerate_rooted_trees,
)
from .stirling import (
    distribution_naas_aapair,
    distribution_ntns_tnpair,
    enumerate_stirling,
)
from .symfunc import (
    ESymExpansion,
    MultivariatePoly,
    Partition,
    comb_type_expansion,
    expand_e_lambda,
    expansion_in_variables,
    f_mcomb_direct,
    specialize_two_vars,
)

__version__ = "0.1.0"

__all__ = [
    "GammaVector",
    "IntPolynomial",
    "NotPalindromicError",
    "LimitExceededError",
    "RootedTree",
    "ESymExpansion",
    "MultivariatePoly",
    "Partition",
    "bicolored_comb_census",
    "bicolored_lyndon_census",
    "comb_type",
    "comb_type_expansion",
    "descent_polynomial",
    "distribution_naas_aapair",
    "distribution_ndnl_nlyn",
    "distribution_ndrd_rdes",
    "distribution_ntns_tnpair",
    "drake_polynomial",
    "enumerate_bicolored_combs",
    "enumerate_bicolored_lyndon",
    "enumerate_colored_combs",
    "enumerate_normalized",
    "enumerate_rooted_trees",
    "enumerate_stirling",
    "eulerian_gamma_count",
    "eulerian_polynomial",
    "evaluate",
    "expand_e_lambda",
    "expansion_in_variables",
    "f_mcomb_direct",
    "from_gamma_basis",
    "gamma_closed_form",
    "is_palindromic",
    "joint_statistics",
    "specialize_two_vars",
    "to_gamma_basis",
    "valency",
]
