"""The contract of the seven frozen value types: repr, structural equality
and hashing, class-strict comparison, immutability and pickling."""

import pickle

import pytest

from gamma_forest.poly import GammaVector, IntPolynomial
from gamma_forest.rooted_trees import RootedTree
from gamma_forest.symfunc import ESymExpansion, MultivariatePoly, Partition
from oracles import PruferCode

# (make, repr, field): make builds the same value twice from unequal inputs
CASES = [
    (
        lambda first: IntPolynomial([1, 2, 1, 0] if first else (1, 2, 1)),
        "IntPolynomial(coeffs=(1, 2, 1))",
        "coeffs",
    ),
    (
        lambda first: GammaVector([1, 1] if first else (1, 1), 2),
        "GammaVector(gammas=(1, 1), degree=2)",
        "gammas",
    ),
    (
        lambda first: PruferCode(4, [2, 2] if first else iter((2, 2))),
        "PruferCode(n=4, seq=(2, 2))",
        "seq",
    ),
    (
        lambda first: RootedTree(3, 1, [0, 0, 1, 1] if first else (0, 0, 1, 1)),
        "RootedTree(n=3, root=1, parent=(0, 0, 1, 1))",
        "parent",
    ),
    (
        lambda first: Partition([1, 0, 2] if first else (2, 1)),
        "Partition(parts=(2, 1))",
        "parts",
    ),
    (
        lambda first: ESymExpansion(
            {Partition([2, 1]): 3, Partition([3]): 0} if first else [(Partition([1, 2]), 3)]
        ),
        "ESymExpansion(terms=((Partition(parts=(2, 1)), 3),), weight=3)",
        "terms",
    ),
    (
        lambda first: MultivariatePoly(2, {(1, 0): 2, (0, 1): 0} if first else [((1, 0), 2)]),
        "MultivariatePoly(k=2, terms=(((1, 0), 2),))",
        "terms",
    ),
]
IDS = [text.partition("(")[0] for _, text, _ in CASES]


@pytest.mark.parametrize("make, text, field", CASES, ids=IDS)
def test_repr_names_every_field(make, text, field):
    assert repr(make(True)) == text


@pytest.mark.parametrize("make, text, field", CASES, ids=IDS)
def test_equal_values_are_equal_and_hash_alike(make, text, field):
    a, b = make(True), make(False)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("make, text, field", CASES, ids=IDS)
def test_another_value_type_is_never_equal(make, text, field):
    value = make(True)
    for other_make, other_text, _ in CASES:
        if other_text != text:
            other = other_make(True)
            assert value.__eq__(other) is NotImplemented
            assert value != other


def test_same_fields_in_another_class_are_not_equal():
    # the field tuples agree, the classes do not
    assert IntPolynomial([2, 1]) != Partition([2, 1])
    assert Partition([2, 1]) != IntPolynomial([2, 1])
    assert IntPolynomial([2, 1]) != (2, 1)


@pytest.mark.parametrize("make, text, field", CASES, ids=IDS)
def test_values_refuse_assignment_and_deletion(make, text, field):
    value = make(True)
    with pytest.raises(AttributeError):
        setattr(value, field, ())
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == text


@pytest.mark.parametrize("make, text, field", CASES, ids=IDS)
def test_pickle_round_trip(make, text, field):
    value = make(True)
    back = pickle.loads(pickle.dumps(value))
    assert back == value and hash(back) == hash(value)
    assert type(back) is type(value) and repr(back) == text
