"""Exact integer polynomials, palindromy, and the gamma basis.

Every polynomial here has arbitrary-precision integer coefficients and a
unique normal form: the zero polynomial is the empty coefficient tuple, and
no other polynomial carries trailing zero coefficients.  A palindromic
polynomial of degree d can be rewritten in the basis t^j (1+t)^(d-2j) for
0 <= j <= d // 2; the coordinate vector in that basis is a GammaVector.  Both
directions run W_j = (1+t)^2 W_{j-1} + gamma_j t^j, by additions alone.

The module also builds the concrete polynomials the rest of the package
verifies against: the product form of the tree descent polynomial, its
closed-form gamma coordinates, and the classical Eulerian polynomial with
its gamma interpretation over permutations.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable

from .errors import check_size


class NotPalindromicError(ValueError):
    """Raised when a gamma-basis conversion is asked of an asymmetric polynomial."""


def _exact_ints(values: Iterable[int], what: str) -> list[int]:
    # type, not isinstance: bool is an int subclass, and a float or Fraction
    # with an integral value would still make results inexact or mistyped
    out = list(values)
    for v in out:
        if type(v) is not int:
            raise TypeError(f"{what} must be ints, got {v!r} ({type(v).__name__})")
    return out


class _Value:
    """Base of the frozen value types.  A subclass names its fields once, as
    class annotations, and sets them in __init__ with object.__setattr__.  A
    value equals only values of its own class; hash and repr go over the fields
    in order.  No __slots__: unpickling fills the __dict__ without __setattr__.
    The module of a subclass must use `from __future__ import annotations`, so
    that reading the field names never evaluates a type that names the class."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot assign to or delete {name!r}: {type(self).__name__} is frozen")

    __setattr__ = __delattr__ = _frozen


class IntPolynomial(_Value):
    """A dense univariate polynomial over the integers.

    coeffs[i] is the coefficient of t^i.  Trailing zeros are stripped on
    construction, so equal polynomials compare equal structurally.  It
    carries no arithmetic: the functions here work on coefficient lists.

    >>> IntPolynomial([2, 5, 2]).degree
    2
    >>> IntPolynomial([0, 0]) == IntPolynomial([])
    True
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = _exact_ints(coeffs, "coefficients")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)


class GammaVector(_Value):
    """Coordinates of a palindromic polynomial in the gamma basis.

    gammas[j] multiplies t^j (1+t)^(degree - 2j).  The length is pinned to
    degree // 2 + 1 so that vectors of equal degree are directly comparable;
    for the zero polynomial the degree is -1 and the vector is empty.  A
    degree below -1 is refused with ValueError.
    """

    gammas: tuple[int, ...]
    degree: int

    def __init__(self, gammas: Iterable[int], degree: int):
        *gs, degree = _exact_ints([*gammas, degree], "gamma coordinates and degree")
        if degree < -1:
            raise ValueError(f"gamma vector degree must be at least -1, got {degree}")
        if len(gs) != degree // 2 + 1:
            raise ValueError(
                f"gamma vector of degree {degree} needs {degree // 2 + 1} "
                f"entries, got {len(gs)}"
            )
        object.__setattr__(self, "gammas", tuple(gs))
        object.__setattr__(self, "degree", degree)


def evaluate(p: IntPolynomial, t):
    """Evaluate p at t by Horner's rule; exact for int and Fraction arguments.

    >>> evaluate(IntPolynomial([2, 5, 2]), 1)
    9
    """
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * t + c
    return acc


def is_palindromic(p: IntPolynomial) -> bool:
    """True iff coeffs read the same in both directions.

    The zero polynomial is palindromic.

    >>> is_palindromic(IntPolynomial([1, 4, 1]))
    True
    >>> is_palindromic(IntPolynomial([1, 2]))
    False
    """
    cs = p.coeffs
    return cs == cs[::-1]


def add_binomial_row(acc: list[int], c: int, j: int, m: int) -> None:
    """Add c t^j (1+t)^m to the coefficient list acc in place, padding acc.

    (1+t)^m is the binomial row C(m, 0..m); c C(m, k+1) comes from c C(m, k)
    by the exact step b (m - k) // (k + 1), so this costs O(m) big-integer
    operations.  Neither drake_polynomial nor the gamma conversions use it,
    so that the censuses built on it are checked against independent paths.

    >>> acc = [0, 0, 1]
    >>> add_binomial_row(acc, 2, 1, 2)
    >>> acc
    [0, 2, 5, 2]
    """
    acc.extend([0] * (j + m + 1 - len(acc)))
    b = c
    for k in range(m + 1):
        acc[j + k] += b
        b = b * (m - k) // (k + 1)


def _over_one_plus_t(w: list[int]) -> list[int]:
    # coefficients 0 .. len(w) - 1 of the power series W / (1+t)
    q, prev = [], 0
    for a in w:
        prev = a - prev
        q.append(prev)
    return q


def to_gamma_basis(p: IntPolynomial) -> GammaVector:
    """Change of basis into the gamma basis by the (1+t)^2 recurrence.

    p = (1+t)^(d % 2) W_{d // 2}, where W_{-1} = 0, W_j = (1+t)^2 W_{j-1} +
    gamma_j t^j is palindromic about j, and only its coefficients 0 .. j are
    kept.  Run backwards: an odd d divides by (1+t) first, exactly, as p(-1)
    is 0; then each step divides W_j by (1+t) twice as a power series and
    reads gamma_j off coefficient j.  Entries may be negative.  Requires a
    palindromic input.  O(d^2) big-integer additions and subtractions.

    >>> to_gamma_basis(IntPolynomial([2, 5, 2])).gammas
    (2, 1)
    >>> to_gamma_basis(IntPolynomial([1, 4, 1])).gammas
    (1, 2)
    >>> to_gamma_basis(IntPolynomial([2, 9, 20, 20, 9, 2])).gammas
    (2, -1, 3)
    """
    if not is_palindromic(p):
        raise NotPalindromicError(f"polynomial {list(p.coeffs)} is not palindromic")
    d = p.degree
    w = list(p.coeffs[: d // 2 + 1])
    if d % 2:
        w = _over_one_plus_t(w)
    tail = []  # gamma_j for j = d // 2 .. 1
    for j in range(d // 2, 0, -1):
        v = _over_one_plus_t(w[:j])  # (1+t) W_{j-1}, palindromic about j - 1/2
        tail.append(w[j] - 2 * v[-1])  # w[j] - v[j] - v[j-1], with v[j] = v[j-1]
        w = _over_one_plus_t(v)
    return GammaVector(w + tail[::-1], d)


def from_gamma_basis(g: GammaVector) -> IntPolynomial:
    """Reassemble sum of gamma_j t^j (1+t)^(d-2j); inverse of to_gamma_basis.

    Runs the recurrence of to_gamma_basis forwards on coefficients 0 .. d // 2
    and copies coefficient d - i from i.  A zero gamma_0 leaves degree < d.

    >>> from_gamma_basis(GammaVector([2, 1], 2)).coeffs
    (2, 5, 2)
    >>> from_gamma_basis(GammaVector([6, 8], 3)).coeffs
    (6, 26, 26, 6)
    >>> from_gamma_basis(GammaVector([2, -1, 3], 5)).coeffs
    (2, 9, 20, 20, 9, 2)
    """
    d = g.degree
    w = list(g.gammas[:1])
    for c in g.gammas[1:]:  # (1+t) w is [w[k] + w[k-1]]; v[j] = v[j-1] as above
        v = [a + b for a, b in zip(w, [0] + w)]
        w = [a + b for a, b in zip(v, [0] + v)] + [2 * v[-1] + c]
    if d % 2:
        w = [a + b for a, b in zip(w, [0] + w)]
    return IntPolynomial(w + w[: d - d // 2][::-1])


def drake_polynomial(n: int) -> IntPolynomial:
    """Product form of the descent polynomial of rooted labeled trees on [n].

    Expands prod_{i=1}^{n-1} ((n-i) + i t) exactly, two consecutive factors
    per pass; degree n-1, palindromic, and its value at 1 is n^(n-1).

    >>> drake_polynomial(3).coeffs
    (2, 5, 2)
    >>> drake_polynomial(1).coeffs
    (1,)
    """
    check_size("drake_polynomial", n)
    cs = [1]
    for i in range(1, n - 1, 2):  # ((n-i) + i t)((n-i-1) + (i+1) t) = a + b t + c t^2
        a, b, c = (n - i) * (n - i - 1), (n - i) * (i + 1) + i * (n - i - 1), i * (i + 1)
        cs = [a * x + b * y + c * z for x, y, z in zip(cs + [0, 0], [0] + cs + [0], [0, 0] + cs)]
    if n % 2 == 0:  # the unpaired last factor 1 + (n-1) t
        cs = [lo + (n - 1) * hi for lo, hi in zip(cs + [0], [0] + cs)]
    return IntPolynomial(cs)


def gamma_closed_form(n: int) -> GammaVector:
    """Closed-form gamma coordinates of drake_polynomial(n).

    Pairing the factors i and n-i gives ((n-i) + i t)(i + (n-i) t) =
    i(n-i) (1+t)^2 + (n-2i)^2 t, so the gamma vector is the coefficient list
    of c * prod_{s=1}^{q} (s(n-s) + (n-2s)^2 x), with q = (n-1)/2 and c = 1
    for odd n; for even n the unpaired middle factor (n/2)(1+t) gives
    q = (n-2)/2 and c = n/2.  Entry j is the sum over j-subsets J of {1..q}
    of c times (n-2i)^2 for i in J times s(n-s) for s not in J.  Built one
    factor at a time in O(q^2), without drake_polynomial or peeling.

    >>> gamma_closed_form(3).gammas
    (2, 1)
    >>> gamma_closed_form(5).gammas
    (24, 58, 9)
    >>> gamma_closed_form(4).gammas
    (6, 8)
    """
    check_size("gamma_closed_form", n)
    gammas = [1 if n % 2 else n // 2]
    for s in range(1, (n - 1) // 2 + 1):
        a, b = s * (n - s), (n - 2 * s) ** 2
        gammas = [a * lo + b * hi for lo, hi in zip(gammas + [0], [0] + gammas)]
    return GammaVector(gammas, n - 1)


def _descents(word: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(word) - 1) if word[i] > word[i + 1])


def eulerian_polynomial(n: int) -> IntPolynomial:
    """Descent generating polynomial over all permutations of [n].

    Enumerates the n! permutations directly; intended for small n.

    >>> eulerian_polynomial(3).coeffs
    (1, 4, 1)
    >>> eulerian_polynomial(4).coeffs
    (1, 11, 11, 1)
    """
    check_size("eulerian_polynomial", n)
    counts = [0] * n
    for sigma in permutations(range(1, n + 1)):
        counts[_descents(sigma)] += 1
    return IntPolynomial(counts)


def eulerian_gamma_count(n: int) -> GammaVector:
    """Gamma coordinates of the Eulerian polynomial, counted combinatorially.

    gamma_j is the number of permutations of [n] with j descents, no two
    adjacent descents, and no descent in the last position; this agrees with
    to_gamma_basis(eulerian_polynomial(n)).

    >>> eulerian_gamma_count(3).gammas
    (1, 2)
    >>> eulerian_gamma_count(4).gammas
    (1, 8)
    """
    check_size("eulerian_gamma_count", n)
    counts = [0] * ((n - 1) // 2 + 1)
    for sigma in permutations(range(1, n + 1)):
        prev_desc = False
        ok = True
        des = 0
        for i in range(n - 1):
            if sigma[i] > sigma[i + 1]:
                if prev_desc or i == n - 2:
                    ok = False
                    break
                des += 1
                prev_desc = True
            else:
                prev_desc = False
        if ok:
            counts[des] += 1
    return GammaVector(counts, n - 1)
