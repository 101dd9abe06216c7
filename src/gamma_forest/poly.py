"""Exact integer polynomials, palindromy, and the gamma basis.

Every polynomial here has arbitrary-precision integer coefficients and a
unique normal form: the zero polynomial is the empty coefficient tuple, and
no other polynomial carries trailing zero coefficients.  A palindromic
polynomial of degree d can be rewritten in the basis t^j (1+t)^(d-2j) for
0 <= j <= d // 2; the coordinate vector in that basis is a GammaVector.

The module also builds the concrete polynomials the rest of the package
verifies against: the product form of the tree descent polynomial, its
closed-form gamma coordinates, and the classical Eulerian polynomial with
its gamma interpretation over permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True, init=False)
class IntPolynomial:
    """A dense univariate polynomial over the integers.

    coeffs[i] is the coefficient of t^i.  Trailing zeros are stripped on
    construction, so equal polynomials compare equal structurally.

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

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        """
        >>> IntPolynomial([1, 1]) + IntPolynomial([1, -1])
        IntPolynomial(coeffs=(2,))
        """
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        """
        >>> IntPolynomial([2, 1]) * IntPolynomial([1, 2])
        IntPolynomial(coeffs=(2, 5, 2))
        """
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPolynomial(out)

    def __call__(self, t):
        """Horner evaluation; exact for int and Fraction arguments.

        >>> IntPolynomial([2, 5, 2])(1)
        9
        """
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


@dataclass(frozen=True, init=False)
class GammaVector:
    """Coordinates of a palindromic polynomial in the gamma basis.

    gammas[j] multiplies t^j (1+t)^(degree - 2j).  The length is pinned to
    degree // 2 + 1 so that vectors of equal degree are directly comparable;
    for the zero polynomial the degree is -1 and the vector is empty.
    """

    gammas: tuple[int, ...]
    degree: int

    def __init__(self, gammas: Iterable[int], degree: int):
        *gs, degree = _exact_ints([*gammas, degree], "gamma coordinates and degree")
        if len(gs) != degree // 2 + 1:
            raise ValueError(
                f"gamma vector of degree {degree} needs {degree // 2 + 1} "
                f"entries, got {len(gs)}"
            )
        object.__setattr__(self, "gammas", tuple(gs))
        object.__setattr__(self, "degree", degree)


def evaluate(p: IntPolynomial, t):
    """Evaluate p at t by Horner's rule; exact big-integer arithmetic."""
    return p(t)


def is_palindromic(p: IntPolynomial) -> bool:
    """True iff coeffs read the same in both directions.

    The zero polynomial is palindromic.

    >>> is_palindromic(IntPolynomial([1, 4, 1]))
    True
    >>> is_palindromic(IntPolynomial([1, 2]))
    False
    """
    cs = p.coeffs
    return all(cs[i] == cs[-1 - i] for i in range(len(cs) // 2))


def add_binomial_row(acc: list[int], c: int, j: int, m: int) -> None:
    """Add c t^j (1+t)^m to the coefficient list acc in place, padding acc.

    (1+t)^m is the binomial row C(m, 0..m); c C(m, k+1) comes from c C(m, k)
    by the exact step b (m - k) // (k + 1), so this costs O(m) big-integer
    operations.  drake_polynomial does not use it, so that the censuses and
    gamma conversions built on it are checked against an independent path.

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


def to_gamma_basis(p: IntPolynomial) -> GammaVector:
    """Change of basis into the gamma basis by iterated peeling.

    Peeling reads gamma_j off the residue's t^j coefficient, then subtracts
    gamma_j t^j (1+t)^(d-2j); entries may be negative.  Requires a
    palindromic input.  O(d^2) big-integer operations.

    >>> to_gamma_basis(IntPolynomial([2, 5, 2])).gammas
    (2, 1)
    >>> to_gamma_basis(IntPolynomial([1, 4, 1])).gammas
    (1, 2)
    """
    if not is_palindromic(p):
        raise NotPalindromicError(f"polynomial {list(p.coeffs)} is not palindromic")
    d = p.degree
    residue = list(p.coeffs)
    gammas = []
    for j in range(d // 2 + 1):
        c = residue[j]
        gammas.append(c)
        if c:
            add_binomial_row(residue, -c, j, d - 2 * j)
    if any(residue):
        raise NotPalindromicError(f"peeling left a nonzero residue for {list(p.coeffs)}")
    return GammaVector(gammas, d)


def from_gamma_basis(g: GammaVector) -> IntPolynomial:
    """Reassemble sum of gamma_j t^j (1+t)^(d-2j); inverse of to_gamma_basis.

    >>> from_gamma_basis(GammaVector([2, 1], 2)).coeffs
    (2, 5, 2)
    >>> from_gamma_basis(GammaVector([6, 8], 3)).coeffs
    (6, 26, 26, 6)
    """
    out: list[int] = []
    for j, c in enumerate(g.gammas):
        if c:
            add_binomial_row(out, c, j, g.degree - 2 * j)
    return IntPolynomial(out)


def drake_polynomial(n: int) -> IntPolynomial:
    """Product form of the descent polynomial of rooted labeled trees on [n].

    Expands prod_{i=1}^{n-1} ((n-i) + i t) exactly; degree n-1, palindromic,
    and its value at 1 is n^(n-1).

    >>> drake_polynomial(3).coeffs
    (2, 5, 2)
    >>> drake_polynomial(1).coeffs
    (1,)
    """
    check_size("drake_polynomial", n)
    cs = [1]
    for i in range(1, n):
        cs = [(n - i) * lo + i * hi for lo, hi in zip(cs + [0], [0] + cs)]
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


def poly_to_json_dict(p: IntPolynomial) -> dict:
    """JSON form with coefficients as decimal strings (bigint safe)."""
    return {"degree": p.degree, "coeffs": [str(c) for c in p.coeffs]}


def gamma_to_json_dict(g: GammaVector) -> dict:
    return {"degree": g.degree, "gammas": [str(c) for c in g.gammas]}
