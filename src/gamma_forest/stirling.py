"""Stirling permutations and their adjacency-pair statistics.

A Stirling permutation of order n is a word on the multiset
{1, 1, 2, 2, ..., n, n} in which every letter lying strictly between the two
occurrences of m is larger than m.  Scanning left to right this is exactly a
stack discipline: a first occurrence must exceed the current stack top (or
open on an empty stack), and a second occurrence must close the letter
sitting on top.

The pair statistics only look at occurrence positions, so they are defined
for any word in which every letter appears exactly twice, including words
whose alphabet is not [n]:

  ascending adjacent pair (a, b):  a < b and the second occurrence of a sits
                                   immediately before the first of b
  terminally nested pair (a, b):   a < b and the second occurrence of a sits
                                   immediately after the second of b

A chain a < b < c of two pairs of the same kind is excluded by the NAAS and
NTNS predicates.  Pairs of either kind form a partial matching (both
endpoints determine each other through a fixed position), so a chain exists
exactly when some letter is the larger element of one pair and the smaller
element of another.

Rows and distributions run on an insertion engine: every word of order n is
a word of order n - 1 with the pair "n n" inserted, and the statistics of
the new word follow from its parent's in O(1) (see _child_profiles).
PAIR_KEY, the one place that names the positions of a pair_statistics key,
is read by the views of one tally: marginal and the gamma vectors
naas_aapair and ntns_tnpair.  distribution_naas_aapair and
distribution_ntns_tnpair each apply one view to a fresh tally.  The per-word
functions are independent implementations that the tests compare the engine
with.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Sequence, Union

from .errors import LimitExceededError
from .poly import GammaVector

Word = tuple[int, ...]

DEFAULT_CAP = 8

# Positions of the statistics in a pair_statistics key.
PAIR_KEY = {"aapair": 0, "tnpair": 1, "naas": 2, "ntns": 3}


class MalformedWordError(ValueError):
    """Raised when a word is not a sequence of letters each appearing exactly twice."""


def as_word(w: Union[str, Iterable[int]]) -> Word:
    """Normalize input to a tuple of ints; decimal strings are split per
    character.  Any other letter that is not an int (a bool, a float, a
    digit-like character such as "²") raises MalformedWordError."""
    if isinstance(w, str):
        if not w.isdecimal():
            raise MalformedWordError(f"cannot parse word {w!r}")
        return tuple(map(int, w))
    word = w if isinstance(w, tuple) else tuple(w)
    for x in word:
        if type(x) is not int:
            raise MalformedWordError(f"letter {x!r} is not an int")
    return word


def _occurrences(w: Word) -> tuple[dict[int, int], dict[int, int]]:
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    for i, c in enumerate(w):
        if c in second:
            raise MalformedWordError(f"letter {c} appears more than twice")
        if c in first:
            second[c] = i
        else:
            first[c] = i
    missing = set(first) - set(second)
    if missing:
        raise MalformedWordError(f"letters {sorted(missing)} appear only once")
    return first, second


def is_stirling(word: Union[str, Iterable[int]]) -> bool:
    """True iff letters between the two occurrences of any m all exceed m.

    The word must consist of letters each appearing exactly twice
    (MalformedWordError otherwise); the alphabet need not be [n].
    """
    w = as_word(word)
    _occurrences(w)  # validates multiplicities
    stack: list[int] = []
    opened: set[int] = set()
    for c in w:
        if c in opened:
            if not stack or stack[-1] != c:
                return False
            stack.pop()
        else:
            if stack and c < stack[-1]:
                return False
            opened.add(c)
            stack.append(c)
    return True


def enumerate_stirling(n: int, cap: int = DEFAULT_CAP) -> Iterator[Word]:
    """Yield the (2n-1)!! Stirling permutations of order n.

    Built by inserting the pair "m m" into each of the 2m - 1 gaps of every
    word of order m - 1; gaps are taken right to left, which makes the
    order-2 stream come out as 1122, 1221, 2211.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > cap:
        raise LimitExceededError("enumerate_stirling", n, cap)
    word = [1, 1]
    if n == 1:
        yield tuple(word)
        return

    def rec(m: int) -> Iterator[Word]:
        if m > n:
            yield tuple(word)
            return
        for gap in range(2 * (m - 1), -1, -1):
            word[gap:gap] = (m, m)
            yield from rec(m + 1)
            del word[gap : gap + 2]

    yield from rec(2)


def aapair(word: Union[str, Iterable[int]]) -> int:
    """Number of pairs a < b whose occurrences satisfy second(a) + 1 = first(b)."""
    w = as_word(word)
    first, second = _occurrences(w)
    count = 0
    for b, fb in first.items():
        j = fb - 1
        if j >= 0:
            a = w[j]
            if second[a] == j and a < b:
                count += 1
    return count


def tnpair(word: Union[str, Iterable[int]]) -> int:
    """Number of pairs a < b whose occurrences satisfy second(a) = second(b) + 1."""
    w = as_word(word)
    first, second = _occurrences(w)
    count = 0
    for b, sb in second.items():
        j = sb + 1
        if j < len(w):
            a = w[j]
            if second[a] == j and a < b:
                count += 1
    return count


def _pair_profile(w: Word) -> tuple[int, int, bool, bool]:
    # fused (aapair, tnpair, is_naas, is_ntns) in one occurrence scan
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    for i, c in enumerate(w):
        if c in first:
            second[c] = i
        else:
            first[c] = i
    length = len(w)
    aa = tn = 0
    aa_small: set[int] = set()
    aa_large: set[int] = set()
    tn_small: set[int] = set()
    tn_large: set[int] = set()
    for b, fb in first.items():
        j = fb - 1
        if j >= 0:
            a = w[j]
            if second[a] == j and a < b:
                aa += 1
                aa_small.add(a)
                aa_large.add(b)
    for b, sb in second.items():
        j = sb + 1
        if j < length:
            a = w[j]
            if second[a] == j and a < b:
                tn += 1
                tn_small.add(a)
                tn_large.add(b)
    return aa, tn, not (aa_small & aa_large), not (tn_small & tn_large)


def is_naas(word: Union[str, Iterable[int]]) -> bool:
    """True iff no chain a < b < c of two ascending adjacent pairs exists."""
    w = as_word(word)
    _occurrences(w)
    return _pair_profile(w)[2]


def is_ntns(word: Union[str, Iterable[int]]) -> bool:
    """True iff no chain a < b < c of two terminally nested pairs exists."""
    w = as_word(word)
    _occurrences(w)
    return _pair_profile(w)[3]


def _child_profiles(w: Word) -> list[tuple[int, int, bool, bool]]:
    """(aapair, tnpair, is_naas, is_ntns) of each word made by inserting m m
    into the Stirling word w of order m - 1, gaps taken right to left.

    One scan of w finds its pairs, with per-letter flags for being the small
    or the large end of one.  Inserting m m at gap g breaks only the
    adjacency (L, R) = (w[g-1], w[g]) and makes (L, m) and (m, R).  Since m
    is the largest letter, (L, m) is an ascending pair exactly when L is a
    second occurrence, (m, R) is terminally nested exactly when R is one, and
    the chain counts move only through the flags of L and R.
    """
    size = len(w)
    letters = size // 2 + 1
    seen = [False] * letters
    second = []
    for c in w:
        second.append(seen[c])
        seen[c] = True
    aa = tn = 0
    aa_small = [False] * letters
    aa_large = [False] * letters
    tn_small = [False] * letters
    tn_large = [False] * letters
    for i in range(size - 1):
        if second[i]:
            a, b = w[i], w[i + 1]
            if not second[i + 1]:
                if a < b:
                    aa += 1
                    aa_small[a] = aa_large[b] = True
            elif b < a:
                tn += 1
                tn_small[b] = tn_large[a] = True
    aa_both = sum(map(bool.__and__, aa_small, aa_large))
    tn_both = sum(map(bool.__and__, tn_small, tn_large))
    out = []
    for g in range(size, -1, -1):
        c_aa, c_ab, c_tn, c_tb = aa, aa_both, tn, tn_both
        r_second = g < size and second[g]
        if g and second[g - 1]:
            left = w[g - 1]
            if g < size and w[g] > left and not r_second:
                # (L, m) replaces the ascending pair (L, R): only R's flag goes
                c_ab -= aa_small[w[g]]
            else:
                c_aa += 1
                c_ab += aa_large[left]
            if r_second and w[g] < left:
                # (m, R) replaces the terminally nested (L, R): only L's flag goes
                c_tb -= tn_small[left]
                r_second = False
        if r_second:
            c_tn += 1
            c_tb += tn_large[w[g]]
        out.append((c_aa, c_tn, not c_ab, not c_tb))
    return out


def _parents(n: int, cap: int, caller: str) -> Iterator[Word]:
    # the words of order n - 1 whose insertions give order n, in enumeration order
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > cap:
        raise LimitExceededError(caller, n, cap)
    return enumerate_stirling(n - 1, cap) if n > 1 else iter([()])


def pair_statistics(n: int, cap: int = DEFAULT_CAP) -> Counter:
    """Counter over (aapair, tnpair, is_naas, is_ntns) for all words of order n,
    positions as in PAIR_KEY."""
    tally: Counter = Counter()
    for w in _parents(n, cap, "pair_statistics"):
        tally.update(_child_profiles(w))
    return tally


def marginal(tally: Counter, stat: str) -> dict:
    """Counts of a pair_statistics tally by one statistic of PAIR_KEY."""
    i = PAIR_KEY[stat]
    out: dict = {}
    for key, c in tally.items():
        out[key[i]] = out.get(key[i], 0) + c
    return out


def _gamma_view(tally: Counter, n: int, stat: str, chain_free: str) -> GammaVector:
    # counts of the chain-free words of order n by stat
    i, j = PAIR_KEY[stat], PAIR_KEY[chain_free]
    counts = [0] * (n // 2 + 1)
    for key, c in tally.items():
        if key[j]:
            counts[key[i]] += c
    return GammaVector(counts, n)


def naas_aapair(tally: Counter, n: int) -> GammaVector:
    """Counts of NAAS words by aapair, read off the pair_statistics tally of
    order n, as a GammaVector of degree n (the descent polynomial degree one
    size up)."""
    return _gamma_view(tally, n, "aapair", "naas")


def ntns_tnpair(tally: Counter, n: int) -> GammaVector:
    """Counts of NTNS words by tnpair, read off the pair_statistics tally of
    order n, as a GammaVector of degree n."""
    return _gamma_view(tally, n, "tnpair", "ntns")


def distribution_naas_aapair(n: int, cap: int = DEFAULT_CAP) -> GammaVector:
    """naas_aapair of the words of order n."""
    return naas_aapair(pair_statistics(n, cap), n)


def distribution_ntns_tnpair(n: int, cap: int = DEFAULT_CAP) -> GammaVector:
    """ntns_tnpair of the words of order n."""
    return ntns_tnpair(pair_statistics(n, cap), n)


def word_to_string(w: Sequence[int]) -> str:
    """Digit string when all letters are single digits, else comma separated."""
    if all(0 <= c <= 9 for c in w):
        return "".join(str(c) for c in w)
    return ",".join(str(c) for c in w)


def statistics_rows(n: int, cap: int = DEFAULT_CAP) -> Iterator[tuple[str, int, int, bool, bool]]:
    """(word, aapair, tnpair, is_naas, is_ntns) rows in enumeration order."""
    pair, mm = (n, n), str(n) * 2
    for w in _parents(n, cap, "statistics_rows"):
        children = zip(range(len(w), -1, -1), _child_profiles(w))
        if n <= 9:
            # one digit per letter: gap g of the word is offset g of its string
            s = "".join(map(str, w))
            for g, (aa, tn, naas, ntns) in children:
                yield s[:g] + mm + s[g:], aa, tn, naas, ntns
        else:
            for g, (aa, tn, naas, ntns) in children:
                yield word_to_string(w[:g] + pair + w[g:]), aa, tn, naas, ntns
