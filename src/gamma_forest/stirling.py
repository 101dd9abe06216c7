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

Every word of order n is a word of order n - 1 with the pair "n n"
inserted, and _words builds them so, one order from the last, starting at
the empty word; enumerate_stirling reads it at order n.  Rows and
distributions run on one insertion rule: the statistics of each child of a
word of order n - 1 follow from its parent's in O(1) (see _child_profiles)
and depend only on the parent's class key (see pair_statistics).  Rows walk
the words one order down as strings with their keys, not through _words,
as blocks of one parent's 2n - 1 children, with _child_profiles read once
per class (_row_blocks); statistics_rows is a flat view of the blocks.
Distributions never visit the words: pair_statistics walks the classes,
order by order, with a count and one representative each.  PAIR_KEY, the
one place that names the positions of a pair_statistics key, is read by the
views of one tally: marginal and the gamma vectors naas_aapair and
ntns_tnpair.  distribution_naas_aapair and distribution_ntns_tnpair each
apply one view to a fresh tally.  The per-word functions (aapair, tnpair,
is_naas, is_ntns, is_stirling and the word validation that raises
MalformedWordError) live with the tests, as the independent implementations
they compare the engine with.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterator, Mapping

from .errors import check_size
from .poly import GammaVector

Word = tuple[int, ...]

DEFAULT_CAP = 8

# Positions of the statistics in a pair_statistics key.
PAIR_KEY = {"aapair": 0, "tnpair": 1, "naas": 2, "ntns": 3}


def _words(n: int) -> Iterator[Word]:
    # the words of order n: each word of order n - 1 with "n n" inserted at
    # its gaps, right to left; the empty word at order 0
    if n == 0:
        yield ()
        return
    pair = (n, n)
    for w in _words(n - 1):
        for gap in range(len(w), -1, -1):
            yield w[:gap] + pair + w[gap:]


def enumerate_stirling(n: int, cap: int = DEFAULT_CAP) -> Iterator[Word]:
    """Yield the (2n-1)!! Stirling permutations of order n.

    Built by inserting the pair "m m" into each of the 2m - 1 gaps of every
    word of order m - 1; gaps are taken right to left, which makes the
    order-2 stream come out as 1122, 1221, 2211.
    """
    check_size("enumerate_stirling", n, cap)
    yield from _words(n)


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


def _child_key(key: bytes, g: int) -> bytes:
    """The class key (see pair_statistics) of a word with k k inserted at gap
    g, from its key: the new first occurrence is 2 exactly when position
    g - 1 is a second one, the new second occurrence is 1, and a first
    occurrence that was at g becomes 0, since it now follows the larger k."""
    rest = key[g:]
    if rest[:1] == b"\x02":
        rest = b"\x00" + rest[1:]
    return key[:g] + (b"\x02\x01" if g and key[g - 1] == 1 else b"\x00\x01") + rest


def _classes(m: int) -> dict[bytes, list]:
    """The words of order m by class key (see pair_statistics), each class
    as [number of words, one of its words]; only two orders are held."""
    classes = {b"": [1, ()]}
    for k in range(1, m + 1):
        pair = (k, k)
        children: dict = {}
        for key, (count, w) in classes.items():
            for g in range(len(w), -1, -1):
                child = _child_key(key, g)
                entry = children.get(child)
                if entry:
                    entry[0] += count
                else:
                    children[child] = [count, w[:g] + pair + w[g:]]
        classes = children
    return classes


def pair_statistics(n: int, cap: int = DEFAULT_CAP) -> Counter:
    """Counter over (aapair, tnpair, is_naas, is_ntns) for all words of order n,
    positions as in PAIR_KEY.

    The words of order n - 1 are walked as classes, not one by one
    (_classes).  A word's class key holds one byte per position: 1 for a
    second occurrence, 2 for a first occurrence directly after the second
    occurrence of a smaller letter, 0 for any other first occurrence.  The
    key is enough: the first/second pattern of a Stirling word is a Dyck word
    whose matching pairs the two occurrences of each letter (the stack
    discipline), and of the adjacent positions (first, first) always
    ascends, (second, second) always descends and (first, second) is one
    letter; only (second, first) can go either way, and the key holds that
    bit.  _child_profiles reads nothing else, so every word of a class has
    the same profile list, and the tally adds each class's word count times
    the profiles of its one representative.  Memory is two orders of
    classes: 903 and 4279 at the cap, against 135135 words of order 7.
    """
    check_size("pair_statistics", n, cap)
    tally: Counter = Counter()
    for count, w in _classes(n - 1).values():
        for profile in _child_profiles(w):
            tally[profile] += count
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


def _keyed_strings(m: int) -> Iterator[tuple[str, bytes]]:
    # _words(m) as strings, letter c written chr(48 + c), with class keys
    if m == 0:
        yield "", b""
        return
    mm = chr(48 + m) * 2
    for s, key in _keyed_strings(m - 1):
        for g in range(len(s), -1, -1):
            yield s[:g] + mm + s[g:], _child_key(key, g)


def _row_blocks(
    n: int, cap: int = DEFAULT_CAP, head: str = "", tails: Mapping | None = None
) -> Iterator[tuple[list[str], list[tuple]]]:
    """One block per word of order n - 1, in enumeration order: the lines of
    the 2n - 1 words made by inserting n n into it, gaps right to left, and
    their _child_profiles.  A line is head, the word and tails[profile],
    spliced from the parent's string (_keyed_strings) in one step; tails maps
    a profile to its text (none by default), and the lines are then the words
    alone.  The profiles and their tails are computed once per class key, on
    a decoded parent, and interned.  Letters past 9 are translated after a
    comma join."""
    check_size("statistics_rows", n, cap)
    if tails is None:
        tails = defaultdict(str)
    mm = chr(48 + n) * 2
    table = {48 + c: str(c) for c in range(10, n + 1)}
    memo: dict[bytes, tuple[list[tuple], list[str]]] = {}
    interned: dict[tuple, tuple] = {}
    for s, key in _keyed_strings(n - 1):
        entry = memo.get(key)
        if entry is None:
            w = tuple(ord(c) - 48 for c in s)
            profiles = [interned.setdefault(p, p) for p in _child_profiles(w)]
            entry = memo[key] = profiles, [tails[p] for p in profiles]
        profiles, texts = entry
        gaps = range(len(s), -1, -1)
        if table:
            words = (",".join(s[:g] + mm + s[g:]).translate(table) for g in gaps)
            yield [f"{head}{word}{t}" for word, t in zip(words, texts)], profiles
        else:
            yield [f"{head}{s[:g]}{mm}{s[g:]}{t}" for g, t in zip(gaps, texts)], profiles


def statistics_rows(n: int, cap: int = DEFAULT_CAP) -> Iterator[tuple[str, int, int, bool, bool]]:
    """(word, aapair, tnpair, is_naas, is_ntns) rows in enumeration order."""
    for words, profiles in _row_blocks(n, cap):
        for word, (aa, tn, naas, ntns) in zip(words, profiles):
            yield word, aa, tn, naas, ntns
