"""Labeled rooted trees on [n], their descent statistic, and its polynomial.

A rooted tree is stored as a parent array.  Enumeration runs over pairs
(root, Prufer sequence): the sequence fixes the unrooted tree, the root
orients it, and each of the n^(n-1) rooted trees appears exactly once.  The
descent polynomial tallies, for every tree, the number of non-root nodes
whose parent carries a larger label.

A Prufer decode hangs each removed leaf from its sequence entry, so it gives
the tree rooted at n as a parent array, with the other nodes in removal
order (each before its parent).  Two loops decode.  The descent tally,
`_descent_chunk`, decodes every sequence that extends a prefix into one set
of arrays per call, which it reuses.  It counts the degrees once for the n
sequences that differ in the last entry only, and the descents at root n as
it hangs each leaf.  Then it walks the removal order backwards, so that
every parent comes before its children; moving the root from p down to its
child x changes the count by +1 if x > p and by -1 otherwise.  The whole
n = 8 walk (about two million trees) takes about 0.56 s in one process on
a 2-CPU Xeon host, and _pool.map_prefixes shards it by fixing a prefix of
the sequence, which may be the whole sequence.  Enumeration decodes in
`_decoded_blocks`, once per sequence, and hands over the n trees of one
root and sequence prefix at a time, as one bytearray of records of n + 2
bytes: a parent array, then des.  Root 1 appends each record, rooted at n,
to one table of n^(n-2) (n+2) bytes (151 KB at n = 7, 53 MB at n = 9) that
roots 2..n copy from; a reroot reverses the path from the root up to n and
moves des by the same +-1 rule, in a loop of its own.  Neither side of the
descent identity shares a decode with the other.  The per-tree functions
(des, the Prufer codec, the edge-list form) live with the tests, as the
oracles they hold these against.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

from ._pool import map_prefixes
from .errors import check_size
from .poly import IntPolynomial, _Value

DEFAULT_CAP = 9


class RootedTree(_Value):
    """A rooted labeled tree on [n] as a parent array.

    parent[x] is the parent label of node x, with parent[root] = 0; index 0
    is an unused sentinel.  Construction checks that n, the root and every
    entry are ints, and that the parent map is acyclic and covers exactly
    the n - 1 non-root nodes.
    """

    n: int
    root: int
    parent: tuple[int, ...]

    def __init__(self, n: int, root: int, parent: Iterable[int]):
        par = tuple(parent)
        for v in (n, root, *par):
            if type(v) is not int:
                raise ValueError(f"n, root and parent entries must be ints, got {v!r}")
        if n < 1 or not 1 <= root <= n:
            raise ValueError("root must be a label in [n]")
        if len(par) != n + 1 or par[0] != 0 or par[root] != 0:
            raise ValueError("parent array must have length n + 1 with 0 at index 0 and at the root")
        reached = [False] * (n + 1)
        reached[root] = True
        for x in range(1, n + 1):
            path = []
            y = x
            while not reached[y]:
                path.append(y)
                y = par[y]
                if y == 0 or len(path) > n:
                    raise ValueError("parent map does not reach the root acyclically")
            for z in path:
                reached[z] = True
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "parent", par)


def _rooted_blocks(n: int, cap: int) -> Iterator[tuple[int, bytearray]]:
    # (root, block) for every rooted tree on [n], lexicographic in (root,
    # seq), unvalidated, one block per root and sequence prefix: the n trees
    # whose sequences differ in the last entry only (one per root at n = 2),
    # as records of n + 2 bytes, parent array then des.  Root 1 fills the
    # table as it streams, so the first rows come at once.  Each yielded
    # block is its own; in each record the path from the root up to n is
    # reversed in place, and des moves by +1 for each reversed edge from x up
    # to a smaller label, by -1 otherwise.
    check_size("enumerate_rooted_trees", n, cap)
    if n == 1:
        yield 1, bytearray(3)
        return
    w = n + 2
    lasts = [(x,) for x in range(1, n + 1)] if n > 2 else [()]  # at n = 2, the empty sequence
    tab = bytearray()
    bw = w * len(lasts)
    for root in range(1, n + 1):
        if root == 1:
            blocks = _decoded_blocks(n, lasts, tab)
        else:
            blocks = (tab[b : b + bw] for b in range(0, len(tab), bw))
        for block in blocks:
            for o in range(0, bw, w):
                d = block[o + n + 1]
                child, x = 0, root
                while x != n:
                    up = block[o + x]
                    block[o + x] = child
                    d += 1 if x > up else -1
                    child, x = x, up
                block[o + n] = child
                block[o + n + 1] = d
            yield root, block


def _decoded_blocks(n: int, lasts: list[tuple[int, ...]], tab: bytearray) -> Iterator[bytearray]:
    # the record of the tree rooted at n of every sequence on [n], its parent
    # array as the decode gives it and then its des, in blocks of the sequences
    # that extend one prefix by each of `lasts`; each block is appended to
    # tab as it is decoded, and yielded as a copy
    labels = range(1, n + 1)
    for prefix in product(labels, repeat=max(n - 3, 0)):
        counts = [1] * (n + 1)
        for x in prefix:
            counts[x] += 1
        block = bytearray()
        for last in lasts:
            deg = counts[:]
            for x in last:
                deg[x] += 1
            parent = bytearray(n + 2)
            idx = 1
            while deg[idx] != 1:
                idx += 1
            leaf = idx
            d = 0
            for x in prefix + last:
                parent[leaf] = x
                d += leaf < x
                deg[x] -= 1
                if deg[x] == 1 and x < idx:
                    leaf = x
                else:
                    idx += 1
                    while deg[idx] != 1:
                        idx += 1
                    leaf = idx
            parent[leaf] = n
            parent[n + 1] = d + 1  # the last leaf hangs from n, above it
            block += parent
        tab += block
        yield block


def enumerate_rooted_trees(n: int, cap: int = DEFAULT_CAP) -> Iterator[RootedTree]:
    """Yield all n^(n-1) rooted trees on [n], lexicographic in (root, seq),
    each checked by RootedTree.

    Raises LimitExceededError above the cap; n=9 already means 43 million
    trees, so anything larger needs an explicit opt-in and patience.
    """
    w = n + 2
    for root, block in _rooted_blocks(n, cap):
        for o in range(0, len(block), w):
            yield RootedTree(n, root, block[o : o + w - 1])


def _descent_chunk(args: tuple[int, tuple[int, ...]]) -> list[int]:
    # the des counts of the n trees of every sequence extending the prefix:
    # decode at root n with des counted on the way, then reroot by the +-1
    # rule in reverse removal order.  The n sequences that extend one head
    # share its degree count, and one set of arrays serves the whole chunk.
    # A prefix of n - 2 entries, or n <= 2, leaves one sequence and no last
    # entry to vary.
    n, prefix = args
    if n == 1:
        return [1]  # the one tree on [1] has no descent
    labels = range(1, n + 1)
    free = n - 2 - len(prefix)
    lasts = [(x,) for x in labels] if free else [()]
    counts = [0] * n
    parent = [0] * (n + 1)
    order = [0] * (n - 1)
    desv = [0] * (n + 1)
    for rest in product(labels, repeat=max(free - 1, 0)):
        head = prefix + rest
        base = [1] * (n + 1)
        for x in head:
            base[x] += 1
        for last in lasts:
            deg = base[:]
            for x in last:
                deg[x] += 1
            idx = 1
            while deg[idx] != 1:
                idx += 1
            leaf = idx
            d = 1  # the last leaf hangs from n, above it
            i = 0
            for x in head + last:
                parent[leaf] = x
                order[i] = leaf
                i += 1
                d += leaf < x
                deg[x] -= 1
                if deg[x] == 1 and x < idx:
                    leaf = x
                else:
                    idx += 1
                    while deg[idx] != 1:
                        idx += 1
                    leaf = idx
            parent[leaf] = n
            order[i] = leaf
            counts[d] += 1
            desv[n] = d
            for x in reversed(order):
                p = parent[x]
                d = desv[p] + (1 if x > p else -1)
                desv[x] = d
                counts[d] += 1
    return counts


def descent_polynomial(n: int, threads: int = 1, cap: int = DEFAULT_CAP) -> IntPolynomial:
    """Descent generating polynomial over all rooted trees on [n], by enumeration.

    Independent of the product form; this is the brute-force side of that
    identity.  _pool.map_prefixes shards the Prufer sequences by prefix over
    `threads` workers where the walk is large enough to pay for a pool, and
    _descent_chunk decodes and reroots every sequence of a shard in one loop.
    """
    check_size("descent_polynomial", n, cap)
    partials = map_prefixes(_descent_chunk, n, [range(1, n + 1)] * (n - 2), threads)
    return IntPolynomial([sum(col) for col in zip(*partials)])
