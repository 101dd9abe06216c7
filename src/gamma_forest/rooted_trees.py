"""Labeled rooted trees on [n], their descent statistic, and its polynomial.

A rooted tree is stored as a parent array.  Its descents are the non-root
nodes whose parent carries a larger label.

The descent polynomial walks forests, one root r at a time, in
`_root_descents`.  The labels other than r take a parent in decreasing
order.  A parent in the label's own component would close a cycle and is
skipped, and des grows by one for each parent above its child.  The walk
stops when only the two smallest non-root labels, x < y, lack a parent, so it
visits every forest of three components: R holding r, Y holding y and X
holding x, of sizes a, b and c.  The last two attachments are counted in bulk
from those sizes and the position of r.  y hangs in R or X, and x in R or Y,
save y in X with x in Y.  Below y lie only x, and r when r < y; below x only
r, when r < x.  So the two add P_yR P_xR + P_yR P_xY + P_yX P_xR, with
P_yR = [r<y] + (a - [r<y]) t, P_yX = 1 + (c - 1) t, P_xR = [r<x] + (a -
[r<x]) t and P_xY = b t.  Neither the walk nor the bulk count reads the
product form.  All of n = 9 takes about 0.9 s in one process on a 2-CPU
Xeon host.

Enumeration runs over pairs (root, Prufer sequence): the sequence fixes the
unrooted tree, the root orients it, and each of the n^(n-1) rooted trees
appears exactly once.  A Prufer decode hangs each removed leaf from its
sequence entry, so it gives the tree rooted at n as a parent array.
`_decoded_blocks` decodes once per sequence, and `_rooted_blocks` hands over
the n trees of one root and sequence prefix at a time, as one bytearray of
records of n + 2 bytes: a parent array, then des.  Root 1 appends each
record, rooted at n, to one table of n^(n-2) (n+2) bytes (151 KB at n = 7,
53 MB at n = 9) that roots 2..n copy from; a reroot reverses the path from
the root up to n, and moving the root from p down to its child x changes des
by +1 if x > p and by -1 otherwise.  Neither side of the descent identity
shares code with the other.  The per-tree functions (des, the Prufer codec,
the edge-list form) live with the tests, as the oracles they hold these
against.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

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


def _times(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int, int]:
    # the product of two polynomials of degree at most 1 in t
    return (p[0] * q[0], p[0] * q[1] + p[1] * q[0], p[1] * q[1])


def _root_descents(n: int, r: int) -> list[int]:
    # the des counts of the trees on [n] rooted at r: the labels other than
    # r take a parent in decreasing order, each outside its own component,
    # down to the last two, x < y, which are counted in bulk below
    if n == 1:
        return [1]
    others = [v for v in range(n, 0, -1) if v != r]
    if n == 2:
        counts = [0, 0]
        counts[r > others[0]] = 1
        return counts
    *walk, y, x = others
    members = {q: [q] for q in range(1, n + 1)}  # each component under its parentless label
    big_r, big_y = members[r], members[y]
    last = len(walk) - 1
    tally: dict[tuple[int, int, int], int] = {}  # (des, a, b): forests

    def attach(i: int, d: int) -> None:
        v = walk[i]
        own = members.pop(v)
        for target in list(members.values()):
            k = len(target)
            target += own
            if i == last:
                a, b = len(big_r), len(big_y)
                for p in target[:k]:
                    key = (d + (p > v), a, b)
                    tally[key] = tally.get(key, 0) + 1
            else:
                for p in target[:k]:
                    attach(i + 1, d + (p > v))
            del target[k:]
        members[v] = own

    if walk:
        attach(0, 0)
    else:
        tally[0, 1, 1] = 1
    # y hangs in R or X, and x in R or Y, save y in X with x in Y, a cycle;
    # below y lie x and maybe r, below x maybe r
    ry, rx = int(r < y), int(r < x)
    counts = [0] * n
    for (d, a, b), forests in tally.items():
        c = n - a - b
        y_in_r, y_in_x = (ry, a - ry), (1, c - 1)
        x_in_r, x_in_y = (rx, a - rx), (0, b)
        bulk = zip(_times(y_in_r, x_in_r), _times(y_in_r, x_in_y), _times(y_in_x, x_in_r))
        for e, ways in enumerate(map(sum, bulk)):
            counts[d + e] += forests * ways
    return counts


def descent_polynomial(n: int, cap: int = DEFAULT_CAP) -> IntPolynomial:
    """Descent generating polynomial over all rooted trees on [n], by enumeration.

    Independent of the product form; this is the brute-force side of that
    identity.  _root_descents walks the forests of one root, and the roots'
    counts are summed.
    """
    check_size("descent_polynomial", n, cap)
    return IntPolynomial([sum(col) for col in zip(*(_root_descents(n, r) for r in range(1, n + 1)))])
