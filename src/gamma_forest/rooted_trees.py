"""Labeled rooted trees on [n], their descent statistic, and its polynomial.

A rooted tree is stored as a parent array.  Enumeration runs over pairs
(root, Prufer sequence): the sequence fixes the unrooted tree, the root
orients it, and each of the n^(n-1) rooted trees appears exactly once.  The
descent polynomial tallies, for every tree, the number of non-root nodes
whose parent carries a larger label.

A Prufer decode hangs each removed leaf from its sequence entry, so it gives
the tree rooted at n as a parent array, with the other nodes in removal
order (each before its parent).  Two loops decode.  `_decode` serves
`prufer_decode`, which reads the edges off that array, and the descent
tally, `_descent_chunk`: one loop over the sequences that extend a prefix,
which never materializes trees.  Per sequence it counts the descents at
root n, then walks the removal order backwards, so that every parent comes
before its children; moving the root from p down to its child x changes the
count by +1 if x > p and by -1 otherwise.  That keeps the n=8 run (about two
million trees) near a second, and _pool.map_prefixes shards it by fixing a
prefix of the sequence.  Enumeration decodes inline, on a fresh array per
sequence, and reroots each tree by reversing the path from its root up to
n; it hands over the n trees of one root and sequence prefix at a time.
Neither side of the descent identity shares a decode with the other.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from ._pool import map_prefixes
from .errors import check_size
from .poly import IntPolynomial

DEFAULT_CAP = 9


@dataclass(frozen=True, init=False)
class PruferCode:
    """A Prufer sequence for a labeled unrooted tree on [n]; length n - 2."""

    n: int
    seq: tuple[int, ...]

    def __init__(self, n: int, seq: Iterable[int]):
        s = tuple(seq)
        if type(n) is not int:
            raise ValueError(f"n must be an int, got {n!r}")
        for x in s:
            if type(x) is not int:
                raise ValueError(f"sequence entry {x!r} is not an int")
        if n < 2:
            raise ValueError("Prufer codes are defined for n >= 2")
        if len(s) != n - 2:
            raise ValueError(f"expected a sequence of length {n - 2}, got {len(s)}")
        if any(not 1 <= x <= n for x in s):
            raise ValueError(f"sequence entries must lie in [1, {n}]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "seq", s)


@dataclass(frozen=True, init=False)
class RootedTree:
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


def _decode(n: int, seq: tuple[int, ...]) -> tuple[list[int], list[int]]:
    # Standard linear decode: repeatedly hang the smallest-available leaf from
    # the next sequence entry, and the last leaf from n.  That is the tree
    # rooted at n as a parent array (parent[n] = 0), plus the other nodes in
    # removal order, where every node comes before its parent.
    parent = [0] * (n + 1)
    deg = [1] * (n + 1)
    for x in seq:
        deg[x] += 1
    order = []
    idx = 1
    while deg[idx] != 1:
        idx += 1
    leaf = idx
    for x in seq:
        parent[leaf] = x
        order.append(leaf)
        deg[x] -= 1
        if deg[x] == 1 and x < idx:
            leaf = x
        else:
            idx += 1
            while deg[idx] != 1:
                idx += 1
            leaf = idx
    parent[leaf] = n
    order.append(leaf)
    return parent, order


def prufer_decode(code: PruferCode) -> tuple[tuple[int, int], ...]:
    """Edge set of the unrooted tree with the given Prufer sequence.

    Returns edges as (min, max) pairs in decode order: the edge of each
    removed leaf, then the last edge, which ends at n.
    """
    parent, order = _decode(code.n, code.seq)
    return tuple((x, parent[x]) if x < parent[x] else (parent[x], x) for x in order)


def prufer_encode(n: int, edges: Iterable[tuple[int, int]]) -> PruferCode:
    """Inverse of prufer_decode: the sequence of the tree with these edges.

    ValueError names the fault when the edges are not a tree on [n]: a label
    that is not an int, a label outside [1, n], a self-loop, a repeated edge,
    a wrong edge count, or an edge set that does not connect [n].
    """
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {n!r}")
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for a, b in edges:
        if type(a) is not int or type(b) is not int:
            raise ValueError(f"edge {(a, b)} has a label that is not an int")
        if a not in adj or b not in adj:
            raise ValueError(f"edge {(a, b)} has a label outside [1, {n}]")
        if a == b:
            raise ValueError(f"edge {(a, b)} is a self-loop")
        if b in adj[a]:
            raise ValueError(f"edge {(a, b)} is repeated")
        adj[a].add(b)
        adj[b].add(a)
    if sum(len(s) for s in adj.values()) != 2 * (n - 1):
        raise ValueError(f"expected {n - 1} edges for a tree on [{n}]")
    reached = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()] - reached:
            reached.add(w)
            stack.append(w)
    if len(reached) != n:
        raise ValueError(f"edges do not connect [{n}]")
    heap = [v for v in range(1, n + 1) if len(adj[v]) == 1]
    heapq.heapify(heap)
    seq = []
    for _ in range(n - 2):
        leaf = heapq.heappop(heap)
        (nbr,) = adj[leaf]
        seq.append(nbr)
        adj[nbr].discard(leaf)
        adj[leaf].clear()
        if len(adj[nbr]) == 1:
            heapq.heappush(heap, nbr)
    return PruferCode(n, seq)


def _rooted_blocks(n: int, cap: int) -> Iterator[tuple[int, list[list[int]]]]:
    # (root, parent arrays) of every rooted tree on [n], lexicographic in
    # (root, seq), unvalidated, one block per root and sequence prefix: the n
    # trees whose sequences differ in the last entry only (one tree per root
    # at n = 2).  Each sequence is decoded here, on a fresh list, and the
    # path from the root up to n is reversed in place.
    check_size("enumerate_rooted_trees", n, cap)
    if n == 1:
        yield 1, [[0, 0]]
        return
    labels = range(1, n + 1)
    lasts = [(x,) for x in labels] if n > 2 else [()]  # at n = 2, the empty sequence
    for root in labels:
        for prefix in product(labels, repeat=max(n - 3, 0)):
            counts = [1] * (n + 1)
            for x in prefix:
                counts[x] += 1
            block = []
            for last in lasts:
                deg = counts[:]
                for x in last:
                    deg[x] += 1
                parent = [0] * (n + 1)
                idx = 1
                while deg[idx] != 1:
                    idx += 1
                leaf = idx
                for x in prefix + last:
                    parent[leaf] = x
                    deg[x] -= 1
                    if deg[x] == 1 and x < idx:
                        leaf = x
                    else:
                        idx += 1
                        while deg[idx] != 1:
                            idx += 1
                        leaf = idx
                parent[leaf] = n  # the tree rooted at n, as _decode gives it
                child, x = 0, root
                while x:
                    up = parent[x]
                    parent[x] = child
                    child, x = x, up
                block.append(parent)
            yield root, block


def enumerate_rooted_trees(n: int, cap: int = DEFAULT_CAP) -> Iterator[RootedTree]:
    """Yield all n^(n-1) rooted trees on [n], lexicographic in (root, seq),
    each checked by RootedTree.

    Raises LimitExceededError above the cap; n=9 already means 43 million
    trees, so anything larger needs an explicit opt-in and patience.
    """
    for root, parents in _rooted_blocks(n, cap):
        for parent in parents:
            yield RootedTree(n, root, parent)


def des(t: RootedTree) -> int:
    """Number of non-root nodes whose parent has a larger label."""
    return sum(1 for x in range(1, t.n + 1) if t.parent[x] > x)


def complement(t: RootedTree) -> RootedTree:
    """Relabel every node i as n + 1 - i; an involution sending des to n - 1 - des."""
    n = t.n
    parent = [0] * (n + 1)
    for x in range(1, n + 1):
        p = t.parent[x]
        if p:
            parent[n + 1 - x] = n + 1 - p
    return RootedTree(n, n + 1 - t.root, parent)


def _descent_chunk(args: tuple[int, tuple[int, ...]]) -> list[int]:
    # des at root n, then at every other root by the +-1 rule in reverse
    # removal order, for each sequence extending the prefix
    n, prefix = args
    if n == 1:
        return [1]  # the one tree on [1] has no descent
    counts = [0] * n
    desv = [0] * (n + 1)
    for tail in product(range(1, n + 1), repeat=n - 2 - len(prefix)):
        parent, order = _decode(n, prefix + tail)
        d = sum(parent[x] > x for x in order)
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
    `threads` workers where the walk is large enough to pay for a pool.
    """
    check_size("descent_polynomial", n, cap)
    partials = map_prefixes(_descent_chunk, n, [range(1, n + 1)] * (n - 2), threads)
    return IntPolynomial([sum(col) for col in zip(*partials)])


def tree_to_json_dict(t: RootedTree) -> dict:
    """Edge-list form {"n":3,"root":2,"edges":[[2,1],[2,3]]}, edges sorted by child."""
    edges = [[t.parent[x], x] for x in range(1, t.n + 1) if x != t.root]
    return {"n": t.n, "root": t.root, "edges": edges}
