"""Labeled rooted trees on [n], their descent statistic, and its polynomial.

A rooted tree is stored as a parent array.  Enumeration runs over pairs
(root, Prufer sequence): the sequence fixes the unrooted tree, the root
orients it, and each of the n^(n-1) rooted trees appears exactly once.  The
descent polynomial tallies, for every tree, the number of non-root nodes
whose parent carries a larger label.

The full tally never materializes trees: one decode per sequence gives the
descent count at a reference root, and walking the tree updates the count by
plus or minus one per edge for every other root.  That keeps the n=8 run
(about two million trees) near a second and parallelizes by splitting on a
prefix of the sequence.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from ._pool import map_shards
from .errors import LimitExceededError
from .poly import IntPolynomial

DEFAULT_CAP = 9


@dataclass(frozen=True, init=False)
class PruferCode:
    """A Prufer sequence for a labeled unrooted tree on [n]; length n - 2."""

    n: int
    seq: tuple[int, ...]

    def __init__(self, n: int, seq: Iterable[int]):
        s = tuple(seq)
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
    is an unused sentinel.  Construction checks that the parent map is
    acyclic and covers exactly the n - 1 non-root nodes.
    """

    n: int
    root: int
    parent: tuple[int, ...]

    def __init__(self, n: int, root: int, parent: Iterable[int]):
        par = tuple(parent)
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


def prufer_decode(code: PruferCode) -> tuple[tuple[int, int], ...]:
    """Edge set of the unrooted tree with the given Prufer sequence.

    Returns edges as (min, max) pairs in decode order.  Standard linear
    decode: repeatedly attach the smallest-available leaf to the next
    sequence entry.
    """
    n = code.n
    if n == 2:
        return ((1, 2),)
    deg = [1] * (n + 1)
    for x in code.seq:
        deg[x] += 1
    edges = []
    idx = 1
    while deg[idx] != 1:
        idx += 1
    leaf = idx
    for x in code.seq:
        edges.append((leaf, x) if leaf < x else (x, leaf))
        deg[x] -= 1
        if deg[x] == 1 and x < idx:
            leaf = x
        else:
            idx += 1
            while deg[idx] != 1:
                idx += 1
            leaf = idx
    edges.append((leaf, n))
    return tuple(edges)


def prufer_encode(n: int, edges: Iterable[tuple[int, int]]) -> PruferCode:
    """Inverse of prufer_decode: the sequence of the tree with these edges.

    ValueError names the fault when the edges are not a tree on [n]: a label
    outside [1, n], a self-loop, a repeated edge, a wrong edge count, or an
    edge set that does not connect [n].
    """
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for a, b in edges:
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


def _adjacency(n: int, seq: tuple[int, ...]) -> list[list[int]]:
    # fused decode straight into adjacency lists
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    if n == 2:
        adj[1].append(2)
        adj[2].append(1)
        return adj
    deg = [1] * (n + 1)
    for x in seq:
        deg[x] += 1
    idx = 1
    while deg[idx] != 1:
        idx += 1
    leaf = idx
    for x in seq:
        adj[leaf].append(x)
        adj[x].append(leaf)
        deg[x] -= 1
        if deg[x] == 1 and x < idx:
            leaf = x
        else:
            idx += 1
            while deg[idx] != 1:
                idx += 1
            leaf = idx
    adj[leaf].append(n)
    adj[n].append(leaf)
    return adj


def _oriented_parent(n: int, adj: list[list[int]], root: int) -> tuple[int, ...]:
    parent = [0] * (n + 1)
    stack = [root]
    seen = [False] * (n + 1)
    seen[root] = True
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                stack.append(v)
    return tuple(parent)


def enumerate_rooted_trees(n: int, cap: int = DEFAULT_CAP) -> Iterator[RootedTree]:
    """Yield all n^(n-1) rooted trees on [n], lexicographic in (root, seq).

    Raises LimitExceededError above the cap; n=9 already means 43 million
    trees, so anything larger needs an explicit opt-in and patience.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > cap:
        raise LimitExceededError("enumerate_rooted_trees", n, cap)
    if n == 1:
        yield RootedTree(1, 1, (0, 0))
        return
    for root in range(1, n + 1):
        for seq in product(range(1, n + 1), repeat=n - 2):
            adj = _adjacency(n, seq)
            yield RootedTree(n, root, _oriented_parent(n, adj, root))


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


def _descent_counts_for_seq(n: int, seq: tuple[int, ...], counts: list[int]) -> None:
    # one decode, then des for every root via the +-1 edge rule
    adj = _adjacency(n, seq)
    des1 = 0
    stack = [(1, 0)]
    order = []
    while stack:
        u, p = stack.pop()
        order.append((u, p))
        for v in adj[u]:
            if v != p:
                if u > v:
                    des1 += 1
                stack.append((v, u))
    counts[des1] += 1
    desv = [0] * (n + 1)
    desv[1] = des1
    for u, p in order[1:]:
        d = desv[p] + (1 if u > p else -1)
        desv[u] = d
        counts[d] += 1


def _descent_chunk(args: tuple[int, tuple[int, ...]]) -> list[int]:
    n, prefix = args
    counts = [0] * n
    rest = n - 2 - len(prefix)
    for tail in product(range(1, n + 1), repeat=rest):
        _descent_counts_for_seq(n, prefix + tail, counts)
    return counts


def descent_polynomial(n: int, threads: int = 1, cap: int = DEFAULT_CAP) -> IntPolynomial:
    """Descent generating polynomial over all rooted trees on [n], by enumeration.

    Independent of the product form; this is the brute-force side of that
    identity.  threads > 1 splits the Prufer sequences by prefix across a
    process pool from n = 7 on; below that the serial pass is quicker than
    starting the pool.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > cap:
        raise LimitExceededError("descent_polynomial", n, cap)
    if n == 1:
        return IntPolynomial([1])
    if n == 2:
        return IntPolynomial([1, 1])
    if threads > 1 and n >= 7:
        plen = min(2, n - 2)
        tasks = [(n, prefix) for prefix in product(range(1, n + 1), repeat=plen)]
        partials = map_shards(_descent_chunk, tasks, threads)
        counts = [sum(col) for col in zip(*partials)]
        return IntPolynomial(counts)
    return IntPolynomial(_descent_chunk((n, ())))


def tree_to_json_dict(t: RootedTree) -> dict:
    """Edge-list form {"n":3,"root":2,"edges":[[2,1],[2,3]]}, edges sorted by child."""
    edges = [[t.parent[x], x] for x in range(1, t.n + 1) if x != t.root]
    return {"n": t.n, "root": t.root, "edges": edges}
