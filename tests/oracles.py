"""Per-object reference implementations that the tests hold the engines against.

Each function here reads one object, a rooted tree, a normalized binary tree
or a Stirling word, and computes its statistic from the definition.  The
package's engines compute the same statistics from tallies and incremental
rules, and none of them can reach this module: it is not in the package, and
tests/test_callers.py checks that no package module defines or imports any of
its names.  So a check of an engine against these functions compares two
independent computations.
"""

from __future__ import annotations

import hashlib
import heapq
from functools import cache
from math import comb
from typing import Iterable, Iterator, Sequence, Union

from gamma_forest import binary_trees
from gamma_forest.binary_trees import Tree, comb_type, valency
from gamma_forest.errors import check_size
from gamma_forest.poly import _Value
from gamma_forest.rooted_trees import RootedTree
from gamma_forest.stirling import Word


def double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def sha256_of(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Coefficient lists.  The package's value types carry no arithmetic, so a
# reference that needs polynomial sums and products builds them here.
# ---------------------------------------------------------------------------


def coeff_sum(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The coefficients of a + b, as long as the longer of the two."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def coeff_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The coefficients of a * b; empty when either is."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


# ---------------------------------------------------------------------------
# Rooted trees.
# ---------------------------------------------------------------------------


class PruferCode(_Value):
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


def prufer_decode(code: PruferCode) -> tuple[tuple[int, int], ...]:
    """Edge set of the unrooted tree with the given Prufer sequence.

    Returns edges as (min, max) pairs in decode order: the edge of each
    removed leaf, then the last edge, which ends at n.
    """
    # a heap of the current leaves, not the package's linear decode: the
    # smallest leaf hangs from the next entry, and n is never the smallest
    n, seq = code.n, code.seq
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x) if leaf < x else (x, leaf))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), n))
    return tuple(edges)


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


def tree_to_json_dict(t: RootedTree) -> dict:
    """Edge-list form {"n":3,"root":2,"edges":[[2,1],[2,3]]}, edges sorted by child."""
    edges = [[t.parent[x], x] for x in range(1, t.n + 1) if x != t.root]
    return {"n": t.n, "root": t.root, "edges": edges}


def rooted_descents(k: int, i: int) -> tuple[int, ...]:
    """A(k, i): the descent polynomial of the rooted trees on [k] with root i,
    as its k ascending coefficients, from the root-deletion recurrence.

    Deleting the root leaves a forest.  A component's descents depend only
    on the relative order of its labels, and its root adds a descent exactly
    when it lies below i, so A(k, i) = G(i - 1, k - i) (see _forests).  It
    reads neither the product form nor a Prufer decode, and calls nothing
    from the package.
    """
    return _forests(i - 1, k - i)


def rooted_descents_total(n: int) -> tuple[int, ...]:
    """T_n(t), the sum of rooted_descents(n, i) over the roots i, as its n
    ascending coefficients."""
    return _component(n, 0)[:n]


@cache
def _forests(a: int, b: int) -> tuple[int, ...]:
    # G(a, b): rooted forests on a low labels below b high ones, with t per
    # internal descent and per low component root.  Expand by the component
    # holding the smallest label: with a > 0 it is low and takes j more low
    # labels and l high ones, else it is high and takes l more high ones.
    if a == b == 0:
        return (1,)
    acc = [0] * (a + b + 1)
    if a:
        terms = [(comb(a - 1, j) * comb(b, l), 1 + j + l, 1 + j, a - 1 - j, b - l) for j in range(a) for l in range(b + 1)]
    else:
        terms = [(comb(b - 1, l), 1 + l, 0, 0, b - 1 - l) for l in range(b)]
    for c, s, low, ra, rb in terms:
        g = _forests(ra, rb)
        for e, x in enumerate(_component(s, low)):
            cx = c * x
            for f, y in enumerate(g, e):
                acc[f] += cx * y
    return tuple(acc)


@cache
def _component(s: int, low: int) -> tuple[int, ...]:
    # H(s, low): the rooted trees on [s] whose labels 1..low lie below the
    # forest's root, with t per descent and a further t when the root is one
    # of them
    acc = [0] * (s + 1)
    for p in range(1, s + 1):
        for e, x in enumerate(rooted_descents(s, p)):
            acc[e + (p <= low)] += x
    return tuple(acc)


# ---------------------------------------------------------------------------
# Normalized binary trees.
# ---------------------------------------------------------------------------


def rdes(t: Tree) -> int:
    """Number of internal nodes that are right children."""
    count = 0
    stack = [(t, False)]
    while stack:
        node, is_right = stack.pop()
        if isinstance(node, int):
            continue
        if is_right:
            count += 1
        stack.append((node[0], False))
        stack.append((node[1], True))
    return count


def is_ndrd(t: Tree) -> bool:
    """True iff no right descent has a parent that is also a right descent."""
    stack = [(t, False, False)]
    while stack:
        node, is_right, parent_rd = stack.pop()
        if isinstance(node, int):
            continue
        if is_right and parent_rd:
            return False
        stack.append((node[0], False, is_right))
        stack.append((node[1], True, is_right))
    return True


def _lyn_profile(t: Tree) -> tuple[int, int, bool, bool]:
    # returns (valency, nlyn, has double non-Lyndon, root is non-Lyndon)
    if isinstance(t, int):
        return t, 0, False, False
    left, right = t
    lv, lnl, ldnl, l_nonlyn = _lyn_profile(left)
    rv, rnl, rdnl, _ = _lyn_profile(right)
    if isinstance(left, int):
        nonlyn = False
    else:
        nonlyn = not (valency(left[1]) > rv)
    nl = lnl + rnl + (1 if nonlyn else 0)
    dnl = ldnl or rdnl or (nonlyn and l_nonlyn)
    return lv, nl, dnl, nonlyn


def nlyn(t: Tree) -> int:
    """Number of non-Lyndon internal nodes.

    x is Lyndon when its left child is a leaf, or when
    valency(R(L(x))) > valency(R(x)); nlyn counts the others.
    """
    return _lyn_profile(t)[1]


def is_ndnl(t: Tree) -> bool:
    """True iff no non-Lyndon node is the left child of a non-Lyndon node."""
    return not _lyn_profile(t)[2]


def free_count(t: Tree) -> int:
    """Internal nodes that are not right descents and whose right child is a leaf."""
    count = 0
    stack = [(t, False)]
    while stack:
        node, is_right = stack.pop()
        if isinstance(node, int):
            continue
        if not is_right and isinstance(node[1], int):
            count += 1
        stack.append((node[0], False))
        stack.append((node[1], True))
    return count


def normalized_rows(n: int, stat: str, cap: int = binary_trees.DEFAULT_CAP) -> Iterator[tuple[str, object]]:
    """(tree_to_string(t), statistic of t) for the normalized trees on [n], in
    enumerate_normalized order: a flat view of _row_blocks."""
    for trees, values in binary_trees._row_blocks(n, stat, cap):
        yield from zip(trees, values)


def _preorder_nodes(left: list, right: list, root: int) -> list[int]:
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        if v & 1:
            stack.append(right[v])
            stack.append(left[v])
    return order


def _walk(n: int) -> Iterator[tuple[tuple[list, ...], int, int, tuple[int, ...]]]:
    """Yield (arrays, nodes, root, key) for each normalized tree on [n - 1],
    n >= 2, in enumerate_normalized order: its arrays (right, parent,
    is_right, nonlyn), which hold the tree only until the walk resumes, node
    count, root and joint key.  Leaf m goes in at the nodes of the tree on
    [m - 1] in preorder, the order of _insertions.  The walk keeps each tree's
    joint key with binary_trees._child_keys, tree by tree, and backtracks over
    flat arrays indexed by creation order: node 0 is leaf 1, and inserting
    leaf m adds internal node 2m - 3 and leaf node 2m - 2.  It is the
    tree-by-tree reference for the class tally, which reads the same
    _child_keys once per class.
    """
    size = 2 * n - 1
    left = [-1] * size  # for _preorder_nodes; _child_keys reads no left child
    arrays = right, parent, is_right, nonlyn = [-1] * size, [-1] * size, [False] * size, [False] * size

    def rec(m: int, nodes: int, root: int, key: tuple[int, ...]) -> Iterator:
        # the arrays hold a tree on [m - 1]
        if m == n:
            yield arrays, nodes, root, key
            return
        keys = binary_trees._child_keys(arrays, nodes, key)
        x = nodes
        right[x] = x + 1
        parent[x + 1] = x
        is_right[x + 1] = True
        for v in _preorder_nodes(left, right, root):
            p = parent[v]
            v_right = is_right[v]
            left[x] = v
            parent[x] = p
            is_right[x] = v_right
            nonlyn[x] = v & 1  # R(x) is the maximum label
            parent[v] = x
            is_right[v] = False
            if p >= 0:
                p_nonlyn = nonlyn[p]
                if v_right:
                    right[p] = x
                else:
                    left[p] = x
                    nonlyn[p] = False
            yield from rec(m + 1, nodes + 2, root if p >= 0 else x, keys[v])
            parent[v] = p
            is_right[v] = v_right
            if p >= 0:
                if v_right:
                    right[p] = v
                else:
                    left[p] = v
                    nonlyn[p] = p_nonlyn

    yield from rec(2, 1, 0, (0, 0, 0, 0, 0))


def product_form_count(t: Tree, k: int) -> int:
    """Number of admissible colorings of one tree with colors in [1, k].

    Within each maximal right-child chain the colors are distinct and forced
    into decreasing order, so each block of size L contributes C(k, L).
    """
    check_size("product_form_count", k, name="k")
    result = 1
    for part in comb_type(t):
        result *= comb(k, part)
    return result


# ---------------------------------------------------------------------------
# Stirling words.
# ---------------------------------------------------------------------------


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
        if c in first:
            if c in second:
                raise MalformedWordError(f"letter {c} appears more than twice")
            second[c] = i
        else:
            first[c] = i
    if len(second) < len(first):
        missing = sorted(set(first) - set(second))
        raise MalformedWordError(f"letters {missing} appear only once")
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


def _pairs(word: Union[str, Iterable[int]]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The ascending adjacent pairs (a, b) of a word and its terminally nested
    ones, from one validated scan of its occurrences; MalformedWordError
    unless each letter appears twice."""
    w = as_word(word)
    first, second = _occurrences(w)
    end = len(w) - 1
    ascending = []
    nested = []
    for a, j in second.items():
        # the letter c right after a's second occurrence: its first occurrence
        # makes the ascending pair (a, c) when a < c, its second one the
        # terminally nested pair (c, a) when c < a
        if j < end:
            c = w[j + 1]
            if a < c:
                if first[c] == j + 1:
                    ascending.append((a, c))
            elif second[c] == j + 1:
                nested.append((c, a))
    return ascending, nested


def aapair(word: Union[str, Iterable[int]]) -> int:
    """Number of pairs a < b whose occurrences satisfy second(a) + 1 = first(b)."""
    return len(_pairs(word)[0])


def tnpair(word: Union[str, Iterable[int]]) -> int:
    """Number of pairs a < b whose occurrences satisfy second(a) = second(b) + 1."""
    return len(_pairs(word)[1])


def is_naas(word: Union[str, Iterable[int]]) -> bool:
    """True iff no chain a < b < c of two ascending adjacent pairs exists."""
    pairs = _pairs(word)[0]
    return not {a for a, _ in pairs} & {b for _, b in pairs}


def is_ntns(word: Union[str, Iterable[int]]) -> bool:
    """True iff no chain a < b < c of two terminally nested pairs exists."""
    pairs = _pairs(word)[1]
    return not {a for a, _ in pairs} & {b for _, b in pairs}


def word_to_string(w: Sequence[int]) -> str:
    """Digit string when all letters are single digits, else comma separated;
    the tests' oracle of the strings the rows splice (stirling._row_blocks)."""
    if all(0 <= c <= 9 for c in w):
        return "".join(str(c) for c in w)
    return ",".join(str(c) for c in w)
