"""Normalized leaf-labeled binary trees, their statistics, and colorings.

A tree is either a leaf, written as its integer label, or an internal node,
written as a pair (left, right).  Normalized means that in every subtree the
minimum label sits in the left child's subtree, equivalently at the leftmost
leaf.  Every normalized tree on [n] arises exactly once by inserting leaf n
at one of the 2n - 3 nodes of a normalized tree on [n - 1]: the chosen node
drops to the left child of a new internal node whose right child is the new
leaf.  Insertion never breaks normalization because the new label is the
maximum.

Statistics:
  rdes        internal nodes that are right children
  double rd   a right descent whose parent is one as well (NDRD = none)
  nlyn        internal nodes x with internal left child where
              valency(R(L(x))) <= valency(R(x)); nodes with a leaf left
              child never count
  double nl   non-Lyndon left child of a non-Lyndon parent (NDNL = none)
  free        internal nodes that are not right descents and whose right
              child is a leaf
  comb type   partition of n - 1 by sizes of maximal chains of internal
              nodes linked by right-child edges

Distribution queries run on a backtracking array engine that maintains all
five statistics incrementally across insertions, so a full pass over the two
million trees at n=9 takes seconds.  JOINT_KEY, the one place that names the
positions of a tally key, is read by the views of one tally: marginal, the
gamma vectors ndrd_rdes and ndnl_nlyn, and the censuses comb_census and
lyndon_census.  distribution_ndrd_rdes, distribution_ndnl_nlyn,
bicolored_comb_census and bicolored_lyndon_census each apply one view to a
fresh tally.  The per-tree functions below are independent implementations
used to cross-check the engine.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product
from typing import Iterator, Union

from ._pool import map_shards
from .errors import LimitExceededError
from .poly import GammaVector, IntPolynomial, add_binomial_row

Tree = Union[int, tuple]

DEFAULT_CAP = 10
COLORED_CAP_N = 8
COLORED_CAP_K = 5

# Positions of the statistics in a joint_statistics key.
JOINT_KEY = {"rdes": 0, "drd": 1, "nlyn": 2, "dnl": 3, "free": 4}


def leaf_count(t: Tree) -> int:
    if isinstance(t, int):
        return 1
    return leaf_count(t[0]) + leaf_count(t[1])


def node_count(t: Tree) -> int:
    """Total node count, leaves plus internal: 2 * leaves - 1."""
    if isinstance(t, int):
        return 1
    return node_count(t[0]) + node_count(t[1]) + 1


def insert_leaf(t: Tree, pos: int, label: int) -> Tree:
    """Replace the node at preorder position pos by (that node, leaf label)."""
    if pos == 0:
        return (t, label)
    if isinstance(t, int):
        raise ValueError("preorder position out of range")
    left, right = t
    ls = node_count(left)
    if pos - 1 < ls:
        return (insert_leaf(left, pos - 1, label), right)
    return (left, insert_leaf(right, pos - 1 - ls, label))


def enumerate_normalized(n: int, cap: int = DEFAULT_CAP) -> Iterator[Tree]:
    """Yield every normalized tree on [n] exactly once; (2n-3)!! of them for n >= 2."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > cap:
        raise LimitExceededError("enumerate_normalized", n, cap)

    def rec(m: int) -> Iterator[Tree]:
        if m == 1:
            yield 1
            return
        for t in rec(m - 1):
            for pos in range(2 * (m - 1) - 1):
                yield insert_leaf(t, pos, m)

    yield from rec(n)


def valency(t: Tree) -> int:
    """Minimum leaf label of a (sub)tree; the leftmost leaf when normalized."""
    while not isinstance(t, int):
        t = t[0]
    return t


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


def comb_type(t: Tree) -> tuple[int, ...]:
    """Partition of the internal-node count by maximal right-child chains."""
    if isinstance(t, int):
        return ()
    parts = []
    # chain heads are internal nodes that are not right children
    stack = [(t, False)]
    while stack:
        node, is_right = stack.pop()
        if isinstance(node, int):
            continue
        if not is_right:
            length = 1
            cur = node[1]
            while not isinstance(cur, int):
                length += 1
                cur = cur[1]
            parts.append(length)
        stack.append((node[0], False))
        stack.append((node[1], True))
    return tuple(sorted(parts, reverse=True))


def tree_to_string(t: Tree) -> str:
    """Nested parenthesized form, e.g. "(1,(2,3))"."""
    if isinstance(t, int):
        return str(t)
    return f"({tree_to_string(t[0])},{tree_to_string(t[1])})"


def tree_from_string(s: str) -> Tree:
    """Inverse of tree_to_string; ValueError with the position on malformed
    or truncated input.

    Parses with an explicit stack, so any depth reads.  The stack holds one
    entry per open pair: None while its left part is being read, the left
    subtree once the comma is passed.
    """
    pos = 0

    def expect(ch: str) -> None:
        nonlocal pos
        if s[pos : pos + 1] != ch:  # empty past the end
            raise ValueError(f"expected {ch!r} at position {pos} in {s!r}")
        pos += 1

    stack: list = []
    while True:
        while s[pos : pos + 1] == "(":
            stack.append(None)
            pos += 1
        start = pos
        while pos < len(s) and s[pos].isdecimal():
            pos += 1
        if start == pos:
            raise ValueError(f"expected a label at position {pos} in {s!r}")
        node: Tree = int(s[start:pos])
        while stack and stack[-1] is not None:
            expect(")")
            node = (stack.pop(), node)
        if not stack:
            break
        expect(",")
        stack[-1] = node
    if pos != len(s):
        raise ValueError(f"trailing input at position {pos} in {s!r}")
    return node


class _InternalInfo:
    """Structure table over internal nodes in left-to-right (in-order) order."""

    __slots__ = ("nodes", "parent", "is_right", "right_child", "left_child", "nonlyn")

    def __init__(self, t: Tree):
        nodes: list[tuple] = []

        def inorder(node: Tree) -> None:
            if isinstance(node, int):
                return
            inorder(node[0])
            nodes.append(node)
            inorder(node[1])

        inorder(t)
        index = {id(node): i for i, node in enumerate(nodes)}
        m = len(nodes)
        self.nodes = nodes
        self.parent = [-1] * m
        self.is_right = [False] * m
        self.right_child = [-1] * m
        self.left_child = [-1] * m
        self.nonlyn = [False] * m
        for i, node in enumerate(nodes):
            left, right = node
            if not isinstance(left, int):
                j = index[id(left)]
                self.left_child[i] = j
                self.parent[j] = i
                self.nonlyn[i] = not (valency(left[1]) > valency(right))
            if not isinstance(right, int):
                j = index[id(right)]
                self.right_child[i] = j
                self.parent[j] = i
                self.is_right[j] = True


def enumerate_bicolored_combs(
    n: int, cap: int = DEFAULT_CAP
) -> Iterator[tuple[Tree, tuple[int, ...]]]:
    """All (tree, {0,1} coloring) pairs where every right descent is colored 0
    under a parent colored 1.

    Colorings are tuples over internal nodes in left-to-right order.  Trees
    with a double right descent admit no coloring, so the underlying trees
    have no double right descents, and each contributes 2^free pairs.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > cap:
        raise LimitExceededError("enumerate_bicolored_combs", n, cap)
    for t in enumerate_normalized(n, cap):
        info = _InternalInfo(t)
        m = len(info.nodes)
        colors: list[int] = [-1] * m
        conflict = False
        for i in range(m):
            if info.is_right[i] and info.right_child[i] >= 0:
                conflict = True  # forced 0 as a right descent, forced 1 as its parent
                break
        if conflict:
            continue
        free_slots = []
        for i in range(m):
            if info.is_right[i]:
                colors[i] = 0
            elif info.right_child[i] >= 0:
                colors[i] = 1
            else:
                free_slots.append(i)
        for bits in product((0, 1), repeat=len(free_slots)):
            for slot, b in zip(free_slots, bits):
                colors[slot] = b
            yield t, tuple(colors)


def enumerate_bicolored_lyndon(
    n: int, cap: int = DEFAULT_CAP
) -> Iterator[tuple[Tree, tuple[int, ...]]]:
    """All (tree, {0,1} coloring) pairs where every non-Lyndon node is colored 0
    and its left child is colored 1.

    A conflicted tree is exactly one with a double non-Lyndon pair, so the
    underlying trees are the NDNL ones.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > cap:
        raise LimitExceededError("enumerate_bicolored_lyndon", n, cap)
    for t in enumerate_normalized(n, cap):
        info = _InternalInfo(t)
        m = len(info.nodes)
        colors: list[int] = [-1] * m
        conflict = False
        for i in range(m):
            if info.nonlyn[i] and info.nonlyn[info.left_child[i]]:
                conflict = True
                break
        if conflict:
            continue
        forced: set[int] = set()
        for i in range(m):
            if info.nonlyn[i]:
                colors[i] = 0
                colors[info.left_child[i]] = 1
                forced.add(i)
                forced.add(info.left_child[i])
        free_slots = [i for i in range(m) if i not in forced]
        for bits in product((0, 1), repeat=len(free_slots)):
            for slot, b in zip(free_slots, bits):
                colors[slot] = b
            yield t, tuple(colors)


def _chains(info: _InternalInfo) -> list[list[int]]:
    chains = []
    for i in range(len(info.nodes)):
        if not info.is_right[i]:
            chain = [i]
            j = info.right_child[i]
            while j >= 0:
                chain.append(j)
                j = info.right_child[j]
            chains.append(chain)
    return chains


def enumerate_colored_combs(
    n: int, k: int, cap_n: int = COLORED_CAP_N, cap_k: int = COLORED_CAP_K
) -> Iterator[tuple[Tree, tuple[int, ...]]]:
    """All (tree, coloring) pairs with colors in [1, k] that strictly decrease
    along right-child edges between internal nodes.

    Within each maximal right-child chain the colors are distinct and their
    arrangement is forced, so a chain of length L contributes C(k, L)
    choices; chains are independent.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    if n > cap_n:
        raise LimitExceededError("enumerate_colored_combs", n, cap_n)
    if k > cap_k:
        raise LimitExceededError("enumerate_colored_combs (colors)", k, cap_k)
    palette = range(1, k + 1)
    for t in enumerate_normalized(n, cap_n):
        info = _InternalInfo(t)
        chains = _chains(info)
        if any(len(c) > k for c in chains):
            continue
        m = len(info.nodes)
        per_chain = [list(combinations(palette, len(c))) for c in chains]
        colors = [0] * m
        for pick in product(*per_chain):
            for chain, chosen in zip(chains, pick):
                # head gets the largest color, descending along the chain
                for node_idx, color in zip(chain, reversed(chosen)):
                    colors[node_idx] = color
            yield t, tuple(colors)


# ---------------------------------------------------------------------------
# Incremental statistics engine.
#
# State lives in flat arrays indexed by creation order: node 0 is leaf 1, and
# inserting leaf m at node v adds internal node x (taking v's slot, with v as
# left child) and leaf node lf.  All five statistics admit local updates
# because the inserted leaf carries the largest label: no valency below the
# insertion point changes, so only v, its parent p, and the new nodes can
# change status.
# ---------------------------------------------------------------------------


def _joint_tally(n: int, prefix: tuple[int, ...]) -> Counter:
    """Counter over (rdes, drd, nlyn, dnl, free) for all normalized trees on [n]
    whose first insertion choices follow prefix (positions for leaves 3, 4, ...)."""
    tally: Counter = Counter()
    if n == 1:
        tally[(0, 0, 0, 0, 0)] += 1
        return tally
    size = 2 * n - 1
    left = [-1] * size
    right = [-1] * size
    parent = [-1] * size
    is_right = [False] * size
    internal = [False] * size
    nonlyn = [False] * size

    def rec(m: int, nodes: int, r: int, d: int, nl: int, dl: int, fr: int) -> None:
        if m > n:
            tally[(r, d, nl, dl, fr)] += 1
            return
        if 0 <= m - 3 < len(prefix):
            candidates: range | tuple[int, ...] = (prefix[m - 3],)
        else:
            candidates = range(nodes)
        x = nodes
        lf = nodes + 1
        for v in candidates:
            p = parent[v]
            v_int = internal[v]
            v_right = is_right[v]
            v_nonlyn = nonlyn[v]
            d_r = 0
            d_d = 0
            if v_right:
                # x replaces v as the right child; rdes moves from v to x
                d_r = 1 - (1 if v_int else 0)
                if not v_int:
                    if p >= 0 and is_right[p]:
                        d_d += 1  # new double pair (x, p)
                elif internal[right[v]]:
                    d_d -= 1  # v stops being a right descent over R(v)
            # x is non-Lyndon iff its left child v is internal: R(x) is the
            # new leaf, the current maximum, so the Lyndon inequality fails
            d_nl = 1 if v_int else 0
            d_dl = 1 if v_nonlyn else 0  # pair (v, x) forms iff v was non-Lyndon
            p_was_nonlyn = False
            if p >= 0 and not v_right:
                # R(x) is the maximum label, so p turns Lyndon when we insert
                # at its left child
                p_was_nonlyn = nonlyn[p]
                if p_was_nonlyn:
                    d_nl -= 1
                    if v_nonlyn:
                        d_dl -= 1  # pair (v, p) dissolves
                    p2 = parent[p]
                    if p2 >= 0 and not is_right[p] and nonlyn[p2]:
                        d_dl -= 1  # pair (p, p2) dissolves
            d_f = 0
            if not v_right:
                d_f += 1  # x sits in a non-right slot with a leaf right child
            if v_int and v_right and not internal[right[v]]:
                d_f += 1  # v moves to a left slot, keeping its leaf right child
            if not v_int and v_right and p >= 0 and not is_right[p]:
                d_f -= 1  # p's right child was leaf v and is now internal x
            # apply
            left[x] = v
            right[x] = lf
            parent[x] = p
            is_right[x] = v_right
            internal[x] = True
            nonlyn[x] = v_int
            parent[v] = x
            is_right[v] = False
            parent[lf] = x
            is_right[lf] = True
            internal[lf] = False
            nonlyn[lf] = False
            if p >= 0:
                if v_right:
                    right[p] = x
                else:
                    left[p] = x
            if p_was_nonlyn:
                nonlyn[p] = False
            rec(m + 1, nodes + 2, r + d_r, d + d_d, nl + d_nl, dl + d_dl, fr + d_f)
            # undo
            parent[v] = p
            is_right[v] = v_right
            if p >= 0:
                if v_right:
                    right[p] = v
                else:
                    left[p] = v
            if p_was_nonlyn:
                nonlyn[p] = True

    rec(2, 1, 0, 0, 0, 0, 0)
    return tally


def _tally_task(args: tuple[int, tuple[int, ...]]) -> Counter:
    return _joint_tally(*args)


def joint_statistics(n: int, threads: int = 1, cap: int = DEFAULT_CAP) -> Counter:
    """Tally of (rdes, double-rd count, nlyn, double-nl count, free) over all
    normalized trees on [n], positions as in JOINT_KEY.  threads > 1 spreads
    prefix shards over a process pool from n = 8 on; below that the serial
    pass is faster than the pool's start."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > cap:
        raise LimitExceededError("joint_statistics", n, cap)
    if threads > 1 and n >= 8:
        levels: list[range] = []
        width = 1
        m = 3
        while width < 4 * threads and m <= n:
            levels.append(range(2 * m - 3))
            width *= 2 * m - 3
            m += 1
        tasks = [(n, prefix) for prefix in product(*levels)]
        total: Counter = Counter()
        for part in map_shards(_tally_task, tasks, threads):
            total.update(part)
        return total
    return _joint_tally(n, ())


def marginal(tally: Counter, stat: str) -> dict:
    """Counts of a joint_statistics tally by one statistic of JOINT_KEY."""
    i = JOINT_KEY[stat]
    out: dict = {}
    for key, c in tally.items():
        out[key[i]] = out.get(key[i], 0) + c
    return out


def _gamma_view(tally: Counter, n: int, stat: str, double: str) -> GammaVector:
    # counts of the trees on [n] with no double pair, by stat
    i, j = JOINT_KEY[stat], JOINT_KEY[double]
    counts = [0] * ((n - 1) // 2 + 1)
    for key, c in tally.items():
        if key[j] == 0:
            counts[key[i]] += c
    return GammaVector(counts, n - 1)


def ndrd_rdes(tally: Counter, n: int) -> GammaVector:
    """Counts of trees without double right descents by rdes, read off the
    joint_statistics tally of the trees on [n], as a GammaVector of degree n - 1."""
    return _gamma_view(tally, n, "rdes", "drd")


def ndnl_nlyn(tally: Counter, n: int) -> GammaVector:
    """Counts of trees without double non-Lyndon pairs by nlyn, read off the
    joint_statistics tally of the trees on [n], as a GammaVector of degree n - 1."""
    return _gamma_view(tally, n, "nlyn", "dnl")


def comb_census(tally: Counter) -> IntPolynomial:
    """Bicolored comb counts by number of 1-colored nodes, from a
    joint_statistics tally.

    Forced colors contribute t^rdes per tree and each free node doubles into
    a (1 + t) factor; summed over trees without double right descents.
    """
    r, d, f = JOINT_KEY["rdes"], JOINT_KEY["drd"], JOINT_KEY["free"]
    out: list[int] = []
    for key, c in tally.items():
        if key[d] == 0:
            add_binomial_row(out, c, key[r], key[f])
    return IntPolynomial(out)


def lyndon_census(tally: Counter, n: int) -> IntPolynomial:
    """Bicolored Lyndon-tree counts by number of 1-colored nodes, from the
    joint_statistics tally of the trees on [n].

    Each tree without double non-Lyndon pairs forces nlyn zeros and nlyn
    ones, all distinct, leaving n - 1 - 2*nlyn nodes free.
    """
    nl, dl = JOINT_KEY["nlyn"], JOINT_KEY["dnl"]
    out: list[int] = []
    for key, c in tally.items():
        if key[dl] == 0:
            add_binomial_row(out, c, key[nl], n - 1 - 2 * key[nl])
    return IntPolynomial(out)


def distribution_ndrd_rdes(n: int, threads: int = 1, cap: int = DEFAULT_CAP) -> GammaVector:
    """ndrd_rdes of the trees on [n]."""
    return ndrd_rdes(joint_statistics(n, threads, cap), n)


def distribution_ndnl_nlyn(n: int, threads: int = 1, cap: int = DEFAULT_CAP) -> GammaVector:
    """ndnl_nlyn of the trees on [n]."""
    return ndnl_nlyn(joint_statistics(n, threads, cap), n)


def bicolored_comb_census(n: int, threads: int = 1, cap: int = DEFAULT_CAP) -> IntPolynomial:
    """comb_census of the trees on [n]."""
    return comb_census(joint_statistics(n, threads, cap))


def bicolored_lyndon_census(n: int, threads: int = 1, cap: int = DEFAULT_CAP) -> IntPolynomial:
    """lyndon_census of the trees on [n]."""
    return lyndon_census(joint_statistics(n, threads, cap), n)


# ---------------------------------------------------------------------------
# Insertion rows engine.
#
# Rows come in enumerate_normalized order: every tree on [n - 1], and under
# it the insertions of leaf n at its nodes in preorder.  One pass over the
# parent gives its string, each node's span in that string, and the parent's
# statistic; each child then costs one string splice and the local change of
# the statistic that the joint tally's update rules describe.
# ---------------------------------------------------------------------------

ROW_STATS = ("rdes", "nlyn", "free", "combtype")

# per node of the preorder pass
_START, _END, _RIGHT, _PARENT, _LEFT_CHILD, _RIGHT_CHILD, _VALENCY = range(7)


def _preorder(t: Tree) -> tuple[str, list[list]]:
    """tree_to_string(t), and per node in preorder [start, end, is_right,
    parent, left child, right child, valency]; children are -1 at a leaf."""
    parts: list[str] = []
    nodes: list[list] = []
    pos = 0

    def walk(node: Tree, parent: int, is_right: bool) -> None:
        nonlocal pos
        rec = [pos, 0, is_right, parent, -1, -1, node]
        me = len(nodes)
        nodes.append(rec)
        if isinstance(node, int):  # its own valency, set above
            label = str(node)
            parts.append(label)
            pos += len(label)
        else:
            parts.append("(")
            pos += 1
            rec[_LEFT_CHILD] = len(nodes)
            walk(node[0], me, False)
            parts.append(",")
            pos += 1
            rec[_RIGHT_CHILD] = len(nodes)
            walk(node[1], me, True)
            parts.append(")")
            pos += 1
            rec[_VALENCY] = nodes[me + 1][_VALENCY]
        rec[_END] = pos

    walk(t, -1, False)
    return "".join(parts), nodes


def _comb_splits(nodes: list[list]) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """The comb type of the tree, and per node the (L, a) by which inserting
    there edits it: a part L becomes a + 1 and L - a, zero parts dropped.

    A node that is not a right child gives (0, 0): the new internal node heads
    a chain of its own.  A right child at depth a of a chain of length L
    splits that chain below its parent; a leaf right child, at depth L, makes
    the chain one longer.
    """
    chain = [0] * len(nodes)  # chain head of each internal node
    depth = [0] * len(nodes)
    lengths: dict[int, int] = {}
    for i, rec in enumerate(nodes):
        if rec[_LEFT_CHILD] >= 0:
            head = chain[rec[_PARENT]] if rec[_RIGHT] else i
            chain[i] = head
            depth[i] = depth[rec[_PARENT]] + 1 if rec[_RIGHT] else 0
            lengths[head] = depth[i] + 1
    splits = []
    for i, rec in enumerate(nodes):
        if not rec[_RIGHT]:
            splits.append((0, 0))
        else:
            length = lengths[chain[rec[_PARENT]]]
            splits.append((length, depth[i] if rec[_LEFT_CHILD] >= 0 else length))
    return tuple(sorted(lengths.values(), reverse=True)), splits


def _split(parts: tuple[int, ...], length: int, a: int) -> tuple[int, ...]:
    out = list(parts)
    if length:
        out.remove(length)
    out.append(a + 1)
    if length > a:
        out.append(length - a)
    return tuple(sorted(out, reverse=True))


def _child_stats(nodes: list[list], stat: str, splits: dict) -> list:
    """The statistic of each tree made by inserting the new maximum leaf at a
    node of this tree, in preorder.  splits memoizes comb-type edits."""
    if stat == "combtype":
        parts, edits = _comb_splits(nodes)
        out = []
        for length, a in edits:
            key = (parts, length, a)
            child = splits.get(key)
            if child is None:
                child = splits[key] = _split(parts, length, a)
            out.append(child)
        return out
    internal = [rec[_LEFT_CHILD] >= 0 for rec in nodes]
    if stat == "rdes":
        total = sum(1 for i, rec in enumerate(nodes) if internal[i] and rec[_RIGHT])
        return [total + (rec[_RIGHT] and not internal[i]) for i, rec in enumerate(nodes)]
    if stat == "free":
        frees = [
            internal[i] and not rec[_RIGHT] and not internal[rec[_RIGHT_CHILD]]
            for i, rec in enumerate(nodes)
        ]
        total = sum(frees)
        out = []
        for i, rec in enumerate(nodes):
            if not rec[_RIGHT]:
                out.append(total + 1)  # the new node is free
            elif internal[i]:
                # the node moves to a left slot, keeping its right child
                out.append(total + (not internal[rec[_RIGHT_CHILD]]))
            else:
                # the parent's right child stops being a leaf
                out.append(total - frees[rec[_PARENT]])
        return out
    # nlyn: x is non-Lyndon iff its left child is internal and
    # valency(R(L(x))) <= valency(R(x))
    nonlyn = [
        internal[i]
        and internal[rec[_LEFT_CHILD]]
        and nodes[nodes[rec[_LEFT_CHILD]][_RIGHT_CHILD]][_VALENCY] <= nodes[rec[_RIGHT_CHILD]][_VALENCY]
        for i, rec in enumerate(nodes)
    ]
    total = sum(nonlyn)
    # the new node is non-Lyndon iff the node it takes over is internal; the
    # parent of a left child turns Lyndon, as R(L(parent)) is now the maximum
    return [
        total + internal[i] - (not rec[_RIGHT] and rec[_PARENT] >= 0 and nonlyn[rec[_PARENT]])
        for i, rec in enumerate(nodes)
    ]


def _parent_trees(n: int, cap: int, caller: str) -> Iterator[Tree]:
    # the trees on [n - 1] whose insertions give the trees on [n], in order;
    # none for n = 1
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > cap:
        raise LimitExceededError(caller, n, cap)
    return enumerate_normalized(n - 1, cap) if n > 1 else iter(())


def normalized_rows(n: int, stat: str, cap: int = DEFAULT_CAP) -> Iterator[tuple[str, object]]:
    """(tree_to_string(t), statistic of t) for the normalized trees on [n], in
    enumerate_normalized order.

    stat is one of ROW_STATS; comb types are partitions as in comb_type.
    """
    if stat not in ROW_STATS:
        raise ValueError(f"unknown statistic {stat!r}; choose from {', '.join(ROW_STATS)}")
    parents = _parent_trees(n, cap, "normalized_rows")
    if n == 1:
        yield "1", () if stat == "combtype" else 0
    leaf = f",{n})"
    splits: dict = {}
    for t in parents:
        s, nodes = _preorder(t)
        for rec, value in zip(nodes, _child_stats(nodes, stat, splits)):
            a, b = rec[_START], rec[_END]
            yield s[:a] + "(" + s[a:b] + leaf + s[b:], value


def comb_type_tally(n: int, cap: int = DEFAULT_CAP) -> Counter:
    """Counter of comb types over all normalized trees on [n]."""
    parents = _parent_trees(n, cap, "comb_type_tally")
    tally: Counter = Counter({(): 1} if n == 1 else {})
    splits: dict = {}
    for t in parents:
        tally.update(_child_stats(_preorder(t)[1], "combtype", splits))
    return tally
