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

joint_statistics and normalized_rows run on one walker: it backtracks over
flat arrays, yielding every tree on [n - 1] with its five statistics
maintained incrementally across insertions, and each inserts leaf n itself,
so a full pass over the two million trees at n=9 takes seconds.
comb_type_tally walks no tree: it runs a recurrence over comb types.  The
update rules of the statistics are written once, in _child_keys.  JOINT_KEY,
the one place that names the positions of a tally key, is read by the views
of one tally: marginal, the gamma vectors ndrd_rdes and ndnl_nlyn, and the
censuses comb_census and lyndon_census.  distribution_ndrd_rdes,
distribution_ndnl_nlyn, bicolored_comb_census and bicolored_lyndon_census
each apply one view to a fresh tally.  The per-tree functions below are
independent implementations used to cross-check the walker; it calls none
of them.  Among them, enumerate_normalized builds the trees on [m] from
those on [m - 1] through _insertions, which yields one tree's 2m - 3
children in one pass over it, in the preorder of their insertion points.

The three colored models state their rules recursively over the trees of
enumerate_normalized, one short generator each, and share nothing with the
walker, so the checks that compare them with its tallies compare two
independent computations.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from typing import Iterator, Union

from ._pool import map_prefixes
from .errors import check_size
from .poly import GammaVector, IntPolynomial, add_binomial_row, from_gamma_basis

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


def _insertions(t: Tree, label: int) -> Iterator[Tree]:
    """t with (that node, leaf label) in place of each of its nodes, in preorder."""
    yield (t, label)
    if isinstance(t, tuple):
        left, right = t
        for child in _insertions(left, label):
            yield (child, right)
        for child in _insertions(right, label):
            yield (left, child)


def enumerate_normalized(n: int, cap: int = DEFAULT_CAP) -> Iterator[Tree]:
    """Yield every normalized tree on [n] exactly once; (2n-3)!! of them for n >= 2."""
    check_size("enumerate_normalized", n, cap)

    def rec(m: int) -> Iterator[Tree]:
        if m == 1:
            yield 1
            return
        for t in rec(m - 1):
            yield from _insertions(t, m)

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
    """Nested parenthesized form, e.g. "(1,(2,3))".

    Writes with an explicit stack of subtrees and pending text, so any depth
    writes.
    """
    out: list[str] = []
    stack: list = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            out.append("(")
            stack += (")", node[1], ",", node[0])
        else:
            out.append(str(node))
    return "".join(out)


# ---------------------------------------------------------------------------
# Colorings.
#
# Each colored model states its rule once, as a recursive generator over the
# tuple tree that yields the colorings of a subtree as tuples over its
# internal nodes in left-to-right order: the colorings of the left subtree,
# then the root's admissible colors, then the colorings of the right subtree.
# The loops nest in that order, so each tree's colorings come out in
# lexicographic order.  A subtree that yields nothing has no admissible
# coloring, and neither has any tree that contains it.
# ---------------------------------------------------------------------------


def _comb_colorings(t: Tree, is_right: bool = False) -> Iterator[tuple[int, ...]]:
    # a right descent is 0 and its parent 1; a right descent over another
    # one would have to be both
    if isinstance(t, int):
        yield ()
        return
    left, right = t
    has_descent = not isinstance(right, int)
    if is_right and has_descent:
        return
    colors = (0,) if is_right else (1,) if has_descent else (0, 1)
    for lc in _comb_colorings(left):
        for c in colors:
            for rc in _comb_colorings(right, True):
                yield lc + (c,) + rc


def _lyndon_colorings(t: Tree, forced: bool = False) -> Iterator[tuple[int, ...]]:
    # a non-Lyndon node is 0 and its left child 1; forced marks that left
    # child, which cannot be non-Lyndon as well
    if isinstance(t, int):
        yield ()
        return
    left, right = t
    nonlyn = not isinstance(left, int) and valency(left[1]) <= valency(right)
    if forced and nonlyn:
        return
    colors = (0,) if nonlyn else (1,) if forced else (0, 1)
    for lc in _lyndon_colorings(left, nonlyn):
        for c in colors:
            for rc in _lyndon_colorings(right):
                yield lc + (c,) + rc


def _chain_colorings(t: Tree, k: int, top: int) -> Iterator[tuple[int, ...]]:
    # colors lie in [1, top - 1], and the right child's lie below the node's,
    # so they strictly decrease along right-child edges; only the tree's
    # shape is read, never a leaf label
    if isinstance(t, int):
        yield ()
        return
    left, right = t
    for lc in _chain_colorings(left, k, k + 1):
        for c in range(1, top):
            for rc in _chain_colorings(right, k, c):
                yield lc + (c,) + rc


def enumerate_bicolored_combs(
    n: int, cap: int = DEFAULT_CAP
) -> Iterator[tuple[Tree, tuple[int, ...]]]:
    """All (tree, {0,1} coloring) pairs where every right descent is colored 0
    under a parent colored 1.

    Colorings are tuples over internal nodes in left-to-right order, each
    tree's in lexicographic order.  Trees with a double right descent admit
    no coloring, so the underlying trees have no double right descents, and
    each contributes 2^free pairs.
    """
    check_size("enumerate_bicolored_combs", n, cap)
    for t in enumerate_normalized(n, cap):
        for colors in _comb_colorings(t):
            yield t, colors


def enumerate_bicolored_lyndon(
    n: int, cap: int = DEFAULT_CAP
) -> Iterator[tuple[Tree, tuple[int, ...]]]:
    """All (tree, {0,1} coloring) pairs where every non-Lyndon node is colored 0
    and its left child is colored 1.

    Colorings are as in enumerate_bicolored_combs.  A conflicted tree is
    exactly one with a double non-Lyndon pair, so the underlying trees are
    the NDNL ones.
    """
    check_size("enumerate_bicolored_lyndon", n, cap)
    for t in enumerate_normalized(n, cap):
        for colors in _lyndon_colorings(t):
            yield t, colors


def enumerate_colored_combs(
    n: int, k: int, cap_n: int = COLORED_CAP_N, cap_k: int = COLORED_CAP_K
) -> Iterator[tuple[Tree, tuple[int, ...]]]:
    """All (tree, coloring) pairs with colors in [1, k] that strictly decrease
    along right-child edges between internal nodes.

    Colorings are as in enumerate_bicolored_combs.  Within each maximal
    right-child chain the colors are distinct and their arrangement is
    forced, so a chain of length L contributes C(k, L) choices; chains are
    independent.
    """
    check_size("enumerate_colored_combs", n, cap_n)
    check_size("enumerate_colored_combs (colors)", k, cap_k, "k")
    for t in enumerate_normalized(n, cap_n):
        for colors in _chain_colorings(t, k, k + 1):
            yield t, colors


# ---------------------------------------------------------------------------
# Insertion walker.
#
# One walker serves the joint tally and the rows.  State lives in flat arrays
# indexed by creation order: node 0 is leaf 1, and inserting leaf m adds
# internal node 2m - 3 and leaf node 2m - 2, so a node is internal iff its
# index is odd, and leaf node v carries label v // 2 + 1.
# Inserting at node v puts the new internal node x in v's slot, with v as its
# left child and the new leaf as its right child.  All five statistics admit
# local updates because the inserted leaf carries the largest label: no
# valency below the insertion point changes, so only v, its parent p, and the
# new nodes can change status.  _child_keys states those updates once; the
# walker takes its own steps from it, and each consumer makes the last
# insertion, of leaf n, itself.
# ---------------------------------------------------------------------------


def _child_keys(arrays: tuple[list, ...], nodes: int, key: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The joint key of each tree made by inserting the new maximum leaf at a
    node of the tree in the arrays, indexed by node; key is the tree's own."""
    _left, right, parent, is_right, nonlyn = arrays
    r, d, nl, dl, fr = key
    out = []
    for v in range(nodes):
        p = parent[v]
        if is_right[v]:
            if v & 1:
                # x replaces v as a right descent and v moves to a left slot:
                # a double pair over an internal R(v) dissolves, v turns free
                # over a leaf R(v), and x is non-Lyndon over v, forming the
                # pair (v, x) iff v is non-Lyndon
                below = right[v] & 1
                out.append((r, d - below, nl + 1, dl + nonlyn[v], fr + 1 - below))
            else:
                # x is a new right descent, doubled iff p is one, and p's
                # right child stops being a leaf
                out.append((r + 1, d + is_right[p], nl, dl, fr - (not is_right[p])))
        else:
            # x sits in a non-right slot over a leaf, so it is free; it is
            # non-Lyndon iff v is internal, forming the pair (v, x) iff v is
            # non-Lyndon
            k_nl = nl + (v & 1)
            k_dl = dl + nonlyn[v]
            if p >= 0 and nonlyn[p]:
                # R(L(p)) is now the maximum label, so p turns Lyndon, and
                # its pairs with v and with its own parent dissolve
                p2 = parent[p]
                k_nl -= 1
                k_dl -= nonlyn[v] + (p2 >= 0 and not is_right[p] and nonlyn[p2])
            out.append((r, d, k_nl, k_dl, fr + 1))
    return out


def _preorder_nodes(arrays: tuple[list, ...], root: int) -> list[int]:
    left, right = arrays[0], arrays[1]
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        if v & 1:
            stack.append(right[v])
            stack.append(left[v])
    return order


def _walk(
    n: int, prefix: tuple[int, ...] = ()
) -> Iterator[tuple[tuple[list, ...], int, int, tuple[int, ...]]]:
    """Yield (arrays, nodes, root, key) for each normalized tree on [n - 1],
    n >= 2, in enumerate_normalized order: its arrays (left, right, parent,
    is_right, nonlyn), node count, root and joint key.  The arrays change in
    place, so they hold the tree only until the walk resumes.

    Leaf m goes in at the nodes of the tree on [m - 1] in preorder, the
    order of _insertions; prefix fixes the positions of leaves 3, 4, ...

    joint_statistics and normalized_rows share this traversal; no check compares
    the two, as each is held against the per-tree functions or drake_polynomial.
    """
    size = 2 * n - 1
    arrays = left, right, parent, is_right, nonlyn = (
        [-1] * size, [-1] * size, [-1] * size, [False] * size, [False] * size
    )

    def rec(m: int, nodes: int, root: int, key: tuple[int, ...]) -> Iterator:
        # the arrays hold a tree on [m - 1]
        if m == n:
            yield arrays, nodes, root, key
            return
        order = _preorder_nodes(arrays, root)
        if 0 <= m - 3 < len(prefix):
            order = [order[prefix[m - 3]]]
        keys = _child_keys(arrays, nodes, key)
        x = nodes
        right[x] = x + 1
        parent[x + 1] = x
        is_right[x + 1] = True
        for v in order:
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


def _tally_task(args: tuple[int, tuple[int, ...]]) -> Counter:
    n, prefix = args
    if n == 1:
        return Counter({(0, 0, 0, 0, 0): 1})
    tally: Counter = Counter()
    for arrays, nodes, _root, key in _walk(n, prefix):
        tally.update(_child_keys(arrays, nodes, key))
    return tally


def joint_statistics(n: int, threads: int = 1, cap: int = DEFAULT_CAP) -> Counter:
    """Tally of (rdes, double-rd count, nlyn, double-nl count, free) over all
    normalized trees on [n], positions as in JOINT_KEY.  _pool.map_prefixes
    shards the walk by the positions of leaves 3, 4, ... over `threads`
    workers where it is large enough to pay for a pool."""
    check_size("joint_statistics", n, cap)
    levels = [range(2 * m - 3) for m in range(3, n)]  # the walker places leaves below n
    return sum(map_prefixes(_tally_task, n, levels, threads), Counter())


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
    ones, all distinct, leaving n - 1 - 2*nlyn nodes free, so the census is
    ndnl_nlyn put back in the basis t^j (1+t)^(n-1-2j).
    """
    return from_gamma_basis(ndnl_nlyn(tally, n))


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
# Rows and comb types.
#
# Rows come in enumerate_normalized order: every tree on [n - 1] from the
# walker, and under it the insertions of leaf n at its nodes in preorder,
# as one block per tree.  One pass over the tree gives its string and each
# node's span in it; each child then costs one string splice, and its
# statistic is read off _child_keys or, for the comb type, off one split of
# the tree's own.
# ---------------------------------------------------------------------------

ROW_STATS = ("rdes", "nlyn", "free", "combtype")


def _spans(arrays: tuple[list, ...], root: int) -> tuple[str, list[tuple[int, int, int]]]:
    """tree_to_string of the tree in the arrays, and per node in preorder
    (node, start, end) of its substring."""
    left, right = arrays[0], arrays[1]
    spans: list[tuple[int, int, int]] = []

    def text(v: int, start: int) -> str:
        # the right child starts after "(", the left child's text and ","
        i = len(spans)
        if v & 1:
            a = text(left[v], start + 1)
            s = f"({a},{text(right[v], start + len(a) + 2)})"
        else:
            s = str(v // 2 + 1)
        spans.insert(i, (v, start, start + len(s)))  # before its descendants
        return s

    return text(root, 0), spans


@cache  # the one statement of the edit, read by the rows and the tally
def _split(parts: tuple[int, ...], length: int, a: int) -> tuple[int, ...]:
    out = list(parts)
    if length:
        out.remove(length)
    out.append(a + 1)
    if length > a:
        out.append(length - a)
    return tuple(sorted(out, reverse=True))


def _comb_children(arrays: tuple[list, ...], order: list[int]) -> list[tuple[int, ...]]:
    """The comb type of each tree made by inserting the new maximum leaf at a
    node of the tree in the arrays, indexed by node; order lists its nodes,
    parents first.

    Each insertion splits one part: a part L becomes a + 1 and L - a, zero
    parts dropped.  A node that is not a right child gives L = a = 0: the new
    internal node heads a chain of its own.  A right child at depth a of a
    chain of length L splits that chain below its parent; a leaf right child,
    at depth L, makes the chain one longer.
    """
    parent, is_right = arrays[2], arrays[3]
    head = [0] * len(order)  # chain head of each internal node
    depth = [0] * len(order)
    lengths: dict[int, int] = {}
    for v in order:
        if v & 1:
            if is_right[v]:
                head[v] = head[parent[v]]
                depth[v] = depth[parent[v]] + 1
            else:
                head[v] = v
            lengths[head[v]] = depth[v] + 1
    parts = tuple(sorted(lengths.values(), reverse=True))
    out = [_split(parts, 0, 0)] * len(order)
    for v in order:
        if is_right[v]:
            length = lengths[head[parent[v]]]
            out[v] = _split(parts, length, depth[v] if v & 1 else length)
    return out


def _row_blocks(n: int, stat: str, cap: int = DEFAULT_CAP) -> Iterator[tuple[list[str], list]]:
    """One block per normalized tree on [n - 1], in walk order: the strings of
    the 2n - 3 trees made by inserting leaf n at its nodes in preorder, and
    their statistics (one block of the tree 1 when n is 1).

    stat is one of ROW_STATS; comb types are partitions as in comb_type.
    """
    if stat not in ROW_STATS:
        raise ValueError(f"unknown statistic {stat!r}; choose from {', '.join(ROW_STATS)}")
    check_size("normalized_rows", n, cap)
    if n == 1:
        yield ["1"], [() if stat == "combtype" else 0]
        return
    leaf = f",{n})"
    i = JOINT_KEY.get(stat)  # None for the comb type
    for arrays, nodes, root, key in _walk(n):
        s, spans = _spans(arrays, root)
        order = [v for v, _, _ in spans]
        if i is None:
            values = _comb_children(arrays, order)
        else:
            values = [k[i] for k in _child_keys(arrays, nodes, key)]
        yield [f"{s[:a]}({s[a:b]}{leaf}{s[b:]}" for _, a, b in spans], [values[v] for v in order]


def normalized_rows(n: int, stat: str, cap: int = DEFAULT_CAP) -> Iterator[tuple[str, object]]:
    """(tree_to_string(t), statistic of t) for the normalized trees on [n], in
    enumerate_normalized order: a flat view of _row_blocks."""
    for trees, values in _row_blocks(n, stat, cap):
        yield from zip(trees, values)


def comb_type_tally(n: int, cap: int = DEFAULT_CAP) -> Counter:
    """Counter of comb types over all normalized trees on [n].

    A recurrence over comb types, exact as each tree on [j + 1] is one
    insertion into one tree on [j], and that tree's comb type alone fixes
    the _split: a part 1 at each of its j nodes that are not right children,
    and a split of each part L at each of its right children, depths 1..L."""
    check_size("comb_type_tally", n, cap)
    tally = Counter({(): 1})
    for j in range(1, n):
        children: Counter = Counter()
        for parts, count in tally.items():
            children[_split(parts, 0, 0)] += j * count
            for length in parts:
                for a in range(1, length + 1):
                    children[_split(parts, length, a)] += count
        tally = children
    return tally
