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

joint_statistics and the rows walk classes of trees, a shape with its
nonlyn flags, which fix the statistics of all the tree's children
(_class_children): the tally counts the trees of each class (_tree_classes),
and the rows (_row_blocks) read each class's children once and splice their
strings from the parents' strings.  comb_type_tally runs a recurrence over
comb types.  _child_keys states the update rules of the statistics once, and
JOINT_KEY names the positions of a tally key for the views of one tally:
marginal, ndrd_rdes, ndnl_nlyn, comb_census and lyndon_census.  The per-tree
statistics live with the tests, as the engines' oracles; the per-tree
functions here serve the command line and the colored models alone.

The three colored models state their rules recursively over the trees of
enumerate_normalized, one short generator each, and share nothing with the
engines, so the checks that compare them with its tallies compare two
independent computations.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from typing import Callable, Iterator, Sequence, Union

from .errors import check_size
from .poly import GammaVector, IntPolynomial, add_binomial_row, from_gamma_basis

Tree = Union[int, tuple]

DEFAULT_CAP = 10
COLORED_CAP_N = 8
COLORED_CAP_K = 5

# Positions of the statistics in a joint_statistics key.
JOINT_KEY = {"rdes": 0, "drd": 1, "nlyn": 2, "dnl": 3, "free": 4}
_HEAD = len(JOINT_KEY)  # a class code starts with its joint key


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


def comb_type(t: Tree) -> tuple[int, ...]:
    """Partition of the internal-node count by maximal right-child chains."""
    parts = []
    stack = [t]  # the root and left children: the nodes that head a chain
    while stack:
        node, length = stack.pop(), 0
        while isinstance(node, tuple):  # down the chain
            stack.append(node[0])
            node, length = node[1], length + 1
        if length:
            parts.append(length)
    return tuple(sorted(parts, reverse=True))


def tree_to_string(t: Tree) -> str:
    """Nested parenthesized form, e.g. "(1,(2,3))"; written from an explicit
    stack of subtrees and pending text, so any depth writes."""
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
    under a parent colored 1.  Colorings are tuples over internal nodes in
    left-to-right order, each tree's in lexicographic order.  A tree with a
    double right descent admits no coloring, and one without has 2^free."""
    check_size("enumerate_bicolored_combs", n, cap)
    for t in enumerate_normalized(n, cap):
        for colors in _comb_colorings(t):
            yield t, colors


def enumerate_bicolored_lyndon(
    n: int, cap: int = DEFAULT_CAP
) -> Iterator[tuple[Tree, tuple[int, ...]]]:
    """All (tree, {0,1} coloring) pairs where every non-Lyndon node is colored 0
    and its left child is colored 1.  A conflicted tree is exactly one with a
    double non-Lyndon pair, so the underlying trees are the NDNL ones."""
    check_size("enumerate_bicolored_lyndon", n, cap)
    for t in enumerate_normalized(n, cap):
        for colors in _lyndon_colorings(t):
            yield t, colors


def enumerate_colored_combs(
    n: int, k: int, cap_n: int = COLORED_CAP_N, cap_k: int = COLORED_CAP_K
) -> Iterator[tuple[Tree, tuple[int, ...]]]:
    """All (tree, coloring) pairs with colors in [1, k] that strictly decrease
    along right-child edges between internal nodes.  The colors of a maximal
    right-child chain are distinct and their arrangement is forced, so a
    chain of length L contributes C(k, L) choices; chains are independent."""
    check_size("enumerate_colored_combs", n, cap_n)
    check_size("enumerate_colored_combs (colors)", k, cap_k, "k")
    for t in enumerate_normalized(n, cap_n):
        for colors in _chain_colorings(t, k, k + 1):
            yield t, colors


# ---------------------------------------------------------------------------
# Tree classes.
#
# _load writes a tree into four flat arrays (right, parent, is_right, nonlyn)
# indexed as if by creation order: node 0 is leaf 1, and inserting leaf m adds
# internal node 2m - 3 and leaf node 2m - 2, so a node is internal iff its
# index is odd.  Inserting at node v puts the new internal node x in v's slot,
# over v and the new leaf.  As the new leaf has the largest label, only v, its
# parent and x can change status (_child_keys), so a tree's shape and nonlyn
# flags fix those of all its children.  A class of trees that share both is
# held as a code: the joint key, then a byte per node in preorder, 0 for a
# leaf, 1 for an internal node, 2 for a non-Lyndon one; 4,279 classes for the
# 135,135 trees on [8].
# ---------------------------------------------------------------------------


def _child_keys(arrays: tuple[list, ...], nodes: int, key: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The joint key of each tree made by inserting the new maximum leaf at a
    node of the tree in the arrays, indexed by node; key is the tree's own."""
    right, parent, is_right, nonlyn = arrays
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


def _load(code: bytes, arrays: tuple[list, ...]) -> tuple[list[int], list[tuple[int, ...]]]:
    """Write the tree of a class code into the arrays, its internal nodes odd,
    and return its nodes in preorder and their _child_keys, indexed by node."""
    right, parent, is_right, nonlyn = arrays
    order: list[int] = []
    stack: list[int] = []  # internal nodes whose right child is to come
    p, r = -1, False  # the parent and side of the next node
    leaf, internal = 0, 1
    for c in code[_HEAD:]:
        v = internal if c else leaf
        order.append(v)
        parent[v], is_right[v] = p, r
        if r:
            right[p] = v
        if c:
            internal += 2
            nonlyn[v] = c == 2  # a leaf's stays False
            stack.append(v)
            p, r = v, False
        else:
            leaf += 2
            if stack:
                p, r = stack.pop(), True
    return order, _child_keys(arrays, len(order), code[:_HEAD])


def _class_children(code: bytes, arrays: tuple[list, ...]) -> list[bytes]:
    """The class codes of the trees made by inserting the new maximum leaf at
    each node of the tree of a class code, the nodes in preorder: x, non-Lyndon
    iff that node is internal, takes its place over it and the new leaf, and a
    parent of which that node is the left child turns Lyndon."""
    order, keys = _load(code, arrays)
    tree = code[_HEAD:]
    ends = [0] * len(tree)  # where the subtree at each position ends
    for a in range(len(tree) - 1, -1, -1):
        ends[a] = ends[ends[a + 1]] if tree[a] else a + 1
    out = []
    for a, c in enumerate(tree):
        head = tree[: a - 1] + b"\1" if a and tree[a - 1] else tree[:a]
        b = ends[a]
        x = b"\2" if c else b"\1"
        out.append(b"".join((bytes(keys[order[a]]), head, x, tree[a:b], b"\0", tree[b:])))
    return out


def _tree_classes(m: int) -> dict[bytes, int]:
    """The class codes of the normalized trees on [m] with their tree counts;
    only two orders are held."""
    arrays = tuple([0] * (2 * m - 1) for _ in range(4))
    classes = {bytes(_HEAD + 1): 1}  # the tree 1
    for _ in range(m - 1):
        children: dict[bytes, int] = {}
        for code, count in classes.items():
            for child in _class_children(code, arrays):
                children[child] = children.get(child, 0) + count
        classes = children
    return classes


def joint_statistics(n: int, cap: int = DEFAULT_CAP) -> Counter:
    """Tally of (rdes, double-rd count, nlyn, double-nl count, free) over all
    normalized trees on [n], positions as in JOINT_KEY: each class of the
    trees on [n - 1] adds its count at each _child_keys of its tree."""
    check_size("joint_statistics", n, cap)
    if n == 1:
        return Counter({(0, 0, 0, 0, 0): 1})
    arrays = tuple([0] * (2 * n - 3) for _ in range(4))
    tally: Counter = Counter()
    for code, count in _tree_classes(n - 1).items():
        for key in _load(code, arrays)[1]:
            tally[key] += count
    return tally


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
    joint_statistics tally: t^rdes (1 + t)^free summed over the trees without
    double right descents, as forced colors give t^rdes and free nodes 1 + t."""
    r, d, f = JOINT_KEY["rdes"], JOINT_KEY["drd"], JOINT_KEY["free"]
    out: list[int] = []
    for key, c in tally.items():
        if key[d] == 0:
            add_binomial_row(out, c, key[r], key[f])
    return IntPolynomial(out)


def lyndon_census(tally: Counter, n: int) -> IntPolynomial:
    """Bicolored Lyndon-tree counts by number of 1-colored nodes, from the
    joint_statistics tally of the trees on [n].  Each tree without double
    non-Lyndon pairs forces nlyn zeros and nlyn ones, all distinct, leaving
    n - 1 - 2*nlyn nodes free, so the census is ndnl_nlyn put back in the
    basis t^j (1+t)^(n-1-2j)."""
    return from_gamma_basis(ndnl_nlyn(tally, n))


def distribution_ndrd_rdes(n: int, cap: int = DEFAULT_CAP) -> GammaVector:
    """ndrd_rdes of the trees on [n]."""
    return ndrd_rdes(joint_statistics(n, cap), n)


def distribution_ndnl_nlyn(n: int, cap: int = DEFAULT_CAP) -> GammaVector:
    """ndnl_nlyn of the trees on [n]."""
    return ndnl_nlyn(joint_statistics(n, cap), n)


def bicolored_comb_census(n: int, cap: int = DEFAULT_CAP) -> IntPolynomial:
    """comb_census of the trees on [n]."""
    return comb_census(joint_statistics(n, cap))


def bicolored_lyndon_census(n: int, cap: int = DEFAULT_CAP) -> IntPolynomial:
    """lyndon_census of the trees on [n]."""
    return lyndon_census(joint_statistics(n, cap), n)


# ---------------------------------------------------------------------------
# Rows and comb types.
#
# Rows come in enumerate_normalized order, one block per tree on [n - 1]: the
# insertions of leaf n at its nodes in preorder.  _keyed_strings walks the
# trees as strings with their class codes: each string on [m] is a splice of
# "(" and ",m)" around a node's span of a string on [m - 1], and each code one
# of that string's code's _class_children, both in preorder of the node.  A
# node's span depends only on the tree's shape, which the string's shape key
# keeps (every digit made 0, so a label keeps its width); the statistics of a
# tree's children, comb types and nlyn too, depend only on its class.  Spans
# are cached per shape key (functools.cache) and statistics, with the tails of
# their lines, memoized per class: for the 10,395 trees on [7] at n = 8, 132
# span entries and 903 statistic entries.
# ---------------------------------------------------------------------------

ROW_STATS = ("rdes", "nlyn", "free", "combtype")

_SHAPE = str.maketrans("123456789", "000000000")


def _key_spans(key: str) -> tuple[tuple[int, int], ...]:
    """(start, end) of each node's substring in a tree string, the nodes in
    preorder, from one scan of the string's shape key."""
    spans: list = []
    open_nodes = []
    start = -1  # of the leaf being read, or -1
    for i, c in enumerate(key):
        if c == "0":
            if start < 0:
                start = i
            continue
        if start >= 0:
            spans.append((start, i))
            start = -1
        if c == "(":
            open_nodes.append(len(spans))
            spans.append(i)  # its start, until its ")"
        elif c == ")":
            j = open_nodes.pop()
            spans[j] = (spans[j], i + 1)
    if start >= 0:  # the tree is one leaf
        spans.append((start, len(key)))
    return tuple(spans)


def _keyed_strings(m: int, arrays: tuple[list, ...]) -> Iterator[tuple[str, bytes]]:
    """(tree_to_string, class code) of each normalized tree on [m], in
    enumerate_normalized order; each level caches _key_spans per shape key
    and memoizes _class_children per class for the walk, and the arrays are
    _load's, for trees on up to [m - 1]."""
    if m == 1:
        yield "1", bytes(_HEAD + 1)
        return
    leaf = f",{m})"
    spans = cache(_key_spans)
    children: dict[bytes, list[bytes]] = {}
    for s, code in _keyed_strings(m - 1, arrays):
        codes = children.get(code)
        if codes is None:
            codes = children[code] = _class_children(code, arrays)
        # s with (that node, leaf) in place of each node, in preorder
        strings = [f"{s[:a]}({s[a:b]}{leaf}{s[b:]}" for a, b in spans(s.translate(_SHAPE))]
        yield from zip(strings, codes)


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
    parents first.  Each insertion splits one part: a part L becomes a + 1 and
    L - a, zero parts dropped.  A node that is not a right child gives
    L = a = 0: the new internal node heads a chain of its own.  A right child
    at depth a of a chain of length L splits that chain below its parent; a
    leaf right child, at depth L, makes the chain one longer."""
    parent, is_right = arrays[1], arrays[2]
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


def _class_values(code: bytes, stat: str, arrays: tuple[list, ...]) -> list:
    """stat of each tree made by inserting the new maximum leaf at a node of
    the tree of a class code, the nodes in preorder: the comb type, or an
    entry of the joint key that heads each of _class_children's codes."""
    order, keys = _load(code, arrays)
    if stat == "combtype":
        keys = _comb_children(arrays, order)
        return [keys[v] for v in order]
    i = JOINT_KEY[stat]
    return [keys[v][i] for v in order]


def _row_blocks(
    n: int, stat: str, cap: int = DEFAULT_CAP, head: str = "", tails: Callable = lambda value: ""
) -> Iterator[tuple[list[str], Sequence]]:
    """One block per normalized tree on [n - 1], in enumerate_normalized
    order: the lines of the 2n - 3 trees made by inserting leaf n at its nodes
    in preorder, and their statistics (one block of the tree 1 when n is 1).
    A line is head, the tree's string and tails(value), each spliced in one
    step; tails gives a statistic's text (none by default), and the lines
    are then the strings alone.  stat is one of ROW_STATS; comb types are
    partitions as in comb_type.  The statistics and their tails are computed
    once per class (_class_values) and interned."""
    if stat not in ROW_STATS:
        raise ValueError(f"unknown statistic {stat!r}; choose from {', '.join(ROW_STATS)}")
    check_size("normalized_rows", n, cap)
    if n == 1:
        value = () if stat == "combtype" else 0
        yield [f"{head}1{tails(value)}"], [value]
        return
    leaf = f",{n})"
    arrays = tuple([0] * (2 * n - 3) for _ in range(4))
    spans = cache(_key_spans)
    memo: dict[bytes, tuple] = {}  # class code -> its children's statistics and their tails
    interned: dict[tuple, tuple] = {}
    for s, code in _keyed_strings(n - 1, arrays):
        entry = memo.get(code)
        if entry is None:
            values = tuple(_class_values(code, stat, arrays))
            entry = memo[code] = interned.setdefault(values, (values, [tails(v) for v in values]))
        values, texts = entry
        lines = zip(spans(s.translate(_SHAPE)), texts)
        yield [f"{head}{s[:a]}({s[a:b]}{leaf}{s[b:]}{t}" for (a, b), t in lines], values


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
