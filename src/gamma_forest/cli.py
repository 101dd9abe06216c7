"""Command-line front end: verification suites, polynomials, enumerations.

Output discipline: everything deterministic goes to stdout, timing and other
diagnostics go to stderr, so identical invocations produce byte-identical
stdout.  This module alone encodes output: the engines return values, or in
rows mode splice an object's string between the head and tail of a line made
here, so every text, csv and json format is decided here.  Counts inside JSON
are decimal strings because coefficients outgrow doubles long before n
reaches 20.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import os
import sys
import time
from collections import Counter
from itertools import groupby, islice
from types import ModuleType
from typing import Callable, Iterable, Iterator, NamedTuple

from . import binary_trees, poly, rooted_trees, stirling, symfunc

HISTOGRAM_THRESHOLD = 10**5


class InvalidSuiteError(ValueError):
    pass


class IncompatibleStatError(ValueError):
    pass


class CheckRecord(NamedTuple):
    check: str
    params: str
    status: str  # pass, fail, or skip
    expected: str
    actual: str
    elapsed_ms: int


def _check_threads(value: int | None) -> None:
    # --threads stays accepted and checked, but everything runs in one
    # process, so nothing reads it
    if value is not None and value < 1:
        raise ValueError("--threads must be at least 1")


def _check(check: str, params: str, expected, actual) -> CheckRecord:
    t0 = time.perf_counter()
    try:
        exp, act = expected(), actual()
        status = "pass" if exp == act else "fail"
        exp_s, act_s = str(exp), str(act)
    except Exception as exc:  # a crashed check is a failed check
        status = "fail"
        exp_s, act_s = "no error", f"error: {exc}"
    elapsed = int((time.perf_counter() - t0) * 1000)
    return CheckRecord(check, params, status, exp_s, act_s, elapsed)


def _double_factorial(m: int) -> int:
    # (m)!! for odd m; 1 when m <= 0
    return math.prod(range(m, 0, -2))


def _comb_type_census(n: int) -> Counter:
    # the comb type of each tree on [n], tree by tree
    return Counter(map(binary_trees.comb_type, binary_trees.enumerate_normalized(n, n)))


def _product_form_mass(census: Counter, n: int, k: int) -> int:
    # the colorings of the trees on [n], C(k, part) per chain of each tree;
    # a tree with none weighs nothing, so the trees are counted as well
    trees = sum(census.values())
    if trees != _double_factorial(2 * n - 3):
        raise ValueError(f"{trees} trees")
    return sum(c * math.prod(math.comb(k, part) for part in parts) for parts, c in census.items())


def _at_rational_roots(p, n: int) -> list:
    # p at -(n - i)/i for i = 1..n - 1; fractions, and the decimal it
    # loads, are imported here, as no other command reads them
    from fractions import Fraction

    return [poly.evaluate(p, Fraction(-(n - i), i)) for i in range(1, n)]


class _Engines:
    """Engine results shared by the checks of one verify run, in a
    functools.cache keyed by function and arguments.  The cache keeps no
    exception: a call that raises is made again by the next check that needs
    it, which then fails the same way.  Engines get n as their cap, here and
    in enumerate: the table's ranges, or the refusal, decide what runs."""

    def __init__(self):
        self._get = functools.cache(lambda fn, *args: fn(*args))

    def drake(self, n: int):
        return self._get(poly.drake_polynomial, n)

    def gamma(self, n: int):
        return self._get(poly.gamma_closed_form, n)

    def joint(self, n: int):
        return self._get(binary_trees.joint_statistics, n, n)

    def word_pairs(self, m: int):
        return self._get(stirling.pair_statistics, m, m)

    def expansion(self, n: int):
        return self._get(symfunc.comb_type_expansion, n, n)

    def fmcomb(self, n: int, k: int):
        return self._get(symfunc.f_mcomb_direct, n, k)

    def comb_types(self, n: int):
        # read by symfunc.product-form-mass alone
        return self._get(_comb_type_census, n)


class _Block(NamedTuple):
    """Checks run for each n = first..last (and each colour count k in colors);
    above last, each id in skips reports SKIP.  last is a fixed bound, or the
    module whose DEFAULT_CAP bounds the family (n_max under --cap-override).
    A check is (id, expected, actual), both functions of (engines, n[, k]);
    its two sides never read the same engine result."""

    suite: str
    first: int
    last: int | ModuleType
    skips: tuple[str, ...]
    checks: tuple
    colors: tuple[int, ...] = ()


_TABLE = (
    _Block("drake", 1, 20, ("drake.cayley-count",), (
        ("drake.cayley-count",
            lambda e, n: n ** (n - 1),
            lambda e, n: poly.evaluate(e.drake(n), 1)),
        ("drake.palindromic",
            lambda e, n: True,
            lambda e, n: poly.is_palindromic(e.drake(n))),
    )),
    _Block("drake", 2, 10, (), (
        ("drake.rational-roots",
            lambda e, n: [0] * (n - 1),
            lambda e, n: _at_rational_roots(e.drake(n), n)),
    )),
    _Block("drake", 1, rooted_trees, ("drake.descent-vs-product",), (
        ("drake.descent-vs-product",
            lambda e, n: list(e.drake(n).coeffs),
            lambda e, n: list(rooted_trees.descent_polynomial(n, n).coeffs)),
    )),
    _Block("gamma", 1, 20, (), (
        ("gamma.closed-vs-peel",
            lambda e, n: list(poly.to_gamma_basis(e.drake(n)).gammas),
            lambda e, n: list(e.gamma(n).gammas)),
        ("gamma.positive",
            lambda e, n: True,
            lambda e, n: all(g > 0 for g in e.gamma(n).gammas)),
    )),
    _Block("gamma", 1, binary_trees, ("gamma.ndrd-rdes", "gamma.ndnl-nlyn"), (
        ("gamma.ndrd-rdes",
            lambda e, n: list(e.gamma(n).gammas),
            lambda e, n: list(binary_trees.ndrd_rdes(e.joint(n), n).gammas)),
        ("gamma.ndnl-nlyn",
            lambda e, n: list(e.gamma(n).gammas),
            lambda e, n: list(binary_trees.ndnl_nlyn(e.joint(n), n).gammas)),
    )),
    _Block("combs", 1, binary_trees, ("combs.census-vs-product",), (
        ("combs.census-vs-product",
            lambda e, n: list(e.drake(n).coeffs),
            lambda e, n: list(binary_trees.comb_census(e.joint(n)).coeffs)),
        ("combs.free-identity",
            lambda e, n: True,
            lambda e, n: all(f + 2 * r == n - 1 for (r, d, _nl, _dl, f) in e.joint(n) if d == 0)),
        ("combs.fiber-total",
            lambda e, n: n ** (n - 1),
            lambda e, n: poly.evaluate(binary_trees.comb_census(e.joint(n)), 1)),
    )),
    _Block("lyndon", 1, binary_trees, ("lyndon.census-vs-product",), (
        ("lyndon.census-vs-product",
            lambda e, n: list(e.drake(n).coeffs),
            lambda e, n: list(binary_trees.lyndon_census(e.joint(n), n).coeffs)),
        ("lyndon.count-zero-nlyn",
            lambda e, n: math.factorial(n - 1),
            lambda e, n: binary_trees.marginal(e.joint(n), "nlyn").get(0, 0)),
    )),
    # n is m here: the Stirling permutations of {1,1,...,m,m} match the trees on [m + 1].
    _Block("stirling", 1, stirling, ("stirling.count",), (
        ("stirling.count",
            lambda e, m: _double_factorial(2 * m - 1),
            lambda e, m: sum(1 for _ in stirling.enumerate_stirling(m, m))),
        ("stirling.naas-vs-gamma",
            lambda e, m: list(e.gamma(m + 1).gammas),
            lambda e, m: list(stirling.naas_aapair(e.word_pairs(m), m).gammas)),
        ("stirling.ntns-vs-gamma",
            lambda e, m: list(e.gamma(m + 1).gammas),
            lambda e, m: list(stirling.ntns_tnpair(e.word_pairs(m), m).gammas)),
        ("stirling.rdes-equidistribution",
            lambda e, m: sorted(binary_trees.marginal(e.joint(m + 1), "rdes").items()),
            lambda e, m: sorted(stirling.marginal(e.word_pairs(m), "tnpair").items())),
        ("stirling.nlyn-equidistribution",
            lambda e, m: sorted(binary_trees.marginal(e.joint(m + 1), "nlyn").items()),
            lambda e, m: sorted(stirling.marginal(e.word_pairs(m), "aapair").items())),
    )),
    _Block("symfunc", 1, binary_trees, ("symfunc.specialization-vs-product",), (
        ("symfunc.specialization-vs-product",
            lambda e, n: list(e.drake(n).coeffs),
            lambda e, n: list(symfunc.specialize_two_vars(e.expansion(n)).coeffs)),
        ("symfunc.gamma-extraction",
            lambda e, n: list(e.gamma(n).gammas),
            lambda e, n: list(
                poly.to_gamma_basis(symfunc.specialize_two_vars(e.expansion(n))).gammas
            )),
    )),
    _Block("symfunc", 1, 7, (), (
        ("symfunc.fmcomb-vs-expansion",
            lambda e, n, k: symfunc.expansion_in_variables(e.expansion(n), k).terms,
            lambda e, n, k: e.fmcomb(n, k).terms),
        ("symfunc.product-form-mass",
            lambda e, n, k: e.fmcomb(n, k).evaluate_all_ones(),
            lambda e, n, k: _product_form_mass(e.comb_types(n), n, k)),
    ), colors=(1, 2, 3)),
    _Block("eulerian", 1, 8, ("eulerian.gamma-count-vs-peel",), (
        ("eulerian.gamma-count-vs-peel",
            lambda e, n: list(poly.to_gamma_basis(poly.eulerian_polynomial(n)).gammas),
            lambda e, n: list(poly.eulerian_gamma_count(n).gammas)),
    )),
    _Block("eulerian", 3, 3, (), (
        ("eulerian.reference-values",
            lambda e, n: ([1, 4, 1], [1, 2]),
            lambda e, n: (
                list(poly.eulerian_polynomial(n).coeffs), list(poly.eulerian_gamma_count(n).gammas)
            )),
    )),
)

SUITES = ("all", *dict.fromkeys(block.suite for block in _TABLE))


def cmd_verify(suite: str, n_max: int, cap_override: bool) -> list[CheckRecord]:
    if suite not in SUITES:
        raise InvalidSuiteError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    checks = []
    engines = _Engines()
    for block in _TABLE:
        if suite not in ("all", block.suite):
            continue
        last = block.last
        if not isinstance(last, int):
            last = n_max if cap_override else last.DEFAULT_CAP
        for n in range(block.first, n_max + 1):
            if n > last:
                for skip in block.skips:
                    checks.append(CheckRecord(skip, f"n={n}", "skip", "above-cap", "", 0))
                continue
            runs = [((n, k), f"n={n} k={k}") for k in block.colors] or [((n,), f"n={n}")]
            for args, params in runs:
                for check, *sides in block.checks:
                    expected, actual = (functools.partial(f, engines, *args) for f in sides)
                    checks.append(_check(check, params, expected, actual))
    return checks


def _render_verify(suite: str, n_max: int, checks: list[CheckRecord], fmt: str) -> str:
    counts = Counter(c.status for c in checks)
    passed, failed, skipped = counts["pass"], counts["fail"], counts["skip"]
    if fmt == "json":
        doc = {
            "suite": suite,
            "n_max": n_max,
            "checks": [dict(zip(CheckRecord._fields, c[:5])) for c in checks],
            "passed": passed,
            "failed": failed,
            "skipped": skipped,
        }
        return json.dumps(doc, separators=(",", ":")) + "\n"
    lines = []
    for c in checks:
        if c.status == "skip":
            lines.append(f"SKIP {c.check} {c.params} reason={c.expected}")
        elif c.status == "pass":
            lines.append(f"PASS {c.check} {c.params} value={c.actual}")
        else:
            lines.append(f"FAIL {c.check} {c.params} expected={c.expected} actual={c.actual}")
    lines.append(
        f"TOTAL suite={suite} n_max={n_max} passed={passed} failed={failed} skipped={skipped}"
    )
    return "\n".join(lines) + "\n"


def cmd_poly(n: int, basis: str, fmt: str) -> str:
    # the two bases differ only in their values, the JSON key and the text prefix
    if basis == "gamma":
        g = poly.gamma_closed_form(n)
        degree, values, key, prefix = g.degree, g.gammas, "gammas", "gamma: "
    else:
        p = poly.drake_polynomial(n)
        degree, values, key, prefix = p.degree, p.coeffs, "coeffs", ""
    cells = [str(c) for c in values]
    if fmt == "json":
        return json.dumps({"degree": degree, key: cells}, separators=(",", ":")) + "\n"
    if fmt == "csv":
        return ",".join(cells) + "\n"
    return prefix + " ".join(cells) + "\n"


def _nonzero(p) -> dict:
    """A polynomial's nonzero coefficients by degree, as a histogram."""
    return {i: c for i, c in enumerate(p.coeffs) if c}


def _render_histogram(family: str, stat: str, n: int, hist: dict, fmt: str) -> str:
    items = sorted(hist.items())
    if fmt == "json":
        doc = {
            "family": family,
            "n": n,
            "stat": stat,
            "total": str(sum(hist.values())),
            "histogram": {_stat_text(k): str(v) for k, v in items},
        }
        return json.dumps(doc, separators=(",", ":")) + "\n"
    if fmt == "csv":
        rows = [("stat", "count"), *((_stat_text(k), v) for k, v in items)]
        return "".join(map(_csv_line, rows))
    return "".join(f"{_stat_text(k)} {v}\n" for k, v in items)


def _stat_text(value) -> str:
    if isinstance(value, tuple):  # a partition
        return "+".join(map(str, value)) if value else "0"
    return str(value)


def _stat_json(value) -> str:
    return json.dumps(list(value) if isinstance(value, tuple) else value, separators=(",", ":"))


def _csv_cell(value) -> str:
    """value as one cell the way csv.writer writes it under QUOTE_MINIMAL:
    quoted when it holds a comma, a quote, CR or LF, inner quotes doubled.
    Every csv row here has at least two cells, so the one row where the two
    differ, a single empty cell, which csv.writer writes as a quoted empty
    string, never comes up."""
    text = str(value)
    if '"' in text:
        return '"' + text.replace('"', '""') + '"'
    if "," in text or "\n" in text or "\r" in text:
        return '"' + text + '"'
    return text


def _csv_line(cells) -> str:
    return ",".join(map(_csv_cell, cells)) + "\r\n"


# Rows mode.  Each row source yields (text, rows) blocks, header first in
# csv: the lines of one parent object's children, of one object, or of a
# batch of about 1,024 rooted trees of one root.  The engines take a line's
# head and a function of its tail by value, cached per value, and splice the
# object between them; the rooted rows fill a template column by column.  A
# family's objects either all hold a comma or none do, so csv quotes them,
# or not, once per call.
# _render_rows gathers whole blocks into chunks of at least ROW_CHUNK rows.

ROW_CHUNK = 4096  # rows per stdout write in rows mode, plus less than a block


def _stat_tails(fmt: str, stat: Callable, csv_cells: Callable) -> Callable[[object], str]:
    """A line's text after its object, from the line's value: stat(value) in
    text and json, the cells csv_cells(value) in csv."""
    if fmt == "csv":
        return lambda value: "," + _csv_line(csv_cells(value))
    if fmt == "json":
        return lambda value: f'","stat":{_stat_json(stat(value))}}}\n'
    return lambda value: f"\t{_stat_text(stat(value))}\n"


def _row_ends(fmt: str, key: str, quoted: bool, tail: Callable) -> tuple[str, Callable]:
    """A line's text before its object, and tail(value), the text after it by
    the line's value, cached per value.  In json the object is the string
    under key; in csv it is quoted when the family's objects hold a comma."""
    if fmt == "csv" and quoted:
        return '"', functools.cache(lambda value: '"' + tail(value))
    return (f'{{"{key}":"' if fmt == "json" else ""), functools.cache(tail)


def _rooted_rows(stat: str, n: int, fmt: str) -> Iterator[tuple[str, int]]:
    # each tree's edge list, {"n":3,"root":2,"edges":[[2,1],[2,3]]} with the
    # edges sorted by child, as compact JSON, and its descent count (the
    # tests' tree_to_json_dict and des), from the records of
    # rooted_trees._rooted_blocks.  Each root has a line template with a
    # k-byte slot, k = len(str(n)), for each non-root node's parent and for
    # des.  A batch of m records fills m copies of it with one strided slice
    # assignment per slot and digit.  Shorter labels are padded with NUL,
    # which the decode drops (none below n = 10).
    if fmt == "csv":
        yield _csv_line(("object", "stat")), 1
    k = len(str(n))
    w = n + 2
    labels = [str(p).rjust(k, "\0").encode() for p in range(n + 1)]
    # digits[j] takes a label byte to the j-th of its k digits
    digits = [bytes(label[j] for label in labels).ljust(256, b"\0") for j in range(k)]
    slot = "\1" * k
    per = -(-1024 // n)  # blocks per batch, each of n records from n = 3 on
    for root, blocks in groupby(rooted_trees._rooted_blocks(n, n), key=operator.itemgetter(0)):
        edges = ",".join(f"[{slot},{x}]" for x in range(1, n + 1) if x != root)
        obj = f'{{"n":{n},"root":{root},"edges":[{edges}]}}'
        if fmt == "csv":
            line = '"' + obj.replace('"', '""') + '",' + slot + "\r\n"
        elif fmt == "json":
            line = obj[:-1] + ',"stat":' + slot + "}\n"
        else:
            line = obj + "\t" + slot + "\n"
        template = line.encode()
        size = len(template)
        starts = [i for i in range(size) if template[i] == 1][::k]
        fields = list(zip(starts, [x for x in range(1, w) if x != root]))  # des is byte n + 1
        records = map(operator.itemgetter(1), blocks)
        while batch := b"".join(islice(records, per)):
            m = len(batch) // w
            out = bytearray(template) * m
            for pos, x in fields:
                column = batch[x::w]
                for j, table in enumerate(digits):
                    out[pos + j :: size] = column.translate(table)
            text = out.decode().replace("\0", "")
            del out  # not held while the caller joins its chunk
            yield text, m


def _normalized_rows(stat: str, n: int, fmt: str) -> Iterator[tuple[str, int]]:
    if fmt == "csv":
        yield _csv_line(("object", "stat")), 1
    tail = _stat_tails(fmt, lambda value: value, lambda value: (_stat_text(value),))
    head, tails = _row_ends(fmt, "tree", n > 1, tail)  # every tree but "1" has a comma
    for lines, _ in binary_trees._row_blocks(n, stat, n, head, tails):
        yield "".join(lines), len(lines)


def _stirling_rows(stat: str, n: int, fmt: str) -> Iterator[tuple[str, int]]:
    # a block's values are profiles (aapair, tnpair, is_naas, is_ntns)
    if fmt == "csv":
        yield _csv_line(("word", "aapair", "tnpair", "is_naas", "is_ntns")), 1
    tail = _stat_tails(
        fmt,
        operator.itemgetter(stirling.PAIR_KEY[stat]),
        lambda p: (p[0], p[1], int(p[2]), int(p[3])),
    )
    head, tails = _row_ends(fmt, "word", n > 9, tail)  # letters past 9 are comma separated
    for lines, _ in stirling._row_blocks(n, n, head, tails):
        yield "".join(lines), len(lines)


# a colored line's text after its tree, from the coloring
_COLORED_TAILS = {
    "text": lambda c: f"\t{','.join(map(str, c))}\t{sum(c)}\n",
    "json": lambda c: f'","colors":[{",".join(map(str, c))}],"stat":{sum(c)}}}\n',
    "csv": lambda c: "," + _csv_line((" ".join(map(str, c)), sum(c))),
}


def _colored_rows(colorings, n: int, fmt: str) -> Iterator[tuple[str, int]]:
    # one block per tree: its string, made once, against each of its colorings
    if fmt == "csv":
        yield _csv_line(("tree", "colors", "stat")), 1
    head, tails = _row_ends(fmt, "tree", n > 1, _COLORED_TAILS[fmt])
    for t, group in groupby(colorings, key=operator.itemgetter(0)):
        obj = head + binary_trees.tree_to_string(t)
        lines = [obj + tails(c) for _, c in group]
        yield "".join(lines), len(lines)


def _normalized_histogram(stat: str, n: int) -> dict:
    if stat == "combtype":
        return dict(binary_trees.comb_type_tally(n, n))
    return binary_trees.marginal(binary_trees.joint_statistics(n, n), stat)


class _Family(NamedTuple):
    """An enumerate family: its statistics (the default first), the module whose
    DEFAULT_CAP bounds n, its size (the object count that --mode auto compares
    with HISTOGRAM_THRESHOLD), its histogram, and its row source, which yields
    blocks of lines as (text, rows).  Engines are looked up on their module at call time, so a
    rebound attribute is the one that runs."""

    stats: tuple[str, ...]
    module: ModuleType
    size: Callable[[int], int]
    histogram: Callable[[str, int], dict]
    rows: Callable[[str, int, str], Iterator[tuple[str, int]]]


FAMILIES = {
    "rooted": _Family(
        ("des",),
        rooted_trees,
        lambda n: n ** (n - 1),
        lambda stat, n: _nonzero(rooted_trees.descent_polynomial(n, n)),
        _rooted_rows,
    ),
    "normalized": _Family(
        binary_trees.ROW_STATS,
        binary_trees,
        lambda n: _double_factorial(2 * n - 3),
        _normalized_histogram,
        _normalized_rows,
    ),
    "combs": _Family(
        ("ones",),
        binary_trees,
        lambda n: n ** (n - 1),
        lambda stat, n: _nonzero(binary_trees.bicolored_comb_census(n, n)),
        lambda stat, n, fmt: _colored_rows(binary_trees.enumerate_bicolored_combs(n, n), n, fmt),
    ),
    "lyndon": _Family(
        ("ones",),
        binary_trees,
        lambda n: n ** (n - 1),
        lambda stat, n: _nonzero(binary_trees.bicolored_lyndon_census(n, n)),
        lambda stat, n, fmt: _colored_rows(binary_trees.enumerate_bicolored_lyndon(n, n), n, fmt),
    ),
    "stirling": _Family(
        ("tnpair", "aapair"),
        stirling,
        lambda n: _double_factorial(2 * n - 1),
        lambda stat, n: stirling.marginal(stirling.pair_statistics(n, n), stat),
        _stirling_rows,
    ),
}


def _render_rows(family: str, stat: str, n: int, fmt: str) -> Iterator[str]:
    """Rows-mode stdout in chunks of whole blocks, each chunk (the last aside)
    at least ROW_CHUNK rows and less than one block more, so memory stays
    bounded.  Each source hands over a block's row count with its text, so
    no chunk is scanned for its newlines."""
    chunk: list[str] = []
    rows = 0
    for text, count in FAMILIES[family].rows(stat, n, fmt):
        chunk.append(text)
        rows += count
        if rows >= ROW_CHUNK:
            yield "".join(chunk)
            chunk = []
            rows = 0
    if chunk:
        yield "".join(chunk)


def _refusal(name: str, module: ModuleType, n: int, cap_override: bool) -> str | None:
    """The refusal line when n is above the module's DEFAULT_CAP, read at run
    time as verify's table does, and --cap-override is not given."""
    cap = module.DEFAULT_CAP
    if n <= cap or cap_override:
        return None
    return f"refused family={name} n={n} cap={cap} hint=pass --cap-override to enumerate anyway\n"


def cmd_enumerate(
    family: str,
    n: int,
    stat: str | None,
    fmt: str,
    mode: str,
    cap_override: bool,
) -> tuple[Iterable[str], bool]:
    """Returns (stdout in chunks, refused flag)."""
    spec = FAMILIES.get(family)
    if spec is None:
        raise IncompatibleStatError(
            f"unknown family {family!r}; choose from {', '.join(FAMILIES)}"
        )
    if stat is None:
        stat = spec.stats[0]
    if stat not in spec.stats:
        raise IncompatibleStatError(
            f"stat {stat!r} is not defined for family {family!r}; "
            f"choose from {', '.join(spec.stats)}"
        )
    if refusal := _refusal(family, spec.module, n, cap_override):
        return [refusal], True
    if mode == "auto":
        mode = "histogram" if spec.size(n) > HISTOGRAM_THRESHOLD else "rows"
    if mode == "histogram":
        hist = spec.histogram(stat, n)
        return [_render_histogram(family, stat, n, hist, fmt)], False
    return _render_rows(family, stat, n, fmt), False


def cmd_symfunc(n: int, fmt: str, cap_override: bool) -> tuple[str, bool]:
    if refusal := _refusal("symfunc", binary_trees, n, cap_override):
        return refusal, True
    expansion = symfunc.comb_type_expansion(n, n)
    specialized = symfunc.specialize_two_vars(expansion)
    if fmt == "json":
        doc = {
            "n": n,
            "weight": expansion.weight,
            "expansion": [
                {"lambda": list(lam.parts), "coeff": str(c)} for lam, c in expansion.terms
            ],
            "specialization": {
                "degree": specialized.degree,
                "coeffs": [str(c) for c in specialized.coeffs],
            },
        }
        return json.dumps(doc, separators=(",", ":")) + "\n", False
    if fmt == "csv":
        rows = [("lambda", "coeff")]
        rows += [(_stat_text(lam.parts), c) for lam, c in expansion.terms]
        rows.append(("specialization", " ".join(str(c) for c in specialized.coeffs)))
        return "".join(map(_csv_line, rows)), False
    lines = [f"e-expansion n={n} weight={expansion.weight}"]
    for lam, c in expansion.terms:
        lines.append(f"e[{','.join(str(p) for p in lam.parts)}] {c}")
    lines.append("specialization: " + " ".join(str(c) for c in specialized.coeffs))
    return "\n".join(lines) + "\n", False


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamma-forest",
        description="Exact enumeration and verification of descent statistics "
        "on trees and Stirling permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run identity verification suites")
    p_verify.add_argument("--suite", default="all")
    p_verify.add_argument("--n-max", type=int, default=6)
    p_verify.add_argument("--threads", type=int, default=None)
    p_verify.add_argument("--cap-override", action="store_true")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_poly = sub.add_parser("poly", help="print the product-form polynomial or its gamma vector")
    p_poly.add_argument("--n", type=int, required=True)
    p_poly.add_argument("--basis", choices=("standard", "gamma"), default="standard")
    p_poly.add_argument("--format", choices=("json", "csv", "text"), default="text")

    p_enum = sub.add_parser("enumerate", help="stream objects with a statistic, or a histogram")
    p_enum.add_argument("--family", required=True)
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--stat", default=None)
    p_enum.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p_enum.add_argument("--mode", choices=("auto", "rows", "histogram"), default="auto")
    p_enum.add_argument("--threads", type=int, default=None)
    p_enum.add_argument("--cap-override", action="store_true")

    p_sym = sub.add_parser("symfunc", help="print the comb-type e-expansion and its specialization")
    p_sym.add_argument("--n", type=int, required=True)
    p_sym.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p_sym.add_argument("--cap-override", action="store_true")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            if args.n_max < 1:
                raise ValueError("--n-max must be a positive integer")
            _check_threads(args.threads)
            t0 = time.perf_counter()
            checks = cmd_verify(args.suite, args.n_max, args.cap_override)
            sys.stdout.write(_render_verify(args.suite, args.n_max, checks, args.format))
            for c in checks:
                sys.stderr.write(f"# {c.check} {c.params} elapsed_ms={c.elapsed_ms}\n")
            sys.stderr.write(f"# suite elapsed_ms={int((time.perf_counter() - t0) * 1000)}\n")
            return 1 if any(c.status == "fail" for c in checks) else 0
        if args.n < 1:
            raise ValueError("--n must be a positive integer")
        if args.command == "poly":
            sys.stdout.write(cmd_poly(args.n, args.basis, args.format))
            return 0
        if args.command == "enumerate":
            _check_threads(args.threads)
            chunks, refused = cmd_enumerate(
                args.family, args.n, args.stat, args.format, args.mode, args.cap_override
            )
        else:
            text, refused = cmd_symfunc(args.n, args.format, args.cap_override)
            chunks = [text]
        for chunk in chunks:
            sys.stdout.write(chunk)
        if refused:
            sys.stderr.write("# enumeration refused: size above cap\n")
        return 0
    except BrokenPipeError:
        # the reader closed stdout early; pointing it at devnull keeps the
        # flush at exit from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:  # the typed errors subclass it
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
