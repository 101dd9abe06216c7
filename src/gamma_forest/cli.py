"""Command-line front end: verification suites, polynomials, enumerations.

Output discipline: everything deterministic goes to stdout, timing and other
diagnostics go to stderr, so identical invocations produce byte-identical
stdout.  Counts inside JSON are decimal strings because coefficients outgrow
doubles long before n reaches 20.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from types import ModuleType
from typing import Callable, Iterable, Iterator

from . import binary_trees, poly, rooted_trees, stirling, symfunc
from .errors import LimitExceededError

HISTOGRAM_THRESHOLD = 10**5


class InvalidSuiteError(ValueError):
    pass


class IncompatibleStatError(ValueError):
    pass


@dataclass
class CheckRecord:
    check_id: str
    params: str
    status: str  # pass, fail, or skip
    expected: str
    actual: str
    elapsed_ms: int


@dataclass
class SuiteReport:
    suite: str
    n_max: int
    checks: list[CheckRecord] = field(default_factory=list)

    def counts(self) -> tuple[int, int, int]:
        statuses = [c.status for c in self.checks]
        return statuses.count("pass"), statuses.count("fail"), statuses.count("skip")


def resolve_threads(value: int | None) -> int:
    if value is not None:
        if value < 1:
            raise ValueError("--threads must be at least 1")
        return value
    env = os.environ.get("GAMMA_FOREST_THREADS")
    if env:
        n = int(env)
        if n < 1:
            raise ValueError("GAMMA_FOREST_THREADS must be at least 1")
        return n
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _check(report: SuiteReport, check_id: str, params: str, expected, actual) -> None:
    t0 = time.perf_counter()
    try:
        exp = expected() if callable(expected) else expected
        act = actual() if callable(actual) else actual
        status = "pass" if exp == act else "fail"
        exp_s, act_s = str(exp), str(act)
    except Exception as exc:  # a crashed check is a failed check
        status = "fail"
        exp_s, act_s = "no error", f"error: {exc}"
    elapsed = int((time.perf_counter() - t0) * 1000)
    report.checks.append(CheckRecord(check_id, params, status, exp_s, act_s, elapsed))


def _double_factorial(m: int) -> int:
    # (m)!! for odd m; 1 when m <= 0
    return math.prod(range(m, 0, -2))


def _cap(module, n: int) -> int:
    # the limit an engine is called with; the table's ranges decide what runs
    return max(n, module.DEFAULT_CAP)


class _Engines:
    """Engine results shared by the checks of one verify run, keyed by function
    and arguments.  Only results are kept: a call that raises is made again by
    the next check that needs it, which then fails the same way."""

    def __init__(self, threads: int):
        self.threads = threads
        self._results: dict = {}

    def _get(self, fn, *args):
        key = (fn, args)
        if key not in self._results:
            self._results[key] = fn(*args)
        return self._results[key]

    def drake(self, n: int):
        return self._get(poly.drake_polynomial, n)

    def gamma(self, n: int):
        return self._get(poly.gamma_closed_form, n)

    def joint(self, n: int):
        return self._get(binary_trees.joint_statistics, n, self.threads, _cap(binary_trees, n))

    def word_pairs(self, m: int):
        return self._get(stirling.pair_statistics, m, _cap(stirling, m))

    def expansion(self, n: int):
        return self._get(symfunc.comb_type_expansion, n, _cap(binary_trees, n))

    def fmcomb(self, n: int, k: int):
        return self._get(symfunc.f_mcomb_direct, n, k)


@dataclass(frozen=True)
class _Block:
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
            lambda e, n: [poly.evaluate(e.drake(n), Fraction(-(n - i), i)) for i in range(1, n)]),
    )),
    _Block("drake", 1, rooted_trees, ("drake.descent-vs-product",), (
        ("drake.descent-vs-product",
            lambda e, n: list(e.drake(n).coeffs),
            lambda e, n: list(
                rooted_trees.descent_polynomial(n, e.threads, _cap(rooted_trees, n)).coeffs
            )),
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
    # n is m here: the Stirling permutations of {1,1,...,m,m} match the trees on [m + 1]
    _Block("stirling", 1, stirling, ("stirling.count",), (
        ("stirling.count",
            lambda e, m: _double_factorial(2 * m - 1),
            lambda e, m: sum(1 for _ in stirling.enumerate_stirling(m, _cap(stirling, m)))),
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
            lambda e, n, k: sum(
                symfunc.product_form_count(t, k) for t in binary_trees.enumerate_normalized(n)
            )),
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


def cmd_verify(suite: str, n_max: int, threads: int, cap_override: bool) -> SuiteReport:
    if suite not in SUITES:
        raise InvalidSuiteError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    report = SuiteReport(suite, n_max)
    engines = _Engines(threads)
    for block in _TABLE:
        if suite not in ("all", block.suite):
            continue
        last = block.last
        if not isinstance(last, int):
            last = n_max if cap_override else last.DEFAULT_CAP
        for n in range(block.first, n_max + 1):
            if n > last:
                for skip_id in block.skips:
                    report.checks.append(CheckRecord(skip_id, f"n={n}", "skip", "above-cap", "", 0))
                continue
            runs = [((n, k), f"n={n} k={k}") for k in block.colors] or [((n,), f"n={n}")]
            for args, params in runs:
                for check_id, *sides in block.checks:
                    expected, actual = (functools.partial(f, engines, *args) for f in sides)
                    _check(report, check_id, params, expected, actual)
    return report


def _render_verify(report: SuiteReport, fmt: str) -> str:
    passed, failed, skipped = report.counts()
    if fmt == "json":
        doc = {
            "suite": report.suite,
            "n_max": report.n_max,
            "checks": [
                {
                    "check": c.check_id,
                    "params": c.params,
                    "status": c.status,
                    "expected": c.expected,
                    "actual": c.actual,
                }
                for c in report.checks
            ],
            "passed": passed,
            "failed": failed,
            "skipped": skipped,
        }
        return json.dumps(doc, separators=(",", ":")) + "\n"
    lines = []
    for c in report.checks:
        if c.status == "skip":
            lines.append(f"SKIP {c.check_id} {c.params} reason={c.expected}")
        elif c.status == "pass":
            lines.append(f"PASS {c.check_id} {c.params} value={c.actual}")
        else:
            lines.append(f"FAIL {c.check_id} {c.params} expected={c.expected} actual={c.actual}")
    lines.append(
        f"TOTAL suite={report.suite} n_max={report.n_max} "
        f"passed={passed} failed={failed} skipped={skipped}"
    )
    return "\n".join(lines) + "\n"


def cmd_poly(n: int, basis: str, fmt: str) -> str:
    if basis == "gamma":
        g = poly.gamma_closed_form(n)
        if fmt == "json":
            return json.dumps(poly.gamma_to_json_dict(g), separators=(",", ":")) + "\n"
        if fmt == "csv":
            return ",".join(str(c) for c in g.gammas) + "\n"
        return "gamma: " + " ".join(str(c) for c in g.gammas) + "\n"
    p = poly.drake_polynomial(n)
    if fmt == "json":
        return json.dumps(poly.poly_to_json_dict(p), separators=(",", ":")) + "\n"
    if fmt == "csv":
        return ",".join(str(c) for c in p.coeffs) + "\n"
    return " ".join(str(c) for c in p.coeffs) + "\n"


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
        return _csv_text(chain([("stat", "count")], ((_stat_text(k), v) for k, v in items)))
    return "".join(f"{_stat_text(k)} {v}\n" for k, v in items)


ROW_CHUNK = 4096  # rows per stdout write in rows mode


@functools.cache
def _stat_text(value) -> str:
    if isinstance(value, tuple):  # a partition
        return "+".join(map(str, value)) if value else "0"
    return str(value)


@functools.cache
def _stat_json(value) -> str:
    return json.dumps(list(value) if isinstance(value, tuple) else value, separators=(",", ":"))


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


# Row sources: each returns an iterator over the lines of the requested format,
# or for csv over the cell tuples, header first.  The bytes of each format
# differ by family, so each family keeps its own.


def _object_rows(pairs, key: str, fmt: str):
    """Rows of (object string, statistic) pairs."""
    if fmt == "csv":
        return chain([("object", "stat")], ((obj, _stat_text(v)) for obj, v in pairs))
    if fmt == "json":
        return (f'{{"{key}":"{obj}","stat":{_stat_json(v)}}}\n' for obj, v in pairs)
    return (f"{obj}\t{_stat_text(v)}\n" for obj, v in pairs)


def _rooted_objects(n: int, cap: int):
    # (tree_to_json_dict(t) as compact JSON, des(t)) in one loop over the parent array
    edge_text = [[f"[{p},{x}]" for p in range(n + 1)] for x in range(n + 1)]
    head = f'{{"n":{n},"root":'
    for t in rooted_trees.enumerate_rooted_trees(n, cap):
        edges = []
        descents = 0
        for x, p in enumerate(t.parent):
            if p:
                edges.append(edge_text[x][p])
                descents += p > x
        yield f'{head}{t.root},"edges":[{",".join(edges)}]}}', descents


def _rooted_rows(stat: str, n: int, cap: int, fmt: str):
    objects = _rooted_objects(n, cap)
    if fmt == "csv":
        return chain([("object", "stat")], objects)
    if fmt == "json":
        return (f'{obj[:-1]},"stat":{d}}}\n' for obj, d in objects)
    return (f"{obj}\t{d}\n" for obj, d in objects)


def _stirling_rows(stat: str, n: int, cap: int, fmt: str):
    rows = stirling.statistics_rows(n, cap)
    if fmt == "csv":
        return chain(
            [("word", "aapair", "tnpair", "is_naas", "is_ntns")],
            ((w, aa, tn, int(naas), int(ntns)) for w, aa, tn, naas, ntns in rows),
        )
    col = 1 if stat == "aapair" else 2
    return _object_rows(((row[0], row[col]) for row in rows), "word", fmt)


def _colored_rows(colorings, fmt: str):
    rows = (
        (binary_trees.tree_to_string(t), ",".join(map(str, colors)), sum(colors))
        for t, colors in colorings
    )
    if fmt == "csv":
        return chain([("tree", "colors", "stat")], ((t, c.replace(",", " "), v) for t, c, v in rows))
    if fmt == "json":
        return (f'{{"tree":"{t}","colors":[{c}],"stat":{v}}}\n' for t, c, v in rows)
    return (f"{t}\t{c}\t{v}\n" for t, c, v in rows)


def _normalized_histogram(stat: str, n: int, threads: int, cap: int) -> dict:
    if stat == "combtype":
        return dict(binary_trees.comb_type_tally(n, cap))
    return binary_trees.marginal(binary_trees.joint_statistics(n, threads, cap), stat)


@dataclass(frozen=True)
class _Family:
    """An enumerate family: its statistics (the default first), the module whose
    DEFAULT_CAP bounds n, the object count that --mode auto compares with
    HISTOGRAM_THRESHOLD, and its histogram and row source.  Engines are looked
    up on their module at call time, so a rebound attribute is the one that runs."""

    stats: tuple[str, ...]
    module: ModuleType
    count: Callable[[int], int]
    histogram: Callable[[str, int, int, int], dict]
    rows: Callable[[str, int, int, str], Iterator]


FAMILIES = {
    "rooted": _Family(
        ("des",),
        rooted_trees,
        lambda n: n ** (n - 1),
        lambda stat, n, threads, cap: _nonzero(rooted_trees.descent_polynomial(n, threads, cap)),
        _rooted_rows,
    ),
    "normalized": _Family(
        binary_trees.ROW_STATS,
        binary_trees,
        lambda n: _double_factorial(2 * n - 3),
        _normalized_histogram,
        lambda stat, n, cap, fmt: _object_rows(binary_trees.normalized_rows(n, stat, cap), "tree", fmt),
    ),
    "combs": _Family(
        ("ones",),
        binary_trees,
        lambda n: n ** (n - 1),
        lambda stat, n, threads, cap: _nonzero(binary_trees.bicolored_comb_census(n, threads, cap)),
        lambda stat, n, cap, fmt: _colored_rows(binary_trees.enumerate_bicolored_combs(n, cap), fmt),
    ),
    "lyndon": _Family(
        ("ones",),
        binary_trees,
        lambda n: n ** (n - 1),
        lambda stat, n, threads, cap: _nonzero(binary_trees.bicolored_lyndon_census(n, threads, cap)),
        lambda stat, n, cap, fmt: _colored_rows(binary_trees.enumerate_bicolored_lyndon(n, cap), fmt),
    ),
    "stirling": _Family(
        ("tnpair", "aapair"),
        stirling,
        lambda n: _double_factorial(2 * n - 1),
        lambda stat, n, threads, cap: stirling.marginal(stirling.pair_statistics(n, cap), stat),
        _stirling_rows,
    ),
}


def _render_rows(family: str, stat: str, n: int, cap: int, fmt: str) -> Iterator[str]:
    """Rows-mode stdout in chunks of ROW_CHUNK rows, so memory stays bounded."""
    rows = FAMILIES[family].rows(stat, n, cap, fmt)
    join = _csv_text if fmt == "csv" else "".join
    while chunk := list(islice(rows, ROW_CHUNK)):
        yield join(chunk)


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
    threads: int,
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
    cap = _cap(spec.module, n)
    if mode == "auto":
        mode = "histogram" if spec.count(n) > HISTOGRAM_THRESHOLD else "rows"
    if mode == "histogram":
        hist = spec.histogram(stat, n, threads, cap)
        return [_render_histogram(family, stat, n, hist, fmt)], False
    return _render_rows(family, stat, n, cap, fmt), False


def cmd_symfunc(n: int, fmt: str, cap_override: bool) -> tuple[str, bool]:
    if refusal := _refusal("symfunc", binary_trees, n, cap_override):
        return refusal, True
    expansion = symfunc.comb_type_expansion(n, _cap(binary_trees, n))
    specialized = symfunc.specialize_two_vars(expansion)
    if fmt == "json":
        doc = {
            "n": n,
            "weight": expansion.weight,
            "expansion": symfunc.expansion_to_json_list(expansion),
            "specialization": poly.poly_to_json_dict(specialized),
        }
        return json.dumps(doc, separators=(",", ":")) + "\n", False
    if fmt == "csv":
        rows = [("lambda", "coeff")]
        rows += [(_stat_text(lam.parts), c) for lam, c in expansion.terms]
        rows.append(("specialization", " ".join(str(c) for c in specialized.coeffs)))
        return _csv_text(rows), False
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
            threads = resolve_threads(args.threads)
            t0 = time.perf_counter()
            report = cmd_verify(args.suite, args.n_max, threads, args.cap_override)
            sys.stdout.write(_render_verify(report, args.format))
            for c in report.checks:
                sys.stderr.write(f"# {c.check_id} {c.params} elapsed_ms={c.elapsed_ms}\n")
            sys.stderr.write(f"# suite elapsed_ms={int((time.perf_counter() - t0) * 1000)}\n")
            return 0 if report.counts()[1] == 0 else 1
        if args.n < 1:
            raise ValueError("--n must be a positive integer")
        if args.command == "poly":
            sys.stdout.write(cmd_poly(args.n, args.basis, args.format))
            return 0
        if args.command == "enumerate":
            threads = resolve_threads(args.threads)
            chunks, refused = cmd_enumerate(
                args.family, args.n, args.stat, args.format, args.mode, threads, args.cap_override
            )
        else:
            text, refused = cmd_symfunc(args.n, args.format, args.cap_override)
            chunks = [text]
        for chunk in chunks:
            sys.stdout.write(chunk)
        if refused:
            sys.stderr.write("# enumeration refused: size above cap\n")
        return 0
    except (InvalidSuiteError, IncompatibleStatError, LimitExceededError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
