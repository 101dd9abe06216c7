"""Span tracer for the benchmark's traced runs.

`Tracer.install()` rebinds the bulk public functions of each gamma_forest
module, in this process only, to wrappers that record a span per call.  The
package's own calls between modules go through module attributes, so they
are traced too.  Per-object statistics (`des`, `rdes`, `comb_type`,
`_pair_profile`, ...) are not wrapped: their cost lands in the caller's self
time, and the objects they see are counted from the enumerators' yields and
from `n`.

Time is charged exclusively: every interval between two span boundaries goes
to the span on top of the stack, so the self times of all spans add up to the
traced wall time exactly.  A generator's span is on the stack only while the
generator runs, never while its consumer's loop body does.
"""

from __future__ import annotations

import functools
import inspect
import resource
import time

from gamma_forest import binary_trees, cli, poly, rooted_trees, stirling, symfunc

MODULES = {
    "poly": poly,
    "rooted_trees": rooted_trees,
    "binary_trees": binary_trees,
    "stirling": stirling,
    "symfunc": symfunc,
    "cli": cli,
}

TRACED = {
    "poly": (
        "drake_polynomial",
        "gamma_closed_form",
        "to_gamma_basis",
        "from_gamma_basis",
        "eulerian_polynomial",
        "eulerian_gamma_count",
    ),
    "rooted_trees": ("enumerate_rooted_trees", "descent_polynomial"),
    "binary_trees": (
        "enumerate_normalized",
        "enumerate_bicolored_combs",
        "enumerate_bicolored_lyndon",
        "enumerate_colored_combs",
        "joint_statistics",
        "distribution_ndrd_rdes",
        "distribution_ndnl_nlyn",
        "bicolored_comb_census",
        "bicolored_lyndon_census",
    ),
    "stirling": (
        "enumerate_stirling",
        "distribution_naas_aapair",
        "distribution_ntns_tnpair",
        "statistics_rows",
    ),
    "symfunc": (
        "comb_type_expansion",
        "f_mcomb_direct",
        "expansion_in_variables",
        "specialize_two_vars",
    ),
    # cli renders through private helpers; they are spanned to split
    # rendering from the rest of cli's own time.
    "cli": ("main", "_render_verify", "_render_rows", "_render_histogram"),
}
RENDER = {"cli._render_verify", "cli._render_rows", "cli._render_histogram"}


def _double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


# Arguments that identify the work of a call, for the calls-per-argument
# ratios: n, and the colour count k where there is one.
KEY_ARITY = {"symfunc.f_mcomb_direct": 2, "binary_trees.enumerate_colored_combs": 2}

# Objects visited by engines that do not yield them, counted from n.
OBJECTS_FROM_N = {
    "rooted_trees.descent_polynomial": lambda n: n ** (n - 1),
    "binary_trees.joint_statistics": lambda n: _double_factorial(2 * n - 3),
}
# Enumerators whose yields are the layer's objects.  The others (colorings,
# statistic rows) consume one of these, which counts the objects once.
COUNT_YIELDS = {
    "rooted_trees.enumerate_rooted_trees",
    "binary_trees.enumerate_normalized",
    "stirling.enumerate_stirling",
}


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Span:
    __slots__ = (
        "id", "name", "layer", "parent", "args", "start", "end",
        "busy", "self_s", "entered", "cpu0", "cpu", "objects", "outer",
    )

    def __init__(self, span_id, name, layer, parent, args, now):
        self.id = span_id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.args = args
        self.start = now
        self.end = now
        self.busy = 0.0
        self.self_s = 0.0
        self.entered = 0.0
        self.cpu0 = _cpu()
        self.cpu = 0.0
        self.objects = 0
        self.outer = True

    def to_dict(self, t0: float) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "args": list(self.args),
            "start": self.start - t0,
            "end": self.end - t0,
            "busy_s": self.busy,
            "self_s": self.self_s,
            "cpu_s": self.cpu,
            "objects": self.objects,
        }


class Tracer:
    """Spans kept in memory; `report()` turns them into per-layer metrics."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.mark = 0.0
        self.depth = {layer: 0 for layer in (*MODULES, "harness")}
        self.layer_entered = dict.fromkeys(self.depth, 0.0)
        self.layer_busy = dict.fromkeys(self.depth, 0.0)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for layer, names in TRACED.items():
            module = MODULES[layer]
            for fname in names:
                fn = getattr(module, fname)
                setattr(module, fname, self._wrap(f"{layer}.{fname}", layer, fn))

    def _wrap(self, name, layer, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                span = self._open(name, layer, args)
                return self._drive(span, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, layer, args)
            self._push(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop(span)
                self._close(span)

        return wrapper

    def _drive(self, span, gen):
        count = span.name in COUNT_YIELDS
        try:
            while True:
                self._push(span)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._pop(span)
                if count:
                    span.objects += 1
                yield item
        finally:
            self._push(span)
            try:
                gen.close()
            finally:
                self._pop(span)
                self._close(span)

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name, layer, args) -> Span:
        ints = tuple(a for a in args if isinstance(a, int))[: KEY_ARITY.get(name, 1)]
        span = Span(len(self.spans), name, layer, self.stack[-1].id, ints, time.perf_counter())
        span.outer = not self.depth[layer]
        objects = OBJECTS_FROM_N.get(name)
        if objects is not None and ints:
            span.objects = objects(ints[0])
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu = _cpu() - span.cpu0

    def _push(self, span: Span) -> None:
        now = time.perf_counter()
        self.stack[-1].self_s += now - self.mark
        self.mark = now
        self.stack.append(span)
        span.entered = now
        layer = span.layer
        if not self.depth[layer]:
            self.layer_entered[layer] = now
        self.depth[layer] += 1

    def _pop(self, span: Span) -> None:
        now = time.perf_counter()
        span.self_s += now - self.mark
        self.mark = now
        self.stack.pop()
        span.busy += now - span.entered
        layer = span.layer
        self.depth[layer] -= 1
        if not self.depth[layer]:
            self.layer_busy[layer] += now - self.layer_entered[layer]

    def start(self) -> None:
        root = Span(0, "harness", "harness", None, (), time.perf_counter())
        self.spans.append(root)
        self.stack.append(root)
        self.mark = root.start
        root.entered = root.start
        self.depth["harness"] = 1
        self.layer_entered["harness"] = root.start

    def stop(self) -> None:
        root = self.spans[0]
        self._pop(root)
        self._close(root)
        self.stack.clear()

    # -- report -----------------------------------------------------------

    def report(self) -> dict[str, float]:
        spans = self.spans[1:]
        by_layer = {layer: [s for s in spans if s.layer == layer] for layer in MODULES}
        out: dict[str, float] = {}
        for layer, layer_spans in by_layer.items():
            busy = self.layer_busy[layer]
            out[f"{layer}.calls"] = len(layer_spans)
            out[f"{layer}.busy_s"] = busy
            out[f"{layer}.self_s"] = sum(s.self_s for s in layer_spans)
            objects = sum(s.objects for s in layer_spans)
            out[f"{layer}.objects"] = objects
            out[f"{layer}.objects_per_s"] = objects / busy if busy else 0.0
            # Outermost spans of the layer, over their whole lifetime: calls
            # that fork a pool spend more CPU than wall time.
            outer = [s for s in layer_spans if s.outer]
            wall = sum(s.end - s.start for s in outer)
            out[f"{layer}.cpu_per_wall"] = sum(s.cpu for s in outer) / wall if wall else 0.0
            # Useful work: calls of functions taking n over distinct arguments.
            keyed = [(s.name, s.args) for s in layer_spans if s.args]
            out[f"{layer}.calls_per_arg"] = len(keyed) / len(set(keyed)) if keyed else 0.0
        out["binary_trees.calls_per_n"] = out.pop("binary_trees.calls_per_arg")
        out["stirling.words"] = out.pop("stirling.objects")
        out["stirling.words_per_s"] = out.pop("stirling.objects_per_s")
        for fname in ("gamma_closed_form", "to_gamma_basis", "from_gamma_basis"):
            out[f"poly.{fname}.busy_s"] = sum(
                s.busy for s in by_layer["poly"] if s.name == f"poly.{fname}"
            )
        passes = [s.args for s in by_layer["stirling"] if s.name == "stirling.enumerate_stirling"]
        out["stirling.passes_per_n"] = len(passes) / len(set(passes)) if passes else 0.0
        out["cli.render_s"] = sum(s.self_s for s in by_layer["cli"] if s.name in RENDER)
        out["harness.self_s"] = self.spans[0].self_s
        out["traced_wall_s"] = self.spans[0].busy
        return out

    def dump_spans(self) -> list[dict]:
        t0 = self.spans[0].start
        return [s.to_dict(t0) for s in self.spans]
