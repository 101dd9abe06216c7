"""The benchmark's span tracer names functions that exist.

`perfbench/spans.py` rebinds each name in `TRACED` with `getattr`, so a
renamed engine would crash traced benchmark runs.  The tracer is loaded by
path and only read; nothing is installed.
"""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_are_callables_of_their_modules():
    spans = load_spans()
    for layer, names in spans.TRACED.items():
        module = spans.MODULES[layer]
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_span_tables_name_traced_functions():
    spans = load_spans()
    traced = {f"{layer}.{name}" for layer, names in spans.TRACED.items() for name in names}
    for table in (spans.KEY_ARITY, spans.OBJECTS_FROM_N, spans.COUNT_YIELDS, spans.RENDER):
        assert set(table) <= traced
