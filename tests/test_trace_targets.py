"""Every function the benchmark tracer wraps still exists under its traced name.

``bench/run.py`` only prints the targets it cannot find, so a renamed function
would silently drop out of the per-layer trace; this check fails instead.
"""

import importlib.util
from pathlib import Path

import muown.cli  # noqa: F401 - the tracer patches every loaded muown module

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_trace_target_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
