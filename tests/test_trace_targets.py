"""Every function the benchmark tracer wraps still exists under its traced name.

``bench/run.py`` only prints the targets it cannot find, so a renamed function
would silently drop out of the per-layer trace; this check fails instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_trace_target_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # The tracer patches only the muown modules loaded when it starts, so a
    # module it imported itself would keep the wrappers after uninstall.
    originals = {}
    for _, modname, attr in spans.TARGETS:
        module = importlib.import_module(modname)
        if "." not in attr:  # methods are patched on their class
            originals[attr] = getattr(module, attr, None)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    left = [f"{name}.{attr}" for name, module in list(sys.modules.items())
            if name == "muown" or name.startswith("muown.")
            for attr, orig in originals.items()
            if attr in vars(module) and vars(module)[attr] is not orig]
    assert left == []
