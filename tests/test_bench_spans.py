"""The names the benchmark's traced runs wrap must exist in the package.

``bench/spans.py`` swaps module-bound names (``INTERNAL``) and wraps the
public entry points (``API``) by attribute lookup; a name that a refactor
drops fails only the slow benchmark self-test, so it is checked here.
"""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), "..", "bench", "spans.py")


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    bound = [(mod, fn) for mod, fns in spans.API.items() for fn in fns]
    bound += list(spans.INTERNAL)
    missing = [f"{mod}.{fn}" for mod, fn in bound
               if not callable(getattr(importlib.import_module("polarity_mc." + mod),
                                       fn, None))]
    assert missing == []
