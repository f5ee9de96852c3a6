"""Spans for the traced run, recorded from the benchmark's side only.

The benchmark calls the package through an ``api`` namespace. In an
untraced run it holds the package's functions themselves; in a traced run
each is wrapped to record a span, and the module-bound names through which
one layer calls another (``INTERNAL``) are swapped for wrappers too, then
restored. The recursive entry points (``sat_sets``, ``extension``,
``fol_eval``) are never swapped inside the package, so they are timed only
at the benchmark's own top-level call.

A span is ``[name, start_ns, end_ns, parent_index, item_id]``; its self time
is its duration minus that of its direct children. With one thread, busy
time equals self time.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from types import SimpleNamespace
from typing import Dict, List

# Public functions the benchmark calls, by module.
API = {
    "modelio": ("model_from_dict", "kripke_from_dict"),
    "model": ("validate_model", "lift_kripke"),
    "formula": ("parse_formula", "parse_sequent"),
    "lattice": ("filter_ideal_extension",),
    "simrel": ("hm_check", "modal_equiv_oracle", "bisimilar_points",
               "greatest_simulation", "greatest_bisimulation",
               "is_simulation", "is_bisimulation"),
    "semantics": ("sat_sets", "extension", "models_sequent", "fol_sat_points",
                  "fol_eval"),
    "fol": ("st_g", "st_m"),
    "cli": ("main",),
}

# Names bound in one module and called from inside another layer.
INTERNAL = (
    ("simrel", "concept_lattice"), ("simrel", "box_op"), ("simrel", "dia_op"),
    ("simrel", "modal_equiv_oracle"), ("simrel", "greatest_simulation"),
    ("lattice", "concept_lattice"), ("lattice", "box_op"), ("lattice", "dia_op"),
    ("semantics", "fol_assignments"),
    ("modelio", "model_from_dict"), ("modelio", "kripke_from_dict"),
    ("formula", "parse_formula"),
    ("cli", "validate_model"), ("cli", "parse_formula"),
    ("cli", "models_sequent"),
)

SPAN_NAMES = sorted({f"{mod}.{fn}" for mod, fns in API.items() for fn in fns}
                    | {"lattice.concept_lattice", "lattice.box_op",
                       "lattice.dia_op", "semantics.fol_assignments"})

# Per-layer metrics: calls and self time of every span name, plus counts
# recorded at the same boundaries.
LAYER_METRICS = ([(f"{name}.calls", "count") for name in SPAN_NAMES]
                 + [(f"{name}.self_s", "s") for name in SPAN_NAMES]
                 + [("lattice.concept_lattice.concepts_sum", "count"),
                    ("lattice.concept_lattice.concepts_max", "count"),
                    ("simrel.greatest_simulation.kept_ratio", "ratio"),
                    ("simrel.greatest_bisimulation.kept_ratio", "ratio"),
                    ("trace.overhead_ratio", "ratio")])


def span_name(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__


def plain_api(modules: Dict[str, object]) -> SimpleNamespace:
    return SimpleNamespace(**{fn: getattr(modules[mod], fn)
                              for mod, fns in API.items() for fn in fns})


class Tracer:
    """Collects spans and boundary counts for one traced pass."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.item = -1
        self._stack: List[int] = []

    def wrap(self, fn):
        name = span_name(fn)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter_ns(), 0, stack[-1] if stack else -1,
                          self.item])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter_ns()
            if name == "lattice.concept_lattice":
                counts["concepts_sum"] += len(result)
                counts["concepts_max"] = max(counts["concepts_max"], len(result))
            elif name in ("simrel.greatest_simulation", "simrel.greatest_bisimulation"):
                m1, m2 = args[:2]
                counts[name + ".kept"] += len(result.s) + len(result.t)
                counts[name + ".candidates"] += (len(m1.objects) * len(m2.objects)
                                                 + len(m1.attributes) * len(m2.attributes))
            return result

        return traced

    @contextmanager
    def installed(self, modules: Dict[str, object]):
        """Yield a traced api namespace with the internal bound names wrapped."""
        saved = []
        try:
            for mod, attr in INTERNAL:
                fn = getattr(modules[mod], attr)
                saved.append((modules[mod], attr, fn))
                setattr(modules[mod], attr, self.wrap(fn))
            api = {}
            for mod, fns in API.items():
                for fn in fns:
                    value = getattr(modules[mod], fn)
                    api[fn] = value if (mod, fn) in INTERNAL else self.wrap(value)
            yield SimpleNamespace(**api)
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> List[int]:
        """Self time of every span, in span order."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def pass_totals(self) -> Dict[str, float]:
        """Calls, self seconds and counts of this pass, keyed by metric name."""
        out = {f"{name}.calls": 0.0 for name in SPAN_NAMES}
        out.update({f"{name}.self_s": 0.0 for name in SPAN_NAMES})
        for span, self_ns in zip(self.spans, self.self_times()):
            out[f"{span[0]}.calls"] += 1
            out[f"{span[0]}.self_s"] += self_ns / 1e9
        out["lattice.concept_lattice.concepts_sum"] = self.counts["concepts_sum"]
        out["lattice.concept_lattice.concepts_max"] = self.counts["concepts_max"]
        for name in ("simrel.greatest_simulation", "simrel.greatest_bisimulation"):
            cand = self.counts[name + ".candidates"]
            out[name + ".kept_ratio"] = self.counts[name + ".kept"] / cand if cand else 0.0
        return out

    def item_self_ns(self) -> Dict[int, int]:
        out: Dict[int, int] = defaultdict(int)
        for span, self_ns in zip(self.spans, self.self_times()):
            out[span[4]] += self_ns
        return out


def layer_metrics(passes: List[Dict[str, float]], overhead_ratio: float) -> dict:
    """Median over traced passes of every per-layer metric, with units."""
    out = {}
    for name, unit in LAYER_METRICS:
        if name == "trace.overhead_ratio":
            value = overhead_ratio
        else:
            value = statistics.median(p[name] for p in passes)
        out[name] = {"value": value, "unit": unit}
    return out
