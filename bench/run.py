"""Benchmark for polarity-mc: one workload, one seed, one run.

    python3 bench/run.py --workload equiv_ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else. Each run is a single process and thread
driving a closed loop: the next item starts only when the previous one has
finished. Set-up (input generation, model files, model loading) is repeated
at least ``SETUP_REPS`` times and for at least ``SETUP_MIN_S`` seconds, and
its median reported as ``setup_s``.

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates untraced and traced passes over a fixed batch of
items and reports the per-layer metrics (see spans.py).

The second-to-last line of standard output is a JSON ``detail`` record
(input digest and properties, caps in force, failure and mismatch counts,
the tail percentile and sample count); the last line is the result object.
Exit status is 0 unless the run could not be set up.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPS = 5      # set-up runs at least this many times
SETUP_MIN_S = 1.0   # and until this much set-up time has accumulated
TAIL_BEYOND = 10  # the tail percentile keeps at least this many items above it


def _import_package():
    """Import polarity_mc from this checkout's src/, or exit with status 2."""
    init = os.path.join(SRC_DIR, "polarity_mc", "__init__.py")
    if not os.path.isfile(init):
        print(f"error: no package source at {init}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC_DIR)
    import polarity_mc
    if os.path.realpath(polarity_mc.__file__) != os.path.realpath(init):
        print(f"error: polarity_mc imported from {polarity_mc.__file__}, "
              f"not from {SRC_DIR}", file=sys.stderr)
        sys.exit(2)


def _clear_caps_env():
    """Drop POLARITY_MC_CAPS (it silently changes which work is allowed) and
    return the caps in force."""
    from polarity_mc.config import ENV_VAR, Caps
    previous = os.environ.pop(ENV_VAR, None)
    caps = Caps.from_env()
    return caps, {"cleared": previous, "lattice": caps.lattice,
                  "filters": caps.filters, "power": caps.power}


def _setup(workload, seed: int, size: str, workdir: str, caps):
    """Generate inputs and items repeatedly; return the last set-up, the
    median set-up time and the input digest."""
    import inputs as gen
    times, digests = [], set()
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        start = time.perf_counter()
        data = workload.make_inputs(random.Random(seed), size)
        items = workload.prepare(data, workdir, caps)
        times.append(time.perf_counter() - start)
        digests.add(gen.digest(data))
    if len(digests) != 1:
        raise RuntimeError("the same seed produced different inputs")
    return data, items, statistics.median(times), digests.pop()


class Tally:
    """Latencies, mismatches and failures of the items run so far."""

    def __init__(self):
        self.latencies_ns = []
        self.mismatches = 0
        self.failed = 0

    def run(self, item, api) -> int:
        start = time.perf_counter_ns()
        try:
            self.mismatches += item(api)
        except Exception:  # a failed or refused item is counted, not fatal
            if not self.failed:
                traceback.print_exc(file=sys.stderr)
            self.failed += 1
        elapsed = time.perf_counter_ns() - start
        self.latencies_ns.append(elapsed)
        return elapsed


def measure(items, api, seconds: float) -> dict:
    """The closed loop: run items in cycle order until ``seconds`` have passed."""
    tally = Tally()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        tally.run(items[i % len(items)], api)
        i += 1
        if time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - start
    lat = sorted(tally.latencies_ns)
    n = len(lat)
    tail_index = max(0, n - TAIL_BEYOND - 1)
    return {
        "tally": tally,
        "items_per_s": n / elapsed,
        "item_p50_ms": statistics.median(lat) / 1e6,
        "item_tail_ms": lat[tail_index] / 1e6,
        "tail_percentile": round(100 * tail_index / n, 3),
        "samples": n,
    }


def traced_passes(items, api, modules, seconds: float):
    """Alternate untraced and traced passes over ``items`` while another pair
    of passes still fits in ``seconds`` (at least one pair)."""
    from spans import Tracer
    tally = Tally()
    passes, untraced_ns, traced_ns, budget_violations = [], 0, 0, 0
    deadline = time.perf_counter() + seconds
    tracer = None

    def traced_pass() -> int:
        nonlocal tracer, budget_violations
        tracer = Tracer()
        walls = []
        with tracer.installed(modules) as traced_api:
            for index, item in enumerate(items):
                tracer.item = index
                walls.append(tally.run(item, traced_api))
        self_ns = tracer.item_self_ns()
        budget_violations += sum(self_ns.get(i, 0) > wall for i, wall in enumerate(walls))
        passes.append(tracer.pass_totals())
        return sum(walls)

    pair_s = 0.0
    while not passes or time.perf_counter() + pair_s < deadline:
        start = time.perf_counter()
        # Alternate which side goes first, so warm-up favours neither.
        if len(passes) % 2:
            traced_ns += traced_pass()
            untraced_ns += sum(tally.run(item, api) for item in items)
        else:
            untraced_ns += sum(tally.run(item, api) for item in items)
            traced_ns += traced_pass()
        pair_s = time.perf_counter() - start
    return tally, passes, traced_ns / untraced_ns, budget_violations, tracer


def write_spans(tracer, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "item"],
                   "spans": tracer.spans}, fh)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the self-test")
    args = parser.parse_args(argv)

    _import_package()
    from spans import API, layer_metrics, plain_api
    from workloads import WORKLOADS, SetupError
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    modules = {name: importlib.import_module(f"polarity_mc.{name}") for name in API}

    caps, caps_record = _clear_caps_env()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        data, items, setup_s, digest = _setup(workload, args.seed, args.size,
                                              workdir, caps)
        detail = {"workload": workload.name, "seed": args.seed, "size": args.size,
                  "input_digest": digest, "inputs": workload.properties(data),
                  "caps": caps_record}
        if hasattr(workload, "guard"):
            detail["guard"] = workload.guard(data)
        # Keep the collector from rescanning the benchmark's own inputs: a
        # full collection then costs what the program's objects cost.
        gc.collect()
        gc.freeze()
        api = plain_api(modules)
        if args.trace:
            batch = items[:workload.TRACE_BATCH]
            tally, passes, overhead, violations, tracer = traced_passes(
                batch, api, modules, args.seconds)
            metrics = layer_metrics(passes, overhead)
            write_spans(tracer, os.path.join(OUT_DIR, f"spans-{workload.name}-{args.seed}.json"))
            detail.update(traced_passes=len(passes), batch_items=len(batch),
                          self_time_over_wall=violations)
        else:
            result = measure(items, api, args.seconds)
            tally = result["tally"]
            metrics = {
                "items_per_s": {"value": result["items_per_s"], "unit": "1/s"},
                "item_p50_ms": {"value": result["item_p50_ms"], "unit": "ms"},
                "item_tail_ms": {"value": result["item_tail_ms"], "unit": "ms"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "unit": "MB"},
                "setup_s": {"value": setup_s, "unit": "s"},
            }
            violations = 0
            detail.update(item_tail_percentile=result["tail_percentile"],
                          samples=result["samples"])
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(tally.latencies_ns)
    detail.update(attempted=attempted, failed_ratio=tally.failed / attempted,
                  mismatch_count=tally.mismatches)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": tally.mismatches == 0 and tally.failed == 0 and not violations,
                      "attempted": attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
