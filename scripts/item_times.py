#!/usr/bin/env python3
"""Per-item times of one benchmark workload, this checkout against a parent revision.

    python3 scripts/item_times.py --parent HEAD~1 --workload equiv_ladder --seed 1

The parent's committed files are unpacked with ``git archive`` (the helper
of ``ab_bench.py``). Each side then runs in its own process: it imports
the package from its checkout's ``src`` and the workload from its
``bench``, builds the items as ``bench/run.py`` does, and runs every item
in-process ``PASSES`` times through ``bench/run.py``'s ``Tally``, keeping
each item's minimum. Nothing under ``bench/`` is changed.

It prints the ``TOP`` slowest items (by the slower side), the worst per-item
change/parent ratio over all items and over those slowest ones, and the
totals. A regression confined to a few large items (the tail) shows here
even when ``items_per_s`` improves.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab_bench import ROOT, unpack  # noqa: E402

PASSES = 3  # each item's time is its minimum over this many in-process runs
TOP = 10    # the slowest items printed


def measure(checkout: str, workload: str, seed: int) -> dict:
    """Per-item minimum seconds over ``PASSES`` passes, in item order."""
    sys.path.insert(0, os.path.join(checkout, "bench"))
    import run  # the checkout's bench/run.py: package import, caps, item runner
    run._import_package()
    import inputs as gen
    from spans import API, plain_api
    from workloads import WORKLOADS
    caps, _ = run._clear_caps_env()
    work = WORKLOADS[workload]
    modules = {name: importlib.import_module(f"polarity_mc.{name}") for name in API}
    workdir = tempfile.mkdtemp(prefix="item-times-")
    try:
        data = work.make_inputs(random.Random(seed), "full")
        items = work.prepare(data, workdir, caps)
        gc.collect()
        gc.freeze()
        api = plain_api(modules)
        tally = run.Tally()
        for _ in range(PASSES):
            for item in items:
                tally.run(item, api)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    n = len(items)
    pattern = getattr(work, "PATTERN", ["item"])
    return {"digest": gen.digest(data), "failed": tally.failed,
            "mismatches": tally.mismatches,
            "times": [min(tally.latencies_ns[i::n]) / 1e9 for i in range(n)],
            "labels": [pattern[i % len(pattern)] for i in range(n)]}


def summarize(parent, change, labels, top: int = TOP) -> dict:
    """The ``top`` slowest items by the slower side, and the worst per-item
    change/parent ratio over all items and over those slowest ones.

    ``parent`` and ``change`` are per-item seconds in the same item order.
    Each item is reported as ``(index, label, parent s, change s, ratio)``.
    """
    if len(parent) != len(change) or len(parent) != len(labels):
        raise ValueError("the two sides ran different item lists")
    rows = [(i, labels[i], p, c, c / p) for i, (p, c) in enumerate(zip(parent, change))]
    slowest = sorted(rows, key=lambda r: (-max(r[2], r[3]), r[0]))[:top]
    return {
        "items": len(rows),
        "slowest": slowest,
        "worst": max(rows, key=lambda r: (r[4], -r[0])),
        "worst_of_slowest": max(slowest, key=lambda r: (r[4], -r[0])),
        "median_ratio": statistics.median(r[4] for r in rows),
        "total": (sum(parent), sum(change)),
    }


def run_side(checkout: str, args) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--measure", checkout,
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"measuring {checkout} failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _row(r) -> str:
    i, label, p, c, ratio = r
    return f"  {i:>5} {label:<10} {1e3 * p:>10.3f} {1e3 * c:>10.3f} {ratio:>7.3f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--measure", metavar="CHECKOUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure, args.workload, args.seed)))
        return 0
    if not args.parent:
        parser.error("--parent is required")

    tmp = tempfile.mkdtemp(prefix="item-times-parent-")
    try:
        unpack(args.parent, tmp)
        sides = {"parent": run_side(tmp, args), "change": run_side(ROOT, args)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    parent, change = sides["parent"], sides["change"]
    s = summarize(parent["times"], change["times"], change["labels"])
    print(f"workload {args.workload}, seed {args.seed}, {s['items']} items, minimum of "
          f"{PASSES} passes per item, parent {args.parent}")
    for name, side in sides.items():
        print(f"  {name}: failed item runs {side['failed']}, mismatches {side['mismatches']}, "
              f"input digest {side['digest']}")
    if parent["digest"] != change["digest"]:
        print("  warning: the two sides ran different inputs")
    print(f"  total: parent {s['total'][0]:.3f} s, change {s['total'][1]:.3f} s; "
          f"median per-item ratio {s['median_ratio']:.3f}")
    print(f"  {'item':>5} {'kind':<10} {'parent ms':>10} {'change ms':>10} {'ratio':>7}")
    for r in s["slowest"]:
        print(_row(r))
    print("  worst ratio among these:")
    print(_row(s["worst_of_slowest"]))
    print("  worst ratio over all items:")
    print(_row(s["worst"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
