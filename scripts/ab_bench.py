#!/usr/bin/env python3
"""A/B comparison of this checkout against a parent revision on the benchmark.

    python3 scripts/ab_bench.py --parent HEAD~1 --workload equiv_ladder --seed 1 --pairs 10

The parent's committed files are unpacked with ``git archive`` into a
temporary directory (the repository's ``.git`` is only read). Each pair
runs ``bench/run.py --trace 0`` once in the parent and once in this
checkout's working tree, one after the other, alternating which side goes
first. For every end-to-end metric of ``BENCHMARK.json`` it prints each
side's median and quartiles, the change's median over the parent's, the
parent's interquartile range over its median, and the fraction of pairs
the change won (ties count for neither side). A gain is reported when the
change wins at least nine tenths of the pairs and the medians differ by
more than the parent's interquartile range.

Each metric also gets a regression verdict against its ``bound`` in
``BENCHMARK.json``: ``ok`` when every change run beats every parent run,
``unresolved`` otherwise when the parent's interquartile range over its
median exceeds the bound, ``worse`` when the change's median is worse than
the parent's by more than the bound (relative to the parent's median), and
``ok`` otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unpack(rev: str, dest: str) -> None:
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"bench/run.py failed in {checkout} "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent, change, better: str, bound: float) -> str:
    """``ok``, ``worse`` or ``unresolved``: see the module docstring."""
    sign = 1 if better == "higher" else -1
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return "ok"
    q1, median, q3 = quartiles(parent)
    if not median or (q3 - q1) / median > bound:
        return "unresolved"
    if sign * (median - statistics.median(change)) > bound * median:
        return "worse"
    return "ok"


def summarize(runs, metrics):
    """Per-metric medians, quartiles, ratio, parent spread, wins and verdict."""
    out = {}
    pairs = len(runs["parent"])
    for name, better, bound in metrics:
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        pq, cq = quartiles(parent), quartiles(change)
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        gain = sign * (cq[1] - pq[1])
        out[name] = {
            "better": better,
            "parent": {"median": pq[1], "q1": pq[0], "q3": pq[2], "runs": parent},
            "change": {"median": cq[1], "q1": cq[0], "q3": cq[2], "runs": change},
            "ratio": cq[1] / pq[1] if pq[1] else None,
            "parent_iqr_over_median": (pq[2] - pq[0]) / pq[1] if pq[1] else None,
            "wins": wins,
            "pairs": pairs,
            "gain": wins >= 0.9 * pairs and gain > pq[2] - pq[0],
            "verdict": verdict(parent, change, better, bound),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]

    tmp = tempfile.mkdtemp(prefix="ab-parent-")
    try:
        unpack(args.parent, tmp)
        sides = {"parent": tmp, "change": ROOT}
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_bench(sides[side], args.workload, args.seed, seconds))
            print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    digests = {r["detail"]["input_digest"] for side in runs.values() for r in side}
    summary = summarize(runs, metrics)
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{seconds:g} s runs, parent {args.parent}")
    for side, side_runs in runs.items():
        bad = [r for r in side_runs if not r["correct"]]
        print(f"  {side}: {len(side_runs) - len(bad)}/{len(side_runs)} runs correct, "
              f"failed items {sum(r['failed'] for r in side_runs)}")
    if len(digests) != 1:
        print(f"  warning: the two sides ran different inputs ({len(digests)} digests)")
    print(f"  {'metric':<13} {'parent median [q1-q3]':<32} {'change median [q1-q3]':<32}"
          f" {'ratio':>6} {'p.iqr':>6} {'wins':>6}  gain  verdict")
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        ratio = f"{s['ratio']:.3f}" if s["ratio"] is not None else "-"
        spread = (f"{s['parent_iqr_over_median']:.3f}"
                  if s["parent_iqr_over_median"] is not None else "-")
        cells = [f"{d['median']:.4g} [{d['q1']:.4g}-{d['q3']:.4g}]" for d in (p, c)]
        print(f"  {name:<13} {cells[0]:<32} {cells[1]:<32} {ratio:>6} {spread:>6}"
              f" {s['wins']:>3}/{s['pairs']:<2}  {'yes' if s['gain'] else 'no':<4}  {s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
