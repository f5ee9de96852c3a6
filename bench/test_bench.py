"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_bench.py -q

Checks that each run prints every metric named in BENCHMARK.json with its
unit, that no verdict disagrees and no item fails, that the same seed gives
the same input digest, and that the benchmark refuses to run without the
package source next to it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT, seed=1):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check_result(result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run(workload):
    first, result = parse(run(workload, 0))
    check_result(result, SPEC["end_to_end"])
    assert first["mismatch_count"] == 0 and first["failed_ratio"] == 0
    second, _ = parse(run(workload, 0))
    assert first["input_digest"] == second["input_digest"]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    detail, result = parse(run(workload, 1))
    check_result(result, SPEC["per_layer"])
    assert detail["mismatch_count"] == 0 and detail["failed_ratio"] == 0
    assert detail["self_time_over_wall"] == 0


def test_other_seed_other_inputs():
    one, _ = parse(run("modal_sweep", 0, seed=1))
    two, _ = parse(run("modal_sweep", 0, seed=2))
    assert one["input_digest"] != two["input_digest"]


def test_refuses_without_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
