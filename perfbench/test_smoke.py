"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench

Runs ``run.py`` the way a benchmark runner calls it and checks its
contract: every metric of BENCHMARK.json is emitted with its unit, span self
times are never negative, deterministic counts repeat exactly, a failing
check is counted, and a directory without the program refuses to run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )


def run_tiny(workload: str, trace: int, seed: int = 5):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report_path = next(line.split(" ", 1)[1] for line in lines if line.startswith("report "))
    return proc.returncode, result, json.loads((ROOT / report_path).read_text())


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_digests(workload):
    code, result, report = run_tiny(workload, trace=0)
    assert code == 0, report["problems"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["failed_ratio"] == 0
    for digest in report["digests"].values():
        assert len(digest["sha256"]) == 64 and digest["agreeing"] == digest["runs"] >= 2
    env = report["environment"]
    assert env["nproc"] >= 1 and env["python"] and env["numpy"] and env["jsonschema"]
    assert env["thread_pins"]["OMP_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_spans_and_counts(workload):
    code, first, report = run_tiny(workload, trace=1)
    assert code == 0, report["problems"]
    assert units(first["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert first["metrics"]["harness.run.calls"]["value"] >= 1
    accounting = report["accounting"]
    assert 0.98 <= accounting["accounted_share"] <= 1.0

    spans = np.load(ROOT / report["spans_file"])
    duration = spans["end"] - spans["start"]
    assert (duration >= 0).all()
    children = spans["parent"] >= 0
    child_ns = np.bincount(spans["parent"][children], weights=duration[children],
                           minlength=duration.size)
    assert (duration - child_ns >= 0).all()

    _, second, _ = run_tiny(workload, trace=1)
    counts = {name for name, m in first["metrics"].items() if m["unit"] == "count"}
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_benchmark_json_lists_the_measured_workloads():
    assert tuple(WORKLOADS) == workloads.MEASURED


def test_failing_check_is_counted():
    code, result, report = run_tiny("fault-injection", trace=0)
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"] >= 2
    assert report["failed_ratio"] == 1.0
    assert all("exit code 3" in p for p in report["problems"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
