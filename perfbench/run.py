"""Benchmark of horolab's shipped experiments, end to end and per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory and horolab
is imported from its ``src``.  One closed-loop client: a single process runs
one config at a time, with BLAS and OpenMP threads pinned to 1.  Every
repetition is a fresh process (``rep.py``), so import cost and memory belong
to the repetition that paid them.

``--trace 0`` times set-up probes and untraced repetitions until ``--seconds``
is spent (at least two repetitions, so artifact digests can be compared) and
reports the end-to-end metrics.  ``--trace 1`` alternates an untraced and a
traced repetition and reports the per-layer metrics of ``layers.PER_LAYER``.

The last line of a workload's output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--workload all`` prints one such
block per measured workload.  The full record, with quartiles, per-config
artifact digests and the environment, goes to ``.perfbench_out/`` in the
checkout.  Exit code 0 when every run was correct, 1 when some run failed
(the result is still printed), 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)}
SETUP_PROBES = 3
MIN_REPS = 2
# Every child must end in time for this script to exit within 180 s.
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Bench:
    def __init__(self, args: argparse.Namespace, workload: str) -> None:
        self.args = args
        self.workload = workload
        self.start = time.monotonic()
        self.work = OUT / f"{workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_PINS)
        self.spawned = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def spawn(self, mode: str) -> Dict:
        """Run one repetition process and return its result record."""
        self.spawned += 1
        rep_dir = self.work / f"rep{self.spawned:03d}-{mode}"
        rep_dir.mkdir(parents=True)
        result_path = rep_dir / "result.json"
        cmd = [sys.executable, str(HERE / "rep.py"), "--workload", self.workload,
               "--seed", str(self.args.seed), "--scale", self.args.scale, "--mode", mode,
               "--work-dir", str(rep_dir), "--result", str(result_path)]
        timeout = HARD_LIMIT_S - self.elapsed()
        if timeout <= 0:
            raise BenchError("out of time before the next repetition")
        try:
            proc = subprocess.run(cmd + ["--spawn-ns", str(time.monotonic_ns())],
                                  env=self.env, cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} repetition exceeded {timeout:.0f} s") from exc
        if proc.returncode != 0 or not result_path.is_file():
            raise BenchError(f"{mode} repetition exited with code {proc.returncode}")
        return json.loads(result_path.read_text())

    def repeat(self, modes: Sequence[str], min_rounds: int) -> List[Dict]:
        """Cycle through ``modes`` until another round would overrun --seconds."""
        records: List[Dict] = []
        rounds = 0
        while True:
            round_start = self.elapsed()
            for mode in modes:
                records.append(self.spawn(mode))
            rounds += 1
            round_s = self.elapsed() - round_start
            if rounds >= min_rounds and self.elapsed() + round_s > self.args.seconds:
                return records


def rep_total(record: Dict, key: str) -> float:
    """Sum of ``key`` ("wall_s" or "cpu_s") over one repetition's runs."""
    return sum(run[key] for run in record["runs"])


def judge_runs(records: List[Dict]) -> Dict:
    """Count failed runs, including digest disagreement at the same seed."""
    runs = [run for rec in records for run in rec["runs"]]
    digests = {}
    for case in dict.fromkeys(run["case"] for run in runs):
        seen = Counter(run["digest"] for run in runs
                       if run["case"] == case and run["digest"] is not None)
        if not seen:
            digests[case] = {"sha256": None, "agreeing": 0, "runs": 0}
            continue
        reference, agreeing = seen.most_common(1)[0]
        for run in runs:
            if run["case"] == case and run["digest"] not in (None, reference):
                run["problems"].append(f"artifact digest {run['digest']} differs from {reference}")
        digests[case] = {"sha256": reference, "agreeing": agreeing,
                         "runs": sum(seen.values())}
    failed = [run for run in runs if run["problems"]]
    return {"attempted": len(runs), "failed": len(failed), "digests": digests,
            "problems": [f"{run['case']}: {p}" for run in failed for p in run["problems"]]}


def end_to_end(bench: Bench) -> Dict:
    bench.spawn("setup")  # warm-up: fills the bytecode and page caches
    setups = [bench.spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    records = bench.repeat(["run"], min_rounds=MIN_REPS)
    setups += [rec["setup_s"] for rec in records]
    series = {
        "setup_s": setups,
        "wall_s": [rep_total(rec, "wall_s") for rec in records],
        "cpu_s": [rep_total(rec, "cpu_s") for rec in records],
        "peak_rss_mib": [rec["peak_rss_mib"] for rec in records],
    }
    stats = {name: dict(quartiles(values), unit=END_TO_END_UNITS[name])
             for name, values in series.items()}
    case_walls: Dict[str, List[float]] = {}
    for rec in records:
        for run in rec["runs"]:
            case_walls.setdefault(run["case"], []).append(run["wall_s"])
    case_wall_s = {case: statistics.median(walls) for case, walls in case_walls.items()}
    return {"records": records, "stats": stats, "series": series, "case_wall_s": case_wall_s}


def per_layer(bench: Bench) -> Dict:
    records = bench.repeat(["run", "trace"], min_rounds=1)
    plain = [rec for rec in records if rec["mode"] == "run"]
    traced = [rec for rec in records if rec["mode"] == "trace"]
    problems = []
    per_rep = [layers.layer_metrics(rec["trace"]) for rec in traced]
    metrics = {}
    for name, source, field in layers.PER_LAYER:
        unit = layers.metric_unit(source, field)
        values = [m[name] for m in per_rep]
        if unit == "count":
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced repetitions: {values}")
            metrics[name] = {"value": values[0], "unit": unit}
        else:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    for rec in traced:
        for span, totals in rec["trace"]["spans"].items():
            if totals["min_self_s"] < 0:
                problems.append(f"span {span} has negative self time")
    plain_wall = statistics.median(rep_total(rec, "wall_s") for rec in plain)
    traced_wall = statistics.median(rep_total(rec, "wall_s") for rec in traced)
    metrics["trace.overhead_ratio"] = {"value": traced_wall / plain_wall, "unit": "ratio"}
    self_total = statistics.median(rec["trace"]["self_total_s"] for rec in traced)
    accounting = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
                  "layer_self_total_s": self_total,
                  "accounted_share": self_total / traced_wall}
    return {"records": records, "metrics": metrics, "problems": problems,
            "accounting": accounting}


def environment(records: List[Dict]) -> Dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model, **records[0]["versions"],
            "git_commit": commit, "thread_pins": THREAD_PINS}


def print_report(report: Dict, measured: Dict) -> None:
    env = report["environment"]
    print(f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"scale={report['scale']} repetitions={report['repetitions']} "
          f"elapsed={report['elapsed_s']:.1f}s")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "thread_pins")
          + " threads=" + ",".join(f"{k}={v}" for k, v in THREAD_PINS.items()))
    if report["trace"]:
        for name, m in report["metrics"].items():
            value = m["value"] if m["unit"] == "count" else f"{m['value']:.6g}"
            print(f"  {name:40s} {m['unit']:6s} {value}")
        a = measured["accounting"]
        print(f"  layer self times sum to {a['layer_self_total_s']:.4f} s, "
              f"{a['accounted_share']:.4f} of traced wall_s {a['traced_wall_s']:.4f} s; "
              f"untraced wall_s {a['untraced_wall_s']:.4f} s")
    else:
        print(f"  {'metric':14s} {'unit':5s} {'median':>10s} {'q1':>10s} {'q3':>10s}  n")
        for name, st in measured["stats"].items():
            print(f"  {name:14s} {st['unit']:5s} {st['median']:10.4f} {st['q1']:10.4f} "
                  f"{st['q3']:10.4f}  {st['n']}")
        for case, wall in measured["case_wall_s"].items():
            print(f"  wall_s of {case}: median {wall:.4f} s")
    print(f"  failed_ratio   ratio {report['failed_ratio']:.4f} "
          f"({report['failed']} of {report['attempted']} runs)")
    for case, d in report["digests"].items():
        print(f"  digest {case} seed={report['seed']} sha256={d['sha256']} "
              f"({d['agreeing']} of {d['runs']} runs agree)")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")


def bench_workload(args: argparse.Namespace, workload: str) -> int:
    """Measure one workload, print its result and return the exit code."""
    bench = Bench(args, workload)
    spans_file = OUT / f"{bench.work.name}-spans.npz"
    try:
        measured = per_layer(bench) if args.trace else end_to_end(bench)
        if args.trace:
            # Keep the spans of the last traced repetition.
            shutil.copyfile(sorted(bench.work.glob("*-trace/spans.npz"))[-1], spans_file)
    except BenchError as exc:
        print(f"perfbench: {workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    judged = judge_runs(measured["records"])
    problems = judged["problems"] + measured.get("problems", [])
    if args.trace:
        metrics = measured["metrics"]
    else:
        metrics = {name: {"value": st["median"], "unit": st["unit"]}
                   for name, st in measured["stats"].items()}
    report = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "environment": environment(measured["records"]),
        "repetitions": len(measured["records"]), "elapsed_s": bench.elapsed(),
        "attempted": judged["attempted"], "failed": judged["failed"],
        "failed_ratio": judged["failed"] / judged["attempted"],
        "digests": judged["digests"], "problems": problems, "metrics": metrics,
        **{key: measured[key] for key in ("stats", "series", "case_wall_s", "accounting")
           if key in measured},
    }
    if args.trace:
        report["spans_file"] = str(spans_file.relative_to(ROOT))
    report_path = OUT / f"{bench.work.name}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    print_report(report, measured)
    print(f"report {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": judged["attempted"],
                      "failed": judged["failed"], "metrics": metrics}))
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="all runs the four measured workloads one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="tiny runs the smoke-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "horolab" / "__init__.py").is_file():
        print(f"perfbench: no horolab source under {SRC}", file=sys.stderr)
        return 2
    names = workloads.MEASURED if args.workload == "all" else (args.workload,)
    worst = 0
    for name in names:
        code = bench_workload(args, name)
        if code == 2:
            return 2
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
