"""One repetition of a workload, in a fresh process.

Imports horolab from the checkout's ``src``, validates the workload's configs
(the end of set-up), runs each through ``horolab.harness.run`` into its own
artifact directory, digests and checks each artifact, and writes one JSON
result file.  ``run.py`` starts this script; it is not meant to be run by hand.

    python3 perfbench/rep.py --workload NAME --seed N --scale full|tiny \\
        --mode setup|run|trace --spawn-ns NS --work-dir DIR --result FILE
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def artifact_digest(out_dir: Path) -> str:
    """sha256 over the sorted relative file names and their bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        name = path.relative_to(out_dir).as_posix().encode()
        data = path.read_bytes()
        h.update(b"%d:%s%d:" % (len(name), name, len(data)))
        h.update(data)
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawn-ns", type=int, required=True,
                        help="time.monotonic_ns() of the parent just before spawning")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    import workloads

    import horolab
    from horolab import harness

    if Path(horolab.__file__).resolve().parent != SRC / "horolab":
        print(f"horolab imported from {horolab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    cases = workloads.cases(args.workload, args.seed, args.scale)
    configs = [harness.validate_config(case.config) for case in cases]
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9

    result = {"mode": args.mode, "setup_s": setup_s}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            import layers

            tracer = layers.Tracer()
            tracer.install()
        result["runs"] = []
        for case, cfg in zip(cases, configs):
            out_dir = args.work_dir / case.name
            error = None
            exit_code = None
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            try:
                exit_code = harness.run(cfg, out_dir).exit_code
            except Exception as exc:  # a run that raises is a failed run
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            if error is None:
                problems = workloads.check_artifact(case, out_dir, exit_code)
                digest = artifact_digest(out_dir)
            else:
                problems = [f"raised {error}"]
                digest = None
            shutil.rmtree(out_dir, ignore_errors=True)
            result["runs"].append({"case": case.name, "wall_s": wall, "cpu_s": cpu,
                                   "exit_code": exit_code, "problems": problems,
                                   "digest": digest})
        if tracer is not None:
            result["trace"] = tracer.finish(args.work_dir / "spans.npz")
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": metadata.version("numpy"),
                          "jsonschema": metadata.version("jsonschema")}
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
