"""Command-line entry point: run experiments, report artifacts, list presets."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .config import ConfigError, list_presets, resolve_config, validate_config
from .runner import ReportError, report, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horolab",
        description="Run verification experiments and report their artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument(
        "--config",
        required=True,
        help="path to a JSON config, or the name of a shipped preset",
    )
    run_p.add_argument("--out", required=True, help="artifact output directory")
    run_p.add_argument(
        "--seed", type=int, default=None, help="override the config seed"
    )

    report_p = sub.add_parser("report", help="digest a run artifact directory")
    report_p.add_argument("artifact_dir", help="directory produced by run")

    sub.add_parser("list-presets", help="show shipped config presets")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-presets":
        for name, description in list_presets():
            print(f"{name:16s} {description}")
        return 0

    if args.command == "report":
        try:
            print(report(args.artifact_dir))
        except (ReportError, OSError, KeyError, ValueError) as exc:
            print(f"report error: {exc}", file=sys.stderr)
            return 2
        return 0

    try:
        cfg = resolve_config(args.config)
        if args.seed is not None:
            raw = dict(cfg.raw)
            raw["seed"] = args.seed
            cfg = validate_config(raw)
        outcome = run(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileExistsError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    status = {0: "all checks passed", 3: "check failure", 4: "budget exceeded"}
    print(
        f"artifact written to {outcome.artifact_dir} "
        f"({status.get(outcome.exit_code, 'unknown')})"
    )
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
