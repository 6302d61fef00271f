"""Workload definitions: the experiment configs each benchmark workload runs.

A workload is a list of cases.  Each case is one raw config dict that goes
through ``horolab.harness.validate_config`` and ``horolab.harness.run``,
plus what a correct run of it must leave in its artifact directory.  The
workload seed goes into the ``seed`` of every stochastic config; the program
sees only the generated configs.

``scale="full"`` is what the benchmark measures.  ``scale="tiny"`` keeps the
same kinds and the same layers at sizes that finish in about a second, for
the benchmark's own smoke test.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

SCALES = ("full", "tiny")

# The escape ladder of acceptance-09: t = 1..20 reaches the e^{+-20} skew.
ESCAPE_LADDER = list(range(1, 21))


@dataclass(frozen=True)
class Case:
    """One config of a workload and the artifact a passing run writes."""

    name: str
    config: Dict
    check_id: str
    tables: Tuple[str, ...]


def _lattice_translates(seed: int, tiny: bool) -> List[Case]:
    cases = []
    if not tiny:
        # Shaped like acceptance-08.  3000 samples per series keep the KS
        # pair gate's 95% null quantile (0.035) well under its 0.05 threshold.
        cases.append(Case(
            "equidistribution",
            {"kind": "equidistribution", "n": 1, "curve": "moment",
             "schedule": "equal", "t_ladder": [8], "samples": 3000,
             "seed": seed},
            "acceptance-08", ("distributions.csv", "ks.csv"),
        ))
    cases.append(Case(
        "escape",
        {"kind": "escape", "t_ladder": ESCAPE_LADDER},
        "acceptance-09", ("escape.csv",),
    ))
    return cases


def _expansion_certify(seed: int, tiny: bool) -> List[Case]:
    # Shaped like acceptance-05, with fewer vectors per cell.
    return [Case(
        "certification",
        {"kind": "expansion-ladder", "variant": "certification",
         "modules": ["exterior(1)", "exterior(2)"],
         "samples": 1 if tiny else 12,
         "t_ladder": [5, 10] if tiny else [5, 10, 15, 20],
         "seed": seed},
        "acceptance-05", ("expansion.csv",),
    )]


def _witness_suite(seed: int, tiny: bool) -> List[Case]:
    # Shaped like acceptance-10.
    samples = ({"grid": 9, "monotonicity": 3, "queries": 5} if tiny
               else {"grid": 100, "monotonicity": 100, "queries": 200})
    return [Case(
        "dirichlet-scan",
        {"kind": "dirichlet-scan", "n": 2, "curve": "moment",
         "interval": [0, 1], "samples": samples, "seed": seed},
        "acceptance-10", ("dirichlet_queries.csv", "dirichlet_scan.csv"),
    )]


_LEMMA_MODULES = ["standard", "exterior(2)", "adjoint"]


def _exact_lemmas(seed: int, tiny: bool) -> List[Case]:
    # acceptance-01, -02 and -03.  n = 3 brings in the adjoint module of
    # dimension 15, whose exact matrix products dominate.
    n = 2 if tiny else 3
    return [
        Case("identity-suite",
             {"kind": "identity-suite", "n": 2 if tiny else 4},
             "acceptance-01", ("identities.csv",)),
        Case("lemma-parts",
             {"kind": "basic-lemma-fuzz", "variant": "parts",
              "modules": _LEMMA_MODULES, "n": n,
              "samples": 3 if tiny else 30, "seed": seed},
             "acceptance-02", ("fuzz.csv",)),
        Case("lemma-sl2",
             {"kind": "basic-lemma-fuzz", "variant": "sl2",
              "modules": _LEMMA_MODULES, "n": n,
              "samples": 2 if tiny else 10, "seed": seed},
             "acceptance-03", ("sl2.csv",)),
    ]


def _fault_injection(seed: int, tiny: bool) -> List[Case]:
    # Not a measured workload: the smoke test runs it to prove that a
    # failing check is counted.  The hook makes acceptance-02 fail (exit 3).
    return [Case(
        "lemma-parts-corrupted",
        {"kind": "basic-lemma-fuzz", "variant": "parts",
         "modules": ["standard"], "n": 1, "samples": 2, "seed": seed,
         "test_hooks": {"corrupt_sk_predicate": True}},
        "acceptance-02", ("fuzz.csv",),
    )]


def _exact_rational(seed: int, tiny: bool) -> List[Case]:
    return _lattice_translates(seed, tiny) + _exact_lemmas(seed, tiny)


def _float_numeric(seed: int, tiny: bool) -> List[Case]:
    return _expansion_certify(seed, tiny) + _witness_suite(seed, tiny)


# Two measured workloads of two parts each, split by arithmetic: Fraction
# kernels (latticelab, exact, the exact weightlab action) against float and
# numpy code (flowlab, the float weightlab action, dirichlet).  The host speed
# drifts by 10-30% over tens of seconds, so two long runs are steadier than
# four short ones; each workload mixes a drift-sensitive part with a calmer one.
WORKLOADS = {
    "exact-rational": _exact_rational,
    "float-numeric": _float_numeric,
    "fault-injection": _fault_injection,
}
# The workloads BENCHMARK.json lists; fault-injection only serves the smoke test.
MEASURED = ("exact-rational", "float-numeric")


def cases(workload: str, seed: int, scale: str = "full") -> List[Case]:
    return WORKLOADS[workload](seed, scale == "tiny")


def check_artifact(case: Case, out_dir: Path, exit_code: int) -> List[str]:
    """Problems with one run's outputs; an empty list means it is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    problems = []
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        manifest = json.loads((out_dir / "manifest.json").read_text())
        check = summary["checks"].get(case.check_id)
        if not summary["all_pass"] or check is None or not check["pass"]:
            problems.append(f"{case.check_id} did not pass: {summary['checks']}")
        if manifest["config"] != case.config:
            problems.append("manifest does not echo the config")
    except (OSError, ValueError, KeyError, AttributeError) as exc:
        problems.append(f"unreadable summary or manifest: {exc!r}")
    for table in case.tables:
        path = out_dir / table
        if not path.is_file():
            problems.append(f"missing {table}")
            continue
        with path.open(newline="") as f:
            if len(list(csv.reader(f))) < 2:
                problems.append(f"{table} has no data rows")
    return problems
