"""End-to-end gate: one test per shipped acceptance preset.

Each test runs the preset through the harness (cached per session), checks the
exit code, and pins the numeric thresholds the artifacts must meet.  Where an
independent spot check is cheap, it is recomputed here from the library.
"""

import csv
import math
from fractions import Fraction as Q

from horolab import dirichlet as di
from horolab import flowlab as fl


def _check(outcome, check_id):
    assert outcome.exit_code == 0
    assert outcome.summary["all_pass"]
    return outcome.summary["checks"][check_id]


def test_criterion_01_identity_suite(preset_run):
    outcome, elapsed = preset_run("acceptance-01")
    entry = _check(outcome, "acceptance-01")
    assert entry["counts"] == {"passed": 28, "total": 28}
    assert elapsed < 10.0


def test_criterion_02_support_fuzz(preset_run):
    outcome, elapsed = preset_run("acceptance-02")
    entry = _check(outcome, "acceptance-02")
    # 100 seeded draws for each of the nine (rank, module) cells
    assert entry["counts"]["total"] == 900
    assert entry["counts"]["passed"] == 900
    # tripwire: the vector rules run this in about a second
    assert elapsed < 30.0


def test_criterion_03_rank_one_inequality(preset_run):
    outcome, elapsed = preset_run("acceptance-03")
    entry = _check(outcome, "acceptance-03")
    counts = entry["counts"]
    assert counts["passed"] == counts["total"]
    # the equality branch of the characterization must actually be exercised
    assert counts["equalities"] >= 50
    # tripwire: the vector rules run this in about a second, the dim x dim
    # matrix action took 8.6-11.3 s
    assert elapsed < 5.0


def test_criterion_04_polynomial_floors(preset_run):
    outcome, _ = preset_run("acceptance-04")
    entry = _check(outcome, "acceptance-04")
    assert entry["counts"]["violations"] == 0
    assert entry["counts"]["per_degree"] == 1000
    assert entry["metrics"]["formula_error_max"] <= 1e-12
    # independent recomputation of the certified constants
    for d in range(7):
        consts = fl.vandermonde_constant(d, (1, 2))
        formula = 1.0 if d == 0 else 1.0 / (d ** (d + 1) * 3.0)
        assert abs(consts.certified - formula) <= 1e-12


def test_criterion_05_expansion_floors(preset_run):
    outcome, elapsed = preset_run("acceptance-05")
    entry = _check(outcome, "acceptance-05")
    assert entry["metrics"]["floor_margin_min"] >= 0.0
    assert entry["metrics"]["slope_min"] >= -0.01
    assert elapsed < 5.0


def test_criterion_06_bounded_iff_fixed(preset_run):
    outcome, _ = preset_run("acceptance-06")
    entry = _check(outcome, "acceptance-06")
    assert entry["counts"] == {"passed": 10, "total": 10}


def test_criterion_07_fixed_limit_residuals(preset_run):
    outcome, _ = preset_run("acceptance-07")
    entry = _check(outcome, "acceptance-07")
    assert entry["metrics"]["residual_max"] < 1e-6
    assert entry["metrics"]["closed_form_error"] <= 1e-9


def test_criterion_08_equidistribution(preset_run):
    outcome, elapsed = preset_run("acceptance-08")
    entry = _check(outcome, "acceptance-08")
    assert entry["counts"] == {"samples": 10_000, "gates": 4}
    # every gate at the one-sample alpha = 1e-3 threshold sqrt(ln(2000) / 2) / 100
    threshold = math.sqrt(math.log(2 / 1e-3) / 2) / math.sqrt(10_000)
    assert abs(threshold - 0.0195) < 1e-4
    with (outcome.artifact_dir / "ks.csv").open() as f:
        gates = list(csv.DictReader(f))
    assert [(g["series"], g["t"], g["law"]) for g in gates] == [
        ("catalog-0", "2.0", "horocycle"), ("catalog-0", "3.0", "horocycle"),
        ("catalog-0", "8.0", "horocycle"), ("catalog-1", "8.0", "haar")]
    for gate in gates:
        assert float(gate["distance"]) <= threshold
        assert abs(float(gate["threshold"]) - threshold) <= 1e-15
        assert gate["passed"] == "true"
    # the Haar mass of each bin of r <= 1, recomputed: 3 (hi^2 - lo^2) / pi
    with (outcome.artifact_dir / "distributions.csv").open() as f:
        haar = [row for row in csv.DictReader(f) if row["law"] == "haar"]
    for row in haar[:-1]:
        lo, hi = float(row["bin_lo"]), float(row["bin_hi"])
        assert abs(float(row["law_mass"]) - 3 * (hi * hi - lo * lo) / math.pi) <= 1e-12
    assert abs(sum(float(row["mass"]) for row in haar) - 1.0) <= 1e-12
    # tripwire: one exact D u(x) B lattice and one generator per series run
    # this in about 1 s
    assert elapsed < 10.0


def test_criterion_09_escape_rates(preset_run):
    outcome, _ = preset_run("acceptance-09")
    entry = _check(outcome, "acceptance-09")
    assert entry["metrics"]["closed_form_rel_err"] <= 1e-12
    assert entry["metrics"]["critical_floor"] > 0.1
    # spot check the closed form e^{-t} sqrt(2) of eta = 1 on the written rows
    with (outcome.artifact_dir / "escape.csv").open() as f:
        rows = [row for row in csv.DictReader(f) if row["rate"] == "super"]
    assert [float(row["t"]) for row in rows] == [float(t) for t in range(1, 21)]
    for row in rows:
        assert row["in_regime"] == "true"
        want = math.exp(-float(row["t"])) * math.sqrt(2.0)
        assert abs(float(row["value"]) - want) <= 1e-12 * want


def test_criterion_10_witness_suite(preset_run):
    outcome, elapsed = preset_run("acceptance-10")
    entry = _check(outcome, "acceptance-10")
    assert entry["counts"]["equivalence"] == 500
    assert entry["counts"]["completeness"] == 500
    assert entry["counts"]["monotonicity"] == 200
    assert entry["metrics"]["all_improvable_fraction"] < 0.5
    assert elapsed < 10.0
    # the exact exponent values behind the "exact exponents ok" detail
    half = di.rbar1([(2**k, 2**k) for k in range(1, 21)])
    two_thirds = di.rbar1([(4**k, 2**k) for k in range(1, 21)])
    assert isinstance(half, Q) and half == Q(1, 2)
    assert isinstance(two_thirds, Q) and two_thirds == Q(2, 3)
