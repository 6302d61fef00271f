"""Experiment orchestration: the experiment registry, artifacts, and pass/fail
summaries.

Every run writes a manifest (config echo, code version, seed), one or more
CSV tables, and a summary keyed by check identifiers.  All randomness flows
from the manifest seed through labelled split streams, so rerunning a config
reproduces the artifact byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction as Q
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Tuple

import numpy as np

from .. import __version__
from .. import dirichlet as di
from .. import flowlab as fl
from .. import latticelab as ll
from ..curvejet import (CurveError, CurveSpec, NotOrderedRegular, ordered_regular_frame,
                        regularity_scan, taylor_frame_remainder)
from ..rng import generator
from ..weightlab import (
    basis_vector,
    build_module,
    h_principal,
    identity_suite,
    s_sets,
    sl2_maxweight_check,
    vector,
)

if TYPE_CHECKING:
    from .config import ExperimentConfig

Row = List[object]
Table = Tuple[str, List[str], List[Row]]
Samples = Mapping[str, int]

_SCAN_MU = 0.3
_SCAN_PREFIX = tuple((2**k, 2**k) for k in range(1, 9))
_GOLDEN_ETA = (math.sqrt(5.0) - 1.0) / 2.0
# Per-gate false-failure rate of the equidistribution KS gates.
_KS_ALPHA = 1e-3


class ConfigError(ValueError):
    """Configuration rejected, at validation or by a body; the message names its path."""


@dataclass
class CheckResult:
    passed: bool
    detail: str
    counts: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    failures: List[Dict] = field(default_factory=list)
    budget_exceeded: bool = False


Result = Tuple[List[Table], CheckResult]


@dataclass
class RunOutcome:
    exit_code: int
    artifact_dir: Path
    summary: Dict


def _random_rational(rng, nonzero: bool = False) -> Q:
    while True:
        num = int(rng.integers(-9, 10))
        if nonzero and num == 0:
            continue
        return Q(num, int(rng.integers(1, 5)))


# -- experiment bodies ------------------------------------------------------------------


def _run_identity_suite(cfg: ExperimentConfig, samples: Samples) -> Result:
    rows: List[Row] = []
    failures: List[Dict] = []
    passed = 0
    total = 0
    for n in range(1, cfg.n + 1):
        for item in identity_suite(n):
            rows.append([n, item.name, item.passed, item.detail])
            total += 1
            passed += int(item.passed)
            if not item.passed:
                failures.append({"n": n, "identity": item.name, "detail": item.detail})
    check = CheckResult(
        passed=passed == total,
        detail=f"{passed}/{total} identities exact for n=1..{cfg.n}",
        counts={"passed": passed, "total": total},
        failures=failures,
    )
    return [("identities.csv", ["n", "identity", "passed", "detail"], rows)], check


def _random_eigenvector(module, rng):
    ints, d = module.grading(h_principal(module.n))  # integer levels, over d
    levels = sorted(set(ints))
    level = levels[int(rng.integers(0, len(levels)))]
    indices = [i for i, a in enumerate(ints) if a == level]
    coords = [0] * module.dim
    while all(coords[i] == 0 for i in indices):
        for i in indices:
            coords[i] = _random_rational(rng)
    return vector(module, coords), Q(level, d)


def _run_lemma_parts(cfg: ExperimentConfig, samples: Samples) -> Result:
    rows: List[Row] = []
    failures: List[Dict] = []
    total = 0
    good = 0
    for n in range(1, cfg.n + 1):
        for kind in cfg.modules:
            module = build_module(kind, n)
            rng = generator(cfg.seed, f"lemma-fuzz-{kind}", n)
            for trial in range(samples["trials"]):
                v, level = _random_eigenvector(module, rng)
                x = tuple(_random_rational(rng, nonzero=True) for _ in range(n))
                rep = s_sets(v, x)
                part1 = rep.nonneg_levels
                part2a = rep.s_n_nonempty
                part3 = rep.s_all_nonempty
                equalities = rep.consistent
                if cfg.corrupt_sk_predicate and total == 0:
                    part2a = False
                ok = part1 and part2a and part3 and equalities
                total += 1
                good += int(ok)
                rows.append([n, kind, trial, part1, part2a, part3, equalities])
                if not ok:
                    failures.append(
                        {
                            "n": n,
                            "module": kind,
                            "trial": trial,
                            "level": str(level),
                            "coords": [str(c) for c in v.coords],
                            "x": [str(c) for c in x],
                            "failed_parts": [
                                name
                                for name, flag in [
                                    ("nonneg-levels", part1),
                                    ("top-set-nonempty", part2a),
                                    ("full-set-nonempty", part3),
                                    ("equality-hypotheses", equalities),
                                ]
                                if not flag
                            ],
                        }
                    )
    check = CheckResult(
        passed=good == total,
        detail=f"{good}/{total} fuzz instances passed all parts",
        counts={"passed": good, "total": total},
        failures=failures,
    )
    header = ["n", "module", "trial", "nonneg_levels", "top_set_nonempty",
              "full_set_nonempty", "equality_hypotheses"]
    return [("fuzz.csv", header, rows)], check


# The sl2 sweep checks, for each rank n and module of dimension dim, every
# basis vector at each of the n slots and both values of r, then the random
# trials: 2 n dim + trials checks.  A check applies at most six rules (up, down
# and sigma; for a coroot eigenvector also the two algebra rules and sigma
# again), and a rule application on a dim-vector costs O(dim^2) integer
# multiplications, those of a dense matrix-vector product: a tensor rule
# applies its operands' rules dim_a + dim_b times, an adjoint one makes two
# (n + 1)^3 products.  So a sweep makes about 6 (2 n dim + trials) dim^2
# multiplications, summed over ranks and modules.  CPython makes 10^7 to 10^8
# small-integer multiplications a second, so a budget of 10^9 keeps an admitted
# sweep within a minute or two.
SL2_BUDGET = 10**9


def _run_sl2(cfg: ExperimentConfig, samples: Samples) -> Result:
    trials = samples["trials"]
    # the modules are built again in the sweep, so that only one is alive at a time
    dims = {(n, kind): build_module(kind, n).dim
            for n in range(1, cfg.n + 1) for kind in cfg.modules}
    work = sum(6 * (2 * n * dim + trials) * dim**2 for (n, _), dim in dims.items())
    if work > SL2_BUDGET:
        raise di.SearchBudgetError(
            f"sl2 sweep of about {work} multiplications exceeds budget {SL2_BUDGET}")
    rows: List[Row] = []
    failures: List[Dict] = []
    total = 0
    good = 0
    equalities = 0

    def record(n, kind, module, slot, r, v, origin):
        nonlocal total, good, equalities
        rep = sl2_maxweight_check(slot, r, v)
        ok = rep.ok
        total += 1
        good += int(ok)
        equalities += int(rep.equality)
        rows.append([n, kind, slot, str(r), origin, str(rep.lam_max_v),
                     str(rep.lam_max_w), rep.equality, ok])
        if not ok:
            failures.append(
                {"n": n, "module": kind, "slot": slot, "r": str(r),
                 "coords": [str(c) for c in v.coords], "origin": origin}
            )

    for n in range(1, cfg.n + 1):
        for kind in cfg.modules:
            module = build_module(kind, n)
            rng = generator(cfg.seed, f"sl2-fuzz-{kind}", n)
            for slot in range(1, n + 1):
                for r in (Q(1), Q(-3, 2)):
                    for idx in range(module.dim):
                        record(n, kind, module, slot, r,
                               basis_vector(module, idx), "basis")
            for trial in range(trials):
                coords = [Q(0)] * module.dim
                while all(c == 0 for c in coords):
                    coords = [_random_rational(rng) for _ in range(module.dim)]
                slot = int(rng.integers(1, n + 1))
                r = _random_rational(rng, nonzero=True)
                record(n, kind, module, slot, r, vector(module, coords), "random")

    passed = good == total and equalities > 0
    detail = f"{good}/{total} instances, {equalities} exact-equality cases"
    if equalities == 0:
        detail += " (equality branch never exercised)"
    check = CheckResult(
        passed=passed,
        detail=detail,
        counts={"passed": good, "total": total, "equalities": equalities},
        failures=failures,
    )
    header = ["n", "module", "slot", "r", "origin", "top_level_v",
              "top_level_translate", "equality", "passed"]
    return [("sl2.csv", header, rows)], check


def _run_vandermonde(cfg: ExperimentConfig, samples: Samples) -> Result:
    trials = samples["trials"]
    rng = generator(cfg.seed, "vandermonde")
    grid = np.linspace(*cfg.interval, 1001)
    rows: List[Row] = []
    failures: List[Dict] = []
    formula_ok_all = True
    worst_formula = 0.0
    violations_all = 0
    unproven = []  # degrees where the closed form exceeds the sharp constant
    a, b = map(Q, cfg.interval)  # the closed form, exactly at the float ends
    for d in range(0, 7):
        consts = fl.vandermonde_constant(d, cfg.interval)
        certified = float(consts.certified)
        formula = Q(1) if d == 0 else (b - a) ** d / (d ** (d + 1) * (1 + b))
        worst_formula = max(worst_formula, float(abs(consts.certified - formula)))
        formula_ok = consts.certified == formula
        formula_ok_all = formula_ok_all and formula_ok
        # c = V^{-1} f(nodes) makes the sharp constant a floor, and so the closed form below it
        if formula > consts.empirical:
            unproven.append(d)
            failures.append({"d": d, "closed_form": repr(float(formula)),
                             "empirical": repr(float(consts.empirical))})
        violations = 0
        for trial in range(trials):
            coeffs = rng.uniform(-1.0, 1.0, d + 1)
            sup = float(np.abs(np.polyval(coeffs[::-1], grid)).max())
            floor = certified * float(np.abs(coeffs).max())
            if sup < floor:
                violations += 1
                failures.append(
                    {"d": d, "trial": trial, "coeffs": [repr(c) for c in coeffs.tolist()],
                     "sup": repr(sup), "floor": repr(floor)}
                )
        violations_all += violations
        rows.append([d, repr(certified), repr(float(consts.empirical)),
                     formula_ok, trials, violations])
    check = CheckResult(
        passed=formula_ok_all and violations_all == 0 and not unproven,
        detail=(
            f"{violations_all} floor violations in {trials} polynomials per degree"
            f" 0..6; closed form {'matches' if formula_ok_all else 'DRIFTS'}"
            + (f"; above the sharp constant at d = {unproven}" if unproven else "")
        ),
        counts={"violations": violations_all, "per_degree": trials},
        metrics={"formula_error_max": worst_formula},
        failures=failures,
    )
    header = ["d", "certified", "empirical", "formula_ok", "trials", "violations"]
    return [("vandermonde.csv", header, rows)], check


def _run_certification(cfg: ExperimentConfig, samples: Samples) -> Result:
    count = samples["vectors"]
    rows: List[Row] = []
    failures: List[Dict] = []
    ok_all = True
    min_margin = math.inf
    min_slope = math.inf
    for n, sched_name in ((1, "equal"), (2, "equal"), (2, "linear:3/2,1/2")):
        schedule = fl.FlowSchedule.preset(sched_name, n=n)
        frame = fl.moment_frame(n)
        for kind in cfg.modules:
            module = build_module(kind, n)
            d2 = fl.assemble_expansion_bound(module, frame)
            rng = generator(cfg.seed, f"expansion-{sched_name}-{kind}", n)
            vectors = []
            for _ in range(count):
                coords = rng.normal(size=module.dim)
                vectors.append(coords / np.abs(coords).max())
            mins: List[float] = []
            for t in cfg.t_ladder:
                sups = fl.expansion_supremum(module, vectors, schedule, frame, t)
                m_min = float(sups.min())
                mins.append(m_min)
                min_margin = min(min_margin, m_min - d2)
                floor_ok = m_min >= d2
                ok_all = ok_all and floor_ok
                rows.append([n, sched_name, kind, t, repr(m_min), repr(d2),
                             floor_ok])
                if not floor_ok:
                    failures.append(
                        {"n": n, "schedule": sched_name, "module": kind,
                         "t": t, "min": repr(m_min), "d2": repr(d2)}
                    )
            slope = float(np.polyfit(np.array(cfg.t_ladder), np.log(mins), 1)[0])
            min_slope = min(min_slope, slope)
            slope_ok = slope >= -0.01
            ok_all = ok_all and slope_ok
            rows.append([n, sched_name, kind, "slope", repr(slope), "-0.01",
                         slope_ok])
            if not slope_ok:
                failures.append(
                    {"n": n, "schedule": sched_name, "module": kind,
                     "slope": repr(slope)}
                )
    check = CheckResult(
        passed=ok_all,
        detail=f"{count} random unit vectors per cell; floors and slopes "
               f"{'hold' if ok_all else 'VIOLATED'}",
        metrics={"floor_margin_min": min_margin, "slope_min": min_slope},
        failures=failures,
    )
    header = ["n", "schedule", "module", "t", "min_supremum", "floor", "passed"]
    return [("expansion.csv", header, rows)], check


_CURATED_WITNESSES = (
    ("linear:3/2,1/2", "standard", 0),
    ("linear:3/2,1/2", "standard", 1),
    ("linear:3/2,1/2", "standard", 2),
    ("linear:3/2,1/2", "exterior(2)", 0),
    ("linear:3/2,1/2", "exterior(2)", 1),
    ("linear:3/2,1/2", "exterior(2)", 2),
    ("linear:2,0", "standard", 0),
    ("linear:2,0", "standard", 1),
    ("linear:2,0", "standard", 2),
    ("linear:2,0", "exterior(2)", 2),
)


def _run_bounded_fixed(cfg: ExperimentConfig, samples: Samples) -> Result:
    frame = fl.moment_frame(2)
    rows: List[Row] = []
    failures: List[Dict] = []
    good = 0
    for sched_name, kind, idx in _CURATED_WITNESSES:
        schedule = fl.FlowSchedule.preset(sched_name, n=2)
        module = build_module(kind, 2)
        v = basis_vector(module, idx)
        wit = fl.growth_witness(module, v, schedule, frame)
        ok = wit.verdict in ("bounded", "divergent") and wit.consistent is True
        good += int(ok)
        rows.append([sched_name, kind, idx, wit.verdict, wit.fixed,
                     wit.consistent, ok])
        if not ok:
            failures.append(
                {"schedule": sched_name, "module": kind, "basis_index": idx,
                 "verdict": wit.verdict, "fixed": wit.fixed}
            )
    total = len(_CURATED_WITNESSES)
    check = CheckResult(
        passed=good == total,
        detail=f"{good}/{total} curated witnesses: growth verdict agrees with "
               f"the fixed-vector test",
        counts={"passed": good, "total": total},
        failures=failures,
    )
    header = ["schedule", "module", "basis_index", "verdict", "fixed",
              "consistent", "passed"]
    return [("bounded_fixed.csv", header, rows)], check


def _run_qfixed(cfg: ExperimentConfig, samples: Samples) -> Result:
    (t,) = cfg.t_ladder
    frame = fl.moment_frame(2)
    results = {name: fl.qfixed_limit(frame, fl.FlowSchedule.preset(name, n=2), eta=2.0, t=t)
               for name in ("equal", "linear:2,0")}
    rows: List[Row] = []
    failures: List[Dict] = []
    for sched_name, res in results.items():
        ok = res.residual < 1e-6
        rows.append([sched_name, res.n0, 2.0, t, repr(res.residual), ok])
        if not ok:
            failures.append(
                {"schedule": sched_name, "n0": res.n0, "t": t,
                 "residual": repr(res.residual)}
            )
    worst_residual = max(res.residual for res in results.values())
    residuals = (f"residuals at t={t} NOT below 1e-6 (max {worst_residual:.2e})"
                 if failures else f"residuals at t={t} below 1e-6")

    target = np.zeros(3)
    target[0] = 4.0
    equal = results["equal"]
    closed_err = float(np.abs(np.asarray(equal.limit, dtype=float) - target).max())
    closed_ok = closed_err <= 1e-9
    rows.append(["equal", equal.n0, 2.0, "closed-form", repr(closed_err), closed_ok])
    if not closed_ok:
        failures.append({"closed_form_error": repr(closed_err)})
    check = CheckResult(
        passed=not failures,
        detail=f"{residuals} and closed-form limit within {closed_err:.2e}",
        metrics={"residual_max": worst_residual, "closed_form_error": closed_err},
        failures=failures,
    )
    header = ["schedule", "n0", "eta", "t", "residual", "passed"]
    return [("qfixed.csv", header, rows)], check


def _run_equidistribution(cfg: ExperimentConfig, samples: Samples) -> Result:
    count = samples["count"]
    curve = CurveSpec.preset(cfg.curve, n=cfg.n)
    schedule = fl.FlowSchedule.preset(cfg.schedule, n=cfg.n)
    threshold = ll.ks_null_quantile(count, _KS_ALPHA)
    # catalog 0 (Z^2) at every rung against its exact law F_t; catalog 1 at
    # the largest rung against the Haar law, the limit of F_t as t grows
    gates = [(0, t, cfg.seed, "horocycle", partial(ll.horocycle_law, t)) for t in cfg.t_ladder]
    gates.append((1, max(cfg.t_ladder), cfg.seed + 1, "haar", ll.haar_law))
    edges = np.linspace(0.0, 1.0, 33)

    bin_rows: List[Row] = []
    ks_rows: List[Row] = []
    for base, t, seed, law_name, law in gates:
        values = ll.translate_sample(curve, schedule, ll.catalog_basis(base), t, count, seed=seed)
        series = [f"catalog-{base}", t, law_name]
        # the law once, at the sample points <= 1 and the bin edges (r = 1 among
        # them), for the bins and the distance (np.union1d costs 0.5 MiB of RSS)
        grid = np.sort(np.concatenate((values[: np.searchsorted(values, 1.0, side="right")],
                                       edges)))
        cdf = law(grid)
        def on_grid(r):
            return cdf[np.searchsorted(grid, r)]
        # the bins of [0, 1], then the tail r > 1, which holds the law's rest
        masses = np.diff(np.searchsorted(values, edges, side="right"), append=count) / count
        law_masses = np.diff(on_grid(edges), append=1.0)
        for row in zip(edges.tolist(), [*edges[1:].tolist(), math.inf],
                       masses.tolist(), law_masses.tolist()):
            bin_rows.append([*series, *row])
        distance = ll.ks_distance(values, on_grid)
        ks_rows.append([*series, distance, threshold, distance <= threshold])

    ks_header = ["series", "t", "law", "distance", "threshold", "passed"]
    failures = [dict(zip(ks_header, row)) for row in ks_rows if not row[-1]]
    worst = max(row[3] for row in ks_rows)
    check = CheckResult(
        passed=not failures,
        detail=f"{len(ks_rows) - len(failures)} of {len(ks_rows)} KS gates pass on r <= 1, "
               f"worst {worst:.4f} (threshold {threshold:.4f}, alpha {_KS_ALPHA:g}) at "
               f"t in {list(cfg.t_ladder)}, {count} samples",
        counts={"samples": count, "gates": len(ks_rows)},
        metrics={"ks_max": worst, "ks_threshold": threshold},
        failures=failures,
    )
    return [
        ("distributions.csv", ks_header[:3] + ["bin_lo", "bin_hi", "mass", "law_mass"], bin_rows),
        ("ks.csv", ks_header, ks_rows),
    ], check


def _run_escape(cfg: ExperimentConfig, samples: Samples) -> Result:
    """Systole decay of a_t u(w_t eta) Z^2 along the t-ladder: the escape
    dichotomy, one ``escape.csv`` row per (rate, t).

    Rate "super" shrinks the translate at w_t = e^{-2t}: then
    a_t u(e^{-2t} eta) = u(eta) a_t exactly, so the systole is
    e^{-t} sqrt(1 + eta^2) and the orbit escapes.  The closed form is the
    systole once 1 + eta^2 <= e^{4t}; below that crossover an integer shear
    of the base lattice is shorter (at t = 0, eta = 1 the lattice is plain
    Z^2 with systole 1), and the row is out of regime.  Rate "critical"
    uses the theorem's width w_t = e^{-t}, where the window matches the
    expansion and the systole stays bounded below.
    """
    header = ["rate", "t", "value", "closed_form", "rel_err", "in_regime"]
    rows: List[Row] = []
    failures: List[Dict] = []
    worst_rel = 0.0
    crit_min = math.inf
    for rate, eta, width in (("super", 1.0, 2), ("critical", _GOLDEN_ETA, 1)):
        for t in cfg.t_ladder:
            shear = Q(eta) * Q(math.exp(-width * t))
            value = ll.systole(ll.shear_basis((Q(math.exp(t)), Q(math.exp(-t))), (shear,)))
            if rate == "critical":
                rows.append([rate, t, repr(value), "", "", True])
                crit_min = min(crit_min, value)
                ok = value > 0.1
            else:
                closed = math.exp(-t) * math.sqrt(1.0 + eta * eta)
                rel_err = abs(value - closed) / closed
                in_regime = 1.0 + eta * eta <= math.exp(4 * t)
                rows.append([rate, t, repr(value), repr(closed), repr(rel_err), in_regime])
                if in_regime:
                    worst_rel = max(worst_rel, rel_err)
                ok = not in_regime or rel_err <= 1e-12
            if not ok:
                failures.append(dict(zip(header[:5], rows[-1])))
    check = CheckResult(
        passed=not failures,
        detail=f"closed-form match {worst_rel:.2e} (<= 1e-12); critical floor "
               f"{crit_min:.4f} (> 0.1)",
        metrics={"closed_form_rel_err": worst_rel, "critical_floor": crit_min},
        failures=failures,
    )
    return [("escape.csv", header, rows)], check


def _random_query(rng, mu_choices) -> di.DIQuery:
    n = int(rng.integers(1, 4))
    xi = tuple(float(x) for x in rng.uniform(-2.0, 2.0, n))
    bounds = tuple(int(b) for b in rng.integers(1, 9, n))
    mu = float(mu_choices[int(rng.integers(0, len(mu_choices)))])
    return di.DIQuery(xi, bounds, mu)


def _run_dirichlet(cfg: ExperimentConfig, samples: Samples) -> Result:
    n_queries = samples["queries"]
    n_mono = samples["monotonicity"]
    s_grid = samples["grid"]
    mu_grid = (0.2, 0.4, 0.6, 0.8, 1.0)

    # three batches, each from its own stream, answered by one primal sweep
    rng = generator(cfg.seed, "di-equivalence")
    equivalence = [_random_query(rng, (0.3, 0.6, 0.9)) for _ in range(n_queries)]
    rng = generator(cfg.seed, "di-complete")
    completeness = [_random_query(rng, (1.0,)) for _ in range(n_queries)]
    rng = generator(cfg.seed, "di-monotone")
    bases = [_random_query(rng, (0.5,)) for _ in range(n_mono)]
    primal = di.primal_sweep([*equivalence, *completeness, *(
        di.DIQuery(base.xi, base.bounds, mu) for base in bases for mu in mu_grid)])

    query_rows: List[Row] = []
    failures: List[Dict] = []
    agree = 0
    for trial, (query, a) in enumerate(zip(equivalence, primal)):
        b = di.box_point_search(query)
        same = a.found == b.found
        agree += int(same)
        query_rows.append(["equivalence", trial, query.dimension,
                           str(query.bounds), query.mu, a.found, b.found, same])
        if not same:
            failures.append({"check": "equivalence", "trial": trial,
                             "xi": [repr(x) for x in query.xi],
                             "bounds": list(query.bounds), "mu": query.mu})

    complete = 0
    for trial, (query, res) in enumerate(zip(completeness, primal[n_queries:])):
        complete += int(res.found)
        query_rows.append(["completeness", trial, query.dimension,
                           str(query.bounds), 1.0, res.found, res.found, res.found])
        if not res.found:
            failures.append({"check": "completeness", "trial": trial,
                             "xi": [repr(x) for x in query.xi],
                             "bounds": list(query.bounds)})

    monotone = 0
    sweep = iter(primal[2 * n_queries :])
    for trial, base in enumerate(bases):
        flags = [next(sweep).found for _ in mu_grid]
        ok = all(b or not a for a, b in zip(flags, flags[1:]))
        monotone += int(ok)
        query_rows.append(["monotonicity", trial, base.dimension,
                           str(base.bounds), str(mu_grid), str(flags), "", ok])
        if not ok:
            failures.append({"check": "monotonicity", "trial": trial,
                             "xi": [repr(x) for x in base.xi],
                             "bounds": list(base.bounds), "flags": flags})
    confirmed = sum(r.confirmed for r in primal), sum(r.python_int for r in primal)
    del primal, sweep  # held over the scan's sweeps, they would lift the run's peak memory

    r_half = di.rbar1([(2**k, 2**k) for k in range(1, 21)])
    r_twothirds = di.rbar1([(4**k, 2**k) for k in range(1, 21)])
    rbar_ok = all(isinstance(r, Q) and r == want  # a float is an uncertified ratio
                  for r, want in ((r_half, Q(1, 2)), (r_twothirds, Q(2, 3))))
    if not rbar_ok:
        failures.append({"check": "rbar1", "half": str(r_half),
                         "two_thirds": str(r_twothirds)})

    curve = CurveSpec.preset(cfg.curve, n=cfg.n)
    s_values, answers, fraction = di.curve_scan(curve, cfg.interval, _SCAN_PREFIX, _SCAN_MU,
                                                s_grid)
    width = len(_SCAN_PREFIX)
    scan_header = ["s", "n_index", "form", "found", "witness", "search_volume"]
    scan_rows = [[s_values[k // width], k % width, form, res.found,
                  "" if res.witness is None else repr(res.witness), res.search_volume]
                 for k, pair in enumerate(answers) for form, res in zip(("primal", "dual"), pair)]
    scan_ok = fraction < 0.5
    if not scan_ok:
        failures.append({"check": "scan", "fraction": fraction})

    passed = (agree == n_queries and complete == n_queries
              and monotone == n_mono and rbar_ok and scan_ok)
    check = CheckResult(
        passed=passed,
        detail=(
            f"equivalence {agree}/{n_queries}, completeness {complete}/{n_queries}, "
            f"monotonicity {monotone}/{n_mono}, exact exponents "
            f"{'ok' if rbar_ok else 'WRONG'}, all-improvable fraction {fraction:.3f}"
        ),
        # per query, whatever the batches: the suite's sweep and the scan's
        counts={"equivalence": agree, "completeness": complete, "monotonicity": monotone,
                "primal_confirmed": confirmed[0] + sum(a.confirmed for a, _ in answers),
                "primal_python_int": confirmed[1] + sum(a.python_int for a, _ in answers)},
        metrics={"all_improvable_fraction": fraction},
        failures=failures,
    )
    query_header = ["check", "trial", "n", "bounds", "mu", "primal_found",
                    "box_found", "passed"]
    return [
        ("dirichlet_queries.csv", query_header, query_rows),
        ("dirichlet_scan.csv", scan_header, scan_rows),
    ], check


def _run_curve_frames(cfg: ExperimentConfig, samples: Samples) -> Result:
    curve = CurveSpec.preset(cfg.curve, n=cfg.n)
    # a polynomial's coefficients are arbitrary, so no bound on the ends keeps its
    # values, jets and frames finite floats: where one is not, the config is rejected
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _curve_frames(curve, cfg.interval, samples["grid"])
    except (CurveError, OverflowError, FloatingPointError) as exc:
        key = "interval" if "interval" in cfg.raw else "curve"
        raise ConfigError(f"config rejected at {key}: "
                          f"the curve has no finite float frame there ({exc})") from exc


def _curve_frames(curve: CurveSpec, interval: Tuple[float, float], grid: int) -> Result:
    scan = regularity_scan(curve, interval, grid)
    rows: List[Row] = [
        ["failure", repr(s), f"first bad pivot {idx}"] for s, idx in scan.failures
    ]
    failures: List[Dict] = [
        {"s": repr(s), "first_bad_pivot": idx} for s, idx in scan.failures
    ]
    mid = 0.5 * (interval[0] + interval[1])
    try:
        binv = ordered_regular_frame(curve, mid, curve.n).b_inverse_floats()
    except NotOrderedRegular as err:
        settles = False
        verdict = f"NOT BUILT (no frame at the midpoint, pivot {err.first_fail_index})"
        failures.append({"midpoint": repr(mid),
                         "first_bad_pivot": err.first_fail_index})
    else:
        ladder = (1e-1, 1e-2, 1e-3)
        rems = [float(np.abs(taylor_frame_remainder(curve, mid, curve.n, h)).max())
                for h in ladder]
        # A rung may stop decreasing at rounding noise (an exact Taylor step
        # lands there): eps-relative error in the curve values differenced at
        # mid and mid + h, amplified by the largest column sum of B^{-1}.
        noise = 8 * np.finfo(float).eps * np.abs(binv).sum(axis=0).max()
        floors = [noise * np.abs([curve.evaluate(mid), curve.evaluate(mid + h)]).max()
                  for h in ladder]
        settles = all(a > b or b <= f for a, b, f in zip(rems, rems[1:], floors[1:]))
        verdict = ("decreases" if all(a > b for a, b in zip(rems, rems[1:]))
                   else "reaches the rounding floor" if settles else "STALLS")
        for h, r in zip(ladder, rems):
            rows.append(["remainder", repr(h), repr(r)])
    check = CheckResult(
        passed=settles and not scan.failures,
        detail=f"{scan.checked} frames checked, {len(scan.failures)} failures; "
               f"remainder ladder {verdict}",
        counts={"checked": scan.checked, "failures": len(scan.failures)},
        failures=failures,
    )
    return [("curve_frames.csv", ["record", "where", "value"], rows)], check


# -- the experiment registry ------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """One harness experiment, described in one place.

    A config selects it by ``kind`` and ``variant`` ("" when the kind has a
    single experiment; otherwise the kind's first record is the default).
    ``check_id`` keys its verdict in ``summary.json`` and ``anchor`` names
    the claim it checks in reports.  A ``stochastic`` experiment draws from
    the config seed, so a config for it must carry one.  ``samples`` maps
    every sample-count key the body reads to its default.  ``keys`` maps
    every other config key the body reads to a JSON-schema fragment that
    narrows the shared schema for this experiment ({} when it does not),
    with the key's default as its ``default`` annotation where the body
    needs a value; a config may carry only these keys, ``samples`` when the
    body reads samples, and ``kind``, ``variant``, ``seed`` and ``description``.
    """

    kind: str
    variant: str
    check_id: str
    anchor: str
    stochastic: bool
    samples: Samples
    keys: Mapping[str, Mapping]
    body: Callable[[ExperimentConfig, Samples], Result]


# Values the bodies can build: curves by coordinate count, and module kinds
# that exist at n = 1, hence at every n a body walks.
_ROW = r"\s*-?\d+(/\d+)?\s*(,\s*-?\d+(/\d+)?\s*)*"
_CURVE_2 = {"pattern": rf"^(moment|trig|poly:{_ROW};{_ROW})$"}
_CURVE = {"pattern": rf"^(moment|trig|poly:{_ROW}(;{_ROW})*)$"}
_PLAIN = r"(standard|adjoint|exterior\([12]\))"
_MODULES = {"items": {"pattern": rf"^({_PLAIN}|tensor\({_PLAIN},{_PLAIN}\))$"}}
_LEMMA_KEYS = {"n": {"default": 3},
               "modules": {**_MODULES, "default": ["standard", "exterior(2)", "adjoint"]}}
# a grid over [a, b] steps by (b - a) / m, finite when both ends are within
# half the largest float
_GRID_ENDS = {"items": {"minimum": -sys.float_info.max / 2, "maximum": sys.float_info.max / 2}}

EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment("identity-suite", "", "acceptance-01",
               "exact operator identities", False, {}, {"n": {"default": 4}},
               _run_identity_suite),
    Experiment("basic-lemma-fuzz", "parts", "acceptance-02",
               "index-set and fixed-subgroup fuzz", True, {"trials": 100},
               {**_LEMMA_KEYS, "test_hooks": {}}, _run_lemma_parts),
    Experiment("basic-lemma-fuzz", "sl2", "acceptance-03",
               "rank-one top-level inequality", True, {"trials": 60},
               _LEMMA_KEYS, _run_sl2),
    # M_t = exp(max(log|w| + level t)) with w = rho(u) v, |v| <= 1: the top
    # level of any admitted module under these schedules is 7
    # (tensor(adjoint,adjoint) under linear:3/2,1/2), and u tends to the
    # identity, so t <= 100 keeps 7 t + log|w| below log(float max) = 709.78
    Experiment("expansion-ladder", "certification", "acceptance-05",
               "expansion floor certification", True, {"vectors": 50},
               {"modules": {**_MODULES, "default": ["exterior(1)", "exterior(2)"]},
                "t_ladder": {"minItems": 2, "uniqueItems": True, "items": {"maximum": 100},
                             "default": [5, 10, 15, 20]}},
               _run_certification),
    # the certified floor |J|^d / (d^{d+1} (1 + b)), d <= 6, needs the right
    # end b > -1, so 1 + b >= 2^-53; with both ends within 1e49, |J|^6 2^53 / 6^7
    # < 2^1024 keeps it and |J|^d a float
    Experiment("expansion-ladder", "vandermonde", "acceptance-04",
               "polynomial floor constants", True, {"trials": 1000},
               {"interval": {"items": [{"minimum": -1e49},
                                       {"exclusiveMinimum": -1, "maximum": 1e49}],
                            "default": [1, 2]}},
               _run_vandermonde),
    Experiment("expansion-ladder", "bounded-fixed", "acceptance-06",
               "bounded growth vs fixed vectors", False, {}, {},
               _run_bounded_fixed),
    # a_t = diag(e^{2t}, e^{-r_1}, e^{-r_2}) at n = 2: e^{2t} is a float while
    # 2t < log(float max) = 709.78
    Experiment("expansion-ladder", "qfixed", "acceptance-07",
               "straightened-limit residuals", False, {},
               {"t_ladder": {"maxItems": 1, "items": {"maximum": 354}, "default": [20]}},
               _run_qfixed),
    # The catalog bases are rank 2, so n = 1, and the exact law is that of
    # the curve s; "linear:1" is the equal flow.  F_t sums over e^t Farey
    # denominators per sample point, so t stays in (0, 12].
    Experiment("equidistribution", "", "acceptance-08",
               "translate equidistribution against the exact law", True, {"count": 10_000},
               {"n": {"const": 1, "default": 1}, "curve": {"const": "moment", "default": "moment"},
                "schedule": {"enum": ["equal", "linear:1"], "default": "equal"},
                "t_ladder": {"items": {"exclusiveMinimum": 0, "maximum": 12}, "default": [8]}},
               _run_equidistribution),
    # e^{4t} must stay finite in the regime test and e^{-2t} far from subnormal
    Experiment("escape", "", "acceptance-09", "escape-rate dichotomy", False, {},
               {"t_ladder": {"items": {"maximum": 100}, "default": list(range(1, 21))}},
               _run_escape),
    Experiment("dirichlet-scan", "", "acceptance-10",
               "improvability witness suite", True,
               {"queries": 500, "monotonicity": 200, "grid": 200},
               {"n": {"const": 2, "default": 2}, "curve": {**_CURVE_2, "default": "moment"},
                "interval": {**_GRID_ENDS, "default": [0, 1]}}, _run_dirichlet),
    Experiment("curve-frames", "", "curve-frames",
               "curve frame regularity demo", False, {"grid": 120},
               {"n": {"default": 2}, "curve": {**_CURVE, "default": "trig"},
                "interval": {**_GRID_ENDS, "default": [0.1, 3.0]}}, _run_curve_frames),
)


# -- artifact writing --------------------------------------------------------------------


def _cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: Path, header: List[str], rows: List[Row]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(x) for x in row])
    path.write_text(buf.getvalue())


def _write_json(path: Path, payload: Dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run(cfg: ExperimentConfig, out_dir) -> RunOutcome:
    """Execute one experiment and write its artifact directory.

    Exit code 0 when the check passes, 3 on a check failure, 4 when a
    search budget was exceeded.  A body that the config gives no finite
    floats to work on raises ``ConfigError``, as validation does before run;
    the CLI maps both to exit 2.  The directory must be new or empty, so an
    artifact never mixes files from two runs; otherwise FileExistsError.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        raise FileExistsError(
            f"artifact directory {out} is not empty; pass a new or empty one"
        )
    exp = next(e for e in EXPERIMENTS if (e.kind, e.variant) == (cfg.kind, cfg.variant))
    if isinstance(cfg.samples, int):
        samples = {key: cfg.samples for key in exp.samples}
    else:
        samples = {**exp.samples, **(cfg.samples or {})}

    try:
        tables, check = exp.body(cfg, samples)
    except di.SearchBudgetError as exc:
        tables = []
        check = CheckResult(
            passed=False, detail=f"budget exceeded: {exc}", budget_exceeded=True
        )
    for name, header, rows in tables:
        _write_csv(out / name, header, rows)

    manifest = {
        "code_version": __version__,
        "config": cfg.raw,
        "seed": cfg.seed,
    }
    _write_json(out / "manifest.json", manifest)

    summary = {
        "all_pass": check.passed,
        "checks": {
            exp.check_id: {
                "pass": check.passed,
                "detail": check.detail,
                "counts": check.counts,
                "metrics": check.metrics,
                "budget_exceeded": check.budget_exceeded,
            }
        },
    }
    _write_json(out / "summary.json", summary)

    if check.failures:
        _write_json(
            out / "failures.json",
            {"failures": [{"check": exp.check_id, "instances": check.failures}]},
        )

    if check.budget_exceeded:
        code = 4
    elif not check.passed:
        code = 3
    else:
        code = 0
    return RunOutcome(exit_code=code, artifact_dir=out, summary=summary)


class ReportError(ValueError):
    """Artifact directory unusable for reporting."""


def report(artifact_dir) -> str:
    """Digest of a run artifact: failures first, then passing checks."""
    out = Path(artifact_dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise ReportError(
            f"no manifest.json in {out}; produce an artifact first with "
            f"`horolab run --config <preset-or-path> --out {out}`"
        )
    manifest = json.loads(manifest_path.read_text())
    summary = json.loads((out / "summary.json").read_text())

    lines = [
        f"artifact: {out}",
        f"config kind: {manifest['config'].get('kind')} "
        f"(code {manifest.get('code_version')})",
        "",
    ]
    items = sorted(
        summary["checks"].items(), key=lambda kv: (kv[1]["pass"], kv[0])
    )
    anchors = {e.check_id: e.anchor for e in EXPERIMENTS}
    for check_id, entry in items:
        mark = "ok " if entry["pass"] else "FAIL"
        anchor = anchors.get(check_id, check_id)
        lines.append(f"[{mark}] {check_id}: {anchor}: {entry['detail']}")

    identities = out / "identities.csv"
    if identities.exists():
        lines.append("")
        lines.append("identities:")
        by_name: Dict[str, List[bool]] = {}
        with identities.open() as f:
            for row in csv.DictReader(f):
                by_name.setdefault(row["identity"], []).append(
                    row["passed"] == "true"
                )
        for name, marks in by_name.items():
            verdict = "exact pass" if all(marks) else "FAIL"
            lines.append(f"  {name}: {verdict} ({len(marks)} ranks)")

    failures_path = out / "failures.json"
    if failures_path.exists():
        payload = json.loads(failures_path.read_text())
        total = sum(len(f["instances"]) for f in payload["failures"])
        lines.append("")
        lines.append(f"failing instances serialized: {total} (failures.json)")
    return "\n".join(lines)
