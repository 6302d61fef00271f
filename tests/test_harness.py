"""Config validation, artifact layout, reruns, and the CLI surface."""

import csv
import dataclasses
import json
from fractions import Fraction as Q

import numpy as np
import pytest

from horolab.harness import (
    ConfigError,
    ReportError,
    list_presets,
    load_config,
    report,
    resolve_config,
    run,
    validate_config,
)
from horolab import exact
from horolab import flowlab as fl
from horolab import latticelab as ll
from horolab.harness import cli, runner
from horolab.weightlab import modules
from horolab.dirichlet import SearchBudgetError


GOOD = {"kind": "basic-lemma-fuzz", "variant": "parts", "seed": 1, "samples": 5,
        "modules": ["standard"], "n": 1}


# -- validation ---------------------------------------------------------------


def test_good_config_normalises():
    cfg = validate_config(GOOD)
    assert cfg.kind == "basic-lemma-fuzz"
    assert cfg.variant == "parts"
    assert cfg.samples == 5


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="extra"):
        validate_config({**GOOD, "extra": True})
    with pytest.raises(ConfigError, match="out"):
        validate_config({**GOOD, "out": "artifacts"})
    with pytest.raises(ConfigError, match="query"):
        validate_config({"kind": "dirichlet-scan", "seed": 1,
                         "samples": {"query": 10}})
    with pytest.raises(ConfigError, match="reads no samples"):
        validate_config({"kind": "escape", "samples": 3})
    # keys of the shared schema that this experiment never reads
    with pytest.raises(ConfigError,
                       match="at modules: escape does not read modules, n, test_hooks"):
        validate_config({"kind": "escape", "modules": ["adjoint"], "n": 5,
                         "t_ladder": [1, 2],
                         "test_hooks": {"corrupt_sk_predicate": True}})


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="kind"):
        validate_config({**GOOD, "kind": "numerology"})


def test_seed_mandatory_for_stochastic_kinds():
    bad = {k: v for k, v in GOOD.items() if k != "seed"}
    with pytest.raises(ConfigError, match="seed"):
        validate_config(bad)
    # deterministic experiments do not need one
    validate_config({"kind": "identity-suite", "n": 2})
    validate_config({"kind": "expansion-ladder", "variant": "qfixed"})
    with pytest.raises(ConfigError, match="seed"):
        validate_config({"kind": "expansion-ladder", "variant": "vandermonde"})


def test_experiment_schema_fragment_rejects_values():
    # the catalog bases are rank 2
    with pytest.raises(ConfigError, match="at n: 1 was expected"):
        validate_config({"kind": "equidistribution", "n": 2, "seed": 1,
                         "samples": 20})


def test_variant_must_match_kind():
    with pytest.raises(ConfigError, match="variant"):
        validate_config({**GOOD, "variant": "qfixed"})
    with pytest.raises(ConfigError, match="takes no variant"):
        validate_config({"kind": "identity-suite", "variant": "parts"})


def test_variant_defaults_to_first_allowed():
    cfg = validate_config({k: v for k, v in GOOD.items() if k != "variant"})
    assert cfg.variant == "parts"
    cfg = validate_config({"kind": "expansion-ladder", "seed": 1})
    assert cfg.variant == "certification"


def test_load_config_diagnostics(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="not found"):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)


def test_all_presets_validate():
    names = [name for name, _ in list_presets()]
    assert len(names) == 11
    assert "acceptance-01" in names and "curve-frames-demo" in names
    pairs = set()
    for name in names:
        cfg = resolve_config(name)
        pairs.add((cfg.kind, cfg.variant))
    # every registered experiment ships a preset, and no preset is orphaned
    assert pairs == {(e.kind, e.variant) for e in runner.EXPERIMENTS}


# -- run artifacts --------------------------------------------------------------


def test_run_writes_expected_files(tmp_path):
    out = run(resolve_config("acceptance-01"), tmp_path / "a")
    assert out.exit_code == 0
    produced = {p.name for p in (tmp_path / "a").iterdir()}
    assert {"manifest.json", "summary.json", "identities.csv"} <= produced
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["config"]["kind"] == "identity-suite"
    assert "timestamp" not in manifest


def test_corrupted_predicate_hook_fails_loud(tmp_path):
    raw = {**GOOD, "samples": 10,
           "test_hooks": {"corrupt_sk_predicate": True}}
    out = run(validate_config(raw), tmp_path / "bad")
    assert out.exit_code == 3
    assert not out.summary["all_pass"]
    recorded = json.loads((tmp_path / "bad" / "failures.json").read_text())
    instances = recorded["failures"][0]["instances"]
    assert instances
    assert {"module", "n", "coords"} <= set(instances[0])


def _adjoint_rule_without_inverse(real):
    """The group rule with the adjoint kind acting by g X g, trace removed,
    in place of g X g^-1: a traceless result, but not an action.  Like the
    real rule it maps integer rows, here (n+1) Y - tr(Y) I for Y = G X G
    over (n+1) gd^2, where g = G / gd."""
    def rule(mod, gi, gd):
        if mod.kind != "adjoint":
            return real(mod, gi, gd)
        m = mod.n + 1

        def wrong(w):
            y = exact._imul(exact._imul(gi, modules._adjoint_matrix(mod, w)), gi)
            trace = sum(y[k][k] for k in range(m))
            return modules._adjoint_coords(mod, tuple(
                tuple(m * c - trace * (a == b) for b, c in enumerate(row))
                for a, row in enumerate(y)))

        return wrong, m * gd * gd

    return rule


@pytest.mark.parametrize("preset", ["acceptance-02", "acceptance-03"])
def test_lemma_presets_fail_on_a_wrong_adjoint_action(tmp_path, monkeypatch, preset):
    monkeypatch.setattr(modules, "_group_rule",
                        _adjoint_rule_without_inverse(modules._group_rule))
    out = run(resolve_config(preset), tmp_path / "o")
    assert out.exit_code == 3
    assert not out.summary["all_pass"]
    recorded = json.loads((tmp_path / "o" / "failures.json").read_text())
    instances = recorded["failures"][0]["instances"]
    assert instances
    assert {i["module"] for i in instances} == {"adjoint"}


def test_identity_suite_fails_on_a_wrong_inverse(tmp_path, monkeypatch):
    honest = exact.inverse
    monkeypatch.setattr(exact, "inverse", lambda a: exact.transpose(honest(a)))
    out = run(resolve_config("acceptance-01"), tmp_path / "o")
    assert out.exit_code == 3
    assert not out.summary["all_pass"]
    recorded = json.loads((tmp_path / "o" / "failures.json").read_text())
    instances = recorded["failures"][0]["instances"]
    # the three identities that invert a non-diagonal matrix, at every n
    # (corner_to_bottom_row is vacuous at n = 1)
    assert {i["identity"] for i in instances} == {
        "ones_factorization", "corner_reflection_conjugate", "corner_to_bottom_row"}
    counts = out.summary["checks"]["acceptance-01"]["counts"]
    assert len(instances) == 11 == counts["total"] - counts["passed"]
    assert all(i["detail"] for i in instances)


def test_witness_suite_fails_on_a_wrong_box_verdict(tmp_path, monkeypatch):
    honest = runner.di.box_point_search
    seen = []

    def flip_seventh(query):
        res = honest(query)
        seen.append(query)
        return dataclasses.replace(res, found=not res.found) if len(seen) == 7 else res

    monkeypatch.setattr(runner.di, "box_point_search", flip_seventh)
    out = run(resolve_config("acceptance-10"), tmp_path / "o")
    assert out.exit_code == 3
    assert not out.summary["all_pass"]
    assert out.summary["checks"]["acceptance-10"]["counts"]["equivalence"] == 499
    recorded = json.loads((tmp_path / "o" / "failures.json").read_text())
    instances = recorded["failures"][0]["instances"]
    assert [(i["check"], i["trial"]) for i in instances] == [("equivalence", 6)]


def test_witness_suite_fails_without_the_centre_window(tmp_path, monkeypatch):
    # with only the windows at m = -1 and 1, the primal sweep misses most
    # witnesses; the lattice search still finds them.  (Dropping the side
    # windows instead changes no verdict, only ties at half residues: see
    # test_the_side_windows_keep_ties_at_half_residues.)
    monkeypatch.setattr(runner.di, "_SHIFTS", (-1, 1))
    out = run(resolve_config("acceptance-10"), tmp_path / "o")
    assert out.exit_code == 3
    counts = out.summary["checks"]["acceptance-10"]["counts"]
    assert counts["completeness"] < 500 and counts["equivalence"] < 500
    recorded = json.loads((tmp_path / "o" / "failures.json").read_text())
    checks = {i["check"] for i in recorded["failures"][0]["instances"]}
    assert {"completeness", "equivalence"} <= checks


def test_escape_check_fails_on_a_perturbed_systole(tmp_path, monkeypatch):
    honest = runner.ll.systole
    monkeypatch.setattr(runner.ll, "systole", lambda basis: honest(basis) * (1 + 1e-9))
    out = run(resolve_config("acceptance-09"), tmp_path / "o")
    assert out.exit_code == 3
    assert not out.summary["all_pass"]
    recorded = json.loads((tmp_path / "o" / "failures.json").read_text())
    instances = recorded["failures"][0]["instances"]
    assert [i["t"] for i in instances] == [float(t) for t in range(1, 21)]
    assert all(i["rate"] == "super" and 5e-10 < float(i["rel_err"]) < 2e-9
               for i in instances)


@pytest.mark.parametrize("shift, rung, ladder, count", [
    (1.0, 2.0, [2, 8], 3000),
    (3.0, 2.0, [2, 3], 10_000),
], ids=["t1-at-rung-2", "t3-at-rung-2"])
def test_equidistribution_fails_on_translates_at_the_wrong_flow_time(
        tmp_path, monkeypatch, shift, rung, ladder, count):
    # catalog 0 flowed to the shifted time at one rung, gated against that
    # rung's law: sup |F_1 - F_2| = 0.126 against 0.0356 at 3000 samples,
    # sup |F_2 - F_3| = 0.030 against 0.0195 at 10,000
    honest = runner.ll.translate_sample
    monkeypatch.setattr(
        runner.ll, "translate_sample",
        lambda curve, schedule, base, t, count, seed:
            honest(curve, schedule, base, shift if t == rung else t, count, seed))
    raw = {"kind": "equidistribution", "seed": 42, "samples": count, "t_ladder": ladder,
           "n": 1}
    out = run(validate_config(raw), tmp_path / "o")
    instances = _failure_instances(out, tmp_path / "o")
    assert [(i["series"], i["t"], i["law"]) for i in instances] == [
        ("catalog-0", rung, "horocycle")]
    assert instances[0]["threshold"] == ll.ks_null_quantile(count, 1e-3)
    assert instances[0]["distance"] > instances[0]["threshold"]


def test_equidistribution_gates_haar_at_the_largest_rung(tmp_path):
    # Haar is the t -> infinity limit: at t = 2 catalog 1 is 0.034 from it,
    # against 0.0195 at 10,000 samples, and at t = 8 it is 0.0040
    raw = {"kind": "equidistribution", "seed": 42, "samples": 10_000, "t_ladder": [8, 2],
           "n": 1}
    out = run(validate_config(raw), tmp_path / "o")
    assert out.exit_code == 0
    with (tmp_path / "o" / "ks.csv").open() as f:
        gates = list(csv.DictReader(f))
    assert [(g["series"], g["t"], g["law"]) for g in gates] == [
        ("catalog-0", "8.0", "horocycle"), ("catalog-0", "2.0", "horocycle"),
        ("catalog-1", "8.0", "haar")]


def test_equidistribution_evaluates_each_law_once_per_gate(tmp_path, monkeypatch):
    calls = []

    def counted(name):
        honest = getattr(ll, name)

        def law(*args):
            calls.append(name)
            return honest(*args)
        return law

    for name in ("horocycle_law", "haar_law"):
        monkeypatch.setattr(ll, name, counted(name))
    raw = {"kind": "equidistribution", "seed": 3, "samples": 500, "t_ladder": [2, 8], "n": 1}
    out = run(validate_config(raw), tmp_path / "o")
    assert out.exit_code == 0
    assert calls == ["horocycle_law", "horocycle_law", "haar_law"]


def _failure_instances(out, out_dir):
    """The recorded instances of a run whose one check failed."""
    assert out.exit_code == 3
    assert not out.summary["all_pass"]
    recorded = json.loads((out_dir / "failures.json").read_text())
    instances = recorded["failures"][0]["instances"]
    assert instances
    return instances


def test_vandermonde_check_fails_on_an_inflated_constant(tmp_path, monkeypatch):
    honest = fl.vandermonde_constant

    def inflated(d, interval):
        consts = honest(d, interval)
        return consts._replace(certified=consts.certified * (1 + 1e-9))

    monkeypatch.setattr(fl, "vandermonde_constant", inflated)
    out = run(resolve_config("acceptance-04"), tmp_path / "o")
    instances = _failure_instances(out, tmp_path / "o")
    # a constant polynomial meets the floor with equality, so every d = 0
    # trial now violates it
    assert [i["trial"] for i in instances if i["d"] == 0] == list(range(1000))
    assert all(isinstance(float(c), float) for i in instances for c in i["coeffs"])
    assert "DRIFTS" in out.summary["checks"]["acceptance-04"]["detail"]


def test_certification_fails_on_an_inflated_d1(tmp_path, monkeypatch):
    honest = fl.estimate_D1

    def inflated(module, b, x):
        return honest(module, b, x) * 1e6

    monkeypatch.setattr(fl, "estimate_D1", inflated)
    out = run(resolve_config("acceptance-05"), tmp_path / "o")
    instances = _failure_instances(out, tmp_path / "o")
    assert all(float(i["min"]) < float(i["d2"]) for i in instances)


def test_bounded_fixed_fails_on_a_negated_fixed_check(tmp_path, monkeypatch):
    honest = fl.fixed_check
    monkeypatch.setattr(fl, "fixed_check", lambda v, subgroup: not honest(v, subgroup))
    out = run(resolve_config("acceptance-06"), tmp_path / "o")
    instances = _failure_instances(out, tmp_path / "o")
    assert len(instances) == 10 == out.summary["checks"]["acceptance-06"]["counts"]["total"]


def test_qfixed_fails_on_a_shifted_limit(tmp_path, monkeypatch):
    honest = fl._groups.w_limit
    monkeypatch.setattr(fl._groups, "w_limit",
                        lambda n, n0, kappa: honest(n, n0, kappa * Q(1001, 1000)))
    out = run(resolve_config("acceptance-07"), tmp_path / "o")
    instances = _failure_instances(out, tmp_path / "o")
    assert [i.get("schedule") for i in instances] == ["equal", "linear:2,0", None]
    assert all(float(i.get("residual", i.get("closed_form_error"))) > 1e-3
               for i in instances)
    assert "NOT below 1e-6" in out.summary["checks"]["acceptance-07"]["detail"]


def test_rerun_is_byte_identical(tmp_path):
    raw = {"kind": "equidistribution", "seed": 7, "samples": 300,
           "t_ladder": [4.0], "n": 1}
    cfg = validate_config(raw)
    run(cfg, tmp_path / "one")
    run(cfg, tmp_path / "two")
    for p in sorted((tmp_path / "one").iterdir()):
        assert p.read_bytes() == (tmp_path / "two" / p.name).read_bytes(), p.name


def test_budget_exhaustion_exit_code(tmp_path, monkeypatch):
    def explode(cfg, samples):
        raise SearchBudgetError("grid too large for the configured budget")

    patched = tuple(
        dataclasses.replace(e, body=explode) if e.kind == "identity-suite" else e
        for e in runner.EXPERIMENTS
    )
    monkeypatch.setattr(runner, "EXPERIMENTS", patched)
    out = run(resolve_config("acceptance-01"), tmp_path / "b")
    assert out.exit_code == 4
    assert out.summary["checks"]["acceptance-01"]["budget_exceeded"]


# -- report ---------------------------------------------------------------------


def test_report_digest_contents(tmp_path):
    run(resolve_config("acceptance-01"), tmp_path / "art")
    digest = report(tmp_path / "art")
    assert "identity-suite" in digest
    assert "[ok ]" in digest
    assert "ones_factorization" in digest
    assert "\u2014" not in digest  # prose stays plain


def test_report_needs_manifest(tmp_path):
    with pytest.raises(ReportError, match="manifest"):
        report(tmp_path)


def test_report_flags_failures_and_instances(tmp_path):
    raw = {**GOOD, "samples": 8, "test_hooks": {"corrupt_sk_predicate": True}}
    run(validate_config(raw), tmp_path / "fl")
    digest = report(tmp_path / "fl")
    assert "[FAIL]" in digest
    assert "failing instances serialized" in digest


# -- CLI -------------------------------------------------------------------------


def test_cli_run_and_report(tmp_path, capsys):
    rc = cli.main(["run", "--config", "acceptance-01",
                   "--out", str(tmp_path / "c")])
    assert rc == 0
    assert "artifact written" in capsys.readouterr().out
    rc = cli.main(["report", str(tmp_path / "c")])
    assert rc == 0
    assert "exact operator identities" in capsys.readouterr().out


def test_cli_rejects_unknown_preset(tmp_path, capsys):
    rc = cli.main(["run", "--config", "no-such-thing",
                   "--out", str(tmp_path / "d")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_cli_refuses_used_out_dir(tmp_path, capsys):
    cfg_path = tmp_path / "small.json"
    cfg_path.write_text(json.dumps({"kind": "identity-suite", "n": 1}))
    used = tmp_path / "used"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(used)]) == 0
    before = {p.name: p.read_bytes() for p in used.iterdir()}
    capsys.readouterr()
    rc = cli.main(["run", "--config", "acceptance-02", "--out", str(used)])
    assert rc == 2
    assert str(used) in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in used.iterdir()} == before
    with pytest.raises(FileExistsError):
        run(validate_config(GOOD), used)


def test_cli_rejects_config_the_experiment_cannot_run(tmp_path, capsys):
    cfg_path = tmp_path / "equi.json"
    cfg_path.write_text(json.dumps(
        {"kind": "equidistribution", "n": 2, "seed": 1, "samples": 20}
    ))
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "q")])
    assert rc == 2
    assert "config rejected at n" in capsys.readouterr().err


@pytest.mark.parametrize("raw, path", [
    ({"kind": "equidistribution", "curve": "trig"}, "curve"),
    ({"kind": "equidistribution", "curve": "poly:0,1"}, "curve"),
    ({"kind": "equidistribution", "schedule": "linear:2,0"}, "schedule"),
    ({"kind": "equidistribution", "t_ladder": [2, 0]}, "t_ladder/1"),
    ({"kind": "equidistribution", "t_ladder": [13]}, "t_ladder/0"),
    ({"kind": "escape", "t_ladder": [178]}, "t_ladder/0"),
    ({"kind": "escape", "t_ladder": [2, 800]}, "t_ladder/1"),
    ({"kind": "curve-frames", "curve": "bogus"}, "curve"),
    ({"kind": "curve-frames", "curve": "poly:1/0,1"}, "curve"),
    ({"kind": "curve-frames", "curve": "trig", "n": 5}, "n"),
    ({"kind": "curve-frames", "curve": "poly:0,1;0,0,1;0,0,0,1", "n": 1}, "n"),
    ({"kind": "basic-lemma-fuzz", "modules": ["standard", "bogus"]}, "modules/1"),
    ({"kind": "dirichlet-scan", "n": 3}, "n"),
    ({"kind": "expansion-ladder", "variant": "vandermonde", "interval": [2, 1]},
     "interval"),
    # the certified floor divides by 1 + b, and turns negative below b = -1
    ({"kind": "expansion-ladder", "variant": "vandermonde", "interval": [-2, -1]},
     "interval/1"),
    ({"kind": "expansion-ladder", "variant": "vandermonde", "interval": [-3, -2]},
     "interval/1"),
    # a slope needs two distinct rungs
    ({"kind": "expansion-ladder", "variant": "certification", "t_ladder": [5]},
     "t_ladder"),
    ({"kind": "expansion-ladder", "variant": "certification", "modules": ["adjoint"],
      "t_ladder": [0]}, "t_ladder"),
    ({"kind": "expansion-ladder", "variant": "certification", "t_ladder": [5, 5]},
     "t_ladder"),
    # qfixed measures one flow time, so a ladder would run its last rung only
    ({"kind": "expansion-ladder", "variant": "qfixed", "t_ladder": [20, 1]}, "t_ladder"),
], ids=["equi-curve", "equi-poly-curve", "equi-schedule", "equi-t-zero", "equi-t-large",
        "escape-t-178", "escape-t-800", "unknown-curve", "zero-denominator", "trig-n",
        "poly-n", "unknown-module", "dirichlet-n", "reversed-interval",
        "vandermonde-b-minus-1", "vandermonde-b-below-minus-1", "certification-one-rung",
        "certification-one-rung-at-0", "certification-repeated-rung", "qfixed-ladder"])
def test_cli_rejects_values_the_body_cannot_build(tmp_path, capsys, raw, path):
    cfg_path = tmp_path / "bad.json"
    # few samples keep a wrongly accepted run short; escape and qfixed read none
    reads_none = raw["kind"] == "escape" or raw.get("variant") == "qfixed"
    base = {"seed": 1} if reads_none else {"seed": 1, "samples": 5}
    cfg_path.write_text(json.dumps({**base, **raw}))
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"config rejected at {path}:" in capsys.readouterr().err


def test_curve_frames_ladder_accepts_the_rounding_floor(tmp_path):
    # the Taylor step of a cubic is exact, so every rung is rounding noise
    cfg = validate_config({"kind": "curve-frames", "curve": "moment", "n": 3,
                           "samples": 8})
    out = run(cfg, tmp_path / "cf")
    assert out.exit_code == 0
    assert "rounding floor" in out.summary["checks"]["curve-frames"]["detail"]


def test_curve_frames_ladder_above_the_floor_must_decrease(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "taylor_frame_remainder",
                        lambda curve, s, k, h: np.full(curve.n, 1e-3))
    cfg = validate_config({"kind": "curve-frames", "curve": "moment", "n": 3,
                           "samples": 8})
    out = run(cfg, tmp_path / "cf")
    assert out.exit_code == 3
    assert "STALLS" in out.summary["checks"]["curve-frames"]["detail"]


@pytest.mark.parametrize("raw", [
    {"kind": "equidistribution"},
    {"kind": "expansion-ladder", "variant": "qfixed"},
    {"kind": "expansion-ladder", "variant": "certification"},
    {"kind": "escape"},
], ids=["equidistribution", "qfixed", "certification", "escape"])
def test_cli_rejects_negative_t(tmp_path, capsys, raw):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"seed": 1, **raw, "t_ladder": [-1, 2]}))
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config rejected at t_ladder/0:" in capsys.readouterr().err


@pytest.mark.parametrize("curve, pivot", [("poly:0", 1), ("poly:0,1;0,1", 2)])
def test_curve_frames_fails_where_the_midpoint_frame_degenerates(tmp_path, curve,
                                                                  pivot):
    cfg_path = tmp_path / "flat.json"
    cfg_path.write_text(json.dumps({"kind": "curve-frames", "curve": curve,
                                    "samples": 8}))
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 3
    recorded = json.loads((tmp_path / "o" / "failures.json").read_text())
    instances = recorded["failures"][0]["instances"]
    assert {"midpoint": "1.55", "first_bad_pivot": pivot} in instances


def test_curve_frames_fails_on_scan_failures_alone(tmp_path):
    # s^2 degenerates only at s = 0, a scan point; the midpoint 1/2 is regular
    cfg = validate_config({"kind": "curve-frames", "curve": "poly:0,0,1",
                           "interval": [-1, 2], "samples": 2})
    out = run(cfg, tmp_path / "cf")
    assert out.exit_code == 3
    entry = out.summary["checks"]["curve-frames"]
    assert entry["counts"]["failures"] == 1
    assert "remainder ladder decreases" in entry["detail"]
    recorded = json.loads((tmp_path / "cf" / "failures.json").read_text())
    assert recorded["failures"][0]["instances"] == [
        {"s": "0.0", "first_bad_pivot": 1}
    ]


def test_curve_frames_order_follows_the_curve(tmp_path):
    # trig is planar: without n the frame order is the curve's, and an n the
    # curve does not have is rejected, not ignored
    cfg = validate_config({"kind": "curve-frames", "curve": "trig", "samples": 8})
    out = run(cfg, tmp_path / "cf")
    assert out.exit_code == 0
    assert out.summary["checks"]["curve-frames"]["counts"]["failures"] == 0
    with pytest.raises(ConfigError, match="at n: 'trig' has 2 coordinates"):
        validate_config({"kind": "curve-frames", "curve": "trig", "n": 1, "samples": 8})


def test_cli_seed_override(tmp_path):
    rc = cli.main(["run", "--config", "acceptance-02", "--out",
                   str(tmp_path / "s1"), "--seed", "31"])
    assert rc == 0
    manifest = json.loads((tmp_path / "s1" / "manifest.json").read_text())
    assert manifest["seed"] == 31


def test_cli_list_presets(capsys):
    assert cli.main(["list-presets"]) == 0
    out = capsys.readouterr().out
    assert out.count("acceptance-") >= 10


def test_cli_report_error_path(tmp_path, capsys):
    rc = cli.main(["report", str(tmp_path / "missing")])
    assert rc == 2
    assert "report error" in capsys.readouterr().err


def test_cli_propagates_check_failure(tmp_path):
    cfg_path = tmp_path / "corrupt.json"
    cfg_path.write_text(json.dumps(
        {**GOOD, "samples": 8, "test_hooks": {"corrupt_sk_predicate": True}}
    ))
    rc = cli.main(["run", "--config", str(cfg_path),
                   "--out", str(tmp_path / "e")])
    assert rc == 3
