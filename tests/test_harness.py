"""Config validation, artifact layout, reruns, and the CLI surface."""

import csv
import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

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
import horolab
from horolab import exact
from horolab import flowlab as fl
from horolab import latticelab as ll
from horolab.harness import cli, config, runner
from horolab.weightlab import modules
from horolab.dirichlet import SearchBudgetError


GOOD = {"kind": "basic-lemma-fuzz", "variant": "parts", "seed": 1, "samples": 5,
        "modules": ["standard"], "n": 1}


# -- validation ---------------------------------------------------------------


def test_good_config_normalises():
    cfg = validate_config(GOOD)
    assert cfg.kind == "basic-lemma-fuzz"
    assert cfg.variant == "parts"
    assert cfg.samples == {"trials": 5}


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="extra"):
        validate_config({**GOOD, "extra": True})
    with pytest.raises(ConfigError, match="out"):
        validate_config({**GOOD, "out": "artifacts"})
    with pytest.raises(ConfigError, match="query"):
        validate_config({"kind": "dirichlet-scan", "seed": 1,
                         "samples": {"query": 10}})
    with pytest.raises(ConfigError, match="escape does not read samples"):
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


@pytest.mark.parametrize("exp", runner.EXPERIMENTS, ids=lambda e: f"{e.kind}/{e.variant}")
def test_a_bare_config_validates_to_the_record_defaults(exp):
    cfg = validate_config({"kind": exp.kind, **({"variant": exp.variant} if exp.variant else {}),
                           "seed": 1})
    defaults = {key: sub["default"] for key, sub in exp.keys.items() if "default" in sub}
    # every key the body reads has its default in the record, the hook aside
    assert defaults.keys() == exp.keys.keys() - {"test_hooks"}
    for key, empty in [("n", None), ("modules", ()), ("schedule", None), ("curve", None),
                       ("t_ladder", ()), ("interval", None)]:
        want = defaults.get(key, empty)
        assert getattr(cfg, key) == (tuple(want) if isinstance(want, list) else want), key
    assert cfg.samples == defaults.get("samples", {})


def test_samples_resolve_over_the_record_counts():
    # an integer sets every count, an object is merged over the record's
    assert validate_config({**GOOD, "samples": 7}).samples == {"trials": 7}
    cfg = validate_config({"kind": "dirichlet-scan", "seed": 1, "samples": {"grid": 5}})
    assert cfg.samples == {"queries": 500, "monotonicity": 200, "grid": 5}
    assert cfg.raw["samples"] == {"grid": 5}
    assert validate_config({"kind": "escape"}).samples == {}
    with pytest.raises(ConfigError, match="at samples: .*'query' was unexpected"):
        validate_config({"kind": "dirichlet-scan", "seed": 1, "samples": {"query": 10}})
    for samples in (3, {}):
        with pytest.raises(ConfigError, match="at samples: escape does not read samples"):
            validate_config({"kind": "escape", "samples": samples})


@pytest.mark.parametrize("name", sorted(p.stem for p in config.presets_dir().glob("*.json")))
def test_a_preset_key_at_its_default_can_be_dropped(name):
    preset = json.loads(config.preset_path(name).read_text())
    cfg = validate_config(preset)
    exp = next(e for e in runner.EXPERIMENTS if (e.kind, e.variant) == (cfg.kind, cfg.variant))
    # a preset's samples is at its default where it resolves to the record's counts
    at_default = [key for key, sub in exp.keys.items() if key in preset and "default" in sub
                  and sub["default"] == (cfg.samples if key == "samples" else preset[key])]
    for drop in [*([key] for key in at_default), at_default]:
        lean = validate_config({k: v for k, v in preset.items() if k not in drop})
        assert dataclasses.replace(lean, raw={}) == dataclasses.replace(cfg, raw={}), drop


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


def test_presets_validate_and_run_without_jsonschema(tmp_path):
    out = tmp_path / "a"
    script = "\n".join([
        "import sys",
        "sys.modules['jsonschema'] = None",
        "from horolab.harness import cli, list_presets",
        "assert len(list_presets()) == 11",
        f"sys.exit(cli.main(['run', '--config', 'acceptance-01', '--out', {str(out)!r}]))",
    ])
    src = str(Path(horolab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.json").exists()


def test_schema_checker_refuses_keywords_it_does_not_check(monkeypatch):
    escape = next(e for e in runner.EXPERIMENTS if e.kind == "escape")
    widened = dataclasses.replace(escape, keys={"t_ladder": {"items": {"multipleOf": 0.5}}})
    monkeypatch.setattr(config, "EXPERIMENTS", (widened,))
    with pytest.raises(NotImplementedError, match="multipleOf"):
        validate_config({"kind": "escape", "t_ladder": [1.5]})


# -- the schema checker against a draft-07 validator ---------------------------------

# values for every key of the shared schema; several break more than one keyword
_GRID_VALUES = [
    None, True, False, 0, 1, 2, 3, 6, 7, -1, 1.0, 2.0, 2.5, -0.5, 12.5, 13, 101, -7.5,
    math.nan, math.inf, -math.inf, 10**400, "", "x", "moment", "trig", "poly:0,1",
    "poly:0,1;0,0,1", "equal", "linear:1", "linear:2,0", "standard", "bogus",
    [], [0], [1], [-1], [2.0], [13], [101], [math.nan], [10**400], [5, 5], [5, 5.0],
    [1, True], [2, 1], [0, 1], [-2, -1], [-1, 0.5], [0, math.inf], [1, 2, 3], [-1, "x"],
    ["x", -1], [-1, -2], ["standard"], ["bogus"], ["standard", "bogus", 3],
    ["tensor(standard,adjoint)"], {}, {"corrupt_sk_predicate": True},
    {"corrupt_sk_predicate": 1}, {"bogus": True}, {"trials": 0}, {"grid": 2},
    {"grid": 2.0}, {"grid": 2.5}, {"grid": -2.0}, {"grid": -7.5}, {"grid": 0, "queries": 0},
    {"grid": -7.5, "queries": "x"}, {"x": "y"},
]


def _only_the_checker_rejects(value) -> bool:
    """Whether ``value`` holds an integral or non-finite float, or an int no float holds."""
    if isinstance(value, (list, dict)):
        return any(map(_only_the_checker_rejects,
                       value.values() if isinstance(value, dict) else value))
    if isinstance(value, float):
        return value.is_integer() or not math.isfinite(value)
    return type(value) is int and abs(value) > sys.float_info.max


def _assert_checker_agrees(raw, schema):
    jsonschema = pytest.importorskip("jsonschema")
    best = jsonschema.exceptions.best_match(jsonschema.Draft7Validator(schema).iter_errors(raw))
    theirs = best and ("/".join(map(str, best.absolute_path)) or "<root>")
    try:
        config._validate(raw, schema)
        ours = None
    except ConfigError as exc:
        ours = re.match(r"config rejected at (\S+): ", str(exc)).group(1)
    # the checker is stricter on exactly these values
    if ours != theirs:
        assert ours is not None and _only_the_checker_rejects(raw), (raw, ours, theirs)
    return ours is None and theirs is None


def _assert_both_phases_agree(raw):
    if not _assert_checker_agrees(raw, config.CONFIG_SCHEMA):
        return
    records = [e for e in runner.EXPERIMENTS if e.kind == raw["kind"]]
    exp = next((e for e in records if e.variant == raw.get("variant", records[0].variant)),
               None)
    if exp is not None:
        _assert_checker_agrees(raw, {"properties": exp.keys})


def test_schema_checker_agrees_with_a_draft7_validator():
    pytest.importorskip("jsonschema")
    presets = [json.loads(p.read_text()) for p in config.presets_dir().glob("*.json")]
    rejected = [_with_base(raw) for raw, _ in BODY_REJECTS] + NEGATIVE_T + [
        {**GOOD, "extra": True}, {**GOOD, "out": "artifacts"}, {**GOOD, "kind": "numerology"},
        {**GOOD, "variant": "qfixed"}, {"kind": "identity-suite", "variant": "parts"},
        {"kind": "dirichlet-scan", "seed": 1, "samples": {"query": 10}},
        {"kind": "escape", "samples": 3},
        {"kind": "escape", "modules": ["adjoint"], "n": 5, "t_ladder": [1, 2],
         "test_hooks": {"corrupt_sk_predicate": True}},
        {"kind": "equidistribution", "n": 2, "seed": 1, "samples": 20},
        {"kind": "expansion-ladder", "variant": "vandermonde"},
        {"kind": "curve-frames", "curve": "trig", "n": 1, "samples": 8},
        {}, [], {"kind": "escape", "seed": -1, "n": 0, "extra": 1},
    ]
    for raw in presets + rejected:
        _assert_both_phases_agree(raw)
    # JSON equality (1 equals 1.0, True does not equal 1) and a type list that
    # two members satisfy, which the config schema itself cannot show
    for value, schema in [
        (True, {"const": 1}), (1.0, {"const": 1}), (False, {"enum": [0, "x"]}),
        (1.0, {"enum": [1]}), ([1, True], {"uniqueItems": True}),
        ([[1], [1.0]], {"uniqueItems": True}), ([[1], [True]], {"uniqueItems": True}),
        ([{"a": 1}, {"a": True}], {"uniqueItems": True}),
        (3, {"type": ["integer", "number"]}),
        (-0.5, {"type": ["integer", "object"], "minimum": 1}),
    ]:
        _assert_checker_agrees({"x": value}, {"properties": {"x": schema}})
    for exp in runner.EXPERIMENTS:
        base = {"kind": exp.kind, **({"variant": exp.variant} if exp.variant else {}),
                **({"seed": 1} if exp.stochastic else {})}
        for key in config.CONFIG_SCHEMA["properties"]:
            for value in _GRID_VALUES:
                _assert_both_phases_agree({**base, key: value})


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
        n, (_, pairs), m = mod.n, mod.basis_data, mod.n + 1

        def wrong(w):
            y = exact._imul(exact._imul(gi, modules._adjoint_matrix(n, pairs, w)), gi)
            trace = sum(y[k][k] for k in range(m))
            return modules._adjoint_coords(n, pairs, tuple(
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


def _failed_checks(out, out_dir):
    """The ``check`` names of the acceptance-10 failure instances."""
    return {i["check"] for i in _failure_instances(out, out_dir)}


def test_witness_suite_fails_on_a_grid_of_rational_points(tmp_path):
    # s = 0, 1/2 and 1 are rational, so every target has witnesses there in
    # both forms and the all-improvable fraction is 1
    raw = {"kind": "dirichlet-scan", "seed": 1,
           "samples": {"grid": 3, "queries": 5, "monotonicity": 3}}
    out = run(validate_config(raw), tmp_path / "o")
    assert _failed_checks(out, tmp_path / "o") == {"scan"}
    assert out.summary["checks"]["acceptance-10"]["metrics"]["all_improvable_fraction"] == 1.0


def test_witness_suite_fails_on_an_uncertified_exponent(tmp_path, monkeypatch):
    honest = runner.di.rbar1
    monkeypatch.setattr(runner.di, "rbar1", lambda targets: float(honest(targets)))
    out = run(resolve_config("acceptance-10"), tmp_path / "o")
    assert _failed_checks(out, tmp_path / "o") == {"rbar1"}
    assert "exact exponents WRONG" in out.summary["checks"]["acceptance-10"]["detail"]


def test_witness_suite_fails_when_a_larger_mu_loses_a_witness(tmp_path, monkeypatch):
    honest = runner.di.primal_sweep

    def lose_one(queries):
        results = honest(queries)
        for k in range(1, len(queries)):
            prev, query = queries[k - 1], queries[k]
            same_base = (query.xi, query.bounds) == (prev.xi, prev.bounds)
            if same_base and query.mu > prev.mu and results[k - 1].found and results[k].found:
                results[k] = dataclasses.replace(results[k], found=False, witness=None)
                break
        return results

    monkeypatch.setattr(runner.di, "primal_sweep", lose_one)
    out = run(resolve_config("acceptance-10"), tmp_path / "o")
    assert _failed_checks(out, tmp_path / "o") == {"monotonicity"}
    assert out.summary["checks"]["acceptance-10"]["counts"]["monotonicity"] == 199


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


def test_vandermonde_closed_form_holds_at_a_large_floor(tmp_path):
    # the degree-6 floor on [1, 1e5] is near 3.6e19, where the float
    # re-evaluation of the closed form is 4096 off by rounding alone
    raw = {"kind": "expansion-ladder", "variant": "vandermonde", "seed": 1, "samples": 2,
           "interval": [1, 1e5]}
    out = run(validate_config(raw), tmp_path / "o")
    check = out.summary["checks"]["acceptance-04"]
    assert "closed form matches" in check["detail"]
    assert check["metrics"]["formula_error_max"] == 0.0
    # but there it is no floor: T_2 mapped to [1, 1e5] has sup 1 and max|c|
    # near 1 against a closed form of 12,500, and the sharp constant says so
    instances = _failure_instances(out, tmp_path / "o")
    assert [i["d"] for i in instances if "empirical" in i] == [2, 3, 4, 5, 6]
    assert "above the sharp constant at d = [2, 3, 4, 5, 6]" in check["detail"]


def test_vandermonde_fails_where_the_closed_form_exceeds_the_sharp_constant(tmp_path):
    # f = x on [-1/2, 1/2] has sup 1/2 against a closed form of 2/3
    raw = {"kind": "expansion-ladder", "variant": "vandermonde", "seed": 1, "samples": 2,
           "interval": [-0.5, 0.5]}
    out = run(validate_config(raw), tmp_path / "o")
    instances = _failure_instances(out, tmp_path / "o")
    assert [i["d"] for i in instances if "empirical" in i] == [1]
    assert instances[0] == {"d": 1, "closed_form": repr(2 / 3), "empirical": repr(0.5)}


def test_expansion_bound_refuses_a_closed_form_above_the_sharp_constant(monkeypatch):
    honest = fl.vandermonde_constant
    monkeypatch.setattr(fl, "vandermonde_constant", lambda d, interval: honest(d, interval)
                        ._replace(certified=honest(d, interval).empirical * 2))
    with pytest.raises(ArithmeticError, match="sharp constant"):
        fl.assemble_expansion_bound(modules.build_module("standard", 1), fl.moment_frame(1))


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
    def explode(cfg):
        raise SearchBudgetError("grid too large for the configured budget")

    patched = tuple(
        dataclasses.replace(e, body=explode) if e.kind == "identity-suite" else e
        for e in runner.EXPERIMENTS
    )
    monkeypatch.setattr(runner, "EXPERIMENTS", patched)
    out = run(resolve_config("acceptance-01"), tmp_path / "b")
    assert out.exit_code == 4
    assert out.summary["checks"]["acceptance-01"]["budget_exceeded"]


def test_sl2_sweep_over_its_budget_exits_4_before_it_runs(tmp_path):
    # tensor(adjoint,adjoint) at n = 4 counts about 9.6e9 multiplications, a
    # sweep of minutes; the count is taken before any check runs
    raw = {"kind": "basic-lemma-fuzz", "variant": "sl2", "seed": 1, "n": 4, "samples": 1,
           "modules": ["tensor(adjoint,adjoint)"]}
    start = time.perf_counter()
    out = run(validate_config(raw), tmp_path / "s")
    assert time.perf_counter() - start < 1.0
    assert out.exit_code == 4
    check = out.summary["checks"]["acceptance-03"]
    assert check["budget_exceeded"] and "sl2 sweep" in check["detail"]
    assert not (tmp_path / "s" / "sl2.csv").exists()


def test_sl2_budget_counts_six_rules_of_dim_squared_per_check(tmp_path, monkeypatch):
    # the standard module at n = 1 has dim 2: 2 n dim + trials = 5 checks of
    # 6 dim^2 = 24 multiplications each
    raw = {"kind": "basic-lemma-fuzz", "variant": "sl2", "seed": 1, "n": 1, "samples": 1,
           "modules": ["standard"]}
    monkeypatch.setattr(runner, "SL2_BUDGET", 120)
    assert run(validate_config(raw), tmp_path / "at").exit_code == 0
    monkeypatch.setattr(runner, "SL2_BUDGET", 119)
    assert run(validate_config(raw), tmp_path / "over").exit_code == 4


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


BODY_REJECTS = [
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
    # the default curve is the planar trig curve
    ({"kind": "curve-frames", "n": 3}, "n"),
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
    # the body builds an int n and sample count, and finite floats
    ({"kind": "identity-suite", "n": 2.0}, "n"),
    ({"kind": "basic-lemma-fuzz", "samples": 2.0}, "samples"),
    ({"kind": "dirichlet-scan", "n": 2.0}, "n"),
    ({"kind": "escape", "t_ladder": [math.nan]}, "t_ladder/0"),
    ({"kind": "equidistribution", "t_ladder": [math.nan]}, "t_ladder/0"),
    ({"kind": "expansion-ladder", "variant": "certification", "t_ladder": [5, math.nan]},
     "t_ladder/1"),
    ({"kind": "expansion-ladder", "variant": "certification", "t_ladder": [5, 10**400]},
     "t_ladder/1"),
    ({"kind": "expansion-ladder", "variant": "vandermonde", "interval": [0, math.inf]},
     "interval/1"),
    ({"kind": "expansion-ladder", "variant": "vandermonde", "interval": [0, 10**400]},
     "interval/1"),
    # M_t = exp(7 t + ...) at the top level; the floor takes |J|^6 2^53 / 6^7
    ({"kind": "expansion-ladder", "variant": "certification", "t_ladder": [5, 400]},
     "t_ladder/1"),
    ({"kind": "expansion-ladder", "variant": "vandermonde", "interval": [0, 1e300]},
     "interval/1"),
    ({"kind": "expansion-ladder", "variant": "vandermonde", "interval": [-1e300, 0]},
     "interval/0"),
    # a grid steps by (b - a) / m, which overflows past half the largest float
    ({"kind": "dirichlet-scan", "interval": [-1e308, 1e308]}, "interval/1"),
    ({"kind": "curve-frames", "curve": "trig", "interval": [-1e308, 1e308]}, "interval/1"),
    # s^2 overflows at the midpoint 5e199: no frame has finite floats there
    ({"kind": "curve-frames", "curve": "moment", "n": 2, "interval": [0, 1e200]}, "interval"),
    ({"kind": "curve-frames", "curve": "poly:0," + "9" * 400, "n": 1}, "curve"),
]
BODY_REJECT_IDS = ["equi-curve", "equi-poly-curve", "equi-schedule", "equi-t-zero", "equi-t-large",
        "escape-t-178", "escape-t-800", "unknown-curve", "zero-denominator", "trig-n",
        "poly-n", "default-curve-n", "unknown-module", "dirichlet-n", "reversed-interval",
        "vandermonde-b-minus-1", "vandermonde-b-below-minus-1", "certification-one-rung",
        "certification-one-rung-at-0", "certification-repeated-rung", "qfixed-ladder",
    "identity-float-n", "float-samples", "dirichlet-float-n", "escape-t-nan", "equi-t-nan",
    "certification-t-nan", "certification-t-beyond-float", "vandermonde-b-infinite",
    "vandermonde-b-beyond-float", "certification-t-400", "vandermonde-b-1e300",
    "vandermonde-a-minus-1e300", "dirichlet-interval-1e308", "trig-interval-1e308",
    "moment-interval-1e200", "poly-coefficient-beyond-float"]


def _with_base(raw):
    # few samples keep a wrongly accepted run short; some experiments read none
    reads_none = (raw["kind"] in ("escape", "identity-suite")
                  or raw.get("variant") == "qfixed")
    return {"seed": 1, **({} if reads_none else {"samples": 5}), **raw}


@pytest.mark.parametrize("raw, path", BODY_REJECTS, ids=BODY_REJECT_IDS)
def test_cli_rejects_values_the_body_cannot_build(tmp_path, capsys, raw, path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(_with_base(raw)))
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"config rejected at {path}:" in capsys.readouterr().err


_MAX = sys.float_info.max


def _extremes(schemas, own=()):
    """The values at the extremes of what every schema of ``schemas`` admits:
    each enum member, each numeric bound (+-the largest float where there is
    none), each boolean, and arrays of the shortest and longest admitted
    length of such items (``own``, the preset's, for items with none)."""
    for schema in schemas:
        if "const" in schema or "enum" in schema:
            return schema.get("enum", [schema.get("const")])
    kind = next((schema["type"] for schema in schemas if "type" in schema), None)
    if kind == "boolean":
        return [False, True]
    if kind in ("number", "integer"):
        lo = max([-_MAX, *(s["minimum"] for s in schemas if "minimum" in s),
                  *(math.nextafter(s["exclusiveMinimum"], math.inf)
                    for s in schemas if "exclusiveMinimum" in s)])
        hi = min([_MAX, *(s["maximum"] for s in schemas if "maximum" in s)])
        return [int(lo), int(hi)] if kind == "integer" else [lo, hi]
    if kind == "object":
        return [{name: v} for name, sub in schemas[0].get("properties", {}).items()
                for v in _extremes([sub])]
    if kind != "array":
        return []  # a string pattern has no extremes
    short = max(s.get("minItems", 0) for s in schemas)
    long = min((s["maxItems"] for s in schemas if "maxItems" in s), default=short + 1)
    arrays = []
    for length in sorted({max(short, 1), long}):
        items = [[s.get("items", {}) if isinstance(s.get("items", {}), dict) else s["items"][i]
                  for s in schemas] for i in range(length)]
        arrays += itertools.product(*(_extremes(sub) or list(own) for sub in items))
    return [list(a) for a in arrays]


def _mutants():
    """Each shipped preset with one schema key at an extreme, and two samples:
    the fewest at which a grid takes a step (b - a) / m."""
    for path in sorted(config.presets_dir().glob("*.json")):
        preset = json.loads(path.read_text())
        exp = next(e for e in runner.EXPERIMENTS if (e.kind, e.variant)
                   == (preset["kind"], preset.get("variant", e.variant)))
        base = {**preset, **({"samples": 2} if "samples" in exp.keys else {})}
        for key, schema in config.CONFIG_SCHEMA["properties"].items():
            if key != "samples":
                for value in _extremes([schema, exp.keys.get(key, {})], preset.get(key, ())):
                    yield path.stem, {**base, key: value}


def test_no_preset_mutant_ends_in_a_traceback(tmp_path, capsys):
    # every value the schema and an experiment's fragment admit must run,
    # fail a check, exceed the budget or be rejected as a config
    codes, bad = {}, []
    for k, (name, raw) in enumerate(_mutants()):
        cfg_path = tmp_path / f"{k}.json"
        cfg_path.write_text(json.dumps(raw))
        try:
            rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / str(k))])
        except Exception as exc:
            rc = repr(exc)
        codes[rc] = codes.get(rc, 0) + 1
        if rc not in (0, 2, 3, 4):
            bad.append((name, raw, rc))
    capsys.readouterr()
    assert not bad, bad
    assert codes.keys() >= {0, 2}, codes


def test_a_dirichlet_scan_over_a_huge_interval_runs(tmp_path):
    # the curve points reach 10^600; both sweeps take xi less its nearest integers
    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(json.dumps(_with_base(
        {"kind": "dirichlet-scan", "interval": [0, 1e300],
         "samples": {"grid": 5, "monotonicity": 2, "queries": 3}})))
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc in (0, 3)


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


NEGATIVE_T = [{"seed": 1, **raw, "t_ladder": [-1, 2]} for raw in (
    {"kind": "equidistribution"},
    {"kind": "expansion-ladder", "variant": "qfixed"},
    {"kind": "expansion-ladder", "variant": "certification"},
    {"kind": "escape"},
)]


@pytest.mark.parametrize("raw", NEGATIVE_T,
                         ids=["equidistribution", "qfixed", "certification", "escape"])
def test_cli_rejects_negative_t(tmp_path, capsys, raw):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(raw))
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
    # a curve other than moment gives n its coordinate count, not the record's 2
    assert validate_config({"kind": "curve-frames", "curve": "poly:0,1;0,0,1;0,0,0,1"}).n == 3


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


_MANIFEST = {"code_version": "0", "config": {"kind": "escape"}, "seed": None}
_SUMMARY = {"all_pass": True, "checks": {"acceptance-09": {"pass": True, "detail": "ok"}}}


@pytest.mark.parametrize("manifest, summary", [
    ({**_MANIFEST, "config": []}, _SUMMARY),
    ([], _SUMMARY),
    (_MANIFEST, {**_SUMMARY, "checks": []}),
    (_MANIFEST, {**_SUMMARY, "checks": {"acceptance-09": 1}}),
    (_MANIFEST, []),
], ids=["config-array", "manifest-array", "checks-array", "check-number", "summary-array"])
def test_cli_report_refuses_a_malformed_artifact(tmp_path, capsys, manifest, summary):
    for name, payload in [("manifest.json", _MANIFEST), ("summary.json", _SUMMARY)]:
        (tmp_path / name).write_text(json.dumps(payload))
    assert cli.main(["report", str(tmp_path)]) == 0  # the artifact as run writes it
    assert "[ok ] acceptance-09: escape-rate dichotomy: ok" in capsys.readouterr().out
    for name, payload in [("manifest.json", manifest), ("summary.json", summary)]:
        (tmp_path / name).write_text(json.dumps(payload))
    assert cli.main(["report", str(tmp_path)]) == 2
    assert "report error: malformed" in capsys.readouterr().err


_FAILURES = {"failures": [{"check": "acceptance-09", "instances": [{"t": 1}]}]}
_MIXED_PASS = {"acceptance-09": {"pass": True, "detail": "ok"}, "x": {"pass": "no", "detail": "?"}}


@pytest.mark.parametrize("summary, failures", [
    ({**_SUMMARY, "checks": _MIXED_PASS}, _FAILURES),
    ({**_SUMMARY, "checks": {"acceptance-09": {"detail": "ok"}}}, _FAILURES),
    (_SUMMARY, []),
    (_SUMMARY, {"failures": {}}),
    (_SUMMARY, {"failures": [1]}),
    (_SUMMARY, {"failures": [{"check": "acceptance-09", "instances": 3}]}),
], ids=["pass-string", "pass-missing", "failures-array", "failures-object", "failure-number",
        "instances-number"])
def test_cli_report_refuses_malformed_checks_or_failures(tmp_path, capsys, summary, failures):
    (tmp_path / "manifest.json").write_text(json.dumps(_MANIFEST))
    for name, payload in [("summary.json", _SUMMARY), ("failures.json", _FAILURES)]:
        (tmp_path / name).write_text(json.dumps(payload))
    assert cli.main(["report", str(tmp_path)]) == 0  # well-formed, as run writes them
    assert "failing instances serialized: 1" in capsys.readouterr().out
    for name, payload in [("summary.json", summary), ("failures.json", failures)]:
        (tmp_path / name).write_text(json.dumps(payload))
    assert cli.main(["report", str(tmp_path)]) == 2
    assert "report error: malformed" in capsys.readouterr().err


def test_cli_propagates_check_failure(tmp_path):
    cfg_path = tmp_path / "corrupt.json"
    cfg_path.write_text(json.dumps(
        {**GOOD, "samples": 8, "test_hooks": {"corrupt_sk_predicate": True}}
    ))
    rc = cli.main(["run", "--config", str(cfg_path),
                   "--out", str(tmp_path / "e")])
    assert rc == 3
