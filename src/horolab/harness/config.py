"""Experiment configuration: schema, validation, and shipped presets."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import jsonschema

from .runner import EXPERIMENTS
from ..curvejet import CurveSpec  # after .runner: the other order lifts peak RSS 0.9 MiB

CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": list(dict.fromkeys(e.kind for e in EXPERIMENTS))},
        "variant": {"type": "string"},
        "description": {"type": "string"},
        "n": {"type": "integer", "minimum": 1, "maximum": 6},
        "modules": {
            "type": "array",
            "items": {"type": "string"},
            "minItems": 1,
        },
        "schedule": {"type": "string"},
        "curve": {"type": "string"},
        "t_ladder": {
            "type": "array",
            "items": {"type": "number", "minimum": 0},
            "minItems": 1,
        },
        "interval": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
        "samples": {
            "oneOf": [
                {"type": "integer", "minimum": 1},
                {
                    "type": "object",
                    "additionalProperties": {"type": "integer", "minimum": 1},
                },
            ]
        },
        "seed": {"type": "integer", "minimum": 0},
        "test_hooks": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "corrupt_sk_predicate": {"type": "boolean"},
            },
        },
    },
}


# Keys every experiment accepts; ``samples`` is checked against the record.
_COMMON_KEYS = ("kind", "variant", "seed", "description", "samples")


class ConfigError(ValueError):
    """Configuration rejected; message carries the schema diagnostics."""


@dataclass(frozen=True)
class TestHooks:
    corrupt_sk_predicate: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, normalised experiment description."""

    kind: str
    variant: str
    n: Optional[int]
    modules: Tuple[str, ...]
    schedule: Optional[str]
    curve: Optional[str]
    t_ladder: Tuple[float, ...]
    interval: Optional[Tuple[float, float]]
    samples: Union[int, Dict[str, int], None]
    seed: Optional[int]
    description: str
    test_hooks: TestHooks
    raw: Dict = field(repr=False)


def _validate(raw: Dict, schema: Dict) -> None:
    try:
        jsonschema.validate(raw, schema)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config rejected at {path}: {exc.message}") from exc


def validate_config(raw: Dict) -> ExperimentConfig:
    """Schema-check a raw mapping and normalise it.

    Unknown keys, bad types, unknown variants, a missing seed on a
    stochastic experiment, a key or sample count the experiment does not
    read, a value outside the experiment's own schema fragment, a curve that
    does not build and an ``n`` other than the curve's coordinate count are
    all rejected with a diagnostic message.
    """
    _validate(raw, CONFIG_SCHEMA)

    kind = raw["kind"]
    candidates = [e for e in EXPERIMENTS if e.kind == kind]
    if candidates[0].variant == "" and "variant" in raw:
        raise ConfigError(f"config rejected at variant: {kind} takes no variant")
    variant = raw.get("variant", candidates[0].variant)
    matches = [e for e in candidates if e.variant == variant]
    if not matches:
        allowed = sorted(e.variant for e in candidates)
        raise ConfigError(
            f"config rejected at variant: {variant!r} is not one of {allowed}"
        )
    exp = matches[0]
    name = f"{kind}/{variant}" if variant else kind
    if exp.stochastic and "seed" not in raw:
        raise ConfigError(f"config rejected at seed: mandatory for {name}")
    samples = raw.get("samples")
    if samples is not None and not exp.samples:
        raise ConfigError(f"config rejected at samples: {name} reads no samples")
    if isinstance(samples, dict):
        unknown = sorted(set(samples) - set(exp.samples))
        if unknown:
            raise ConfigError(
                f"config rejected at samples: unknown key(s) {unknown}; "
                f"{name} reads {sorted(exp.samples)}"
            )
    unread = sorted(set(raw) - {*_COMMON_KEYS, *exp.keys})
    if unread:
        raise ConfigError(
            f"config rejected at {unread[0]}: {name} does not read "
            f"{', '.join(unread)}"
        )
    _validate(raw, {"$schema": CONFIG_SCHEMA["$schema"], "properties": exp.keys})
    curve = raw.get("curve", "moment")
    if curve != "moment":  # the moment curve has every n
        try:
            width = CurveSpec.preset(curve).n
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"config rejected at curve: {curve!r} does not build: {exc}") from exc
        if raw.get("n", width) != width:
            raise ConfigError(f"config rejected at n: {curve!r} has {width} coordinates")
    interval = raw.get("interval")
    if interval and not interval[0] < interval[1]:
        raise ConfigError(f"config rejected at interval: {interval} is not increasing")
    return ExperimentConfig(
        kind=kind,
        variant=variant,
        n=raw.get("n"),
        modules=tuple(raw.get("modules", ())),
        schedule=raw.get("schedule"),
        curve=raw.get("curve"),
        t_ladder=tuple(float(t) for t in raw.get("t_ladder", ())),
        interval=(float(interval[0]), float(interval[1])) if interval else None,
        samples=raw.get("samples"),
        seed=raw.get("seed"),
        description=raw.get("description", ""),
        test_hooks=TestHooks(**raw.get("test_hooks", {})),
        raw=dict(raw),
    )


def load_config(path: Union[str, Path]) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return validate_config(raw)


# -- shipped presets -----------------------------------------------------------------


def presets_dir() -> Path:
    return Path(__file__).resolve().parent / "presets"


def preset_path(name: str) -> Path:
    p = presets_dir() / f"{name}.json"
    if not p.exists():
        known = ", ".join(sorted(q.stem for q in presets_dir().glob("*.json")))
        raise ConfigError(f"unknown preset {name!r}; shipped presets: {known}")
    return p


def resolve_config(spec: Union[str, Path]) -> ExperimentConfig:
    """Accept either a config file path or a shipped preset name."""
    p = Path(spec)
    if p.exists():
        return load_config(p)
    return load_config(preset_path(str(spec)))


def list_presets() -> List[Tuple[str, str]]:
    out = []
    for p in sorted(presets_dir().glob("*.json")):
        cfg = load_config(p)
        out.append((p.stem, cfg.description))
    return out
