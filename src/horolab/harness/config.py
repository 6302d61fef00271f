"""Experiment configuration: schema, validation, and shipped presets."""

from __future__ import annotations

import json
import operator
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .runner import EXPERIMENTS, ConfigError
from ..curvejet import CurveSpec  # after .runner: the other order lifts peak RSS 0.5-1.0 MiB

CONFIG_SCHEMA = {
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
            "type": ["integer", "object"],
            "minimum": 1,
            "additionalProperties": {"type": "integer", "minimum": 1},
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description: the config the body runs, defaults filled in."""

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
    corrupt_sk_predicate: bool  # the test_hooks key, which fails one lemma part
    raw: Dict = field(repr=False)


# -- the schema checker ----------------------------------------------------------------
#
# The draft-07 keywords that CONFIG_SCHEMA and the experiments' fragments use,
# with two stricter types: an integer is an int (2.0 is none), and a number is
# finite as a float (JSON has no NaN or Infinity, and 10**400 has no float).
# ``default`` is an annotation, checked by nothing: validate_config fills it in.


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and _is_real(v),
    "number": lambda v: _is_real(v) and abs(v) <= sys.float_info.max,
}
_BOUNDS = (("minimum", operator.lt, "less than the minimum"),
           ("exclusiveMinimum", operator.le, "less than or equal to the minimum"),
           ("maximum", operator.gt, "greater than the maximum"))
_KEYWORDS = {"type", "enum", "const", "pattern", "items", "minItems", "maxItems",
             "uniqueItems", "properties", "additionalProperties", "required", "default",
             *(word for word, _, _ in _BOUNDS)}


def _json_key(x):
    """A hashable stand-in for ``x`` under JSON equality: 1 equals 1.0, True does not."""
    if isinstance(x, list):
        return "array", tuple(map(_json_key, x))
    if isinstance(x, dict):
        return "object", frozenset((k, _json_key(v)) for k, v in x.items())
    return isinstance(x, bool), x


def _violations(value, schema: Dict, path: tuple = ()) -> Iterator[Tuple[tuple, str]]:
    """Yield ``(path, message)`` for every keyword of ``schema`` that ``value`` breaks."""
    unknown = schema.keys() - _KEYWORDS
    if unknown:
        raise NotImplementedError(f"schema keyword(s) {sorted(unknown)} are not checked")
    kinds = schema.get("type", ())
    kinds = [kinds] if isinstance(kinds, str) else kinds
    if kinds and not any(_TYPES[kind](value) for kind in kinds):
        yield path, f"{value!r} is not of type {', '.join(map(repr, kinds))}"
    if "enum" in schema and _json_key(value) not in map(_json_key, schema["enum"]):
        yield path, f"{value!r} is not one of {schema['enum']!r}"
    if "const" in schema and _json_key(value) != _json_key(schema["const"]):
        yield path, f"{schema['const']!r} was expected"
    if "pattern" in schema and isinstance(value, str) and not re.search(schema["pattern"], value):
        yield path, f"{value!r} does not match {schema['pattern']!r}"
    for word, breaks, text in _BOUNDS:
        if _is_real(value) and word in schema and breaks(value, schema[word]):
            yield path, f"{value!r} is {text} of {schema[word]!r}"
    if isinstance(value, list):
        items = schema.get("items", {})
        pairs = zip(value, items) if isinstance(items, list) else ((v, items) for v in value)
        for i, (item, sub) in enumerate(pairs):
            yield from _violations(item, sub, (*path, i))
        if len(value) < schema.get("minItems", 0):
            yield path, f"{value!r} is too short"
        if len(value) > schema.get("maxItems", len(value)):
            yield path, f"{value!r} is too long"
        if schema.get("uniqueItems") and len(set(map(_json_key, value))) < len(value):
            yield path, f"{value!r} has non-unique elements"
    if isinstance(value, dict):
        for name in schema.get("required", ()):
            if name not in value:
                yield path, f"{name!r} is a required property"
        known = schema.get("properties", {})
        rest = schema.get("additionalProperties", {})
        extra = sorted(value.keys() - known.keys())
        if rest is False and extra:
            yield path, (f"Additional properties are not allowed ({', '.join(map(repr, extra))} "
                         f"{'was' if len(extra) == 1 else 'were'} unexpected)")
        for name, item in value.items():
            sub = known.get(name, rest)
            if sub is not False:
                yield from _violations(item, sub, (*path, name))


def _validate(raw: Dict, schema: Dict) -> None:
    """Raise ``ConfigError`` naming one violation of ``schema`` by ``raw``.

    It names the shallowest violation, and of two at one depth the one whose
    path sorts last, the path a draft-07 validator's best match picks.
    """
    worst = max(_violations(raw, schema), key=lambda v: (-len(v[0]), v[0]), default=None)
    if worst is not None:
        path, message = worst
        raise ConfigError(f"config rejected at {'/'.join(map(str, path)) or '<root>'}: {message}")


def validate_config(raw: Dict) -> ExperimentConfig:
    """Schema-check a raw mapping and normalise it to the config the body
    runs: the record's defaults filled in, and a curve other than ``moment``
    giving ``n`` its coordinate count.  Every check runs on that config.

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
    eff = {**{key: sub["default"] for key, sub in exp.keys.items() if "default" in sub}, **raw}
    _validate(eff, {"properties": exp.keys})
    curve = eff.get("curve")
    if curve not in (None, "moment"):  # the moment curve has every n
        try:
            width = CurveSpec.preset(curve).n
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"config rejected at curve: {curve!r} does not build: {exc}") from exc
        eff["n"] = raw.get("n", width)
        if eff["n"] != width:
            raise ConfigError(f"config rejected at n: {curve!r} has {width} coordinates")
    interval = eff.get("interval")
    if interval and not interval[0] < interval[1]:
        raise ConfigError(f"config rejected at interval: {interval} is not increasing")
    return ExperimentConfig(
        kind=kind,
        variant=variant,
        n=eff.get("n"),
        modules=tuple(eff.get("modules", ())),
        schedule=eff.get("schedule"),
        curve=curve,
        t_ladder=tuple(float(t) for t in eff.get("t_ladder", ())),
        interval=(float(interval[0]), float(interval[1])) if interval else None,
        samples=raw.get("samples"),
        seed=raw.get("seed"),
        description=raw.get("description", ""),
        corrupt_sk_predicate=raw.get("test_hooks", {}).get("corrupt_sk_predicate", False),
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
