"""JSON round-tripping for exact objects.

Rationals travel as "p/q" strings so nothing is lost to floats.  Only the
types that cross process boundaries (vectors, weights, reports) get writers.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction as Q
from typing import Any, Dict

from .cartan import Weight
from .modules import ModuleVector, WeightModule, build_module


def q_to_str(value: Q) -> str:
    return f"{value.numerator}/{value.denominator}"


def str_to_q(text: str) -> Q:
    num, _, den = text.partition("/")
    return Q(int(num), int(den) if den else 1)


def to_jsonable(obj: Any) -> Any:
    """Recursively convert exact objects into JSON-ready structures."""
    if isinstance(obj, Q):
        return q_to_str(obj)
    if isinstance(obj, Weight):
        return {"weight": [q_to_str(c) for c in obj.coeffs]}
    if isinstance(obj, ModuleVector):
        return {
            "module": {"kind": obj.module.kind, "n": obj.module.n},
            "coords": [q_to_str(c) for c in obj.coords],
        }
    if isinstance(obj, WeightModule):
        return {"kind": obj.kind, "n": obj.n}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {_key_str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _key_str(key: Any) -> str:
    if isinstance(key, tuple):
        return ",".join(str(k) for k in key)
    return str(key)


def vector_from_json(data: Dict[str, Any]) -> ModuleVector:
    mod = build_module(data["module"]["kind"], data["module"]["n"])
    return ModuleVector(mod, tuple(str_to_q(c) for c in data["coords"]))
