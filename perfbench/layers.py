"""Layer spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces each public layer function with a wrapper that
records a span (name, start, end, parent span) and, for some layers, counts
taken from the result.  A wrapper is installed wherever a caller looks the
name up: on the class for methods, and on every loaded ``horolab`` module
that holds the function under that name, because ``from x import f`` binds
the name in the importing module.  Spans live in memory until ``finish``.

Only the traced repetition process installs wrappers; untraced repetitions
run in other processes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


def _swaps(result) -> Dict[str, int]:
    return {"swaps": result.swaps}


def _witness(result) -> Dict[str, int]:
    return {"volume": result.search_volume, "found": int(result.found)}


def _volume(result) -> Dict[str, int]:
    return {"volume": result.search_volume}


# (span name, module, attribute path, counts taken from the result)
SPANS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("harness.run", "horolab.harness.runner", "run", None),
    ("latticelab.systole", "horolab.latticelab", "systole", None),
    ("latticelab.shortest_vector", "horolab.latticelab", "shortest_vector", None),
    ("latticelab.lll_reduce", "horolab.latticelab", "lll_reduce", _swaps),
    ("latticelab.basis_init", "horolab.latticelab", "LatticeBasis.__post_init__", None),
    ("exact.det", "horolab.exact", "det", None),
    ("exact.matmul", "horolab.exact", "matmul", None),
    ("exact.inverse", "horolab.exact", "inverse", None),
    ("flowlab.expansion_supremum", "horolab.flowlab", "expansion_supremum", None),
    ("flowlab.classify", "horolab.flowlab", "classify", None),
    ("flowlab.assemble_expansion_bound", "horolab.flowlab", "assemble_expansion_bound", None),
    ("weightlab.group_action_float", "horolab.weightlab.modules", "WeightModule.group_action_float", None),
    ("weightlab.group_action", "horolab.weightlab.modules", "WeightModule.group_action", None),
    ("weightlab.algebra_action", "horolab.weightlab.modules", "WeightModule.algebra_action", None),
    ("weightlab.s_sets", "horolab.weightlab.lemmas", "s_sets", None),
    ("weightlab.sl2_maxweight_check", "horolab.weightlab.lemmas", "sl2_maxweight_check", None),
    ("weightlab.identity_suite", "horolab.weightlab.identities", "identity_suite", None),
    ("weightlab.estimate_D1", "horolab.weightlab.lemmas", "estimate_D1", None),
    ("curvejet.r_poly", "horolab.curvejet", "CurveFrame.r_poly", None),
    ("curvejet.evaluate", "horolab.curvejet", "CurveSpec.evaluate", None),
    ("dirichlet.di_witness", "horolab.dirichlet", "di_witness", _witness),
    ("dirichlet.box_point_search", "horolab.dirichlet", "box_point_search", _volume),
    ("dirichlet.di_dual_witness", "horolab.dirichlet", "di_dual_witness", _volume),
    ("dirichlet.curve_scan", "horolab.dirichlet", "curve_scan", None),
)

# Per-layer metrics: (metric name, source, field).  The source is a span
# name, or "counter" for a count kept by the wrappers.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("harness.run.calls", "harness.run", "calls"),
    ("harness.run.s", "harness.run", "s"),
    ("harness.run.self_s", "harness.run", "self_s"),
    ("latticelab.systole.calls", "latticelab.systole", "calls"),
    ("latticelab.systole.s", "latticelab.systole", "s"),
    ("latticelab.systole.p50_us", "latticelab.systole", "p50_us"),
    ("latticelab.systole.p99_us", "latticelab.systole", "p99_us"),
    ("latticelab.lll_reduce.calls", "latticelab.lll_reduce", "calls"),
    ("latticelab.lll_reduce.s", "latticelab.lll_reduce", "s"),
    ("latticelab.lll_reduce.swaps", "counter", "latticelab.lll_reduce.swaps"),
    # shortest_vector minus its lll_reduce child is the enumeration.
    ("latticelab.enumerate.self_s", "latticelab.shortest_vector", "self_s"),
    ("latticelab.basis_init.calls", "latticelab.basis_init", "calls"),
    ("latticelab.basis_init.s", "latticelab.basis_init", "s"),
    ("latticelab.errors", "counter", "latticelab.errors"),
    ("exact.det.calls", "exact.det", "calls"),
    ("exact.det.s", "exact.det", "s"),
    ("exact.matmul.calls", "exact.matmul", "calls"),
    ("exact.matmul.s", "exact.matmul", "s"),
    ("exact.inverse.s", "exact.inverse", "s"),
    ("flowlab.expansion_supremum.calls", "flowlab.expansion_supremum", "calls"),
    ("flowlab.expansion_supremum.s", "flowlab.expansion_supremum", "s"),
    ("flowlab.expansion_supremum.self_s", "flowlab.expansion_supremum", "self_s"),
    ("flowlab.expansion_supremum.p50_us", "flowlab.expansion_supremum", "p50_us"),
    ("flowlab.expansion_supremum.p99_us", "flowlab.expansion_supremum", "p99_us"),
    ("flowlab.classify.calls", "flowlab.classify", "calls"),
    ("flowlab.classify.s", "flowlab.classify", "s"),
    ("flowlab.assemble_expansion_bound.s", "flowlab.assemble_expansion_bound", "s"),
    ("weightlab.group_action_float.calls", "weightlab.group_action_float", "calls"),
    ("weightlab.group_action_float.s", "weightlab.group_action_float", "s"),
    ("weightlab.group_action.calls", "weightlab.group_action", "calls"),
    ("weightlab.group_action.s", "weightlab.group_action", "s"),
    ("weightlab.algebra_action.s", "weightlab.algebra_action", "s"),
    ("weightlab.s_sets.calls", "weightlab.s_sets", "calls"),
    ("weightlab.s_sets.s", "weightlab.s_sets", "s"),
    ("weightlab.sl2_maxweight_check.calls", "weightlab.sl2_maxweight_check", "calls"),
    ("weightlab.sl2_maxweight_check.s", "weightlab.sl2_maxweight_check", "s"),
    ("weightlab.sl2_maxweight_check.self_s", "weightlab.sl2_maxweight_check", "self_s"),
    ("weightlab.identity_suite.s", "weightlab.identity_suite", "s"),
    ("weightlab.estimate_D1.s", "weightlab.estimate_D1", "s"),
    ("curvejet.r_poly.calls", "curvejet.r_poly", "calls"),
    ("curvejet.r_poly.s", "curvejet.r_poly", "s"),
    ("curvejet.evaluate.calls", "curvejet.evaluate", "calls"),
    ("curvejet.evaluate.s", "curvejet.evaluate", "s"),
    ("dirichlet.di_witness.calls", "dirichlet.di_witness", "calls"),
    ("dirichlet.di_witness.s", "dirichlet.di_witness", "s"),
    ("dirichlet.di_witness.p50_us", "dirichlet.di_witness", "p50_us"),
    ("dirichlet.di_witness.p99_us", "dirichlet.di_witness", "p99_us"),
    ("dirichlet.di_witness.volume", "counter", "dirichlet.di_witness.volume"),
    ("dirichlet.di_witness.found", "counter", "dirichlet.di_witness.found"),
    ("dirichlet.box_point_search.calls", "dirichlet.box_point_search", "calls"),
    ("dirichlet.box_point_search.s", "dirichlet.box_point_search", "s"),
    ("dirichlet.box_point_search.p99_us", "dirichlet.box_point_search", "p99_us"),
    ("dirichlet.box_point_search.volume", "counter", "dirichlet.box_point_search.volume"),
    ("dirichlet.di_dual_witness.calls", "dirichlet.di_dual_witness", "calls"),
    ("dirichlet.di_dual_witness.s", "dirichlet.di_dual_witness", "s"),
    ("dirichlet.di_dual_witness.volume", "counter", "dirichlet.di_dual_witness.volume"),
    ("dirichlet.curve_scan.s", "dirichlet.curve_scan", "s"),
    ("dirichlet.budget_errors", "counter", "dirichlet.budget_errors"),
)

FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s", "p50_us": "us", "p99_us": "us"}


def metric_unit(source: str, field: str) -> str:
    return "count" if source == "counter" else FIELD_UNITS[field]


class Tracer:
    """Spans of one process, kept in flat arrays until ``finish``."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._span_name = array("H")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack: List[int] = []
        self.counters: Dict[str, int] = {
            field: 0 for _, source, field in PER_LAYER if source == "counter"
        }

    def wrap(self, fn: Callable, name: str, counts: Optional[Callable]) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        layer = name.split(".", 1)[0]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self._start)
            self._span_name.append(name_id)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._end.append(0)
            self._stack.append(index)
            self._start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._record_error(layer, exc)
                raise
            finally:
                self._end[index] = clock()
                self._stack.pop()
            if counts is not None:
                for key, value in counts(result).items():
                    self.counters[f"{name}.{key}"] += value
            return result

        return traced

    def _record_error(self, layer: str, exc: Exception) -> None:
        # An exception passes through every enclosing span; count it once
        # per layer.
        seen = exc.__dict__.setdefault("_perfbench_layers", set())
        if layer in seen:
            return
        seen.add(layer)
        if layer == "latticelab":
            self.counters["latticelab.errors"] += 1
        elif layer == "dirichlet" and type(exc).__name__ == "SearchBudgetError":
            self.counters["dirichlet.budget_errors"] += 1

    def install(self) -> None:
        """Wrap every span target of ``SPANS`` where callers look it up."""
        for name, module_name, attr, counts in SPANS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(getattr(cls, method), name, counts))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, name, counts)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "horolab" and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
            if getattr(module, attr) is not wrapper:
                raise RuntimeError(f"could not install span {name}")

    def finish(self, spans_path: Path) -> Dict:
        """Write the spans once and return per-span and counter totals."""
        span_name = np.frombuffer(self._span_name, dtype=np.uint16)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        start = np.frombuffer(self._start, dtype=np.int64)
        end = np.frombuffer(self._end, dtype=np.int64)
        np.savez_compressed(spans_path, names=np.array(self.names), span_name=span_name,
                            parent=parent, start=start, end=end)
        duration = end - start
        children = parent >= 0
        child_ns = np.bincount(parent[children], weights=duration[children],
                               minlength=len(duration))
        self_ns = duration - child_ns
        spans = {}
        for name_id, name in enumerate(self.names):
            mine = span_name == name_id
            d = duration[mine]
            spans[name] = {
                "calls": int(d.size),
                "s": float(d.sum()) / 1e9,
                "self_s": float(self_ns[mine].sum()) / 1e9,
                "min_self_s": float(self_ns[mine].min()) / 1e9 if d.size else 0.0,
                "p50_us": float(np.percentile(d, 50)) / 1e3 if d.size else 0.0,
                "p99_us": float(np.percentile(d, 99)) / 1e3 if d.size else 0.0,
            }
        return {
            "spans": spans,
            "counters": dict(self.counters),
            "self_total_s": float(self_ns.sum()) / 1e9,
        }


def layer_metrics(trace: Dict) -> Dict[str, float]:
    """Map one traced repetition onto the per-layer metric names."""
    out = {}
    for metric, source, field in PER_LAYER:
        if source == "counter":
            out[metric] = trace["counters"][field]
        else:
            out[metric] = trace["spans"][source][field]
    return out
