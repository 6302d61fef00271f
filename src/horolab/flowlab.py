"""Diagonal-flow schedules, their classification, and expansion suprema.

The flow is a_t = diag(e^{nt}, e^{-r_1(t)}, ..., e^{-r_n(t)}) with linear
exponents r_i(t) = s_i t whose exact rational slopes satisfy
s_1 >= ... >= s_n >= 0 and sum s_i = n.  This module provides the schedule
presets, their exact (n0, uniform) classification read off the slopes,
the equispaced Vandermonde constants, grid certification of expansion
suprema over a_t-translates of the segment R(e^{-t} eta), eta in the window
J = [1, 2], boundedness witnesses with their fixed-vector cross-check, and
the limiting-vector residual.

Large exponents are kept in log space; matrix identities are evaluated in
a conjugated form whose factors stay O(1) before any e^{t} scaling is
applied entrywise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction as Q
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import exact
from .curvejet import CurveFrame, CurveSpec, ordered_regular_frame
from .weightlab import (
    ModuleVector,
    WeightModule,
    estimate_D1,
    fixed_check,
    h_block,
)
from .weightlab import groups as _groups

# The eta window J: suprema run over eta in J, and the Vandermonde floor
# of the certified bound is taken on J.
WINDOW = (1, 2)


class ScheduleError(Exception):
    pass


@dataclass(frozen=True)
class FlowSchedule:
    """Linear exponent schedule r_i(t) = s_i t with exact rational slopes
    s_1 >= ... >= s_n >= 0 summing to n, checked once by ``linear``; its
    classification is read off the slopes, once, on first use."""

    n: int
    slopes: Tuple[Q, ...]

    @staticmethod
    def equal(n: int) -> "FlowSchedule":
        return FlowSchedule.linear([1] * n)

    @staticmethod
    def linear(slopes: Sequence) -> "FlowSchedule":
        cs = tuple(Q(c) for c in slopes)
        n = len(cs)
        if n < 1:
            raise ScheduleError("need at least one slope")
        if any(a < b for a, b in zip(cs, cs[1:])):
            raise ScheduleError("slopes must be non-increasing")
        if cs[-1] < 0:
            raise ScheduleError("slopes must be nonnegative")
        if sum(cs) != n:
            raise ScheduleError(f"slopes must sum to n={n}, got {sum(cs)}")
        return FlowSchedule(n=n, slopes=cs)

    @staticmethod
    def preset(text: str, n: int) -> "FlowSchedule":
        if text == "equal":
            return FlowSchedule.equal(n)
        if text.startswith("linear:"):
            parts = [p for p in text[len("linear:"):].split(",") if p.strip()]
            sched = FlowSchedule.linear([Q(p) for p in parts])
            if sched.n != n:
                raise ScheduleError(f"linear preset has n={sched.n}, wanted {n}")
            return sched
        raise ScheduleError(f"unknown schedule preset: {text!r}")

    def r(self, t: float) -> np.ndarray:
        if t < 0:
            raise ScheduleError("t must be nonnegative")
        return np.array([float(s) for s in self.slopes]) * float(t)

    def exponents(self, t: float) -> np.ndarray:
        """Diagonal of log a_t: (n t, -r_1, ..., -r_n)."""
        r = self.r(t)
        return np.concatenate(([self.n * t], -r))

    @property
    def log_diagonal(self) -> Tuple[Q, ...]:
        """Exact diagonal of log a_t / t: (n, -s_1, ..., -s_n)."""
        return (Q(self.n),) + tuple(-s for s in self.slopes)

    def a_matrix(self, t: float) -> np.ndarray:
        return np.diag(np.exp(self.exponents(t)))

    @cached_property
    def classification(self) -> "FlowClassification":
        return classify(self)


# -- classification ----------------------------------------------------------------


@dataclass
class FlowClassification:
    n0: int
    uniform: bool


def classify(schedule: FlowSchedule) -> FlowClassification:
    """Exact (n0, uniformity) of a linear schedule.

    n0 counts the divergent exponents, which are the positive slopes; the
    schedule is uniform when every gap r_i - r_{i+1} stays bounded, i.e. all
    slopes are equal.
    """
    s = schedule.slopes
    return FlowClassification(
        n0=sum(1 for c in s if c > 0),
        uniform=all(c == s[0] for c in s),
    )


# -- Vandermonde constants -----------------------------------------------------------


class VandermondeConstants(NamedTuple):
    certified: Q
    empirical: Q


def vandermonde_constant(d: int, interval: Tuple) -> VandermondeConstants:
    """Exact sup-norm coefficient constants on equispaced nodes.

    certified is the closed form |J|^d / (d^(d+1) (1 + eta_d)); empirical
    is the sharp constant 1 / ||V^{-1}||_inf (max row sum of the inverse
    Vandermonde).  For degree-d polynomials f with coefficients c,
    sup_J |f| >= empirical * max|c_i| always, as c = V^{-1} f(nodes).  The
    closed form is a floor only where certified <= empirical, which callers
    check exactly: it holds on [1, 2] for d <= 15, but not on [1, 1e5] at
    d = 2 (T_2 on that interval has sup 1 and max|c| near 1) nor on
    [-1/2, 1/2] at d = 1 (f = x has sup 1/2 against 2/3).
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    a, b = Q(interval[0]), Q(interval[1])
    if not b > a:
        raise ValueError("degenerate interval")
    if d == 0:
        return VandermondeConstants(Q(1), Q(1))
    length = b - a
    nodes = tuple(a + Q(i, d) * length for i in range(d + 1))
    v = tuple(tuple(node ** j for j in range(d + 1)) for node in nodes)
    max_row_sum = max(sum(abs(x) for x in row) for row in exact.inverse(v))
    return VandermondeConstants(
        certified=length ** d / (Q(d) ** (d + 1) * (1 + b)),
        empirical=1 / max_row_sum,
    )


# -- expansion supremum ---------------------------------------------------------------


def _u_top_float(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    u = np.eye(n + 1)
    u[0, 1:] = x
    return u


def _module_floats(v) -> np.ndarray:
    if isinstance(v, ModuleVector):
        return v.to_floats()
    return np.asarray(v, dtype=float)


def frame_degree_bound(module: WeightModule, frame: CurveFrame) -> int:
    """Degree in eta of the weight components of u(R(c eta)) v.

    Each level raise by i costs polynomial degree i when the frame rows
    are tail-free (moment frames); residual tail coefficients push a raise
    up to degree k, so the bound scales by k in that case.
    """
    levels = module.levels
    span = int(max(levels) - min(levels))
    tail_free = all(
        frame.coeff_table.get((j, i), 0) == 0 or i == j
        for (j, i) in frame.coeff_table
    )
    if tail_free:
        return span
    return span * frame.k


def _eta_grid(count: int) -> np.ndarray:
    a, b = float(WINDOW[0]), float(WINDOW[1])
    uniform = np.linspace(a, b, count)
    j = np.arange(count)
    cheb = (a + b) / 2 + (b - a) / 2 * np.cos(np.pi * j / (count - 1))
    # np.unique, without the numpy.ma import it makes on first use
    grid = np.sort(np.concatenate([uniform, cheb]))
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


def expansion_supremum(
    module: WeightModule,
    vectors: Sequence,
    schedule: FlowSchedule,
    frame: CurveFrame,
    t: float,
) -> np.ndarray:
    """Grid maxima M_t of ||a_t u(R(e^{-t} eta)) v||_sup over eta in J, one
    per vector v of ``vectors`` (a zero vector has M_t = 0).

    Exponent bookkeeping happens in log space: for each basis coordinate
    the weight's value on log a_t is added to log of the unscaled
    coordinate, so t = 20 does not overflow.  The eta grid, the frame
    polynomial and the action stack over the grid are built once and
    shared by the vectors; each vector is acted on by its own product with
    that stack.
    """
    if module.n != schedule.n or module.n != frame.n:
        raise ValueError("module, schedule, and frame sizes disagree")
    stack = [_module_floats(v) for v in vectors]
    if any(coords.shape != (module.dim,) for coords in stack):
        raise ValueError("vector has wrong dimension")
    etas = _eta_grid(max(4 * (frame_degree_bound(module, frame) + 1), 33))
    levels, d = module.grading(schedule.log_diagonal)
    tn, td = exact._ratio(t)
    # each level times t, rounded once (int / int is correctly rounded)
    weight_shift = np.array([a * tn / (d * td) for a in levels])
    u = np.tile(np.eye(module.n + 1), (len(etas), 1, 1))
    u[:, 0, 1:] = frame.r_poly(math.exp(-t) * etas)
    action = module.group_action_float(u)
    sups = np.empty(len(stack))
    with np.errstate(divide="ignore"):
        for i, coords in enumerate(stack):
            w = action @ coords
            logs = np.where(w != 0, np.log(np.abs(w)) + weight_shift, -math.inf)
            best = float(logs.max())
            sups[i] = math.exp(best) if best > -math.inf else 0.0
    return sups


def assemble_expansion_bound(module: WeightModule, frame: CurveFrame) -> float:
    """Certified floor D2 = C_{d,J} * min_b D1(b) / 2 for unit vectors.

    D1(b) is the grid estimate of the surviving-component norm for unit
    vectors concentrated at level b; the minimum runs over the populated
    levels of the module.  D1 is an estimate, not a certificate: the floor
    inherits grid resolution (see the shipped notes on the gap).
    """
    degree = frame_degree_bound(module, frame)
    consts = vandermonde_constant(degree, WINDOW)
    if consts.certified > consts.empirical:
        raise ArithmeticError(f"the closed-form floor at d = {degree} exceeds the sharp "
                              f"constant on {WINDOW}, so it is no floor there")
    c_cert = float(consts.certified)
    kappa = [Q(float(k)) for k in frame.kappa]
    d1_min = min(estimate_D1(module, b, kappa) for b in module.level_set())
    return c_cert * d1_min / 2.0


# -- growth witness -------------------------------------------------------------------


@dataclass
class GrowthWitness:
    verdict: str
    fixed: bool
    consistent: Optional[bool]


_LADDER = tuple(float(t) for t in np.linspace(2.0, 20.0, 10))


def growth_witness(
    module: WeightModule,
    v: ModuleVector,
    schedule: FlowSchedule,
    frame: CurveFrame,
) -> GrowthWitness:
    """Boundedness ladder for M_t, cross-checked against fixed vectors.

    The window stays at scale e^{-t}, which needs a non-uniform schedule;
    a bounded verdict must coincide with v being fixed by the block
    parabolic Q_{n0}.  Verdict "bounded" means less than 2x variation
    across the top half of the ladder; clear least-squares growth in
    log M_t reads "divergent"; anything else "undetermined".
    """
    cls = schedule.classification
    if cls.uniform:
        raise ValueError("a growth witness needs a non-uniform schedule")
    values = [
        float(expansion_supremum(module, [v], schedule, frame, t)[0])
        for t in _LADDER
    ]
    logs = np.log(np.maximum(values, 1e-300))
    slope = float(np.polyfit(_LADDER, logs, 1)[0])
    top = values[len(values) // 2 :]
    if max(top) / max(min(top), 1e-300) < 2.0:
        verdict = "bounded"
    elif slope > 0.01:
        verdict = "divergent"
    else:
        verdict = "undetermined"
    fixed = fixed_check(v, ("Q", cls.n0))
    consistent: Optional[bool]
    if verdict == "bounded":
        consistent = fixed
    elif verdict == "divergent":
        consistent = not fixed
    else:
        consistent = None
    return GrowthWitness(verdict=verdict, fixed=fixed, consistent=consistent)


# -- limiting vector ------------------------------------------------------------------


@dataclass
class QFixedResult:
    n0: int
    residual: float
    limit: np.ndarray


def qfixed_limit(
    frame: CurveFrame, schedule: FlowSchedule, eta: float, t: float
) -> QFixedResult:
    """Residual of the flowed last basis vector against its limit.

    Compares a_t u(R(e^{-t} eta)) e_n with exp((log eta) H_{n0}) w(kappa_n) e_n
    in sup norm, with n0 the schedule's classification; the residual decays
    like e^{-r_n(t)} when n0 = n and through the tail coefficients otherwise.
    kappa_n is a pivot of the frame, so it is never zero.
    """
    n = frame.n
    if schedule.n != n:
        raise ValueError("frame and schedule sizes disagree")
    n0 = schedule.classification.n0
    if eta <= 0:
        raise ValueError("eta must be positive")
    kappa_n = float(frame.kappa[-1])
    e_n = np.zeros(n + 1)
    e_n[n] = 1.0
    x = frame.r_poly(math.exp(-t) * eta)
    flowed = schedule.a_matrix(t) @ _u_top_float(x) @ e_n
    h = np.array([float(c) for c in h_block(n, n0)])
    scaling = np.diag(np.exp(math.log(eta) * h))
    w = np.array(
        [[float(c) for c in row] for row in _groups.w_limit(n, n0, Q(kappa_n))]
    )
    limit = scaling @ w @ e_n
    residual = float(np.max(np.abs(flowed - limit)))
    return QFixedResult(n0=n0, residual=residual, limit=limit)


def moment_frame(n: int) -> CurveFrame:
    """Frame of the power curve at 0, whose frame polynomial is exactly
    (h, h^2, ..., h^n)."""
    return ordered_regular_frame(CurveSpec.moment(n), 0, n)
