"""Unimodular lattices as an experiment bench.

Bases are kept in exact rational arithmetic: after flowing by a_t the Gram
matrix spans e^{40} at t = 20, where double-precision roundoff is larger
than the systole being measured, so reduction and enumeration work over
Fractions and only the final lengths are floated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import exact
from .rng import SplitRNG


class LatticeError(Exception):
    pass


def _round_q(x: Q) -> int:
    """Nearest integer, ties toward +infinity."""
    return math.floor(x + Q(1, 2))


@dataclass(frozen=True)
class LatticeBasis:
    """Full-rank lattice basis; rows are the generators."""

    rows: Tuple[Tuple[Q, ...], ...]
    provenance: str = ""
    expect_unimodular: bool = True

    def __post_init__(self):
        rows = tuple(tuple(Q(c) for c in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        d = len(rows)
        if d == 0 or any(len(r) != d for r in rows):
            raise LatticeError("basis must be square")
        det = exact.det(rows)
        if det == 0:
            raise LatticeError("rows are linearly dependent")
        if self.expect_unimodular and abs(abs(float(det)) - 1.0) > 1e-9:
            raise LatticeError(
                f"basis is not unimodular: |det| = {float(abs(det))!r}"
            )

    @property
    def dim(self) -> int:
        return len(self.rows)

    @staticmethod
    def identity(dim: int) -> "LatticeBasis":
        return LatticeBasis(exact.identity(dim), provenance="Z^%d" % dim)

    @staticmethod
    def from_rows(rows, provenance: str = "", expect_unimodular: bool = True) -> "LatticeBasis":
        return LatticeBasis(
            tuple(tuple(Q(c) for c in row) for row in rows),
            provenance=provenance,
            expect_unimodular=expect_unimodular,
        )

    @staticmethod
    def from_group_element(g, provenance: str = "", expect_unimodular: bool = True) -> "LatticeBasis":
        """Lattice g Z^d: generators are the columns of g."""
        gq = tuple(tuple(Q(c) for c in row) for row in g)
        return LatticeBasis(
            exact.transpose(gq), provenance=provenance,
            expect_unimodular=expect_unimodular,
        )


def apply_group(g, basis: LatticeBasis, provenance: Optional[str] = None) -> LatticeBasis:
    """Lattice g L: each generator row v becomes g v."""
    gq = tuple(tuple(Q(c) for c in row) for row in g)
    new_rows = exact.matmul(basis.rows, exact.transpose(gq))
    return LatticeBasis(
        new_rows,
        provenance=provenance if provenance is not None else basis.provenance + "|g",
        expect_unimodular=basis.expect_unimodular,
    )


# -- reduction ---------------------------------------------------------------------


@dataclass
class ReducedBasis:
    basis: LatticeBasis
    transform: Tuple[Tuple[int, ...], ...]
    swaps: int


def _gso(rows: List[List[Q]]) -> Tuple[List[List[Q]], List[Q]]:
    d = len(rows)
    mu = [[Q(0)] * d for _ in range(d)]
    star: List[List[Q]] = []
    norms: List[Q] = []
    for i in range(d):
        v = list(rows[i])
        for j in range(i):
            if norms[j] == 0:
                raise LatticeError("numerically dependent rows")
            mu[i][j] = sum(a * b for a, b in zip(rows[i], star[j])) / norms[j]
            v = [a - mu[i][j] * b for a, b in zip(v, star[j])]
        star.append(v)
        norms.append(sum(c * c for c in v))
    if any(n == 0 for n in norms):
        raise LatticeError("numerically dependent rows")
    return mu, norms


def lll_reduce(basis: LatticeBasis, delta: Q = Q(3, 4)) -> ReducedBasis:
    """Exact LLL reduction; records the unimodular row transform."""
    dq = Q(delta)
    if not Q(1, 4) < dq < 1:
        raise ValueError("delta must lie in (1/4, 1)")
    d = basis.dim
    rows = [list(r) for r in basis.rows]
    u = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    swaps = 0
    mu, norms = _gso(rows)
    k = 1
    while k < d:
        for j in range(k - 1, -1, -1):
            r = _round_q(mu[k][j])
            if r != 0:
                rows[k] = [a - r * b for a, b in zip(rows[k], rows[j])]
                u[k] = [a - r * b for a, b in zip(u[k], u[j])]
                mu, norms = _gso(rows)
        if norms[k] >= (dq - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            rows[k], rows[k - 1] = rows[k - 1], rows[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            swaps += 1
            mu, norms = _gso(rows)
            k = max(k - 1, 1)
    reduced = LatticeBasis(
        tuple(tuple(r) for r in rows),
        provenance=basis.provenance + "|lll",
        expect_unimodular=basis.expect_unimodular,
    )
    return ReducedBasis(
        basis=reduced, transform=tuple(tuple(r) for r in u), swaps=swaps
    )


# -- shortest vector ------------------------------------------------------------------


@dataclass
class ShortestVector:
    coords: Tuple[int, ...]
    vector: Tuple[Q, ...]
    norm_sq: Q

    @property
    def norm(self) -> float:
        return math.sqrt(float(self.norm_sq))


def _enumerate_shortest(rows: Sequence[Sequence[Q]]) -> ShortestVector:
    """Exact shortest nonzero vector of an LLL-reduced basis.

    Depth-first enumeration over Gram-Schmidt levels; interval endpoints
    use floats with a one-step slack, all pruning comparisons are exact.
    """
    d = len(rows)
    mu, norms = _gso([list(r) for r in rows])
    best_sq = min(sum(c * c for c in row) for row in rows)
    best_coords = None
    for i, row in enumerate(rows):
        if sum(c * c for c in row) == best_sq:
            best_coords = tuple(1 if j == i else 0 for j in range(d))
            break

    coords = [0] * d

    def descend(level: int, partial: Q) -> None:
        nonlocal best_sq, best_coords
        center = -sum(mu[i][level] * coords[i] for i in range(level + 1, d))
        budget = best_sq - partial
        if budget < 0:
            return
        half = math.sqrt(float(budget) / float(norms[level])) + 1.0
        lo = math.floor(float(center) - half)
        hi = math.ceil(float(center) + half)
        for c in range(lo, hi + 1):
            contrib = (Q(c) - center) ** 2 * norms[level]
            if partial + contrib > best_sq:
                continue
            coords[level] = c
            if level == 0:
                if all(x == 0 for x in coords):
                    continue
                total = partial + contrib
                if 0 < total < best_sq:
                    best_sq = total
                    best_coords = tuple(coords)
            else:
                descend(level - 1, partial + contrib)
        coords[level] = 0

    descend(d - 1, Q(0))
    vec = [Q(0)] * d
    for c, row in zip(best_coords, rows):
        if c:
            vec = [a + c * b for a, b in zip(vec, row)]
    return ShortestVector(coords=best_coords, vector=tuple(vec), norm_sq=best_sq)


def shortest_vector(basis: LatticeBasis) -> ShortestVector:
    red = lll_reduce(basis)
    return _enumerate_shortest(red.basis.rows)


def systole(basis: LatticeBasis) -> float:
    """Length of the shortest nonzero lattice vector."""
    return shortest_vector(basis).norm


def brute_force_shortest(
    basis: LatticeBasis, radius: Optional[float] = None
) -> ShortestVector:
    """Reduction-free oracle: scan every lattice point within a radius.

    Coefficient bounds come from the inverse basis (|c_i| <= r * column
    norm of B^{-1}), so the box is valid regardless of how skew the input
    rows are.  Exponential in dimension; a desk-scale check, not a
    production path.
    """
    d = basis.dim
    if radius is None:
        radius = min(
            math.sqrt(float(sum(c * c for c in row))) for row in basis.rows
        )
    inv = exact.inverse(basis.rows)
    bounds = []
    for i in range(d):
        col = math.sqrt(sum(float(inv[j][i]) ** 2 for j in range(d)))
        bounds.append(int(math.ceil(radius * col)) + 1)
    cells = 1
    for b in bounds:
        cells *= 2 * b + 1
    if cells > 5_000_000:
        raise LatticeError(f"oracle box too large ({cells} cells)")
    best_sq: Optional[Q] = None
    best: Optional[Tuple[int, ...]] = None
    import itertools

    for coords in itertools.product(*[range(-b, b + 1) for b in bounds]):
        if all(c == 0 for c in coords):
            continue
        vec = [Q(0)] * d
        for c, row in zip(coords, basis.rows):
            if c:
                vec = [a + c * b for a, b in zip(vec, row)]
        nsq = sum(x * x for x in vec)
        if nsq == 0:
            continue
        if best_sq is None or nsq < best_sq:
            best_sq = nsq
            best = coords
    vec = [Q(0)] * d
    for c, row in zip(best, basis.rows):
        if c:
            vec = [a + c * b for a, b in zip(vec, row)]
    return ShortestVector(coords=best, vector=tuple(vec), norm_sq=best_sq)


def random_unimodular_basis(dim: int, seed: int, shears: int = 12) -> LatticeBasis:
    """Random product of integer shears and row swaps (determinant +-1).

    Integer unimodular bases generate Z^dim itself, so these exercise the
    reduction transform bookkeeping, not interesting systoles."""
    rng = SplitRNG(seed).generator("unimodular-basis")
    rows = [[Q(1) if i == j else Q(0) for j in range(dim)] for i in range(dim)]
    for _ in range(shears):
        i, j = rng.integers(0, dim, size=2)
        if i == j:
            continue
        c = int(rng.integers(-3, 4))
        rows[int(i)] = [a + c * b for a, b in zip(rows[int(i)], rows[int(j)])]
        if rng.integers(0, 4) == 0:
            k, m = sorted(rng.integers(0, dim, size=2))
            if k != m:
                rows[int(k)], rows[int(m)] = rows[int(m)], rows[int(k)]
    basis = tuple(tuple(r) for r in rows)
    if exact.det(basis) == -1:
        basis = (tuple(-c for c in basis[0]),) + basis[1:]
    return LatticeBasis(basis, provenance=f"random-unimodular({seed})")


def random_real_basis(dim: int, seed: int) -> LatticeBasis:
    """Gaussian basis rescaled to determinant +-1 (within float rounding)."""
    rng = SplitRNG(seed).generator("real-basis")
    while True:
        a = rng.normal(size=(dim, dim))
        det = float(np.linalg.det(a))
        if abs(det) > 0.1:
            break
    scale = Q(abs(det) ** (1.0 / dim))
    rows = tuple(tuple(Q(float(x)) / scale for x in row) for row in a)
    return LatticeBasis(rows, provenance=f"random-real({seed})")


# -- observables ----------------------------------------------------------------------


def make_observable(spec: str) -> Tuple[str, Callable[[float], float]]:
    """Observable maps applied to the systole.

    Specs: "systole", "invsys:<cap>" (1/systole clipped at cap),
    "indicator:<c>" (1 when systole >= c).
    """
    if spec == "systole":
        return "systole", lambda s: s
    if spec.startswith("invsys:"):
        cap = float(spec.split(":", 1)[1])
        if cap <= 0:
            raise ValueError("cap must be positive")
        return spec, lambda s: min(1.0 / s, cap)
    if spec.startswith("indicator:"):
        c = float(spec.split(":", 1)[1])
        return spec, lambda s: 1.0 if s >= c else 0.0
    raise ValueError(f"unknown observable: {spec!r}")


# -- empirical measures ----------------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalMeasure:
    observable: str
    count: int
    values: Tuple[float, ...]
    bin_edges: Tuple[float, ...]
    masses: Tuple[float, ...]

    def __post_init__(self):
        if self.count != len(self.values):
            raise ValueError("count does not match sample size")
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be sorted")
        if self.masses and abs(sum(self.masses) - 1.0) > 1e-9:
            raise ValueError("masses must sum to 1")

    @staticmethod
    def from_values(observable: str, values: Sequence[float], bins: int = 32) -> "EmpiricalMeasure":
        arr = np.sort(np.asarray(values, dtype=float))
        if arr.size == 0:
            raise ValueError("empty sample")
        if not np.all(np.isfinite(arr)):
            raise LatticeError("non-finite observable values")
        lo, hi = float(arr[0]), float(arr[-1])
        if hi <= lo:
            hi = lo + 1.0
        counts, edges = np.histogram(arr, bins=bins, range=(lo, hi))
        return EmpiricalMeasure(
            observable=observable,
            count=int(arr.size),
            values=tuple(float(x) for x in arr),
            bin_edges=tuple(float(x) for x in edges),
            masses=tuple(float(c) / arr.size for c in counts),
        )


def consistency_distance(m1: EmpiricalMeasure, m2: EmpiricalMeasure) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    if m1.observable != m2.observable:
        raise ValueError("measures observe different quantities")
    if m1.count == 0 or m2.count == 0:
        raise ValueError("empty samples")
    a = np.asarray(m1.values)
    b = np.asarray(m2.values)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def ks_null_quantile(n1: int, n2: int, alpha: float = 0.05) -> float:
    """Asymptotic two-sample KS quantile c(alpha) sqrt((n1+n2)/(n1 n2))."""
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((n1 + n2) / (n1 * n2))


# -- translated sampling ----------------------------------------------------------------


CATALOG_BASES: Tuple[Tuple[Tuple[float, ...], ...], ...] = (
    ((1.0, 0.0), (0.0, 1.0)),
    ((0.8, -0.6), (0.6, 0.8)),
    ((1.25, 0.5), (0.5, 1.0)),
)


def catalog_basis(index: int) -> LatticeBasis:
    """Fixed compact-part base points used by consistency experiments."""
    rows = CATALOG_BASES[index]
    return LatticeBasis.from_rows(rows, provenance=f"catalog[{index}]")


SAMPLERS = ("s-uniform", "eta-window", "eta-window-beta")


def translate_sample(
    curve,
    schedule,
    base: LatticeBasis,
    sampler: str,
    t: float,
    count: int,
    observable: str = "systole",
    seed: int = 0,
    interval: Tuple[float, float] = (0.0, 1.0),
    s_center: float = 0.5,
    window: Tuple[float, float] = (1.0, 2.0),
) -> EmpiricalMeasure:
    """Empirical law of an observable along flowed curve translates.

    sampler "s-uniform" draws s over the interval and evaluates
    a_t u(phi(s)) base; "eta-window" freezes s_center and draws eta over
    the window at step e^{-t}; "eta-window-beta" widens the step to
    (1+t) e^{-t}.  Each sample index derives its own generator from the
    seed, so results are reproducible and order-independent.
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}; options: {SAMPLERS}")
    if count < 1:
        raise ValueError("count must be positive")
    name, obs_map = make_observable(observable)
    a_t = schedule.a_matrix(t)
    n = schedule.n
    children = SplitRNG(seed).spawn_children("translate-sample", count)
    values = np.empty(count)
    for idx in range(count):
        rng = np.random.Generator(np.random.PCG64(children[idx]))
        if sampler == "s-uniform":
            s = rng.uniform(interval[0], interval[1])
        elif sampler == "eta-window":
            eta = rng.uniform(window[0], window[1])
            s = s_center + math.exp(-t) * eta
        else:
            eta = rng.uniform(window[0], window[1])
            s = s_center + (1.0 + t) * math.exp(-t) * eta
        x = curve.evaluate(s)
        u = np.eye(n + 1)
        u[0, 1:] = x
        lat = apply_group(a_t @ u, base, provenance=base.provenance + f"|translate(t={t})")
        values[idx] = obs_map(systole(lat))
    return EmpiricalMeasure.from_values(name, values)


def orbit_oracle(
    schedule,
    t: float,
    count: int,
    observable: str = "systole",
    seed: int = 0,
) -> EmpiricalMeasure:
    """Independent reference law from the expanded-orbit parametrization.

    a_t u(s) = u(e^{2t} s) a_t for n = 1, so the t-translate of a unit
    window equals a length-e^{2t} unipotent window at a fixed diagonal
    point; this path builds u(w) a_t Z^2 directly, bypassing the curve
    and translate machinery.
    """
    if schedule.n != 1:
        raise ValueError("orbit oracle is a dimension-1 reference")
    name, obs_map = make_observable(observable)
    w_max = math.exp(2 * t)
    a_t = schedule.a_matrix(t)
    children = SplitRNG(seed).spawn_children("orbit-oracle", count)
    values = np.empty(count)
    for idx in range(count):
        rng = np.random.Generator(np.random.PCG64(children[idx]))
        w = rng.uniform(0.0, w_max)
        u = np.array([[1.0, w], [0.0, 1.0]])
        lat = LatticeBasis.from_group_element(u @ a_t, provenance="orbit-oracle")
        values[idx] = obs_map(systole(lat))
    return EmpiricalMeasure.from_values(name, values)


# -- escape scenarios -------------------------------------------------------------------


@dataclass
class EscapeRow:
    t: float
    value: float
    closed_form: Optional[float]
    rel_err: Optional[float]
    in_regime: bool = True


@dataclass
class EscapeTable:
    rate: str
    eta: float
    rows: Tuple[EscapeRow, ...]

    def values(self) -> Tuple[float, ...]:
        return tuple(r.value for r in self.rows)


def escape_probe(t_ladder: Sequence[float], eta: float, rate: str = "super") -> EscapeTable:
    """Systole decay of a_t u(w_t eta) Z^2 along a t-ladder.

    rate "super" shrinks the translate at w_t = e^{-2t}: then
    a_t u(e^{-2t} eta) = u(eta) a_t exactly, so the systole is
    e^{-t} sqrt(1 + eta^2) and the orbit escapes.  rate "critical" uses
    w_t = e^{-t}, where the window matches the expansion and the systole
    stays bounded below: the dichotomy pair.

    The closed form is the systole once 1 + eta^2 <= e^{4t}; below that
    crossover an integer shear of the base lattice is shorter (at t = 0,
    eta = 1 the lattice is plain Z^2 with systole 1), and the row is
    marked in_regime=False.
    """
    if rate not in ("super", "critical"):
        raise ValueError("rate must be 'super' or 'critical'")
    rows: List[EscapeRow] = []
    for t in t_ladder:
        t = float(t)
        e_plus = Q(math.exp(t))
        e_minus = Q(math.exp(-t))
        shrink = Q(math.exp(-2 * t)) if rate == "super" else e_minus
        x = Q(eta) * shrink
        g = ((e_plus, e_plus * x), (Q(0), e_minus))
        lat = LatticeBasis.from_group_element(
            g, provenance=f"escape({rate},t={t})"
        )
        val = systole(lat)
        if rate == "super":
            cf = math.exp(-t) * math.sqrt(1.0 + eta * eta)
            rows.append(
                EscapeRow(
                    t=t, value=val, closed_form=cf,
                    rel_err=abs(val - cf) / cf,
                    in_regime=1.0 + eta * eta <= math.exp(4 * t),
                )
            )
        else:
            rows.append(
                EscapeRow(t=t, value=val, closed_form=None, rel_err=None)
            )
    return EscapeTable(rate=rate, eta=float(eta), rows=tuple(rows))
