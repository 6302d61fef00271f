"""Unimodular lattices as an experiment bench.

Bases are kept exact: after flowing by a_t the Gram matrix spans e^{40} at
t = 20, where double-precision roundoff is larger than the systole being
measured.  Each basis is scaled once to integer rows over one common
denominator (``exact._scaled``, the package's one integer-over-denominator
form, with ``exact._bareiss_det`` for the determinant check), so reduction
(integral LLL) and enumeration (Fincke-Pohst with integer interval
endpoints) run on Python ints, and only the final lengths are floated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass
from fractions import Fraction as Q
from functools import cached_property
from operator import mul
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import exact
from .exact import IntRows, _bareiss_det, _scaled
from .rng import SplitRNG


class LatticeError(Exception):
    pass


@dataclass(frozen=True)
class LatticeBasis:
    """Full-rank lattice basis: generator rows ``ints / denom``.

    ``denom`` is the lcm of the entry denominators; build from arbitrary
    exact or float rows with ``from_rows``.  ``checked`` is for bases that
    are a unimodular transform of a checked one, whose |det| is known.
    """

    ints: IntRows
    denom: int
    provenance: str = ""
    expect_unimodular: bool = True
    checked: InitVar[bool] = False

    def __post_init__(self, checked: bool = False):
        d = len(self.ints)
        if d == 0 or any(len(r) != d for r in self.ints):
            raise LatticeError("basis must be square")
        if checked:
            return
        det = _bareiss_det(self.ints)
        if det == 0:
            raise LatticeError("rows are linearly dependent")
        size = abs(det) / self.denom**d
        if self.expect_unimodular and abs(size - 1.0) > 1e-9:
            raise LatticeError(f"basis is not unimodular: |det| = {size!r}")

    @cached_property
    def rows(self) -> Tuple[Tuple[Q, ...], ...]:
        return tuple(tuple(Q(a, self.denom) for a in row) for row in self.ints)

    @staticmethod
    def from_rows(rows, provenance: str = "", expect_unimodular: bool = True) -> "LatticeBasis":
        return LatticeBasis(*_scaled(rows), provenance, expect_unimodular)

    @staticmethod
    def from_group_element(g, provenance: str = "", expect_unimodular: bool = True) -> "LatticeBasis":
        """Lattice g Z^d: generators are the columns of g."""
        return LatticeBasis.from_rows(tuple(zip(*g)), provenance, expect_unimodular)


def apply_group(g, basis: LatticeBasis, provenance: Optional[str] = None) -> LatticeBasis:
    """Lattice g L: each generator row v becomes g v."""
    gints, gden = _scaled(g)
    ints = [[sum(map(mul, row, grow)) for grow in gints] for row in basis.ints]
    denom = basis.denom * gden
    common = math.gcd(denom, *(a for row in ints for a in row))
    return LatticeBasis(
        tuple(tuple(a // common for a in row) for row in ints), denom // common,
        basis.provenance + "|g" if provenance is None else provenance, basis.expect_unimodular,
    )


# -- reduction ---------------------------------------------------------------------


@dataclass
class ReducedBasis:
    """LLL output; ``gso`` is the ``_integral_gso`` data of the reduced rows."""

    basis: LatticeBasis
    transform: IntRows
    swaps: int
    gso: Tuple[List[int], List[List[int]]]


def _integral_gso(rows: IntRows) -> Tuple[List[int], List[List[int]]]:
    """Integral Gram-Schmidt data of integer rows (Cohen, Alg. 2.6.7).

    ``dd[i]`` is the Gram determinant of the first i rows (``dd[0] = 1``)
    and ``lam[i][j] = dd[j + 1] * mu_ij`` for j < i; every division below
    is exact.
    """
    n = len(rows)
    dd = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = sum(map(mul, rows[i], rows[j]))
            for m in range(j):
                u = (dd[m + 1] * u - lam[i][m] * lam[j][m]) // dd[m]
            if j < i:
                lam[i][j] = u
            else:
                dd[i + 1] = u
    return dd, lam


def lll_reduce(basis: LatticeBasis) -> ReducedBasis:
    """Exact integral LLL reduction; records the unimodular row transform.

    Runs on the integral Gram-Schmidt data and the transform alone,
    updating both in place after each size-reduction step and swap; the
    reduced rows are the transform applied once at the end.  mu is rounded
    half up, and the Lovasz test B_k >= (3/4 - mu^2) B_{k-1} is cleared of
    denominators: 4 (dd[k-1] dd[k+1] + lam[k][k-1]^2) >= 3 dd[k]^2.
    """
    n = len(basis.ints)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    dd, lam = _integral_gso(basis.ints)
    swaps, k = 0, 1
    while k < n:
        lam_k = lam[k]
        for j in range(k - 1, -1, -1):
            r = (2 * lam_k[j] + dd[j + 1]) // (2 * dd[j + 1])
            if r:
                u[k] = [a - r * b for a, b in zip(u[k], u[j])]
                lam_k[j] -= r * dd[j + 1]
                for m in range(j):
                    lam_k[m] -= r * lam[j][m]
        lkk = lam_k[k - 1]
        merged = dd[k - 1] * dd[k + 1] + lkk * lkk
        if 4 * merged >= 3 * dd[k] ** 2:
            k += 1
            continue
        u[k], u[k - 1] = u[k - 1], u[k]
        for m in range(k - 1):
            lam_k[m], lam[k - 1][m] = lam[k - 1][m], lam_k[m]
        b = merged // dd[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (dd[k + 1] * lam[i][k - 1] - lkk * t) // dd[k]
            lam[i][k - 1] = (b * t + lkk * lam[i][k]) // dd[k + 1]
        dd[k] = b
        swaps += 1
        k = max(k - 1, 1)
    cols = tuple(zip(*basis.ints))
    reduced = LatticeBasis(
        tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in u),
        basis.denom, basis.provenance + "|lll", basis.expect_unimodular, checked=True,
    )
    return ReducedBasis(reduced, tuple(map(tuple, u)), swaps, (dd, lam))


# -- shortest vector ------------------------------------------------------------------


@dataclass
class ShortestVector:
    coords: Tuple[int, ...]
    norm_sq: Q

    @property
    def norm(self) -> float:
        return math.sqrt(float(self.norm_sq))


def enumerate_ball(
    red: ReducedBasis, radius: int, visit: Callable[[List[int], int], int]
) -> None:
    """Walk every lattice point x with ``|x|^2 denom^2 <= radius``.

    Depth-first (Fincke-Pohst) enumeration over Gram-Schmidt levels, on
    integers only: S_i = dd[i] * |pi_i(x)|^2, with pi_i the projection
    off the first i rows, is an integer, and fixing c_i adds
    S_i = (dd[i] S_{i+1} + y^2) / dd[i+1] exactly, y = c_i dd[i+1] +
    sum_{j>i} lam[j][i] c_j.  The range of c_i comes from ``math.isqrt``,
    and S_0 is the integer quadratic form, so no float decides the walk.

    ``visit(coords, norm)`` gets the coordinates over the reduced rows (a
    list reused between calls) and the integer ``|x|^2 denom^2``; it
    returns the radius for the rest of the walk, so a search may shrink it.
    """
    dd, lam = red.gso
    n = len(dd) - 1
    coords = [0] * n

    def descend(level: int, above: int) -> None:
        nonlocal radius
        center = -sum(lam[i][level] * coords[i] for i in range(level + 1, n))
        low, high = dd[level], dd[level + 1]
        reach = math.isqrt(low * (radius * high - above))
        for c in range(-((reach - center) // high), (center + reach) // high + 1):
            y = c * high - center
            here = (low * above + y * y) // high
            if here > radius * low:
                continue
            coords[level] = c
            if level:
                descend(level - 1, here)
            else:
                radius = visit(coords, here)
        coords[level] = 0

    descend(n - 1, 0)


def _enumerate_shortest(red: ReducedBasis) -> ShortestVector:
    """Exact shortest nonzero vector of an LLL-reduced basis: the ball walk
    with the radius shrunk to each shorter point found."""
    norms = [sum(map(mul, row, row)) for row in red.basis.ints]
    best = min(norms)
    best_coords = tuple(int(j == norms.index(best)) for j in range(len(norms)))

    def shorter(coords: List[int], norm: int) -> int:
        nonlocal best, best_coords
        if 0 < norm < best:
            best, best_coords = norm, tuple(coords)
        return best

    enumerate_ball(red, best, shorter)
    return ShortestVector(best_coords, Q(best, red.basis.denom**2))


def shortest_vector(basis: LatticeBasis) -> ShortestVector:
    return _enumerate_shortest(lll_reduce(basis))


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
    rows = basis.ints
    d = len(rows)
    if radius is None:
        radius = math.sqrt(min(sum(map(mul, row, row)) for row in rows) / basis.denom**2)
    inv = exact.inverse(basis.rows)
    bounds = [
        int(math.ceil(radius * math.hypot(*(float(r[i]) for r in inv)))) + 1
        for i in range(d)
    ]
    cells = math.prod(2 * b + 1 for b in bounds)
    if cells > 5_000_000:
        raise LatticeError(f"oracle box too large ({cells} cells)")
    best: Optional[int] = None
    best_coords: Optional[Tuple[int, ...]] = None
    last, far = rows[-1], bounds[-1]
    last_sq = sum(map(mul, last, last))
    for head in itertools.product(*[range(-b, b + 1) for b in bounds[:-1]]):
        v = [sum(c * row[k] for c, row in zip(head, rows)) for k in range(d)]
        v_sq, v_last = sum(map(mul, v, v)), 2 * sum(map(mul, v, last))
        for c in range(-far, far + 1):
            nsq = v_sq + c * (v_last + c * last_sq)  # |v + c * last|^2
            if nsq and (best is None or nsq < best):
                best, best_coords = nsq, head + (c,)
    return ShortestVector(coords=best_coords, norm_sq=Q(best, basis.denom**2))


def random_unimodular_basis(dim: int, seed: int, shears: int = 12) -> LatticeBasis:
    """Random product of integer shears and row swaps (determinant +-1).

    Integer unimodular bases generate Z^dim itself, so these exercise the
    reduction transform bookkeeping, not interesting systoles."""
    rng = SplitRNG(seed).generator("unimodular-basis")
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
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
    if _bareiss_det(rows) == -1:
        rows[0] = [-c for c in rows[0]]
    return LatticeBasis(tuple(map(tuple, rows)), 1, provenance=f"random-unimodular({seed})")


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
    return LatticeBasis.from_rows(rows, provenance=f"random-real({seed})")


# -- empirical measures ----------------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalMeasure:
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
    def from_values(values: Sequence[float], bins: int = 32) -> "EmpiricalMeasure":
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
            count=int(arr.size),
            values=tuple(float(x) for x in arr),
            bin_edges=tuple(float(x) for x in edges),
            masses=tuple(float(c) / arr.size for c in counts),
        )


def consistency_distance(m1: EmpiricalMeasure, m2: EmpiricalMeasure) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
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


def translate_sample(
    curve,
    schedule,
    base: LatticeBasis,
    t: float,
    count: int,
    seed: int = 0,
    interval: Tuple[float, float] = (0.0, 1.0),
) -> EmpiricalMeasure:
    """Empirical law of the systole along flowed curve translates.

    Draws s uniformly over the interval and evaluates a_t u(phi(s)) base.
    Each sample index derives its own generator from the seed, so results
    are reproducible and order-independent.
    """
    if count < 1:
        raise ValueError("count must be positive")
    a_t = schedule.a_matrix(t)
    n = schedule.n
    provenance = base.provenance + f"|translate(t={t})"
    children = SplitRNG(seed).spawn_children("translate-sample", count)
    values = np.empty(count)
    for idx in range(count):
        rng = np.random.Generator(np.random.PCG64(children[idx]))
        u = np.eye(n + 1)
        u[0, 1:] = curve.evaluate(rng.uniform(interval[0], interval[1]))
        values[idx] = systole(apply_group(a_t @ u, base, provenance=provenance))
    return EmpiricalMeasure.from_values(values)


def orbit_oracle(
    schedule,
    t: float,
    count: int,
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
    w_max = math.exp(2 * t)
    a_t = schedule.a_matrix(t)
    children = SplitRNG(seed).spawn_children("orbit-oracle", count)
    values = np.empty(count)
    for idx in range(count):
        rng = np.random.Generator(np.random.PCG64(children[idx]))
        w = rng.uniform(0.0, w_max)
        u = np.array([[1.0, w], [0.0, 1.0]])
        lat = LatticeBasis.from_group_element(u @ a_t, provenance="orbit-oracle")
        values[idx] = systole(lat)
    return EmpiricalMeasure.from_values(values)


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
