"""Jets and ordered-regularity frames for curves (0,1) -> R^n.

A curve carries an optional exact polynomial table; in that mode every jet
and frame below is exact rational arithmetic.  Otherwise derivatives come
from Richardson-extrapolated central differences and every order reports an
error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import exact
from .exact import Vec


class CurveError(Exception):
    pass


class NotOrderedRegular(CurveError):
    """Raised when the derivative frame degenerates at a point."""

    def __init__(self, s, first_fail_index: int, detail: str = ""):
        self.s = s
        self.first_fail_index = first_fail_index
        self.detail = detail
        msg = f"not ordered regular at s={s}: pivot {first_fail_index} degenerate"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def _poly_eval_float(coeffs: Sequence[Q], s: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + float(c)
    return acc


def _poly_derive(coeffs: Tuple[Q, ...], m: int) -> Tuple[Q, ...]:
    out = coeffs
    for _ in range(m):
        out = tuple(j * c for j, c in enumerate(out))[1:]
        if not out:
            return (Q(0),)
    return out


def _poly_eval_exact(coeffs: Sequence[Q], s: Q) -> Q:
    acc = Q(0)
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


@dataclass(frozen=True)
class CurveSpec:
    """A curve with float evaluation and, when available, exact structure.

    ``poly`` holds ascending coefficient rows, one per coordinate; when set,
    jets and frames are computed exactly.  ``deriv_fn(s, m)`` is an optional
    analytic derivative supplier used instead of finite differences.
    """

    n: int
    name: str
    fn: Callable[[float], np.ndarray]
    poly: Optional[Tuple[Tuple[Q, ...], ...]] = None
    deriv_fn: Optional[Callable[[float, int], np.ndarray]] = None
    smoothness: Optional[int] = None

    @staticmethod
    def polynomial(rows: Sequence[Sequence], name: str = "poly") -> "CurveSpec":
        table = tuple(tuple(Q(c) for c in row) for row in rows)
        if not table:
            raise ValueError("need at least one coordinate")

        def fn(s: float) -> np.ndarray:
            return np.array([_poly_eval_float(row, s) for row in table])

        return CurveSpec(n=len(table), name=name, fn=fn, poly=table)

    @staticmethod
    def moment(n: int) -> "CurveSpec":
        rows = []
        for i in range(1, n + 1):
            rows.append([0] * i + [1])
        return CurveSpec.polynomial(rows, name="moment")

    @staticmethod
    def from_callable(
        fn: Callable[[float], Sequence[float]],
        n: int,
        smoothness: Optional[int] = None,
        deriv: Optional[Callable[[float, int], Sequence[float]]] = None,
        name: str = "callable",
    ) -> "CurveSpec":
        def wrapped(s: float) -> np.ndarray:
            return np.asarray(fn(s), dtype=float)

        wrapped_deriv = None
        if deriv is not None:
            def wrapped_deriv(s: float, m: int) -> np.ndarray:
                return np.asarray(deriv(s, m), dtype=float)

        return CurveSpec(
            n=n, name=name, fn=wrapped, deriv_fn=wrapped_deriv, smoothness=smoothness
        )

    @staticmethod
    def from_samples(
        s_values: Sequence[float],
        points: Sequence[Sequence[float]],
        degree: int,
        name: str = "fit",
    ) -> "CurveSpec":
        """Least-squares polynomial of the given degree through tabulated
        samples; the fit becomes the curve (exact mode on the fitted
        coefficients), so jets of any order are well defined."""
        s_arr = np.asarray(s_values, dtype=float)
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] != s_arr.shape[0]:
            raise ValueError("points must be one row per sample")
        if degree < 1 or degree >= len(s_arr):
            raise ValueError("degree must be in [1, len(samples))")
        rows = []
        for coord in range(pts.shape[1]):
            coeffs = np.polyfit(s_arr, pts[:, coord], degree)
            rows.append([Q(float(c)) for c in coeffs[::-1]])
        return CurveSpec.polynomial(rows, name=f"{name}(deg={degree})")

    @staticmethod
    def preset(text: str, n: Optional[int] = None) -> "CurveSpec":
        """Named curves: "moment" (needs n), "trig", "poly:<rows>" where rows
        are semicolon-separated ascending coefficient lists."""
        if text == "moment":
            if n is None:
                raise ValueError("moment preset needs n")
            return CurveSpec.moment(n)
        if text == "trig":
            def tr(s: float) -> np.ndarray:
                return np.array([math.sin(s), math.cos(s)])

            def tr_d(s: float, m: int) -> np.ndarray:
                return np.array(
                    [math.sin(s + m * math.pi / 2), math.cos(s + m * math.pi / 2)]
                )

            return CurveSpec(n=2, name="trig", fn=tr, deriv_fn=tr_d)
        if text.startswith("poly:"):
            rows = []
            for chunk in text[len("poly:"):].split(";"):
                rows.append([Q(part) for part in chunk.split(",") if part.strip()])
            return CurveSpec.polynomial(rows, name=text)
        raise ValueError(f"unknown curve preset: {text!r}")

    def evaluate(self, s: float) -> np.ndarray:
        out = np.asarray(self.fn(float(s)), dtype=float)
        if out.shape != (self.n,):
            raise CurveError(f"curve returned shape {out.shape}, wanted ({self.n},)")
        if not np.all(np.isfinite(out)):
            raise CurveError(f"non-finite curve value at s={s}")
        return out

    def evaluate_exact(self, s) -> Vec:
        if self.poly is None:
            raise CurveError("exact evaluation needs polynomial mode")
        sq = Q(s)
        return tuple(_poly_eval_exact(row, sq) for row in self.poly)


# -- jets ------------------------------------------------------------------------


@dataclass
class JetResult:
    s: float
    order: int
    value: np.ndarray
    derivatives: List[np.ndarray]
    errors: List[float]
    exact: bool
    method: str

    def derivative(self, m: int) -> np.ndarray:
        if not 1 <= m <= self.order:
            raise IndexError(f"derivative order {m} not in jet")
        return self.derivatives[m - 1]


def _central_difference(curve: CurveSpec, s: float, m: int, h: float) -> np.ndarray:
    acc = np.zeros(curve.n)
    for j in range(m + 1):
        c = (-1) ** (m - j) * math.comb(m, j)
        offset = (j - m / 2.0) * h
        if offset != 0.0 and s + offset == s:
            raise CurveError(f"step underflow at order {m}, h={h}")
        acc = acc + c * curve.evaluate(s + offset)
    return acc / h ** m


def _richardson(curve: CurveSpec, s: float, m: int) -> Tuple[np.ndarray, float]:
    h0 = min(0.1, 1e-3 * 3 ** max(0, m - 2))
    d1 = _central_difference(curve, s, m, h0)
    d2 = _central_difference(curve, s, m, h0 / 2)
    d4 = _central_difference(curve, s, m, h0 / 4)
    # two extrapolation levels for the O(h^2) stencil
    r1 = (4 * d2 - d1) / 3
    r2 = (4 * d4 - d2) / 3
    final = (16 * r2 - r1) / 15
    err = float(np.max(np.abs(final - r2)))
    return final, err


def jet(curve: CurveSpec, s: float, k: int) -> JetResult:
    """Derivatives of orders 1..k at s, exact in polynomial mode."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if curve.smoothness is not None and k > curve.smoothness:
        raise ValueError(f"jet order {k} exceeds curve smoothness {curve.smoothness}")
    if curve.poly is not None:
        sq = Q(s)
        derivs = []
        for m in range(1, k + 1):
            derivs.append(
                np.array(
                    [float(_poly_eval_exact(_poly_derive(row, m), sq)) for row in curve.poly]
                )
            )
        return JetResult(
            s=float(s),
            order=k,
            value=curve.evaluate(float(s)),
            derivatives=derivs,
            errors=[0.0] * k,
            exact=True,
            method="polynomial",
        )
    if curve.deriv_fn is not None:
        derivs = [np.asarray(curve.deriv_fn(float(s), m), dtype=float) for m in range(1, k + 1)]
        return JetResult(
            s=float(s),
            order=k,
            value=curve.evaluate(float(s)),
            derivatives=derivs,
            errors=[0.0] * k,
            exact=True,
            method="analytic",
        )
    derivs = []
    errors = []
    for m in range(1, k + 1):
        d, e = _richardson(curve, float(s), m)
        derivs.append(d)
        errors.append(e)
    return JetResult(
        s=float(s),
        order=k,
        value=curve.evaluate(float(s)),
        derivatives=derivs,
        errors=errors,
        exact=False,
        method="richardson",
    )


def jet_exact(curve: CurveSpec, s, k: int) -> List[Vec]:
    """Exact derivative rows 1..k for polynomial curves at rational s."""
    if curve.poly is None:
        raise CurveError("exact jets need polynomial mode")
    sq = Q(s)
    out = []
    for m in range(1, k + 1):
        out.append(
            tuple(_poly_eval_exact(_poly_derive(row, m), sq) for row in curve.poly)
        )
    return out


# -- ordered-regularity frame -------------------------------------------------------

PIVOT_RTOL = 1e-10


@dataclass
class CurveFrame:
    """Straightening frame at a point: unit upper triangular B, leading
    coefficients kappa_i, and the full coefficient table of the degree-k
    frame polynomial (reflected variant included)."""

    s: float
    n: int
    k: int
    exact: bool
    kappa: Tuple
    b_matrix: Tuple
    b_inverse: Tuple
    coeff_table: Dict[Tuple[int, int], object]
    reflected_table: Dict[Tuple[int, int], object]
    rows: Tuple

    @property
    def ordered_regular(self) -> bool:
        return True

    def kappa_floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.kappa])

    def b_inverse_floats(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.b_inverse])

    def r_poly(self, h: float, reflected: bool = False) -> np.ndarray:
        """Evaluate the frame polynomial coordinatewise at h (float)."""
        table = self.reflected_table if reflected else self.coeff_table
        out = np.zeros(self.n)
        for (j, i), c in table.items():
            out[j - 1] += float(c) * h ** i
        return out

    def r_poly_exact(self, h) -> Vec:
        if not self.exact:
            raise CurveError("exact frame polynomial needs polynomial mode")
        hq = Q(h)
        out = [Q(0)] * self.n
        for (j, i), c in self.coeff_table.items():
            out[j - 1] += c * hq ** i
        return tuple(out)

    def tail_coefficients(self, j: int) -> Dict[int, object]:
        """Coefficients kappa_{j,i} for i > j (the epsilon tail of row j)."""
        return {i: c for (jj, i), c in self.coeff_table.items() if jj == j and i > j}


def _frame_rows_exact(curve: CurveSpec, s, k: int) -> List[Vec]:
    rows = jet_exact(curve, s, k)
    return [
        tuple(c / math.factorial(m) for c in row)
        for m, row in enumerate(rows, start=1)
    ]


def _frame_rows_float(curve: CurveSpec, s: float, k: int) -> List[np.ndarray]:
    j = jet(curve, s, k)
    return [j.derivative(m) / math.factorial(m) for m in range(1, k + 1)]


def ordered_regular_frame(
    curve: CurveSpec, s, k: Optional[int] = None, numeric: bool = False
) -> CurveFrame:
    """Factor the derivative matrix at s and build the frame polynomial.

    Raises NotOrderedRegular (with the first failing pivot index, 1-based)
    when a leading principal minor vanishes; in numeric mode "vanishes"
    means the pivot falls below PIVOT_RTOL relative to its row's max.
    Passing numeric=True forces the float path (and its tolerance) even for
    polynomial curves, which is what grid sweeps want: a pivot that is
    nonzero only at the rounding level still counts as degenerate there.
    """
    n = curve.n
    if k is None:
        k = n
    if k < n:
        raise ValueError(f"frame order k={k} must be at least n={n}")
    if curve.smoothness is not None and k > curve.smoothness:
        raise ValueError(f"frame order {k} exceeds curve smoothness")

    if curve.poly is not None and not numeric:
        rows = _frame_rows_exact(curve, s, k)
        return _factor_exact(curve, s, k, rows)
    rows = _frame_rows_float(curve, float(s), k)
    return _factor_float(curve, float(s), k, rows)


def _factor_exact(curve: CurveSpec, s, k: int, rows: List[Vec]) -> CurveFrame:
    n = curve.n
    u = [list(rows[i]) for i in range(n)]
    lower = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        lower[i][i] = Q(1)
    for col in range(n):
        pivot = u[col][col]
        if pivot == 0:
            raise NotOrderedRegular(s, col + 1, "exact pivot is zero")
        for r in range(col + 1, n):
            f = u[r][col] / pivot
            lower[r][col] = f
            for c in range(col, n):
                u[r][c] -= f * u[col][c]
    kappa = tuple(u[i][i] for i in range(n))
    b = tuple(
        tuple(u[i][c] / kappa[i] if c >= i else Q(0) for c in range(n))
        for i in range(n)
    )
    b_inv = exact.inverse(b)
    table: Dict[Tuple[int, int], Q] = {}
    for i in range(1, n + 1):
        table[(i, i)] = kappa[i - 1]
        for j in range(1, i):
            table[(j, i)] = lower[i - 1][j - 1] * kappa[j - 1]
    for i in range(n + 1, k + 1):
        coeffs = exact.matvec(exact.transpose(b_inv), rows[i - 1])
        for j in range(1, n + 1):
            if coeffs[j - 1] != 0:
                table[(j, i)] = coeffs[j - 1]
    reflected = {(j, i): ((-1) ** i) * c for (j, i), c in table.items()}
    return CurveFrame(
        s=float(s),
        n=n,
        k=k,
        exact=True,
        kappa=kappa,
        b_matrix=b,
        b_inverse=b_inv,
        coeff_table=table,
        reflected_table=reflected,
        rows=tuple(rows),
    )


def _factor_float(curve: CurveSpec, s: float, k: int, rows: List[np.ndarray]) -> CurveFrame:
    n = curve.n
    u = np.array(rows[:n], dtype=float)
    row_scale = np.max(np.abs(u), axis=1)
    lower = np.eye(n)
    for col in range(n):
        pivot = u[col, col]
        tol = PIVOT_RTOL * max(row_scale[col], 1e-300)
        if abs(pivot) <= tol:
            raise NotOrderedRegular(s, col + 1, f"pivot {pivot:.3e} below tolerance")
        f = u[col + 1 :, col] / pivot
        lower[col + 1 :, col] = f
        u[col + 1 :, col:] -= np.outer(f, u[col, col:])
    kappa = tuple(float(u[i, i]) for i in range(n))
    b = np.triu(u / np.array(kappa)[:, None])
    b_inv = np.linalg.inv(b)
    table: Dict[Tuple[int, int], float] = {}
    for i in range(1, n + 1):
        table[(i, i)] = kappa[i - 1]
        for j in range(1, i):
            table[(j, i)] = float(lower[i - 1, j - 1] * kappa[j - 1])
    for i in range(n + 1, k + 1):
        coeffs = rows[i - 1] @ b_inv
        for j in range(1, n + 1):
            table[(j, i)] = float(coeffs[j - 1])
    reflected = {(j, i): ((-1) ** i) * c for (j, i), c in table.items()}
    return CurveFrame(
        s=s,
        n=n,
        k=k,
        exact=False,
        kappa=kappa,
        b_matrix=tuple(tuple(float(x) for x in row) for row in b),
        b_inverse=tuple(tuple(float(x) for x in row) for row in b_inv),
        coeff_table=table,
        reflected_table=reflected,
        rows=tuple(tuple(float(x) for x in row) for row in rows),
    )


def taylor_frame_remainder(curve: CurveSpec, s, k: int, h: float) -> np.ndarray:
    """Residual of the straightened Taylor step: the difference between the
    frame-transported increment and the frame polynomial at h.  Decays
    faster than h^k for curves smooth past order k."""
    frame = ordered_regular_frame(curve, s, k)
    if h == 0:
        return np.zeros(curve.n)
    delta = curve.evaluate(float(s) + h) - curve.evaluate(float(s))
    resid = delta @ frame.b_inverse_floats() - frame.r_poly(h)
    return resid


# -- regularity scanning --------------------------------------------------------------


@dataclass
class RegularityScan:
    interval: Tuple[float, float]
    grid: int
    checked: int
    failures: Tuple[Tuple[float, int], ...]
    clusters: Tuple[Tuple[float, float, int], ...]

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)


def regularity_scan(
    curve: CurveSpec, interval: Tuple[float, float], grid: int
) -> RegularityScan:
    """Probe ordered regularity on an interior grid and cluster failures.

    Isolated clusters are the expected picture for curves whose degeneracy
    set is discrete; a smeared failure set suggests genuine flatness.
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError("empty interval")
    if grid < 1:
        raise ValueError("grid must be positive")
    points = np.linspace(a, b, grid + 2)[1:-1]
    failures: List[Tuple[float, int]] = []
    fail_flags = np.zeros(len(points), dtype=bool)
    for idx, s in enumerate(points):
        try:
            ordered_regular_frame(curve, s, numeric=True)
        except NotOrderedRegular as err:
            failures.append((float(s), err.first_fail_index))
            fail_flags[idx] = True
    clusters: List[Tuple[float, float, int]] = []
    start = None
    for idx in range(len(points) + 1):
        failing = idx < len(points) and fail_flags[idx]
        if failing and start is None:
            start = idx
        elif not failing and start is not None:
            clusters.append(
                (float(points[start]), float(points[idx - 1]), idx - start)
            )
            start = None
    return RegularityScan(
        interval=(a, b),
        grid=grid,
        checked=len(points),
        failures=tuple(failures),
        clusters=tuple(clusters),
    )
