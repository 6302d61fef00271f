"""Jets and ordered-regularity frames for curves (0,1) -> R^n.

A curve is polynomial, with an exact table of ascending coefficients, or
analytic, with a derivative supplier.  Its frame at a point is the LU factor
of the Taylor rows phi^(m)(s)/m!, built by one pipeline whose only fork is
the scalar type: Fractions for polynomial curves, floats for analytic curves
and for grid sweeps that ask for a float tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exact import Vec


class CurveError(Exception):
    pass


class NotOrderedRegular(CurveError):
    """Raised when the derivative frame degenerates at a point."""

    def __init__(self, s, first_fail_index: int, detail: str = ""):
        self.first_fail_index = first_fail_index
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


def _poly_ratio(coeffs: Sequence[Q], s) -> Tuple[int, int]:
    """Exact value at a Fraction or float s, by Horner's rule on integers:
    the reduced integer ratio, with no Fraction built."""
    p, q = s.as_integer_ratio()
    num, den = 0, 1
    for c in reversed(coeffs):
        a, b = c.as_integer_ratio()
        num, den = num * p * b + a * den * q, den * q * b
    g = math.gcd(num, den)
    return num // g, den // g


@dataclass(frozen=True)
class CurveSpec:
    """A curve with exact or analytic jets.

    ``poly`` holds ascending coefficient rows, one per coordinate; when set,
    jets and frames are computed exactly.  Otherwise ``deriv_fn(s, m)``
    supplies the m-th derivative of an analytic curve in floats, the curve
    itself at m = 0.
    """

    n: int
    poly: Optional[Tuple[Tuple[Q, ...], ...]] = None
    deriv_fn: Optional[Callable[[float, int], np.ndarray]] = None

    @staticmethod
    def polynomial(rows: Sequence[Sequence]) -> "CurveSpec":
        table = tuple(tuple(Q(c) for c in row) for row in rows)
        if not table:
            raise ValueError("need at least one coordinate")
        return CurveSpec(n=len(table), poly=table)

    @staticmethod
    def moment(n: int) -> "CurveSpec":
        rows = []
        for i in range(1, n + 1):
            rows.append([0] * i + [1])
        return CurveSpec.polynomial(rows)

    @staticmethod
    def preset(text: str, n: Optional[int] = None) -> "CurveSpec":
        """Named curves: "moment" (needs n), "trig", "poly:<rows>" where rows
        are semicolon-separated ascending coefficient lists."""
        if text == "moment":
            if n is None:
                raise ValueError("moment preset needs n")
            return CurveSpec.moment(n)
        if text == "trig":
            def tr_d(s: float, m: int) -> np.ndarray:
                return np.array(
                    [math.sin(s + m * math.pi / 2), math.cos(s + m * math.pi / 2)]
                )

            return CurveSpec(n=2, deriv_fn=tr_d)
        if text.startswith("poly:"):
            rows = []
            for chunk in text[len("poly:"):].split(";"):
                rows.append([Q(part) for part in chunk.split(",") if part.strip()])
            return CurveSpec.polynomial(rows)
        raise ValueError(f"unknown curve preset: {text!r}")

    def evaluate(self, s: float) -> np.ndarray:
        s = float(s)
        if self.poly is not None:
            out = np.array([_poly_eval_float(row, s) for row in self.poly])
        else:
            out = np.asarray(self.deriv_fn(s, 0), dtype=float)
        if out.shape != (self.n,):
            raise CurveError(f"curve returned shape {out.shape}, wanted ({self.n},)")
        if not np.all(np.isfinite(out)):
            raise CurveError(f"non-finite curve value at s={s}")
        return out


# -- jets ------------------------------------------------------------------------


def jet_exact(curve: CurveSpec, s, k: int) -> List[Vec]:
    """Exact derivative rows 1..k for polynomial curves at rational s."""
    if curve.poly is None:
        raise CurveError("exact jets need polynomial mode")
    sq = Q(s)
    out = []
    for m in range(1, k + 1):
        out.append(
            tuple(Q(*_poly_ratio(_poly_derive(row, m), sq)) for row in curve.poly)
        )
    return out


# -- ordered-regularity frame -------------------------------------------------------

PIVOT_RTOL = 1e-10


@dataclass
class CurveFrame:
    """Straightening frame at a point: unit upper triangular B, leading
    coefficients kappa_i, and the coefficient table {(j, i): kappa_{j,i}} of
    the degree-k frame polynomial R_j(h) = sum_i kappa_{j,i} h^i.  Entries
    are Fractions when ``exact`` and floats otherwise."""

    n: int
    k: int
    exact: bool
    kappa: Tuple
    b_matrix: Tuple
    b_inverse: Tuple
    coeff_table: Dict[Tuple[int, int], object]

    def b_inverse_floats(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.b_inverse])

    def r_poly(self, h) -> np.ndarray:
        """Evaluate the frame polynomial coordinatewise at h, a float or an
        array of floats, into shape h.shape + (n,).  Powers are taken one
        float at a time, so every entry has the bits of a scalar call
        (numpy's vectorised pow may differ in the last place)."""
        h = np.asarray(h, dtype=float)
        hs = h.ravel().tolist()
        out = np.zeros(h.shape + (self.n,))
        for (j, i), c in self.coeff_table.items():
            out[..., j - 1] += float(c) * np.reshape([x ** i for x in hs], h.shape)
        return out


def ordered_regular_frame(
    curve: CurveSpec, s, k: Optional[int] = None, numeric: bool = False
) -> CurveFrame:
    """Factor the Taylor rows phi^(m)(s)/m! at s and build the frame polynomial.

    Polynomial curves are factored exactly over the rationals; analytic
    curves, and polynomial ones with numeric=True, in floats.  Raises
    NotOrderedRegular (with the first failing pivot index, 1-based) when a
    leading principal minor vanishes; in floats "vanishes" means the pivot
    is at most PIVOT_RTOL times its original row's max.  Grid sweeps pass
    numeric=True so that a pivot that is nonzero only at the rounding level
    still counts as degenerate there.
    """
    n = curve.n
    if k is None:
        k = n
    if k < n:
        raise ValueError(f"frame order k={k} must be at least n={n}")
    exact = curve.poly is not None and not numeric
    num = Q if exact else float
    if not exact:
        s = float(s)
    if curve.poly is not None:
        jets = jet_exact(curve, s, k)
    else:
        jets = [curve.deriv_fn(s, m) for m in range(1, k + 1)]
    rows = [
        tuple(num(c) / math.factorial(m) for c in row)
        for m, row in enumerate(jets, start=1)
    ]

    # Doolittle elimination on the first n rows.  The multiplier f of row r
    # against pivot row col gives kappa_{col+1, r+1} = f * pivot.
    u = [list(row) for row in rows[:n]]
    table: Dict[Tuple[int, int], object] = {}
    for col in range(n):
        pivot = u[col][col]
        tol = 0 if exact else PIVOT_RTOL * max(abs(c) for c in rows[col])
        if abs(pivot) <= tol:
            raise NotOrderedRegular(
                s, col + 1, f"|pivot| {float(abs(pivot)):.3e} <= {float(tol):.3e}"
            )
        table[(col + 1, col + 1)] = pivot
        for r in range(col + 1, n):
            f = u[r][col] / pivot
            table[(col + 1, r + 1)] = f * pivot
            for c in range(col, n):
                u[r][c] = u[r][c] - f * u[col][c]
    kappa = tuple(u[i][i] for i in range(n))
    b = tuple(
        tuple(u[i][c] / kappa[i] if c >= i else num(0) for c in range(n))
        for i in range(n)
    )
    # B is unit upper triangular: back-substitute for its inverse row by row.
    b_inv = [[num(1 if r == c else 0) for c in range(n)] for r in range(n)]
    for r in reversed(range(n)):
        for c in range(r + 1, n):
            b_inv[r][c] = -sum(b[r][m] * b_inv[m][c] for m in range(r + 1, c + 1))
    # Tail rows i > n in the frame basis; exact zeros stay out of the table,
    # since frame_degree_bound reads a tail-free table as a moment frame.
    for i in range(n + 1, k + 1):
        for j in range(1, n + 1):
            c = sum(rows[i - 1][m] * b_inv[m][j - 1] for m in range(n))
            if c != 0:
                table[(j, i)] = c
    return CurveFrame(
        n=n,
        k=k,
        exact=exact,
        kappa=kappa,
        b_matrix=b,
        b_inverse=tuple(tuple(row) for row in b_inv),
        coeff_table=table,
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
    checked: int
    failures: Tuple[Tuple[float, int], ...]


def regularity_scan(
    curve: CurveSpec, interval: Tuple[float, float], grid: int
) -> RegularityScan:
    """Probe ordered regularity on an interior grid of ``grid`` points.

    Each failure is (s, first failing pivot).  Isolated failures are the
    expected picture for curves whose degeneracy set is discrete; a smeared
    failure set suggests genuine flatness.
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError("empty interval")
    if grid < 1:
        raise ValueError("grid must be positive")
    points = np.linspace(a, b, grid + 2)[1:-1]
    failures: List[Tuple[float, int]] = []
    for s in points:
        try:
            ordered_regular_frame(curve, s, numeric=True)
        except NotOrderedRegular as err:
            failures.append((float(s), err.first_fail_index))
    return RegularityScan(len(points), tuple(failures))
