"""Unimodular lattices as an experiment bench.

Bases are kept exact: after flowing by a_t the Gram matrix spans e^{40} at
t = 20, where double-precision roundoff is larger than the systole being
measured.  Each basis is scaled once to integer rows over one common
denominator (``exact._scaled``, the package's one integer-over-denominator
form, with ``exact._bareiss_det`` for the determinant check), so reduction
(integral LLL) and enumeration (Fincke-Pohst with integer interval
endpoints) run on Python ints, and only the final lengths are floated.

The kernel takes plain integer rows of any covolume; ``LatticeBasis`` is
only the unimodular lattice that enters from outside, |det| verified.  The
reduction record of integer rows is their unimodular row transform, the
swap count and the integral Gram-Schmidt data of the reduced rows: the ball
walk reads the Gram-Schmidt data alone, and a caller that needs a reduced
row applies the transform to its own rows.  The minimum of integer rows is
exact: in rank 2 it is the Lagrange-Gauss minimum of the integer Gram form,
which needs neither LLL nor the walk; in higher ranks it is the
shrinking-radius case of the walk on the LLL record.

Every lattice an experiment draws has the form D u(x) B: a diagonal D, the
unipotent shear u(x) with first row (1, x), and a base B.  Its one row
formula runs in two steps.  The per-series step ``_shear_frame`` takes the
integer ratios of D, the common denominator of x and the rows of B, and
keeps all that no x changes; the per-draw step ``_shear_rows`` takes x's
numerators, in which the rows are affine, and moves only their first column
(``_shear_column``).  The determinant is prod D det B exactly, with det B
computed once per base.  ``shear_basis`` (and ``dirichlet.box_point_search``)
run both steps once and bring the rows to lowest terms; ``translate_sample``
writes every draw of a series over one dyadic denominator, so it checks D and
runs the per-series step once, and per draw runs Horner on an integer, the
first column and the minimum of the unreduced rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cache, cached_property
from itertools import repeat, tee
from operator import add, itemgetter, mul
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .curvejet import CurveError
from .exact import IntRows, _bareiss_det, _ratio, _scaled
from .rng import generator


class LatticeError(Exception):
    pass


@dataclass(frozen=True)
class LatticeBasis:
    """Unimodular lattice basis: generator rows ``ints / denom`` with
    |det| = 1 within 1e-9.

    ``denom`` is the lcm of the entry denominators; build from arbitrary
    exact or float rows with ``from_rows``.
    """

    ints: IntRows
    denom: int

    def __post_init__(self):
        d = len(self.ints)
        if d == 0 or any(len(r) != d for r in self.ints):
            raise LatticeError("basis must be square")
        _check_det(self.det.numerator, self.det.denominator)

    @cached_property
    def det(self) -> Q:
        """Exact determinant of the generator rows."""
        return Q(_bareiss_det(self.ints), self.denom ** len(self.ints))

    @staticmethod
    def from_rows(rows) -> "LatticeBasis":
        return LatticeBasis(*_scaled(rows))


def _check_det(num: int, den: int) -> None:
    """Reject det = num / den if it is 0, or if |det| is off 1 by > 1e-9."""
    if num == 0:
        raise LatticeError("rows are linearly dependent")
    size = abs(num) / den
    if abs(size - 1.0) > 1e-9:
        raise LatticeError(f"basis is not unimodular: |det| = {size!r}")


@cache
def _standard_basis(d: int) -> LatticeBasis:
    return LatticeBasis(tuple(tuple(int(i == j) for j in range(d)) for i in range(d)), 1)


def shear_basis(diagonal: Sequence, shear: Sequence,
                base: Optional[LatticeBasis] = None) -> LatticeBasis:
    """The lattice D u(x) B, with D = diag(diagonal) and u(x) the identity
    with first row (1, x_1, ..., x_n).

    B is Z^{n+1} when no base is given.  Entries are exact numbers (ints,
    Fractions, or floats at their binary value); the rows come from
    ``_shear_frame`` and ``_shear_rows``, brought to lowest terms.  The 1e-9
    tolerance is for D made of rounded exponentials.
    """
    d = len(diagonal)
    if base is None:
        base = _standard_basis(d)
    ratios = _diagonal_ratios(diagonal, len(shear), base)
    (xnum,), xden = _scaled([shear])
    frame = _shear_frame(ratios, xden, base.ints)
    return LatticeBasis(*_lowest_terms(_shear_rows(frame, xnum), frame.common * base.denom))


def _diagonal_ratios(diagonal: Sequence, width: int,
                     base: LatticeBasis) -> List[Tuple[int, int]]:
    """The integer ratios of D, once D u(x) B is known to be square and
    unimodular: |det| = prod D |det B|, which no shear x changes."""
    d = len(diagonal)
    if width != d - 1 or len(base.ints) != d:
        raise LatticeError(f"need {d - 1} shear entries and a rank-{d} base")
    ratios = [_ratio(c) for c in diagonal]
    dnum, dden = zip(*ratios)
    _check_det(math.prod(dnum) * base.det.numerator, math.prod(dden) * base.det.denominator)
    return ratios


class _ShearFrame(NamedTuple):
    """What D u(x) B keeps for every x over one denominator: row k is
    (fixed[k] + slopes[k] . xnum, *tails[k]) over ``common``."""

    fixed: List[int]
    slopes: List[List[int]]
    tails: List[List[int]]
    common: int


def _shear_frame(ratios: Sequence[Tuple[int, int]], xden: int, rows: IntRows) -> _ShearFrame:
    """Per-series step of the row formula: each integer row w of B becomes
    (d_0 (w_0 + x . w'), d_1 w_1, ..., d_n w_n), D given by integer ratios
    and x = xnum / xden.  Over ``common``, the lcm of the denominators of
    d_0 / xden and d_1..d_n, coordinate 0 is head (xden w_0 + xnum . w')
    with head = d_0 common / xden: affine in xnum."""
    (n0, d0), *rest = ratios
    common = math.lcm(d0 * xden, *[b for _, b in rest])
    head = n0 * (common // (d0 * xden))
    tail = [a * (common // b) for a, b in rest]
    return _ShearFrame([head * xden * w[0] for w in rows],
                       [[head * c for c in w[1:]] for w in rows],
                       [[*map(mul, tail, w[1:])] for w in rows], common)


def _shear_column(frame: _ShearFrame, xnum: Sequence[int]) -> List[int]:
    """Coordinate 0 of each row at x = xnum / xden, the only one x moves:
    the moving part of the per-draw step."""
    return [f + sum(map(mul, xnum, s)) for f, s in zip(frame.fixed, frame.slopes)]


def _shear_rows(frame: _ShearFrame, xnum: Sequence[int]) -> List[Tuple[int, ...]]:
    """Per-draw step: the integer rows of D u(x) B at x = xnum / xden over
    ``frame.common``, not reduced."""
    return [(h, *tail) for h, tail in zip(_shear_column(frame, xnum), frame.tails)]


def _lowest_terms(ints: IntRows, denom: int) -> Tuple[IntRows, int]:
    """Integer rows over ``denom``, both divided by their common gcd."""
    g = math.gcd(denom, *[a for row in ints for a in row])
    return tuple(tuple(a // g for a in row) for row in ints), denom // g


# -- reduction ---------------------------------------------------------------------


@dataclass
class ReducedBasis:
    """LLL output: the reduced rows are ``transform`` applied to the input
    rows, and ``gso`` is their ``_integral_gso`` data."""

    transform: List[List[int]]
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


def lll_reduce(rows: IntRows) -> ReducedBasis:
    """Exact integral LLL reduction of independent integer rows; records the
    unimodular row transform.

    Runs on the integral Gram-Schmidt data and the transform alone,
    updating both in place after each size-reduction step and swap, and
    never forms the reduced rows.  mu is rounded half up, and the Lovasz
    test B_k >= (3/4 - mu^2) B_{k-1} is cleared of denominators:
    4 (dd[k-1] dd[k+1] + lam[k][k-1]^2) >= 3 dd[k]^2.
    """
    n = len(rows)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    dd, lam = _integral_gso(rows)
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
    return ReducedBasis(u, swaps, (dd, lam))


# -- shortest vector ------------------------------------------------------------------


def enumerate_ball(
    red: ReducedBasis, radius: int, visit: Callable[[List[int], int], int]
) -> None:
    """Walk every integer combination x of the reduced rows with
    ``|x|^2 <= radius``.

    Depth-first (Fincke-Pohst) enumeration over Gram-Schmidt levels, on
    integers only: S_i = dd[i] * |pi_i(x)|^2, with pi_i the projection
    off the first i rows, is an integer, and fixing c_i adds
    S_i = (dd[i] S_{i+1} + y^2) / dd[i+1] exactly, y = c_i dd[i+1] +
    sum_{j>i} lam[j][i] c_j.  The range of c_i comes from ``math.isqrt``,
    and S_0 is the integer quadratic form, so no float decides the walk.

    ``visit(coords, norm)`` gets the coordinates over the reduced rows (a
    list reused between calls) and the integer ``|x|^2``; it
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


def _gauss_minimum(a0: int, a1: int, b0: int, b1: int) -> int:
    """Minimum of the integer binary form of rows a = (a0, a1), b = (b0, b1):
    Lagrange-Gauss reduction of (A, B, C) = (|a|^2, a.b, |b|^2).

    Each pass size-reduces b against a (b -= r a, r = B / A rounded half
    up), which leaves -A <= 2B < A; if then C < A the rows swap, so A
    strictly decreases at each swap and the loop ends.  Once C >= A,
    |m a + n b|^2 >= (m^2 - |mn| + n^2) A >= A for integers (m, n) != 0,
    so A is the minimum.
    """
    A, B, C = a0 * a0 + a1 * a1, a0 * b0 + a1 * b1, b0 * b0 + b1 * b1
    while True:
        r = (2 * B + A) // (2 * A)
        B, C = B - r * A, C - r * (2 * B - r * A)
        if C >= A:
            return A
        A, C = C, A


def _minimum(ints: IntRows) -> int:
    """Exact minimum of |v|^2 over the nonzero integer combinations v of
    the rows: Lagrange-Gauss in rank 2; above it the ball walk on the LLL
    record, from the first reduced row (``dd[1]``) with the radius shrunk
    to each shorter point found."""
    if len(ints) == 2:
        (a0, a1), (b0, b1) = ints
        return _gauss_minimum(a0, a1, b0, b1)
    red = lll_reduce(ints)
    best = red.gso[0][1]

    def shorter(coords: List[int], norm: int) -> int:
        nonlocal best
        if 0 < norm < best:
            best = norm
        return best

    enumerate_ball(red, best, shorter)
    return best


def shortest_vector(basis: LatticeBasis) -> Q:
    """Exact squared length of the shortest nonzero lattice vector."""
    return Q(_minimum(basis.ints), basis.denom**2)


def systole(basis: LatticeBasis) -> float:
    """Length of the shortest nonzero lattice vector."""
    return math.sqrt(float(shortest_vector(basis)))


# -- systole laws ----------------------------------------------------------------------
#
# a_t u(s) Z^2 holds the vectors (e^t (p + s q), e^-t q).  At r <= 1 and t > 0
# none with q = 0 is shorter than r, and at most one +-pair is (two independent
# ones span an area >= 1), so for s uniform on [0, 1) the systole is <= r on
# the disjoint intervals |s - a/q| <= e^-t sqrt(r^2 - e^-2t q^2) / q, gcd(a, q)
# = 1: the law F_t.  As t grows it tends to 2 (6/pi^2) int_0^r sqrt(r^2 - u^2)
# du = 3 r^2 / pi, the Haar law.


def horocycle_law(t: float, r: np.ndarray) -> np.ndarray:
    """F_t at the sorted points r of [0, 1]: the sum over q <= r e^t of
    phi(q) 2 e^-t sqrt(r^2 - e^-2t q^2) / q, with Euler's phi sieved.

    Each point sums its terms in the order q = 1, 2, ...; one q at a time
    over the suffix of r it reaches, in place on two buffers the size of r.
    """
    r = np.asarray(r, dtype=float)
    if t <= 0 or not (r.size and 0 <= r[0] and r[-1] <= 1 and np.all(np.diff(r) >= 0)):
        raise ValueError("the horocycle law needs t > 0 and sorted r in [0, 1], not empty")
    shrink = math.exp(-t)
    phi = list(range(int(r[-1] / shrink) + 1))
    starts = np.searchsorted(r, shrink * np.arange(len(phi)), side="right").tolist()
    law, low, high = np.zeros_like(r), np.empty_like(r), np.empty_like(r)
    for q in range(1, len(phi)):
        if q > 1 and phi[q] == q:  # q is prime
            phi[q::q] = [v - v // q for v in phi[q::q]]
        edge, start = shrink * q, starts[q]
        tail, lo, hi, acc = r[start:], low[start:], high[start:], law[start:]
        np.subtract(tail, edge, lo)
        np.add(tail, edge, hi)
        np.multiply(lo, hi, lo)
        np.sqrt(lo, lo)
        np.multiply(lo, 2 * shrink * phi[q] / q, lo)
        np.add(acc, lo, acc)
    return law


def haar_law(r: np.ndarray) -> np.ndarray:
    """3 r^2 / pi: the Haar probability of systole <= r (r <= 1) in rank 2."""
    return 3 * np.square(r) / math.pi


def ks_distance(values: np.ndarray, law: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample Kolmogorov-Smirnov distance sup_{r <= 1} |F_n(r) - law(r)|
    of a sorted sample and a continuous law taken at sorted points of [0, 1]."""
    if not values.size:
        raise ValueError("the KS distance needs a non-empty sample")
    head = values[: np.searchsorted(values, 1.0, side="right")]
    cdf = law(np.append(head, 1.0))
    rank = np.arange(head.size + 1) / values.size
    return float(max(np.max(rank[1:] - cdf[:-1], initial=0.0),
                     np.max(cdf - rank, initial=0.0)))


def ks_null_quantile(n: int, alpha: float) -> float:
    """sqrt(ln(2 / alpha) / 2) / sqrt(n), which a sample of n from a continuous
    law exceeds with probability at most alpha (Dvoretzky-Kiefer-Wolfowitz,
    Massart's constant), on r <= 1 as on the whole line."""
    return math.sqrt(math.log(2 / alpha) / 2 / n)


# -- translated sampling ----------------------------------------------------------------


CATALOG_BASES: Tuple[Tuple[Tuple[float, ...], ...], ...] = (
    ((1.0, 0.0), (0.0, 1.0)),
    ((0.8, -0.6), (0.6, 0.8)),
    ((1.25, 0.5), (0.5, 1.0)),
)


def catalog_basis(index: int) -> LatticeBasis:
    """Fixed base points of the translate experiments; base 0 is Z^2."""
    return LatticeBasis.from_rows(CATALOG_BASES[index])


def translate_sample(
    curve,
    schedule,
    base: LatticeBasis,
    t: float,
    count: int,
    seed: int,
) -> np.ndarray:
    """The sorted systoles of flowed curve translates.

    Draws all s of the series at once, uniformly on [0, 1], from the
    series generator ``generator(seed, "translate-sample")``, and
    measures a_t u(phi(s)) base, with a_t the exact values of the float
    exponentials and phi(s) the exact value of the polynomial curve at the
    float s.  A series depends on its seed alone, not on what ran before.

    Every float s is a dyadic m / 2^K over the series' largest denominator
    2^K, so the curve is x_i = P_i(m) / xden with integer P_i and xden fixed
    for the series (``_dyadic_curve``).  The per-series step of the row
    formula (``_shear_frame``) runs once; per draw there is Horner on m,
    the rows' first column (``_shear_column``) and the minimum.  Each
    systole is sqrt(A / den^2), A the exact minimum of the unreduced rows
    over den: A / den^2 is the exact squared minimum over any den, and int
    division rounds correctly, as ``systole`` does.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if curve.poly is None:
        raise CurveError("translate sampling needs a polynomial curve")
    ratios = _diagonal_ratios(np.exp(schedule.exponents(t)).tolist(), len(curve.poly), base)
    draws = generator(seed, "translate-sample").uniform(0.0, 1.0, size=count).tolist()
    scale = max(map(float.as_integer_ratio, draws), key=itemgetter(1))[1]
    # m = s 2^K exactly: a power-of-two scaling, which raises on overflow
    ms = map(int, map(math.ldexp, draws, repeat(scale.bit_length() - 1)))
    polys, xden = _dyadic_curve(curve.poly, scale)
    frame = _shear_frame(ratios, xden, base.ints)
    den2 = (frame.common * base.denom) ** 2
    # draw by draw, so the series holds no list of integers
    xnums = zip(*[_horner(p, copy) for p, copy in zip(polys, tee(ms, len(polys)))])
    if len(base.ints) == 2:
        # only the first column moves: the minimum reads it and the fixed tails
        (t0,), (t1,) = frame.tails
        values = (math.sqrt(_gauss_minimum(h0, t0, h1, t1) / den2)
                  for h0, h1 in map(_shear_column, repeat(frame), xnums))
    else:
        values = (math.sqrt(_minimum(_shear_rows(frame, xnum)) / den2) for xnum in xnums)
    return np.sort(np.fromiter(values, float, count))


def _dyadic_curve(poly: Sequence[Sequence[Q]], scale: int) -> Tuple[List[List[int]], int]:
    """A polynomial curve at s = m / scale for integer m: integer coefficient
    rows P_i and one denominator xden with x_i(s) = P_i(m) / xden.  The term
    (a / b) s^j is a m^j (xden / (b scale^j)) / xden."""
    ratios = [[c.as_integer_ratio() for c in row] for row in poly]
    xden = math.lcm(*[b * scale**j for row in ratios for j, (_, b) in enumerate(row)])
    return [[a * (xden // (b * scale**j)) for j, (a, b) in enumerate(row)]
            for row in ratios], xden


def _horner(coeffs: Sequence[int], ms: Iterator[int]) -> Iterator[int]:
    """The integer polynomial with ascending ``coeffs`` at each of ``ms``,
    as an iterator that reads ``ms`` once, one m per value."""
    if not coeffs:
        return map(mul, repeat(0), ms)
    values = repeat(0)
    for c, copy in zip(reversed(coeffs), tee(ms, len(coeffs))):
        values = map(add, map(mul, values, copy), repeat(c))
    return values
