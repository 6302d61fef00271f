"""Witness searches for improvable simultaneous-approximation targets.

Two dual search problems over integer boxes: the primal form asks for
``|xi . q - p| <= mu / (N_1 ... N_n)`` with ``0 < max|q_i|``, ``|q_i| <= N_i``,
and the dual form asks for ``|xi_i q - p_i| <= mu / N_i`` with
``0 < |q| <= N_1 ... N_n``.  A third route rephrases the primal search as a
point-in-box test for the shear lattice spanned by ``(-1, 0, ..., 0)`` and
``(xi_i, e_i)`` and must return the same verdict query for query.

Arithmetic convention: every input number is taken at its exact rational
value (floats are rationals).  Float coordinates additionally carry a
half-ulp uncertainty, and a witness is only reported when the inequality
holds with that uncertainty added on the unfavourable side, so ``found`` is
never a false positive; a miss within half an ulp of the boundary may be
conservative.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .curvejet import CurveSpec

Number = Union[int, float, Q]

SEARCH_BUDGET = 10**7
_CHUNK = 2_000_000
_CANDIDATE_CAP = 64
_FLOAT_MARGIN = 1e-9


class SearchBudgetError(RuntimeError):
    """Raised when a requested scan exceeds the desk-scale point budget."""


def _exact(x: Number) -> Tuple[Q, Q]:
    """Exact value of a number plus its outward-rounding allowance."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("coordinates must be finite")
        return Q(x), Q(math.ulp(abs(x)) if x else math.ulp(0.0)) / 2
    return Q(x), Q(0)


def _canonical_key(q: Sequence[int]) -> Tuple:
    """Deterministic ordering: small box shell first, positive entries first."""
    absvec = tuple(abs(c) for c in q)
    signs = tuple(0 if c >= 0 else 1 for c in q)
    return (max(absvec), tuple(reversed(absvec)), signs)


@dataclass(frozen=True)
class DIQuery:
    """One improvability question: a target vector, box sizes, and a factor."""

    form: str
    xi: Tuple[Number, ...]
    bounds: Tuple[int, ...]
    mu: Number

    def __post_init__(self) -> None:
        object.__setattr__(self, "xi", tuple(self.xi))
        object.__setattr__(self, "bounds", tuple(int(b) for b in self.bounds))
        if self.form not in ("primal", "dual"):
            raise ValueError(f"unknown form {self.form!r}")
        if len(self.xi) != len(self.bounds) or not self.xi:
            raise ValueError("xi and bounds must have equal positive length")
        if any(b < 1 for b in self.bounds):
            raise ValueError("box sizes must be >= 1")
        mu_exact, _ = _exact(self.mu)
        if not 0 < mu_exact <= 1:
            raise ValueError("improvement factor must lie in (0, 1]")

    @property
    def dimension(self) -> int:
        return len(self.xi)

    @property
    def box_product(self) -> int:
        p = 1
        for b in self.bounds:
            p *= b
        return p


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of one witness search.

    ``witness`` is ``((q_1..q_n), p)`` for the primal form and
    ``(q, (p_1..p_n))`` for the dual form.  ``residual`` is the worst
    coordinate error relative to its allowance (<= 1 exactly when found).
    """

    found: bool
    witness: Optional[Tuple]
    search_volume: int
    residual: Optional[float]


def _check_budget(points: int) -> None:
    if points > SEARCH_BUDGET:
        raise SearchBudgetError(f"{points} points exceeds budget {SEARCH_BUDGET}")


def _q_grid_chunks(bounds: Sequence[int]) -> Iterator[np.ndarray]:
    """Integer boxes prod [-N_i, N_i], yielded in slabs of bounded size."""
    axes = [np.arange(-b, b + 1, dtype=np.int64) for b in bounds]
    total = 1
    for a in axes:
        total *= len(a)
    if total <= _CHUNK:
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        yield grid.reshape(-1, len(bounds))
        return
    per_row = total // len(axes[0])
    slab = max(1, _CHUNK // per_row)
    for start in range(0, len(axes[0]), slab):
        part = [axes[0][start : start + slab]] + axes[1:]
        grid = np.stack(np.meshgrid(*part, indexing="ij"), axis=-1)
        yield grid.reshape(-1, len(bounds))


def di_witness(query: DIQuery) -> WitnessResult:
    """Exhaustive primal search; returns the smallest-error witness.

    Ties in the error are broken toward the small positive corner of the
    box.  A vectorised float sweep shortlists candidates and exact rational
    arithmetic confirms them, so the verdict does not depend on rounding.
    """
    if query.form != "primal":
        raise ValueError("di_witness expects the primal form")
    _check_budget(query.box_product)
    exact_pairs = [_exact(x) for x in query.xi]
    xi_exact = [v for v, _ in exact_pairs]
    unc = [u for _, u in exact_pairs]
    mu_exact, _ = _exact(query.mu)
    bound = mu_exact / query.box_product
    bound_f = float(bound)
    xi_f = np.array([float(v) for v in xi_exact])
    slack = float(sum(b * u for b, u in zip(query.bounds, unc))) + _FLOAT_MARGIN

    volume = 0
    best_err = math.inf
    shortlist: List[Tuple[float, Tuple[int, ...]]] = []
    for grid in _q_grid_chunks(query.bounds):
        nonzero = (grid != 0).any(axis=1)
        volume += int(nonzero.sum())
        r = grid @ xi_f
        err = np.abs(r - np.rint(r))
        err[~nonzero] = np.inf
        chunk_best = float(err.min())
        best_err = min(best_err, chunk_best)
        keep = err <= max(bound_f + slack, chunk_best + _FLOAT_MARGIN)
        if keep.any():
            idx = np.flatnonzero(keep)
            if idx.size > 512:
                maxabs = np.abs(grid[idx]).max(axis=1)
                order = np.lexsort((maxabs, err[idx]))
                idx = idx[order[:512]]
            shortlist.extend(
                (float(err[i]), tuple(int(c) for c in grid[i])) for i in idx
            )

    shortlist.sort(key=lambda item: (item[0], _canonical_key(item[1])))
    best: Optional[Tuple[Q, Tuple, Tuple[int, ...], int]] = None
    for _, q in shortlist[:_CANDIDATE_CAP]:
        r = sum(x * c for x, c in zip(xi_exact, q))
        u_total = sum(u * abs(c) for u, c in zip(unc, q))
        p0 = math.floor(r)
        for p in (p0, p0 + 1):
            err = abs(r - p)
            if err + u_total > bound:
                continue
            key = (err, _canonical_key(q), p)
            if best is None or key < (best[0], best[1], best[3]):
                best = (err, _canonical_key(q), q, p)
    if best is None:
        residual = best_err / bound_f if bound_f else math.inf
        return WitnessResult(False, None, volume, residual)
    err, _, q, p = best
    return WitnessResult(True, (q, p), volume, float(err / bound))


def di_dual_witness(query: DIQuery) -> WitnessResult:
    """Exhaustive dual search; returns the smallest-|q| witness.

    Witness pairs come in +-(q, p) pairs, so only positive q are scanned
    and the reported witness has q > 0.
    """
    if query.form != "dual":
        raise ValueError("di_dual_witness expects the dual form")
    q_max = query.box_product
    _check_budget(q_max)
    exact_pairs = [_exact(x) for x in query.xi]
    xi_exact = [v for v, _ in exact_pairs]
    unc = [u for _, u in exact_pairs]
    mu_exact, _ = _exact(query.mu)
    bounds_q = [mu_exact / n for n in query.bounds]
    bounds_f = np.array([float(b) for b in bounds_q])
    xi_f = np.array([float(v) for v in xi_exact])
    slack = np.array([float(u) for u in unc]) * q_max + _FLOAT_MARGIN

    def confirm(qv: int) -> Optional[Tuple[Tuple[int, ...], Q]]:
        ps = []
        worst = Q(0)
        for x, u, allowance in zip(xi_exact, unc, bounds_q):
            r = x * qv
            p0 = math.floor(r)
            err, p = min((abs(r - p), p) for p in (p0, p0 + 1))
            if err + u * qv > allowance:
                return None
            ps.append(p)
            worst = max(worst, err / allowance if allowance else Q(0))
        return tuple(ps), worst

    best_excess = math.inf
    for start in range(1, q_max + 1, _CHUNK):
        qs = np.arange(start, min(start + _CHUNK, q_max + 1), dtype=np.int64)
        r = np.outer(qs, xi_f)
        err = np.abs(r - np.rint(r))
        excess = (err / bounds_f).max(axis=1)
        best_excess = min(best_excess, float(excess.min()))
        passing = np.flatnonzero((err <= bounds_f + slack).all(axis=1))
        for i in passing:
            qv = int(qs[i])
            hit = confirm(qv)
            if hit is not None:
                ps, worst = hit
                return WitnessResult(True, (qv, ps), qv, float(worst))
    return WitnessResult(False, None, q_max, best_excess)


# -- lattice-box reformulation ---------------------------------------------------------


def dani_lattice(query: DIQuery):
    """Shear-lattice basis and box half-widths equivalent to the primal search.

    Nonzero points of the returned lattice inside the box
    ``[-mu/prod N, mu/prod N] x prod [-N_i, N_i]`` with nonzero integer part
    are exactly the images ``(xi . q - p, q)`` of primal witnesses.
    """
    from .latticelab import LatticeBasis

    if query.form != "primal":
        raise ValueError("the box reformulation is defined for the primal form")
    n = query.dimension
    xi_exact = [_exact(x)[0] for x in query.xi]
    rows = [tuple([Q(-1)] + [Q(0)] * n)]
    for i, x in enumerate(xi_exact):
        row = [Q(0)] * (n + 1)
        row[0] = x
        row[i + 1] = Q(1)
        rows.append(tuple(row))
    mu_exact, _ = _exact(query.mu)
    halfwidths = (float(mu_exact / query.box_product),) + tuple(
        float(b) for b in query.bounds
    )
    basis = LatticeBasis.from_rows(rows, provenance="dani(primal)")
    return basis, halfwidths


def box_point_search(query: DIQuery) -> WitnessResult:
    """Independent primal verdict: enumerate lattice points inside the box.

    Walks the integer part of the box in canonical order and tests, in exact
    arithmetic, whether an integer p lands in the first-coordinate window.
    Shares no code with di_witness beyond the rounding convention, so verdict
    agreement between the two is a real consistency check.
    """
    if query.form != "primal":
        raise ValueError("the box reformulation is defined for the primal form")
    points = 1
    for b in query.bounds:
        points *= 2 * b + 1
    _check_budget(points)
    exact_pairs = [_exact(x) for x in query.xi]
    xi_exact = [v for v, _ in exact_pairs]
    unc = [u for _, u in exact_pairs]
    mu_exact, _ = _exact(query.mu)
    width = mu_exact / query.box_product

    candidates = sorted(
        (q for q in itertools.product(*[range(-b, b + 1) for b in query.bounds])
         if any(q)),
        key=_canonical_key,
    )
    volume = 0
    best_excess = math.inf
    for q in candidates:
        volume += 1
        r = sum(x * c for x, c in zip(xi_exact, q))
        shrink = width - sum(u * abs(c) for u, c in zip(unc, q))
        if shrink >= 0:
            lo = math.ceil(r - shrink)
            hi = math.floor(r + shrink)
            if lo <= hi:
                err, p = min((abs(r - p), p) for p in range(lo, hi + 1))
                return WitnessResult(True, (q, p), volume, float(err / width))
        nearest = min(abs(r - math.floor(r)), abs(math.floor(r) + 1 - r))
        best_excess = min(best_excess, float(nearest / width))
    return WitnessResult(False, None, volume, best_excess)


def witness_point(query: DIQuery, witness: Tuple) -> Tuple[float, ...]:
    """Lattice point ``(xi . q - p, q)`` realised by a primal witness."""
    q, p = witness
    xi_exact = [_exact(x)[0] for x in query.xi]
    first = sum(x * c for x, c in zip(xi_exact, q)) - p
    return (float(first),) + tuple(float(c) for c in q)


# -- target-sequence exponent ----------------------------------------------------------


@dataclass(frozen=True)
class Rbar1Result:
    """Largest ratio log(max N_i) / log(prod N_i) over a finite sequence."""

    value: Union[Q, float]
    index: int
    ratios: Tuple[float, ...]
    skipped: Tuple[int, ...]
    notices: Tuple[str, ...]

    @property
    def exact(self) -> bool:
        return isinstance(self.value, Q)


def rbar1(targets: Sequence[Sequence[int]]) -> Rbar1Result:
    """Running maximum of log(max N_i)/log(prod N_i) with the achieving index.

    Entries with prod N_i = 1 carry no information (both logs vanish) and are
    skipped with a notice.  When the winning ratio is a rational a/b certified
    by the integer identity max^b == prod^a, the value is returned exactly.
    """
    entries = [tuple(int(x) for x in t) for t in targets]
    if not entries:
        raise ValueError("empty target sequence")
    n = len(entries[0])
    if any(len(t) != n for t in entries):
        raise ValueError("target tuples must share a length")
    if any(x < 1 for t in entries for x in t):
        raise ValueError("targets must be >= 1")

    ratios: List[float] = []
    skipped: List[int] = []
    notices: List[str] = []
    for i, t in enumerate(entries):
        prod = 1
        for x in t:
            prod *= x
        if prod == 1:
            ratios.append(math.nan)
            skipped.append(i)
            notices.append(f"entry {i} has product 1 and was skipped")
            continue
        ratios.append(math.log(max(t)) / math.log(prod))
    usable = [i for i in range(len(entries)) if i not in set(skipped)]
    if not usable:
        raise ValueError("every entry was degenerate")
    best_index = max(usable, key=lambda i: (ratios[i], -i))
    best = ratios[best_index]

    value: Union[Q, float] = best
    cand = Q(best).limit_denominator(10**6)
    t = entries[best_index]
    prod = 1
    for x in t:
        prod *= x
    if 0 < cand <= 1 and max(t) ** cand.denominator == prod ** cand.numerator:
        value = cand
    return Rbar1Result(
        value=value,
        index=best_index,
        ratios=tuple(ratios),
        skipped=tuple(skipped),
        notices=tuple(notices),
    )


# -- curve scans -------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanCell:
    """One (grid point, target, form) search outcome."""

    s_index: int
    s: float
    n_index: int
    form: str
    found: bool
    witness: Optional[Tuple]
    search_volume: int
    skipped: bool


@dataclass(frozen=True)
class ScanTable:
    """Improvable-fraction table for a curve against a target prefix.

    ``prefix_fractions[L-1]`` is the fraction of grid points for which every
    target among the first L admits witnesses in both forms.  Grid points
    with a budget-skipped cell are excluded from those fractions.
    """

    curve_name: str
    interval: Tuple[float, float]
    mu: float
    prefix: Tuple[Tuple[int, ...], ...]
    s_values: Tuple[float, ...]
    cells: Tuple[ScanCell, ...]
    prefix_fractions: Tuple[float, ...]
    rational_hints: Tuple[int, ...]

    @property
    def all_improvable_fraction(self) -> float:
        return self.prefix_fractions[-1]

    def rows(self) -> Iterator[Dict]:
        for c in self.cells:
            yield {
                "s": c.s,
                "n_index": c.n_index,
                "form": c.form,
                "found": c.found,
                "witness": "" if c.witness is None else repr(c.witness),
                "search_volume": c.search_volume,
            }


def _curve_xi(curve: CurveSpec, s: float) -> Tuple[Number, ...]:
    """Curve point as exact rationals when the curve is polynomial."""
    if curve.poly is not None:
        sq = Q(s)
        return tuple(
            sum(Q(c) * sq**k for k, c in enumerate(coeffs))
            for coeffs in curve.poly
        )
    return tuple(float(x) for x in curve.fn(s))


def _rational_hint(s: float) -> bool:
    """Does the grid point sit on a small-denominator rational?"""
    near = Q(s).limit_denominator(64)
    return abs(near - Q(s)) <= Q(1, 10**9)


def curve_scan(
    curve: CurveSpec,
    interval: Tuple[float, float],
    prefix: Sequence[Sequence[int]],
    mu: float,
    s_grid: int,
) -> ScanTable:
    """Run both witness searches at every (grid point, target) cell.

    Cells are independent; they are evaluated and reported in (s, target)
    lexicographic order.  Budget overruns mark the cell skipped rather than
    aborting the scan.  Grid points lying on small-denominator rationals are
    flagged: a rational point is improvable for every target once the
    denominators divide, so it belongs to the known countable exception.
    """
    targets = tuple(tuple(int(x) for x in t) for t in prefix)
    if not targets:
        raise ValueError("empty target prefix")
    s_values = tuple(float(s) for s in np.linspace(interval[0], interval[1], s_grid))

    cells: List[ScanCell] = []
    hints: List[int] = []
    for si, s in enumerate(s_values):
        xi = _curve_xi(curve, s)
        if _rational_hint(s) and curve.poly is not None:
            hints.append(si)
        for ni, bounds in enumerate(targets):
            for form, search in (("primal", di_witness), ("dual", di_dual_witness)):
                query = DIQuery(form=form, xi=xi, bounds=bounds, mu=mu)
                try:
                    res = search(query)
                    cells.append(
                        ScanCell(si, s, ni, form, res.found, res.witness,
                                 res.search_volume, False)
                    )
                except SearchBudgetError:
                    cells.append(ScanCell(si, s, ni, form, False, None, 0, True))

    by_s: Dict[int, List[ScanCell]] = {}
    for c in cells:
        by_s.setdefault(c.s_index, []).append(c)
    fractions: List[float] = []
    for length in range(1, len(targets) + 1):
        hits = 0
        denom = 0
        for si in range(len(s_values)):
            window = [c for c in by_s[si] if c.n_index < length]
            if any(c.skipped for c in window):
                continue
            denom += 1
            if all(c.found for c in window):
                hits += 1
        fractions.append(hits / denom if denom else math.nan)

    return ScanTable(
        curve_name=curve.name,
        interval=(float(interval[0]), float(interval[1])),
        mu=float(mu),
        prefix=targets,
        s_values=s_values,
        cells=tuple(cells),
        prefix_fractions=tuple(fractions),
        rational_hints=tuple(hints),
    )
