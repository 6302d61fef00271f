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

Each form is a sweep that takes any list of queries, grouped by xi and, for
the primal form, by dimension.  The primal sweep evaluates ``|q . xi - p|``
in floats for several xi at once over the union box of a group, held in
canonical (shell-first) order so that each query reads the shells up to its
largest bound; it walks only the q whose first nonzero coordinate is
positive, since -q answers alike and sorts later.  The dual sweep does the
same over ``q = 1 .. max prod N`` for each xi.  Every point of the float
band, widened by a bound on the rounding of the sweep, is confirmed in
integer arithmetic over the common denominator of xi.  Nothing is
shortlisted or capped, so the primal witness is the exact smallest-error one
and the dual witness has the exact smallest q.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction as Q
from operator import mul
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .curvejet import CurveSpec, _poly_ratio
from .exact import _ratio, _scaled, diag
from .latticelab import LatticeBasis, enumerate_ball, lll_reduce, shear_basis

Number = Union[int, float, Q]

SEARCH_BUDGET = 10**7
_CHUNK = 1 << 20  # points per slab of the primal sweep; bounds its memory
# q values per slab of the dual sweep: a query stops at its first witness, and
# each float array stays within 128 KiB
_DUAL_CHUNK = 1 << 13
_CONFIRM_BLOCK = 1 << 16  # band points confirmed at once; bounds the Python-int arrays
_ROW_BLOCK = 1 << 15  # float errors (xi rows x points) computed at once, past one row
# A primal query reads its group's union up to its largest bound: at most this
# many times its own box, or the floor (any boxes with N_i <= 8 in 3 dimensions).
_UNION_SLACK, _UNION_FLOOR = 4, 1 << 13
_FLOAT_MARGIN = 1e-9


class SearchBudgetError(RuntimeError):
    """Raised when a requested scan exceeds the desk-scale point budget."""


def _allowance(x: Number) -> Number:
    """Outward-rounding allowance: half an ulp for a float, 0 for an exact number."""
    if not isinstance(x, float):
        return 0
    if not math.isfinite(x):
        raise ValueError("coordinates must be finite")
    return math.ulp(x) / 2 or Q(1, 2**1075)  # half the least subnormal is no float


def _canonical_key(q: Sequence[int]) -> Tuple:
    """Deterministic ordering: small box shell first, positive entries first."""
    absvec = tuple(abs(c) for c in q)
    signs = tuple(0 if c >= 0 else 1 for c in q)
    return (max(absvec), tuple(reversed(absvec)), signs)


@dataclass(frozen=True)
class DIQuery:
    """One improvability question: a target vector, box sizes, and a factor.

    The form is not part of the query: ``di_witness`` and ``primal_sweep``
    ask the primal question of it, ``di_dual_witness`` and ``dual_sweep``
    the dual one, and ``box_point_search`` the primal one on the lattice.
    """

    xi: Tuple[Number, ...]
    bounds: Tuple[int, ...]
    mu: Number

    def __post_init__(self) -> None:
        object.__setattr__(self, "xi", tuple(self.xi))
        object.__setattr__(self, "bounds", tuple(int(b) for b in self.bounds))
        if len(self.xi) != len(self.bounds) or not self.xi:
            raise ValueError("xi and bounds must have equal positive length")
        if any(b < 1 for b in self.bounds):
            raise ValueError("box sizes must be >= 1")
        if not 0 < self.mu <= 1:  # exact for every Number; NaN fails it
            raise ValueError("improvement factor must lie in (0, 1]")

    @property
    def dimension(self) -> int:
        return len(self.xi)

    @property
    def box_product(self) -> int:
        return math.prod(self.bounds)


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of one witness search.

    ``witness`` is ``((q_1..q_n), p)`` for the primal form and
    ``(q, (p_1..p_n))`` for the dual form, and ``None`` on a miss.
    ``search_volume`` counts what the search walked: the nonzero box points
    (primal), the q values up to the witness or the end (dual), or the
    nonzero lattice points of the ball (lattice search).
    """

    found: bool
    witness: Optional[Tuple]
    search_volume: int


def _check_budget(points: int) -> None:
    if points > SEARCH_BUDGET:
        raise SearchBudgetError(f"{points} points exceeds budget {SEARCH_BUDGET}")


def _xi_key(xi: Sequence[Number]) -> Tuple:
    """xi with its types: a float and an equal Fraction differ in allowance."""
    return tuple((type(x), x) for x in xi)


def _float_error(bounds: Sequence[int], xi_f: Sequence[float]) -> float:
    """Bound on the float error of ``q . xi`` over a box, plus a margin.

    Covers rounding xi to floats and the products and sums of the sweep.
    """
    spread = (len(xi_f) + 1) * 2.0**-52
    return sum(b * (math.ulp(x) + spread * abs(x)) for b, x in zip(bounds, xi_f)) + _FLOAT_MARGIN


def _nearest(t, denom: int):
    """Integers p nearest to t / denom (ties go low) and |t - p denom|."""
    p = -((denom - 2 * t) // (2 * denom))
    return p, abs(t - p * denom)


# -- primal sweep ----------------------------------------------------------------------


@functools.lru_cache(maxsize=1 << 12)
def _count(bounds: Tuple[int, ...], level: int) -> int:
    """Nonzero box points with max |q_i| <= level."""
    return math.prod(2 * min(b, level) + 1 for b in bounds) - 1


def _shells(bounds: Tuple[int, ...], lo: int, hi: int) -> np.ndarray:
    """Box points with lo <= max |q_i| <= hi and a positive first nonzero
    coordinate in canonical order, as the columns of an int32 array with one
    row per coordinate.

    The points split into product sets by the first axis j with
    |q_j| >= lo; the union keeps the positive-first half (its negation sorts
    later) and is sorted by ``_canonical_key`` in one lexsort.
    """
    n = len(bounds)
    pieces = []
    for j, bj in enumerate(bounds):
        if min(bj, hi) < lo:
            continue
        axes = []
        for i, b in enumerate(bounds):
            reach = min(b, hi) if i > j else min(b, lo - 1)
            axes.append(np.arange(-reach, reach + 1, dtype=np.int32))
        side = np.arange(lo, min(bj, hi) + 1, dtype=np.int32)
        axes[j] = np.concatenate([-side[::-1], side])
        grid = np.meshgrid(*axes, indexing="ij")
        pieces.append(np.stack([g.ravel() for g in grid]))
    pts = np.concatenate(pieces, axis=1)
    lead = pts[(pts != 0).argmax(axis=0), np.arange(pts.shape[1])]  # first nonzero entry
    pts = pts[:, lead > 0]
    mag = np.abs(pts).astype(np.min_scalar_type(hi))  # narrow keys sort by radix
    keys = [pts[i] < 0 for i in reversed(range(n))] + list(mag) + [mag.max(axis=0)]
    return pts[:, np.lexsort(keys)]


@functools.lru_cache(maxsize=8)
def _canonical_box(bounds: Tuple[int, ...]) -> np.ndarray:
    """The positive-first half of a box that fits one slab, read-only; kept
    across calls, as a batch walks a few union boxes and a scan one box."""
    box = _shells(bounds, 1, max(bounds))
    box.flags.writeable = False
    return box


def _box_slabs(bounds: Tuple[int, ...]) -> Iterator[Tuple[int, int, np.ndarray]]:
    """The positive-first box points (half of ``_count``) in canonical order,
    as slabs of whole shells lo..hi with at most ``_CHUNK`` points each (a
    single shell may exceed it)."""
    top, lo = max(bounds), 1
    while lo <= top:
        base, hi, b = _count(bounds, lo - 1), lo, top
        while hi < b:
            mid = (hi + b + 1) // 2
            if (_count(bounds, mid) - base) // 2 <= _CHUNK:
                hi = mid
            else:
                b = mid - 1
        yield lo, hi, _canonical_box(bounds) if (lo, hi) == (1, top) else _shells(bounds, lo, hi)
        lo = hi + 1


def _sweep_error(box: np.ndarray, xi_f) -> np.ndarray:
    """Float |q . xi - p| with p nearest, for each column q of a box slab:
    one vector for one xi, one row per xi for a sequence of them."""
    x = np.asarray(xi_f, dtype=float).T[..., None]
    r = box[0] * x[0]
    for i in range(1, len(x)):
        r += box[i] * x[i]
    r -= np.rint(r)
    return np.abs(r, out=r)


def _primal_groups(queries: Sequence[DIQuery]) -> List[List[int]]:
    """Query indices split into primal sweeps of one dimension each: a query
    joins the latest sweep of its dimension unless the grown union would pass
    the budget or some member's cap (``_UNION_SLACK``), kept per level."""
    groups: List[List[int]] = []
    latest: Dict[int, Tuple] = {}  # dimension -> (union, caps by level, members)
    for k, q in enumerate(queries):
        _check_budget(q.box_product)
        level = max(q.bounds)
        cap = max(_UNION_FLOOR, _UNION_SLACK * _count(q.bounds, level))
        union, caps, members = latest.get(q.dimension, (q.bounds, {}, None))
        grown = tuple(map(max, union, q.bounds))
        checks = [(level, cap)] + (list(caps.items()) if grown != union else [])
        if (members is None or math.prod(grown) > SEARCH_BUDGET
                or any(_count(grown, lv) > c for lv, c in checks)):
            grown, caps, members = q.bounds, {}, []
            groups.append(members)
        caps[level] = min(cap, caps.get(level, cap))
        members.append(k)
        latest[q.dimension] = (grown, caps, members)
    return groups


class _PrimalTarget(NamedTuple):
    k: int                        # position in the batch
    level: int                    # max bound: the target lies in the union's first shells
    inside: Optional[np.ndarray]  # bounds as a column; None if the box is those shells
    band: float                   # no witness has a float error above this
    limit: int                    # integer threshold on (error + shrink) * denom


class _PrimalRow:
    """One xi of a group: its floats, its integers over one denominator, and
    the targets that ask about it."""

    def __init__(self, xi: Sequence[Number], union: Tuple[int, ...]) -> None:
        (nums, ulps), self.denom = _scaled([xi, [_allowance(x) for x in xi]])
        # Python ints only when int64 could overflow.
        big = 2 * (sum(b * (abs(a) + u) for b, a, u in zip(union, nums, ulps)) + self.denom)
        dtype = np.int64 if big < 2**62 else object
        self.nums, self.ulps = np.array(nums, dtype=dtype), np.array(ulps, dtype=dtype)
        self.xi_f = tuple(a / self.denom for a in nums)
        self.targets: List[_PrimalTarget] = []
        self.level = 0

    def confirm(self, box: np.ndarray, cands: np.ndarray, stops: List[int], best: List) -> None:
        """Integer test of band points, each target reading the slab up to its
        stop; keeps the smallest error, ties to the earlier (canonical) q."""
        for start in range(0, cands.size, _CONFIRM_BLOCK):
            idx = cands[start : start + _CONFIRM_BLOCK]
            qs = box[:, idx]
            mag = np.abs(qs)
            p, e = _nearest(self.nums @ qs.astype(self.nums.dtype), self.denom)
            total = e + self.ulps @ mag.astype(self.nums.dtype)
            for t, stop in zip(self.targets, stops):
                size = int(np.searchsorted(idx, stop))
                ok = total[:size] <= t.limit
                if t.inside is not None:
                    ok &= (mag[:, :size] <= t.inside).all(axis=0)
                hits = np.flatnonzero(ok)
                if hits.size:
                    j = hits[np.argmin(e[hits])]
                    if best[t.k] is None or e[j] < best[t.k][0]:
                        best[t.k] = (int(e[j]), tuple(int(c) for c in qs[:, j]), int(p[j]))


def _primal_group(queries: Sequence[DIQuery], members: List[int], best: List) -> None:
    """The queries ``members`` of one dimension, in one pass over their union."""
    union = tuple(map(max, zip(*(queries[k].bounds for k in members))))
    rows: Dict[Tuple, _PrimalRow] = {}
    for k in members:
        q = queries[k]
        key = _xi_key(q.xi)
        row = rows.get(key) or rows.setdefault(key, _PrimalRow(q.xi, union))
        level = max(q.bounds)
        prefix = all(b == min(u, level) for b, u in zip(q.bounds, union))
        mu_num, mu_den = _ratio(q.mu)
        scale = mu_den * q.box_product  # the bound mu / prod N is mu_num / scale
        row.targets.append(_PrimalTarget(
            k, level, None if prefix else np.array(q.bounds)[:, None],
            mu_num / scale + _float_error(q.bounds, row.xi_f), mu_num * row.denom // scale))
        row.level = max(row.level, level)
    order = sorted(rows.values(), key=lambda row: row.level)  # short reads first

    for lo, hi, box in _box_slabs(union):
        base = _count(union, lo - 1)

        def end(level: int) -> int:  # slab points in the shells up to level
            return max(0, _count(union, min(level, hi)) - base) // 2

        live = [(row, end(row.level)) for row in order if row.level >= lo]
        step = max(1, _ROW_BLOCK // max((width for _, width in live), default=1))
        for i in range(0, len(live), step):  # reads ascend: a block is as wide as its last
            block = live[i : i + step]
            err = _sweep_error(box[:, : block[-1][1]], [row.xi_f for row, _ in block])
            for (row, width), row_err in zip(block, err):
                stops = [end(t.level) for t in row.targets]
                keep = np.zeros(width, dtype=bool)
                for t, stop in zip(row.targets, stops):
                    keep[:stop] |= row_err[:stop] <= t.band
                row.confirm(box, np.flatnonzero(keep), stops, best)


def primal_sweep(queries: Sequence[DIQuery]) -> List[WitnessResult]:
    """Primal searches for any list of queries, one pass per union box.

    ``_primal_groups`` splits the queries by dimension; each group walks its
    union box once, with one float error row per distinct xi.  Each result
    is the exact smallest-error witness of its own box, ties broken toward
    the canonical-first q and then the smaller p: what ``di_witness`` returns
    for that query alone.  Walking only the positive-first q loses nothing:
    -q has the same exact error and shrink, the same float error bit for bit
    (IEEE arithmetic and ``rint`` are sign-symmetric) and sorts after q.
    """
    if not queries:
        raise ValueError("a sweep needs at least one query")
    best: List[Optional[Tuple]] = [None] * len(queries)
    for members in _primal_groups(queries):
        _primal_group(queries, members, best)
    return [WitnessResult(hit is not None, hit and hit[1:], _count(q.bounds, max(q.bounds)))
            for q, hit in zip(queries, best)]


def di_witness(query: DIQuery) -> WitnessResult:
    """Exhaustive primal search; returns the smallest-error witness.

    Ties in the error are broken toward the small positive corner of the
    box.  The one-query case of ``primal_sweep``.
    """
    return primal_sweep([query])[0]


# -- dual sweep ------------------------------------------------------------------------


def dual_sweep(queries: Sequence[DIQuery]) -> List[WitnessResult]:
    """Dual searches for any list of queries, one pass over q = 1 .. max prod N
    per distinct xi.

    Each query takes the first q of its own range that the integer test
    confirms, so its witness has the exact smallest q > 0 (witnesses come
    in +-(q, p) pairs); it is what ``di_dual_witness`` returns for that
    query alone.
    """
    if not queries:
        raise ValueError("a sweep needs at least one query")
    by_xi: Dict[Tuple, List[int]] = {}
    for k, q in enumerate(queries):
        _check_budget(q.box_product)
        by_xi.setdefault(_xi_key(q.xi), []).append(k)
    results: List[Optional[WitnessResult]] = [None] * len(queries)
    for members in by_xi.values():
        xi = queries[members[0]].xi
        (nums, ulps), denom = _scaled([xi, [_allowance(x) for x in xi]])
        xi_f = np.array([a / denom for a in nums])
        tops, limits, bands = {}, {}, {}
        for k in members:
            q = queries[k]
            tops[k] = q.box_product
            mu_num, mu_den = _ratio(q.mu)  # the allowance mu / N_i is mu_num / (mu_den N_i)
            limits[k] = [mu_num * denom // (mu_den * n) for n in q.bounds]
            bands[k] = np.array([mu_num / (mu_den * n) + _float_error([tops[k]], [x])
                                 for n, x in zip(q.bounds, xi_f)])
        for start in range(1, max(tops.values()) + 1, _DUAL_CHUNK):
            open_ = [k for k in members if results[k] is None and start <= tops[k]]
            if not open_:
                break
            qs = np.arange(start, min(start + _DUAL_CHUNK, max(tops.values()) + 1), dtype=np.int64)
            r = np.outer(xi_f, qs)
            err = np.abs(r - np.rint(r))
            for k in open_:
                rows = err[:, : tops[k] + 1 - start]
                for i in np.flatnonzero((rows <= bands[k][:, None]).all(axis=0)):
                    q = start + int(i)  # exact test: the nearest p_i, each within its limit
                    near = [_nearest(q * a, denom) for a in nums]
                    if all(e + q * u <= lim for (_, e), u, lim in zip(near, ulps, limits[k])):
                        results[k] = WitnessResult(True, (q, tuple(p for p, _ in near)), q)
                        break
    return [res or WitnessResult(False, None, q.box_product)
            for res, q in zip(results, queries)]


def di_dual_witness(query: DIQuery) -> WitnessResult:
    """Exhaustive dual search; returns the smallest-|q| witness.

    Witness pairs come in +-(q, p) pairs, so only positive q are scanned
    and the reported witness has q > 0.  The one-query case of
    ``dual_sweep``.
    """
    return dual_sweep([query])[0]


# -- lattice-box reformulation ---------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _dani_base(n: int) -> LatticeBasis:
    """diag(-1, 1, ..., 1) in rank n + 1, the base that u(xi) shears."""
    return LatticeBasis.from_rows(diag((-1,) + (1,) * n))


def box_point_search(query: DIQuery) -> WitnessResult:
    """Independent primal verdict: enumerate lattice points inside the box.

    The primal witnesses are the lattice points ``(xi . q - p, q)`` of the
    Dani lattice u(xi) diag(-1, 1, ..., 1), rows ``(-1, 0, ..., 0)`` and
    ``(xi_i, e_i)``, that lie in the box ``[-mu/prod N, mu/prod N] x
    prod [-N_i, N_i]`` with q nonzero.  The search builds that lattice with
    D = 1 / half-widths, so the box becomes the unit cube (covolume 1/mu),
    reduces it with the integral LLL and walks every lattice point of the
    circumscribed ball with ``latticelab.enumerate_ball``.  Each point gets
    the exact box test with the half-ulp shrink, and the canonical-first q
    wins, with the p nearest ``xi . q``.  ``search_volume`` counts the
    nonzero lattice points walked.  Shares no code with the sweeps beyond
    the rounding convention, so verdict agreement with ``di_witness`` is a
    real consistency check.
    """
    widths = (Q(query.mu) / query.box_product,) + tuple(Q(b) for b in query.bounds)
    # The shrink in units of the box: sum_i (u_i / width) |q_i| = shrink . |q| / sden.
    (shrink,), sden = _scaled([[Q(_allowance(x)) / widths[0] for x in query.xi]])
    xi = [Q(x) for x in query.xi]
    _check_budget(math.prod(2 * b + 1 for b in query.bounds))
    basis = shear_basis([1 / w for w in widths], xi, _dani_base(len(xi)),
                        expect_unimodular=False)
    red = lll_reduce(basis)
    denom = basis.denom
    cols = tuple(zip(*red.transform))
    # first coordinate of each reduced row, off the transform
    head = [row[0] for row in basis.ints]
    first = tuple(sum(map(mul, row, head)) for row in red.transform)
    hits = []
    volume = 0

    def test(coords: List[int], norm: int) -> int:
        nonlocal volume
        if norm:
            volume += 1
            p, *q = (sum(map(mul, coords, col)) for col in cols)
            if any(q) and all(abs(c) <= b for c, b in zip(q, query.bounds)):
                # |xi . q - p| / width = err / denom
                err = abs(sum(map(mul, coords, first)))
                if err * sden + denom * sum(map(mul, shrink, map(abs, q))) <= denom * sden:
                    hits.append((_canonical_key(q), err, p, tuple(q)))
        return radius

    radius = (query.dimension + 1) * denom**2
    enumerate_ball(red, radius, test)
    if not hits:
        return WitnessResult(False, None, volume)
    _, _, p, q = min(hits)
    return WitnessResult(True, (q, p), volume)


# -- target-sequence exponent ----------------------------------------------------------


@dataclass(frozen=True)
class Rbar1Result:
    """Largest ratio log(max N_i) / log(prod N_i) over a finite sequence."""

    value: Union[Q, float]

    @property
    def exact(self) -> bool:
        return isinstance(self.value, Q)


def rbar1(targets: Sequence[Sequence[int]]) -> Rbar1Result:
    """Largest log(max N_i)/log(prod N_i) over the sequence.

    Entries with prod N_i = 1 carry no information (both logs vanish) and are
    skipped.  When the winning ratio is a rational a/b certified
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

    usable = [t for t in entries if math.prod(t) > 1]
    if not usable:
        raise ValueError("every entry was degenerate")
    # the first entry of largest ratio, as ``max`` keeps the first of equals
    t = max(usable, key=lambda t: math.log(max(t)) / math.log(math.prod(t)))
    prod = math.prod(t)
    best = math.log(max(t)) / math.log(prod)
    # If max^b == prod^a with gcd(a, b) = 1, then b v_p(max) = a v_p(prod)
    # for every prime p, so b divides every v_p(prod): prod is the b-th power
    # of an integer >= 2, and b <= log2(prod) < prod.bit_length().  Two
    # fractions with denominators below that bound differ by at least
    # 1/bit_length^2, far beyond the float error of ``best``, so the bounded
    # search finds a/b whenever it exists.
    cand = Q(best).limit_denominator(prod.bit_length())
    if 0 < cand <= 1 and max(t) ** cand.denominator == prod ** cand.numerator:
        return Rbar1Result(cand)
    return Rbar1Result(best)


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
    ``rational_hints`` holds the grid indices that sit on small-denominator
    rationals.
    """

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
        return tuple(Q(*_poly_ratio(coeffs, s)) for coeffs in curve.poly)
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

    Each grid point takes one primal and one dual sweep over all targets;
    every cell equals its own ``di_witness`` / ``di_dual_witness`` call.
    Cells are reported in (s, target, form) lexicographic order.  Targets
    over the search budget mark their cells skipped rather than aborting
    the scan.  Grid points lying on small-denominator rationals are
    flagged: a rational point is improvable for every target once the
    denominators divide, so it belongs to the known countable exception.
    """
    targets = tuple(tuple(int(x) for x in t) for t in prefix)
    if not targets:
        raise ValueError("empty target prefix")
    s_values = tuple(float(s) for s in np.linspace(interval[0], interval[1], s_grid))
    inside = [ni for ni, bounds in enumerate(targets) if math.prod(bounds) <= SEARCH_BUDGET]
    cells: List[ScanCell] = []
    for si, s in enumerate(s_values):
        queries = [DIQuery(_curve_xi(curve, s), targets[ni], mu) for ni in inside]
        answers = {form: iter(sweep(queries) if queries else ())
                   for form, sweep in (("primal", primal_sweep), ("dual", dual_sweep))}
        for ni in range(len(targets)):
            for form in ("primal", "dual"):
                res = next(answers[form]) if ni in inside else WitnessResult(False, None, 0)
                cells.append(ScanCell(si, s, ni, form, res.found, res.witness,
                                      res.search_volume, ni not in inside))

    fractions: List[float] = []
    for length in range(1, len(targets) + 1):
        windows = [cells[i : i + 2 * length] for i in range(0, len(cells), 2 * len(targets))]
        counted = [w for w in windows if not any(c.skipped for c in w)]
        hits = sum(all(c.found for c in w) for w in counted)
        fractions.append(hits / len(counted) if counted else math.nan)
    hints = [si for si, s in enumerate(s_values) if curve.poly is not None and _rational_hint(s)]
    return ScanTable(tuple(cells), tuple(fractions), tuple(hints))
