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

Each form is a sweep that takes any list of queries.  The primal sweep meets
in the middle: each head point ``(q_1 .. q_{n-1})`` of a box finds the
``q_n`` that could complete a witness in at most three windows of the sorted
float residues of ``q_n xi_n``, for the q whose first nonzero coordinate is
positive (-q answers alike and sorts later).  The dual sweep walks
``q = 1 .. max prod N`` per xi.  Every candidate, within a band widened by a
bound on the float rounding, is confirmed in integer arithmetic over the
denominator of xi: a primal candidate's residue ``q . a - p D`` in int64 limbs
wide enough for its box, whatever the denominator D, and a dual candidate in
Python ints.  The half-ulp shrink keeps its own denominator and, where it can
decide, its own Python-int test.  Nothing is shortlisted or capped: the primal
witness is the exact smallest-error one, and the dual witness has the exact
smallest q.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction as Q
from operator import index, mul
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .curvejet import CurveSpec, _poly_ratio
from . import limbs
from .exact import _ratio, _scaled
from .latticelab import _lowest_terms, _shear_frame, _shear_rows, enumerate_ball, lll_reduce

Number = Union[int, float, Q]

SEARCH_BUDGET = 10**7
# q values per slab of the dual sweep: a query stops at its first witness, and
# each float array stays within 128 KiB
_DUAL_CHUNK = 1 << 13
# head points and tail residues, and then candidates, per block of the primal
# sweep; bounds its memory
_BLOCK = 1 << 12
_SHIFTS = (-1, 0, 1)  # the integers m of the primal windows m - c(h) +- band
_FLOAT_MARGIN = 1e-9


class SearchBudgetError(RuntimeError):
    """Raised when a requested scan or sweep exceeds its desk-scale budget."""


def _allowance(x: Number) -> Number:
    """Outward-rounding allowance: half an ulp for a float, 0 for an exact number."""
    if not isinstance(x, float):
        return 0
    return math.ulp(x) / 2 or Q(1, 2**1075)  # half the least subnormal is no float


def _canonical_key(q: Sequence[int]) -> Tuple:
    """Deterministic ordering: small box shell first, positive entries first."""
    absvec = tuple(abs(c) for c in q)
    signs = tuple(0 if c >= 0 else 1 for c in q)
    return (max(absvec), tuple(reversed(absvec)), signs)


def _box_sizes(bounds: Sequence) -> Tuple[int, ...]:
    """Box sizes, each an integer >= 1, as ints: int() would take 2.7 as 2, True as 1."""
    if any(isinstance(b, (bool, np.bool_)) or not hasattr(type(b), "__index__") or b < 1
           for b in bounds):
        raise ValueError(f"box sizes must be integers >= 1, not {bounds}")
    return tuple(map(index, bounds))


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
        object.__setattr__(self, "bounds", _box_sizes(self.bounds))
        if len(self.xi) != len(self.bounds) or not self.xi:
            raise ValueError("xi and bounds must have equal positive length")
        # the searches read each coordinate exactly, as Fraction does: a bool,
        # a string or a float narrower than a double is no coordinate
        if any(isinstance(x, bool) or not isinstance(x, (numbers.Rational, float))
               for x in self.xi):
            raise ValueError(f"coordinates must be rational or float numbers, not {self.xi!r}")
        if any(isinstance(x, float) and not math.isfinite(x) for x in self.xi):
            raise ValueError("coordinates must be finite")
        # a bool is no factor (np.bool_ is no Real); the comparison is exact
        # for every Number, and NaN fails it
        mu = self.mu
        if isinstance(mu, bool) or not isinstance(mu, numbers.Real) or not 0 < mu <= 1:
            raise ValueError(f"improvement factor must be a real number in (0, 1], not {mu!r}")

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
    nonzero lattice points of the ball (lattice search).  A primal sweep
    also counts the candidates it ``confirmed`` in integer limbs, and of
    those the ``python_int`` ones whose half-ulp shrink took a Python-int
    test; the other searches leave both 0.
    """

    found: bool
    witness: Optional[Tuple]
    search_volume: int
    confirmed: int = 0
    python_int: int = 0


def _check_budget(points: int) -> None:
    if points > SEARCH_BUDGET:
        raise SearchBudgetError(f"{points} points exceeds budget {SEARCH_BUDGET}")


def _xi_key(xi: Sequence[Number]) -> Tuple:
    """xi with its types: a float and an equal Fraction differ in allowance."""
    return tuple((type(x), _ratio(x)) for x in xi)


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
#
# Write q = (h, q_n) with the head h = (q_1 .. q_{n-1}), and let x_i be the
# float of xi_i less its nearest integer.  The residues c(h) = h . x - rint(h . x)
# and b(q_n) = q_n x_n - rint(q_n x_n) lie in [-1/2, 1/2]; q is a candidate
# when b(q_n) lies in a window m - c(h) +- band, m = -1, 0, 1.
#
# Every exact witness is one.  Its error is at most beta = mu / prod N.
# Rounding xi to x moves q . x by at most sum N_i ulp(x_i) / 2; the n - 1
# products and n - 2 sums of c and the product of b round by less than
# n 2^-52 sum N_i |x_i|, and ``rint`` and its subtraction are exact.  So c + b
# lies within beta + eps of an integer m, eps below ``_float_error`` less its
# margin: m is -1, 0 or 1 when beta < 1/2, and for beta >= 1/2 the band
# passes 1/2 and the windows cover [-1/2, 1/2].  A window end m - c -+ band
# takes two roundings of magnitude at most 2.5, 2^-51 in all, within the
# margin.  The band stays below 3/2, so an end stays within 5/2 of its unit's
# offset, 4 from the next; adding offsets keeps every candidate, since
# rounding is monotone.  A witness with c + b near +-1 has the twin
# (h, -q_n), error |c - b| no larger and the same shrink: the side windows
# change a result only where the two tie, at a residue of exactly 1/2.


class _Row:
    """One xi less its nearest integers ``shift``, over its own denominator and
    as floats, and its half-ulp allowances over a denominator of theirs."""

    def __init__(self, xi: Sequence[Number]) -> None:
        (nums,), self.denom = _scaled([xi])
        self.shift = [_nearest(a, self.denom)[0] for a in nums]
        self.nums = [a - s * self.denom for a, s in zip(nums, self.shift)]
        self.xi_f = [a / self.denom for a in self.nums]
        (self.rates,), self.rate_den = _scaled([[_allowance(x) for x in xi]])


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + sizes[i] - 1, concatenated."""
    ends = np.cumsum(sizes)
    return np.repeat(starts - ends + sizes, sizes) + np.arange(ends[-1] if ends.size else 0)


def _blocks(bounds: np.ndarray) -> Iterator[np.ndarray]:
    """Units (query, head ranks h0 .. h1 - 1, tails t0 .. t1 - 1) covering the
    positive-first half of each box (a column of ``bounds``), in blocks of
    about ``_BLOCK`` heads and tails.  In lexicographic rank the zero head,
    which takes the tails q_n > 0, is top // 2, and the positive-first follow."""
    step, block, size = max(1, _BLOCK // 2), [], 0
    for k, (*head, tail) in enumerate(bounds.T.tolist()):
        top = math.prod(2 * b + 1 for b in head)
        heads = [(h, min(h + step, top), -tail) for h in range(top // 2 + 1, top, step)]
        for h0, h1, first in [(top // 2, top // 2 + 1, 1), *heads]:
            for t0 in range(first, tail + 1, step):
                t1 = min(t0 + step, tail + 1)
                if block and size + h1 - h0 + t1 - t0 > _BLOCK:
                    yield np.array(block).T
                    block, size = [], 0
                block.append((k, h0, h1, t0, t1))
                size += h1 - h0 + t1 - t0
    yield np.array(block).T


# -- the integer test, in limbs
#
# Take a query's xi less its nearest integers as a_i / D (|a_i| <= D / 2) and
# a candidate q, and let p = rint(fl(q . x)).  fl(q . x) lies within the
# window bound above of q . a / D, far below 1/2, so |q . a / D - p| < 1, and
# with the residue r = q . a - p D the exact error is min(|r|, D - |r|) / D.
#
# Each integer is written in K ``limbs`` of S bits, K S >= bitlen(D), the
# lower ones in [0, 2^S) and the top one signed.  So every limb of D and of
# the a_i (|a_i| < 2^(KS - 1)) is at most A = 2^S - 1 in magnitude.  With
# M = sum N_i, |q_i| <= N_i, and |fl(q . x)| <= M / 2 (every |x_i| <= 1/2 and
# rounding is monotone), so |p| <= ceil(M / 2).  A limb sum
# L_j = sum_i a_ij q_i - D_j p is then at most A W in magnitude, with
# W = M + ceil(M / 2), and a carry c = floor((L_j + c') / 2^S) with |c'| <= W
# stays within W, since |L_j + c'| <= A W + W = 2^S W.  No int64 value passes
# 2^S W, so S = 63 - bitlen(W) is the widest limb with 2^S W < 2^63; the
# point budget keeps M near 10^7 at most, and S above 38.  After the carries
# |r| < D fits the K limbs, as do |r|, D - |r| and each query's bounds, all in
# [0, 2^(KS)], where carried limbs compare as their numbers do.  A sweep takes
# the narrowest S of its queries, and a batch the largest K of its own, a
# query's limbs above its own K being 0.  One limb is the plain int64 test of
# q . a - p D.


class _Sweep:
    """Queries padded in front to one dimension n (box size 0), with their rows,
    float bands, the limbs of their integer tests, and the count of candidates
    each one confirmed and sent to a Python-int shrink test."""

    def __init__(self, queries: Sequence[DIQuery]) -> None:
        self.queries, self.n = queries, max(q.dimension for q in queries)
        rows: Dict[Tuple, _Row] = {}
        self.rows, bounds, ints, bands = [], [], [], []
        for query in queries:
            _check_budget(query.box_product)
            pad, key = (0,) * (self.n - query.dimension), _xi_key(query.xi)
            row = rows.get(key) or rows.setdefault(key, _Row(pad + query.xi))
            box = pad + query.bounds
            mu_num, mu_den = _ratio(query.mu)
            scale = mu_den * query.box_product  # the bound mu / prod N is mu_num / scale
            shrink = sum(map(mul, row.rates, box))  # over rate_den
            sure = (mu_num * row.rate_den - shrink * scale) * row.denom // (scale * row.rate_den)
            # error * denom within limit: in the bound; below sure: also with any shrink
            ints.append([*row.nums, row.denom, mu_num * row.denom // scale, max(0, sure + 1)])
            bands.append(mu_num / scale + _float_error(box, row.xi_f))
            self.rows.append(row)
            bounds.append(box)
        self.bits = min(63 - (sum(b) + (sum(b) + 1) // 2).bit_length() for b in bounds)
        self.widths = np.array([-(-row.denom.bit_length() // self.bits) for row in self.rows])
        self.table = limbs.table(ints, self.bits, self.widths.tolist())  # the a_i, D, limit, sure
        self.bounds, self.bands = np.array(bounds).T, np.array(bands)
        self.xs = np.array([row.xi_f for row in self.rows]).T
        self.confirmed, self.python_int = np.zeros((2, len(queries)), dtype=np.int64)

    def candidates(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Query positions and points q (columns) of every positive-first box
        point whose residues fall in a window, at most ``_BLOCK`` at a time."""
        n, bounds, xs, shifts = self.n, self.bounds, self.xs, np.array(_SHIFTS, dtype=float)
        for k, h0, h1, t0, t1 in _blocks(bounds):
            # the residues of each unit's tails, sorted, offset by 4 per unit
            units = np.arange(k.size)
            tails = _ranges(t0, t1 - t0)
            b = tails * xs[n - 1, np.repeat(k, t1 - t0)]
            b -= np.rint(b)
            b += np.repeat(4.0 * units, t1 - t0)
            order = np.argsort(b)
            keys, tails = b[order], tails[order]
            # head points from their ranks, and their residues
            unit = np.repeat(units, h1 - h0)
            kh, rank = k[unit], _ranges(h0, h1 - h0)
            head, c = np.empty((n - 1, rank.size), dtype=np.int64), np.zeros(rank.size)
            for i in reversed(range(n - 1)):
                rank, head[i] = np.divmod(rank, 2 * bounds[i, kh] + 1)
                head[i] -= bounds[i, kh]
                c += head[i] * xs[i, kh]
            c -= np.rint(c)
            # the windows that meet [-1/2, 1/2], head-major, each starting
            # where the one before it ends
            mid, band, base = shifts - c[:, None], self.bands[kh][:, None], 4.0 * unit[:, None]
            live = np.abs(mid) <= band + 0.5  # a witness lies a margin inside its window
            start, stop = np.zeros((2,) + live.shape, dtype=np.int64)
            start[live] = np.searchsorted(keys, (mid - band + base)[live], "left")
            stop[live] = np.searchsorted(keys, (mid + band + base)[live], "right")
            stop = np.maximum.accumulate(stop, axis=1)
            start[:, 1:] = np.maximum(start[:, 1:], stop[:, :-1])
            # whole windows, at most half a block each, about a block at a time
            size, start = (stop - start).ravel(), start.ravel()
            end = np.cumsum(size)
            cuts = [0, *np.searchsorted(end, np.arange(_BLOCK, end[-1], _BLOCK)), end.size]
            for w0, w1 in zip(cuts, cuts[1:]):
                at = np.repeat(np.arange(w0, w1) // shifts.size, size[w0:w1])
                q = np.array([*(h[at] for h in head), tails[_ranges(start[w0:w1], size[w0:w1])]])
                if at.size:
                    yield kh[at], q

    def confirm(self, kq: np.ndarray, q: np.ndarray, best: List) -> None:
        """Integer test of candidates in limbs (see above): each query keeps
        its smallest exact error, ties to the canonical-first q; p is nearest
        q . xi, ties low."""
        n, bits = self.n, self.bits
        edges = _runs(kq)
        first, sizes = kq[edges[:-1]], np.diff(edges)
        np.add.at(self.confirmed, first, sizes)
        # each run's limbs (number, limb, run) and floats, spread over its
        # candidates one number at a time; a single run broadcasts
        ints = self.table[:, : self.widths[first].max(), first]

        def spread(x: np.ndarray) -> np.ndarray:
            return np.repeat(x, sizes, axis=-1) if first.size > 1 else x

        p = np.rint((spread(self.xs[:, first]) * q).sum(axis=0)).astype(np.int64)
        r = spread(ints[n]) * -p
        for i in range(n):
            r += spread(ints[i]) * q[i]
        e = limbs.nearest_error(r, spread(ints[n]), bits)
        ok = limbs.below(e, spread(ints[n + 1]), False)
        # only from sure on can the shrink decide
        test = np.flatnonzero(ok & ~limbs.below(e, spread(ints[n + 2]), True))
        for t in test.tolist():
            self.python_int[kq[t]] += 1
            row, query = self.rows[kq[t]], self.queries[kq[t]]
            (mu_num, mu_den), err = _ratio(query.mu), limbs.join(e[:, t], bits)
            # err / denom + shrink / rate_den <= mu_num / (mu_den prod N), over integers
            shrink = sum(u * abs(int(x)) for u, x in zip(row.rates, q[:, t]))
            ok[t] = ((err * row.rate_den + shrink * row.denom) * mu_den * query.box_product
                     <= mu_num * row.denom * row.rate_den)
        keys = [*(lambda i, part=part: part[i] for part in reversed(e)),
                lambda i: functools.reduce(np.maximum, (abs(x[i]) for x in q)),
                *(lambda i, c=c: np.abs(q[c, i]) for c in reversed(range(n))),
                *(lambda i, c=c: q[c, i] < 0 for c in range(n))]
        for k in _least(kq, keys, np.flatnonzero(ok)):
            row, pad = self.rows[kq[k]], n - self.queries[kq[k]].dimension
            qv = tuple(int(c) for c in q[pad:, k])
            p, err = _nearest(sum(map(mul, row.nums[pad:], qv)), row.denom)
            hit = (err, _canonical_key(qv), qv, p + sum(map(mul, row.shift[pad:], qv)))
            if best[kq[k]] is None or hit < best[kq[k]]:
                best[kq[k]] = hit


def _least(group: np.ndarray, keys: Sequence, idx: np.ndarray) -> np.ndarray:
    """Of the positions ``idx``, the one with the least tuple of keys (maps of
    positions) in each run of equal ``group`` entries, by minimum filters."""
    for key in keys:
        edges = _runs(group[idx])
        if edges.size > idx.size:
            break
        v = key(idx)
        low = np.minimum.reduceat(v, edges[:-1])
        idx = idx[v == np.repeat(low, np.diff(edges))]
    return idx


def _runs(group: np.ndarray) -> np.ndarray:
    """The start of each run of equal entries, then the length."""
    return np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1], [True])))


def primal_sweep(queries: Sequence[DIQuery]) -> List[WitnessResult]:
    """Primal searches for any list of queries, in blocks of the whole list.

    Each positive-first head point of a box finds its candidates in at most
    three windows of the sorted tail residues (see the derivation above).
    Each result is the exact smallest-error witness of its own box, ties
    broken toward the canonical-first q and then the smaller p: what
    ``di_witness`` returns for that query alone.
    """
    if not queries:
        raise ValueError("a sweep needs at least one query")
    best: List[Optional[Tuple]] = [None] * len(queries)
    sweep = _Sweep(queries)
    for kq, q in sweep.candidates():
        sweep.confirm(kq, q, best)
    return [WitnessResult(hit is not None, hit and hit[2:],
                          math.prod(2 * b + 1 for b in q.bounds) - 1, int(c), int(t))
            for q, hit, c, t in zip(queries, best, sweep.confirmed, sweep.python_int)]


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
        row = _Row(queries[members[0]].xi)
        denom, rate_den = row.denom, row.rate_den
        tops, limits, bands = {}, {}, {}
        for k in members:
            q = queries[k]
            tops[k] = q.box_product
            mu_num, mu_den = _ratio(q.mu)  # the allowance mu / N_i is mu_num / (mu_den N_i)
            limits[k] = [mu_num * denom * rate_den // (mu_den * n) for n in q.bounds]
            bands[k] = np.array([mu_num / (mu_den * n) + _float_error([tops[k]], [x])
                                 for n, x in zip(q.bounds, row.xi_f)])
        for start in range(1, max(tops.values()) + 1, _DUAL_CHUNK):
            open_ = [k for k in members if results[k] is None and start <= tops[k]]
            if not open_:
                break
            qs = np.arange(start, min(start + _DUAL_CHUNK, max(tops.values()) + 1), dtype=np.int64)
            r = np.outer(row.xi_f, qs)
            err = np.abs(r - np.rint(r))
            for k in open_:
                rows = err[:, : tops[k] + 1 - start]
                for i in np.flatnonzero((rows <= bands[k][:, None]).all(axis=0)):
                    q = start + int(i)  # exact test: the nearest p_i, each within its limit
                    near = [_nearest(q * a, denom) for a in row.nums]
                    if all(e * rate_den + q * u * denom <= lim
                           for (_, e), u, lim in zip(near, row.rates, limits[k])):
                        p = tuple(p + q * s for (p, _), s in zip(near, row.shift))
                        results[k] = WitnessResult(True, (q, p), q)
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


def box_point_search(query: DIQuery) -> WitnessResult:
    """Independent primal verdict: enumerate lattice points inside the box.

    The primal witnesses are the lattice points ``(xi . q - p, q)`` of the
    Dani lattice u(xi) diag(-1, 1, ..., 1), rows ``(-1, 0, ..., 0)`` and
    ``(xi_i, e_i)``, that lie in the box ``[-mu/prod N, mu/prod N] x
    prod [-N_i, N_i]`` with q nonzero.  The search writes the integer rows
    of D u(xi) diag(-1, 1, ..., 1) with D = 1 / half-widths, so the box
    becomes the unit cube (covolume 1/mu), brings them to lowest terms,
    reduces them with the integral LLL and walks every lattice point of the
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
    _check_budget(math.prod(2 * b + 1 for b in query.bounds))
    n = query.dimension
    dani = [(-1,) + (0,) * n] + [(0,) * i + (1,) + (0,) * (n - i) for i in range(1, n + 1)]
    # the common gcd of the raw rows runs to 52 bits on random float queries;
    # dividing it out keeps LLL on narrower integers
    (xnum,), xden = _scaled([query.xi])
    frame = _shear_frame([_ratio(1 / w) for w in widths], xden, dani)
    ints, denom = _lowest_terms(_shear_rows(frame, xnum), frame.common)
    red = lll_reduce(ints)
    cols = tuple(zip(*red.transform))
    # first coordinate of each reduced row, off the transform
    head = [row[0] for row in ints]
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


def rbar1(targets: Sequence[Sequence[int]]) -> Union[Q, float]:
    """Largest log(max N_i)/log(prod N_i) over the sequence of box sizes, each
    an integer >= 1 as in ``DIQuery``.

    Entries with prod N_i = 1 carry no information (both logs vanish) and are
    skipped.  When the winning ratio is a rational a/b certified by the
    integer identity max^b == prod^a, it is returned exactly as a Fraction;
    otherwise as the float of the logs.
    """
    entries = [_box_sizes(t) for t in targets]
    if not entries:
        raise ValueError("empty target sequence")
    n = len(entries[0])
    if any(len(t) != n for t in entries):
        raise ValueError("target tuples must share a length")

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
        return cand
    return best


# -- curve scans -------------------------------------------------------------------------


def _curve_xi(curve: CurveSpec, s: float) -> Tuple[Number, ...]:
    """Curve point as exact rationals when the curve is polynomial."""
    if curve.poly is not None:
        return tuple(Q(*_poly_ratio(coeffs, s)) for coeffs in curve.poly)
    return tuple(float(x) for x in curve.evaluate(s))


def curve_scan(
    curve: CurveSpec,
    interval: Tuple[float, float],
    prefix: Sequence[Sequence[int]],
    mu: float,
    s_grid: int,
) -> Tuple[Tuple[float, ...], List[Tuple[WitnessResult, WitnessResult]], float]:
    """Run both witness searches at every (grid point, target).

    One primal and one dual sweep take every (grid point, target) query, its
    box sizes as given.  Returns the grid points, the ``(primal, dual)`` pair
    of each query in (s, target) order, each what ``di_witness`` and
    ``di_dual_witness`` return for it alone, and the fraction of grid points
    at which every target admits witnesses in both forms.  A target over the
    search budget raises ``SearchBudgetError``.
    """
    targets = tuple(prefix)
    s_values = tuple(float(s) for s in np.linspace(interval[0], interval[1], s_grid))
    queries = [DIQuery(xi, bounds, mu)
               for xi in (_curve_xi(curve, s) for s in s_values) for bounds in targets]
    answers = list(zip(primal_sweep(queries), dual_sweep(queries)))
    width = len(targets)
    improvable = sum(all(a.found and b.found for a, b in answers[i : i + width])
                     for i in range(0, len(answers), width))
    return s_values, answers, improvable / len(s_values)
