"""Test-only lattice oracles and random bases.

A reduction-free shortest-vector scan to check ``latticelab`` against, the
shrinking-radius ball walk on a given record, the rows of a basis as
Fractions, and seeded random bases for the reduction and enumeration tests.
"""

import itertools
import math
from fractions import Fraction as Q
from operator import mul
from typing import List, Optional, Tuple

import numpy as np

from horolab import exact
from horolab.exact import IntRows, _bareiss_det
from horolab.latticelab import LatticeBasis, LatticeError, ReducedBasis, enumerate_ball
from horolab.rng import generator


def basis_rows(basis: LatticeBasis) -> Tuple[Tuple[Q, ...], ...]:
    """The generator rows of a basis as Fractions, ``ints / denom``."""
    return tuple(tuple(Q(a, basis.denom) for a in row) for row in basis.ints)


def brute_force_shortest(rows: IntRows, radius: Optional[float] = None) -> int:
    """Reduction-free oracle: the exact minimum of |v|^2 over the nonzero
    integer combinations v of independent integer rows, scanning every
    lattice point within a radius (by default the shortest row's length).

    Coefficient bounds come from the inverse rows (|c_i| <= r * column
    norm of B^{-1}), so the box is valid regardless of how skew the input
    rows are.  Exponential in dimension; a desk-scale check, not a
    production path.
    """
    d = len(rows)
    if radius is None:
        radius = math.sqrt(min(sum(map(mul, row, row)) for row in rows))
    inv = exact.inverse(rows)
    bounds = [
        int(math.ceil(radius * math.hypot(*(float(r[i]) for r in inv)))) + 1
        for i in range(d)
    ]
    cells = math.prod(2 * b + 1 for b in bounds)
    if cells > 5_000_000:
        raise LatticeError(f"oracle box too large ({cells} cells)")
    best: Optional[int] = None
    last, far = rows[-1], bounds[-1]
    last_sq = sum(map(mul, last, last))
    for head in itertools.product(*[range(-b, b + 1) for b in bounds[:-1]]):
        v = [sum(c * row[k] for c, row in zip(head, rows)) for k in range(d)]
        v_sq, v_last = sum(map(mul, v, v)), 2 * sum(map(mul, v, last))
        for c in range(-far, far + 1):
            nsq = v_sq + c * (v_last + c * last_sq)  # |v + c * last|^2
            if nsq and (best is None or nsq < best):
                best = nsq
    return best


def walk_minimum(red: ReducedBasis, radius: int) -> int:
    """The ball walk on a record with its radius shrunk to each shorter
    point found: the exact minimum of the nonzero |x|^2, given a radius at
    least that large."""
    best = radius

    def shorter(coords: List[int], norm: int) -> int:
        nonlocal best
        if 0 < norm < best:
            best = norm
        return best

    enumerate_ball(red, best, shorter)
    return best


def random_unimodular_basis(dim: int, seed: int, shears: int = 12) -> LatticeBasis:
    """Random product of integer shears and row swaps (determinant +-1).

    Integer unimodular bases generate Z^dim itself, so these exercise the
    reduction transform bookkeeping, not interesting systoles."""
    rng = generator(seed, "unimodular-basis")
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
    return LatticeBasis(tuple(map(tuple, rows)), 1)


def random_real_basis(dim: int, seed: int) -> LatticeBasis:
    """Gaussian basis rescaled to determinant +-1 (within float rounding)."""
    rng = generator(seed, "real-basis")
    while True:
        a = rng.normal(size=(dim, dim))
        det = float(np.linalg.det(a))
        if abs(det) > 0.1:
            break
    scale = Q(abs(det) ** (1.0 / dim))
    rows = tuple(tuple(Q(float(x)) / scale for x in row) for row in a)
    return LatticeBasis.from_rows(rows)
