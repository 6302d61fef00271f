"""Exact integers as int64 limbs, for numpy kernels whose integers outgrow int64.

An integer is written in K limbs of S bits, lowest first: the lower limbs in
[0, 2^S) and the top one signed.  Limbs run along the first axis and the
integers along the last.  numpy's ``>>`` floors, so ``carry`` brings limbs with
any int64 entries to that form without changing their value, and carried limbs
compare as their numbers do, top limb first.  The caller picks S so that no sum
it forms, nor a carry into it, passes 2^63 in magnitude.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def table(rows: Sequence[Sequence[int]], bits: int, counts: Sequence[int]) -> np.ndarray:
    """The limbs of every number of every row, ``counts[k]`` of them for row k,
    as an int64 array (number, limb, row); a row's limbs above its count are 0."""
    out = np.zeros((len(rows[0]), max(counts), len(rows)), dtype=np.int64)
    for k, (row, count) in enumerate(zip(rows, counts)):
        out[:, :count, k] = [[(x >> bits * j) & ((1 << bits) - 1) for j in range(count - 1)]
                             + [x >> bits * (count - 1)] for x in row]
    return out


def join(limbs: Sequence, bits: int) -> int:
    """The Python int that limbs write."""
    return sum(int(x) << bits * j for j, x in enumerate(limbs))


def carry(limbs: np.ndarray, bits: int) -> np.ndarray:
    """Bring every limb but the top one into [0, 2^bits), in place."""
    for low, high in zip(limbs, limbs[1:]):
        high += low >> bits
        low &= (1 << bits) - 1
    return limbs


def below(x: Sequence[np.ndarray], y: Sequence[np.ndarray], strict: bool) -> np.ndarray:
    """x < y (``strict``) or x <= y, for carried limbs."""
    out = x[0] < y[0] if strict else x[0] <= y[0]
    for a, b in zip(x[1:], y[1:]):
        out = (a < b) | ((a == b) & out)
    return out


def nearest_error(r: np.ndarray, d: np.ndarray, bits: int) -> np.ndarray:
    """min(|r|, d - |r|), carried, for limbs r of any int64 entries with
    |r| <= d; it is written over ``r``."""
    carry(r, bits)
    np.negative(r, out=r, where=r[-1] < 0)
    far = carry(d - carry(r, bits), bits)
    np.copyto(r, far, where=below(far, r, True))
    return r
