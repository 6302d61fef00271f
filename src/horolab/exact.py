"""Dense exact linear algebra over the rationals.

Matrices are tuples of tuples of ``fractions.Fraction``, vectors are tuples.
Everything here is exact; the float layers elsewhere convert at the boundary.
Sizes stay small (desk scale), so no attempt is made at sparsity or pivoting
heuristics beyond what exactness requires.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Iterable, Sequence, Tuple

Vec = Tuple[Q, ...]
Mat = Tuple[Tuple[Q, ...], ...]


def vec(entries: Iterable) -> Vec:
    return tuple(Q(e) for e in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    out = tuple(tuple(Q(e) for e in row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged rows")
    return out


def identity(m: int) -> Mat:
    return tuple(tuple(Q(1) if i == j else Q(0) for j in range(m)) for i in range(m))


def diag(entries: Iterable) -> Mat:
    d = vec(entries)
    m = len(d)
    return tuple(tuple(d[i] if i == j else Q(0) for j in range(m)) for i in range(m))


def elementary(m: int, i: int, j: int, value=1) -> Mat:
    """Matrix with a single nonzero entry ``value`` at (i, j)."""
    v = Q(value)
    return tuple(
        tuple(v if (r, c) == (i, j) else Q(0) for c in range(m)) for r in range(m)
    )


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else a


def add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scale(c, a: Mat) -> Mat:
    cq = Q(c)
    return tuple(tuple(cq * x for x in row) for row in a)


def matmul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def matvec(a: Mat, v: Sequence) -> Vec:
    vv = vec(v)
    return tuple(sum(x * y for x, y in zip(row, vv)) for row in a)


def commutator(a: Mat, b: Mat) -> Mat:
    return sub(matmul(a, b), matmul(b, a))


def is_zero(a: Mat) -> bool:
    return all(x == 0 for row in a for x in row)


def det(a: Mat) -> Q:
    """Determinant by fraction-free-ish Gaussian elimination (exact)."""
    n = len(a)
    rows = [[Q(x) for x in r] for r in a]
    result = Q(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Q(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            result = -result
        p = rows[col][col]
        result *= p
        for r in range(col + 1, n):
            f = rows[r][col] / p
            if f == 0:
                continue
            for c in range(col, n):
                rows[r][c] -= f * rows[col][c]
    return result

def inverse(a: Mat) -> Mat:
    """Exact inverse via Gauss-Jordan; raises ValueError if singular."""
    n = len(a)
    rows = [
        [Q(x) for x in r] + [Q(1) if i == j else Q(0) for j in range(n)]
        for i, r in enumerate(a)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for r in range(n):
            if r == col or rows[r][col] == 0:
                continue
            f = rows[r][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return tuple(tuple(row[n:]) for row in rows)


def minor(a: Mat, row_idx: Sequence[int], col_idx: Sequence[int]) -> Q:
    """Determinant of the submatrix picked out by the given index tuples."""
    return det(tuple(tuple(a[r][c] for c in col_idx) for r in row_idx))
