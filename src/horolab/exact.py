"""Dense exact linear algebra over the rationals.

Matrices are tuples of tuples of ``fractions.Fraction``, vectors are tuples.
Everything here is exact; the float layers elsewhere convert at the boundary.
Sizes stay small (desk scale), so no attempt is made at sparsity or pivoting
heuristics beyond what exactness requires.

Products, determinants and inverses compute on integer rows over one common
denominator (``_scaled``) with fraction-free (Bareiss) elimination, and build
one normalised ``Fraction`` per result entry.  ``_scaled`` and the integer
kernels (``_imul``, ``_imatvec``, ``_inverse_ints``, ``_bareiss_det``) are the
package's one integer-over-denominator form.  The ``latticelab`` bases use it,
and so do the ``weightlab`` vectors and vector rules, which stay integer rows
over one denominator and never pass through ``Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from operator import mul
from typing import Iterable, List, Sequence, Tuple

Vec = Tuple[Q, ...]
Mat = Tuple[Tuple[Q, ...], ...]
IntRows = Tuple[Tuple[int, ...], ...]


def _q(x) -> Q:
    return x if type(x) is Q else Q(x)


def vec(entries: Iterable) -> Vec:
    return tuple(map(_q, entries))


def mat(rows: Iterable[Iterable]) -> Mat:
    out = tuple(tuple(map(_q, row)) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged rows")
    return out


# -- integer rows over one common denominator ----------------------------------


def _ratio(x) -> Tuple[int, int]:
    """Numerator and denominator of an exact number or a float, as ints."""
    # Fraction is tested by exact type: an isinstance test against it (an
    # abstract base class) costs more than the rest of this function
    t = type(x)
    if t is int:
        return x, 1
    if t is Q or isinstance(x, float):  # numpy floats included
        return x.as_integer_ratio()
    a, b = Q(x).as_integer_ratio()
    return int(a), int(b)  # a numpy integer would wrap around in products


def _scaled(rows) -> Tuple[IntRows, int]:
    """Exact rows as integer rows over the lcm of their denominators."""
    # the common entries skip the call to _ratio
    ratios = [
        [c.as_integer_ratio() if type(c) is Q or isinstance(c, float) else _ratio(c)
         for c in row]
        for row in rows
    ]
    denom = math.lcm(*(b for row in ratios for _, b in row))
    return tuple(tuple(a * (denom // b) for a, b in row) for row in ratios), denom


def _imul(a: IntRows, b: IntRows) -> IntRows:
    """Product of integer matrices."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _ibracket(a: IntRows, b: IntRows) -> IntRows:
    """ab - ba for integer matrices."""
    return tuple(
        tuple(x - y for x, y in zip(r, s)) for r, s in zip(_imul(a, b), _imul(b, a))
    )


_ZERO = Q(0)


def _over(ints: IntRows, denom: int) -> Mat:
    """The rational matrix ``ints / denom``; its zero entries share one
    Fraction, which is immutable."""
    return tuple(tuple(Q(a, denom) if a else _ZERO for a in row) for row in ints)


def _imatvec(a: IntRows, w: Sequence[int]) -> List[int]:
    """Integer matrix times integer vector."""
    return [sum(map(mul, row, w)) for row in a]


def _bareiss_det(rows: IntRows) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


# -- rational kernels ---------------------------------------------------------


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
    ai, ad = _scaled(a)
    bi, bd = _scaled(b)
    return _over(_imul(ai, bi), ad * bd)


def commutator(a: Mat, b: Mat) -> Mat:
    ai, ad = _scaled(a)
    bi, bd = _scaled(b)
    return _over(_ibracket(ai, bi), ad * bd)


def is_zero(a: Mat) -> bool:
    return all(x == 0 for row in a for x in row)


def det(a: Mat) -> Q:
    """Exact determinant: Bareiss elimination on the scaled integer rows."""
    ints, d = _scaled(a)
    return Q(_bareiss_det(ints), d ** len(ints))


def _inverse_ints(ints: IntRows, d: int) -> Tuple[IntRows, int]:
    """Integer rows B and p with (ints / d)^-1 = B / p; ValueError if singular.

    Fraction-free Gauss-Jordan on [ints | d I]: every division is exact, and
    the left half ends as p I with p the last pivot (+-det of ints).
    """
    n = len(ints)
    rows = [list(r) + [d if i == j else 0 for j in range(n)] for i, r in enumerate(ints)]
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        p = top[k]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = p
    return tuple(tuple(row[n:]) for row in rows), prev


def inverse(a: Mat) -> Mat:
    """Exact inverse by fraction-free Gauss-Jordan; raises ValueError if singular."""
    return _over(*_inverse_ints(*_scaled(a)))
