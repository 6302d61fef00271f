"""Constructors for the group and algebra elements used throughout.

All return exact rational matrices of size (n+1) x (n+1).  The index
convention is 0-based with slot 0 the distinguished first coordinate.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import List, Sequence

from .. import exact
from ..exact import Mat


def u_top(x: Sequence) -> Mat:
    """Unipotent with first row (1, x_1, ..., x_n), identity elsewhere."""
    xs = tuple(Q(v) for v in x)
    n = len(xs)
    rows = [[Q(1)] + list(xs)]
    for i in range(1, n + 1):
        rows.append([Q(1) if j == i else Q(0) for j in range(n + 1)])
    return exact.mat(rows)


def u_elem(n: int, i: int, j: int, c) -> Mat:
    """I + c * E_ij for i != j (a one parameter unipotent)."""
    if i == j:
        raise ValueError("need i != j")
    out = [[Q(1) if a == b else Q(0) for b in range(n + 1)] for a in range(n + 1)]
    out[i][j] = Q(c)
    return exact.mat(out)


def lower_ones(n: int) -> Mat:
    """Lower triangular matrix of ones on and below the diagonal."""
    return exact.mat(
        [[Q(1) if j <= i else Q(0) for j in range(n + 1)] for i in range(n + 1)]
    )


def upper_ones(n: int) -> Mat:
    return exact.transpose(lower_ones(n))


def sigma(n: int) -> Mat:
    """First row (0, ..., 0, 1); rows 1..n are -I_n padded with a zero column."""
    rows: List[List[Q]] = [[Q(0)] * n + [Q(1)]]
    for i in range(n):
        rows.append([Q(-1) if j == i else Q(0) for j in range(n + 1)])
    return exact.mat(rows)


def sigma_kappa(n: int, kappa) -> Mat:
    """The corner rotation sending the last basis vector to kappa times the
    first: entry (0, n) = kappa, (n, 0) = -1/kappa, identity in between."""
    k = Q(kappa)
    if k == 0:
        raise ValueError("kappa must be nonzero")
    rows = [[Q(0)] * (n + 1) for _ in range(n + 1)]
    rows[0][n] = k
    rows[n][0] = -1 / k
    for i in range(1, n):
        rows[i][i] = Q(1)
    return exact.mat(rows)


def a_x(x: Sequence) -> Mat:
    """diag(1, 1/x_1, ..., 1/x_n) for nonzero x_i."""
    xs = tuple(Q(v) for v in x)
    if any(v == 0 for v in xs):
        raise ValueError("all entries must be nonzero")
    return exact.diag((Q(1),) + tuple(1 / v for v in xs))


def corner_log_lower(n: int) -> Mat:
    """-log of the inverse of the all-ones lower triangular unipotent.

    Entry (k + i, i) equals 1/k; strictly lower triangular.
    """
    out = [[Q(0)] * (n + 1) for _ in range(n + 1)]
    for k in range(1, n + 1):
        for i in range(0, n + 1 - k):
            out[k + i][i] = Q(1, k)
    return exact.mat(out)


def w_limit(n: int, n0: int, kappa) -> Mat:
    """Limit translation element: the corner rotation when n0 = n, else the
    unipotent with kappa in the last slot of the first row."""
    if n0 == n:
        return sigma_kappa(n, kappa)
    return u_top(tuple(Q(0) for _ in range(n - 1)) + (Q(kappa),))
