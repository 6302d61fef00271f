"""Diagonal (Cartan) elements of sl(n+1), as exact rational diagonals.

Weights are read in the functionals beta_i(diag(a_0, ..., a_n)) = a_0 - a_i
(see ``modules.WeightModule``); these are the diagonals they are evaluated on.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Tuple


def h_principal(n: int) -> Tuple[Q, ...]:
    """diag(n/2, n/2 - 1, ..., n/2 - n); satisfies beta_i value i."""
    return tuple(Q(n, 2) - j for j in range(n + 1))


def h_block(n: int, k: int) -> Tuple[Q, ...]:
    """diag(n, -n/k, ..., -n/k, 0, ..., 0) with k copies of -n/k."""
    if not 1 <= k <= n:
        raise ValueError(f"block size {k} out of range for n={n}")
    return (Q(n),) + tuple(Q(-n, k) for _ in range(k)) + tuple(
        Q(0) for _ in range(n - k)
    )


def sl2_coroot(n: int, i: int) -> Tuple[Q, ...]:
    """diag with 1 in slot 0, -1 in slot i, zeros elsewhere (1 <= i <= n)."""
    if not 1 <= i <= n:
        raise ValueError(f"slot {i} out of range for n={n}")
    return tuple(
        Q(1) if j == 0 else (Q(-1) if j == i else Q(0)) for j in range(n + 1)
    )


def h_last_row(n: int) -> Tuple[Q, ...]:
    """diag(1, ..., 1, -n); its ad-eigenvalue is -(n+1) exactly on the
    bottom row positions and nonnegative everywhere else."""
    return tuple(Q(1) for _ in range(n)) + (Q(-n),)
