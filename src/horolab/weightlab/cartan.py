"""Diagonal (Cartan) elements of sl(n+1) and weights in beta coordinates.

A weight is stored by its coefficients (m_1, ..., m_n) in the basis of the
functionals beta_i(diag(a_0, ..., a_n)) = a_0 - a_i.  Evaluation on any
traceless diagonal is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Sequence, Tuple


@dataclass(frozen=True)
class Weight:
    """A linear functional on traceless diagonals, in beta coordinates."""

    coeffs: Tuple[Q, ...]

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @staticmethod
    def zero(n: int) -> "Weight":
        return Weight(tuple(Q(0) for _ in range(n)))

    @staticmethod
    def from_eps(w: Sequence) -> "Weight":
        """Convert from epsilon coordinates.

        ``w`` has length n+1 and the functional is sum_j w_j eps_j where
        eps_j reads off the j-th diagonal entry.  On traceless diagonals
        this equals sum_i m_i beta_i with m_i = (sum_j w_j)/(n+1) - w_i.
        """
        ww = tuple(Q(x) for x in w)
        n = len(ww) - 1
        total = sum(ww)
        return Weight(tuple(total / (n + 1) - ww[i] for i in range(1, n + 1)))

    def evaluate(self, h_diag: Sequence) -> Q:
        """Value on the diagonal element with the given entries."""
        d = tuple(Q(x) for x in h_diag)
        if len(d) != self.n + 1:
            raise ValueError("diagonal has wrong size")
        return sum(m * (d[0] - d[i + 1]) for i, m in enumerate(self.coeffs))

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __repr__(self) -> str:
        return "Weight(" + ", ".join(str(c) for c in self.coeffs) + ")"


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
