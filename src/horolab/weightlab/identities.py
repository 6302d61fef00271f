"""A suite of exact matrix and module identities, all over the rationals.

Every item either passes with zero residue or reports the first offending
entry.  Nothing here uses floats, tolerances, or randomness; sample data is
small and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import List, Tuple

from .. import exact
from ..exact import Mat
from .cartan import h_block, h_principal, h_last_row
from .groups import (
    a_x,
    corner_log_lower,
    lower_ones,
    sigma,
    sigma_kappa,
    u_elem,
    u_top,
    upper_ones,
)
from . import modules
from .modules import basis_vector, build_module, extreme_part, vector


@dataclass
class IdentityItem:
    name: str
    passed: bool
    detail: str = ""


def _mismatch(a: Mat, b: Mat, label: str = "") -> List[str]:
    """The first differing entry of a and b as a one-item list, [] if a == b."""
    for i, (ra, rb) in enumerate(zip(a, b)):
        for j, (x, y) in enumerate(zip(ra, rb)):
            if x != y:
                return [f"{label}entry ({i},{j}): {x} vs {y}"]
    return []


def _exp_nilpotent(x: Mat) -> Mat:
    """exp of a nilpotent rational matrix by its finite series."""
    m = len(x)
    out = exact.identity(m)
    term = exact.identity(m)
    for k in range(1, m + 1):
        term = exact.scale(Q(1, k), exact.matmul(term, x))
        if exact.is_zero(term):
            break
        out = exact.add(out, term)
    return out


def _conj_principal_scaling(m: Mat, h: Q) -> Mat:
    """Conjugation by the principal scaling with ratio h.

    Entry (a, b) picks up the factor h^(a-b); exact for rational h != 0.
    """
    size = len(m)
    return tuple(
        tuple(m[a][b] * h ** (a - b) for b in range(size)) for a in range(size)
    )


def _ones_factorization(n: int) -> List[str]:
    """All-ones top unipotent equals corner rotation times inverse
    upper-ones times lower-ones."""
    lhs = u_top(tuple(Q(1) for _ in range(n)))
    rhs = exact.matmul(
        exact.matmul(sigma(n), exact.inverse(upper_ones(n))), lower_ones(n)
    )
    return _mismatch(lhs, rhs)


def _corner_reflection_conjugate(n: int) -> List[str]:
    """Full block element minus principal element equals minus the
    corner-rotated principal element."""
    s = sigma(n)
    hc = exact.diag(h_principal(n))
    hn = exact.diag(h_block(n, n))
    lhs = exact.sub(hn, hc)
    rhs = exact.scale(-1, exact.matmul(exact.matmul(s, hc), exact.inverse(s)))
    return _mismatch(lhs, rhs)


def _scaling_normalizes_tail(n: int) -> List[str]:
    """Conjugating the degree-weighted top unipotent by the principal
    scaling strips all scale factors."""
    failures = []
    for h in (Q(1, 2), Q(3, 7), Q(-2, 5)):
        for c_seed in (1, 2):
            c = tuple(Q((-1) ** (i + c_seed) * (i + c_seed), i + 2) for i in range(1, n + 1))
            tail = tuple(ci * h ** i for i, ci in enumerate(c, start=1))
            conj = _conj_principal_scaling(u_top(tail), h)
            failures += _mismatch(conj, u_top(c), f"h={h}: ")
    # the exponent shift a - b is exactly the coordinate degree, which is
    # what makes the h powers cancel; record that the shift matches the
    # principal values too
    hp = h_principal(n)
    for i in range(1, n + 1):
        if hp[0] - hp[i] != i:
            failures.append(f"principal value at slot {i} is {hp[0] - hp[i]}, not {i}")
    return failures


def _diagonal_rescaling(n: int) -> List[str]:
    """Conjugation by diag(1, 1/x) turns the all-ones top row into x and
    scales each elementary matrix by the slot ratio."""
    failures = []
    samples = [
        tuple(Q(i + 1) for i in range(n)),
        tuple(Q((-1) ** i * (2 * i + 1), 2) for i in range(n)),
        tuple(Q(3, i + 2) for i in range(n)),
    ]
    for x in samples:
        d = a_x(x)
        d_inv = exact.inverse(d)
        lhs = exact.matmul(exact.matmul(d, u_top(tuple(Q(1) for _ in range(n)))), d_inv)
        failures += _mismatch(lhs, u_top(x), f"x={x}: ")
        # elementary scaling factors under the same conjugation
        ext = (Q(1),) + tuple(d[i][i] for i in range(1, n + 1))
        for i in range(n + 1):
            for j in range(n + 1):
                if i == j:
                    continue
                got = exact.matmul(exact.matmul(d, exact.elementary(n + 1, i, j)), d_inv)
                want = exact.elementary(n + 1, i, j, ext[i] / ext[j])
                failures += _mismatch(got, want, f"x={x}, E({i},{j}): ")
    return failures


def _corner_to_bottom_row(n: int) -> List[str]:
    """Corner rotation carries the slot-1 top unipotent to a bottom-row
    unipotent with ratio -zeta/kappa (n >= 2)."""
    failures = []
    for kappa in (Q(1), Q(2, 3), Q(-5, 4)):
        for zeta in (Q(1), Q(-3, 2)):
            s = sigma_kappa(n, kappa)
            lhs = exact.matmul(
                exact.matmul(s, u_elem(n, 0, 1, zeta)), exact.inverse(s)
            )
            rhs = u_elem(n, n, 1, -zeta / kappa)
            failures += _mismatch(lhs, rhs, f"kappa={kappa}, zeta={zeta}: ")
    return failures


def _bottom_row_brackets(n: int) -> List[str]:
    """Iterated brackets of the lower-ones log against the last-row
    grading element sweep out the whole bottom row."""
    x = corner_log_lower(n)
    # x really is the log of the all-ones lower unipotent
    failures = _mismatch(_exp_nilpotent(x), lower_ones(n), "exp mismatch: ")
    h = exact.diag(h_last_row(n))
    y = exact.scale(Q(-1, n + 1), exact.commutator(h, x))
    expected_first = tuple(
        tuple(
            Q(1, n - j) if (i == n and j < n) else Q(0)
            for j in range(n + 1)
        )
        for i in range(n + 1)
    )
    failures += _mismatch(y, expected_first, "first bracket: ")
    ys = [y]
    for k in range(2, n + 1):
        prev = ys[-1]
        if not exact.is_zero(exact.matmul(x, prev)):
            failures.append(f"x * y_{k-1} is nonzero")
        nxt = exact.commutator(prev, x)
        for i in range(n):
            if any(c != 0 for c in nxt[i]):
                failures.append(f"y_{k} has support off the bottom row (row {i})")
                break
        for j in range(n + 1 - k, n + 1):
            if nxt[n][j] != 0:
                failures.append(f"y_{k} column {j} should vanish")
        if nxt[n][n - k] != 1:
            failures.append(f"y_{k} entry (n, n-{k}) is {nxt[n][n - k]}, not 1")
        ys.append(nxt)
    span = tuple(tuple(yk[n][j] for j in range(n)) for yk in ys)
    if exact.det(span) == 0:
        failures.append("bottom-row vectors do not span")
    # the bottom row is exactly the strictly contracted part of the grading
    d = h_last_row(n)
    for i in range(n + 1):
        for j in range(n + 1):
            if i == j:
                continue
            negative = d[i] - d[j] < 0
            if negative != (i == n and j < n):
                failures.append(f"grading sign unexpected at ({i},{j})")
    return failures


def _triangular_preserves_extreme_level(n: int) -> List[str]:
    """Upper unipotents fix the lowest level and its component; lower
    unipotents fix the highest."""
    failures = []
    kinds = ["standard", "exterior(2)", "adjoint"] if n >= 2 else ["standard", "adjoint"]
    uppers = [
        u_top(tuple(Q(1) for _ in range(n))),
        u_top(tuple(Q(-2 + i, 3) if i != 2 - n else Q(1, 2) for i in range(n))),
    ]
    if n >= 2:
        uppers.append(exact.matmul(u_elem(n, 0, 1, Q(3, 2)), u_elem(n, 1, 2, Q(-1))))
    # (pick, elements, what moved): uppers keep the bottom, lowers the top
    moves = ((min, uppers, "upper move shifted the bottom level"),
             (max, [exact.transpose(g) for g in uppers], "lower move shifted the top level"))
    for kind in kinds:
        mod = build_module(kind, n)
        levels, _ = mod.grading(h_principal(n))
        samples = [basis_vector(mod, 0),
                   vector(mod, [Q((-1) ** i * (i + 1), 2) for i in range(mod.dim)]),
                   vector(mod, [int(i % 3 == 0) for i in range(mod.dim)])]
        for pick, elements, what in moves:
            # one rule per element, applied to every sample
            for rule in [modules._group_rule(mod, *exact._scaled(g)) for g in elements]:
                for v in samples:
                    moved = modules._apply_rule(rule, v)
                    if extreme_part(moved, levels, pick) != extreme_part(v, levels, pick):
                        failures.append(f"{kind}: {what}")
    return sorted(set(failures))


# every identity by name; each check returns its failures, [] when it holds
_CHECKS = (
    ("ones_factorization", _ones_factorization),
    ("corner_reflection_conjugate", _corner_reflection_conjugate),
    ("scaling_normalizes_tail", _scaling_normalizes_tail),
    ("diagonal_rescaling", _diagonal_rescaling),
    ("corner_to_bottom_row", _corner_to_bottom_row),
    ("bottom_row_brackets", _bottom_row_brackets),
    ("triangular_preserves_extreme_level", _triangular_preserves_extreme_level),
)


def identity_suite(n: int) -> Tuple[IdentityItem, ...]:
    """Run every identity check for the given rank, 1 <= n <= 6."""
    if not 1 <= n <= 6:
        raise ValueError("suite supports 1 <= n <= 6")
    items = []
    for name, check in _CHECKS:
        if name == "corner_to_bottom_row" and n == 1:
            items.append(IdentityItem(
                name, True, "vacuous for n=1 (slot 1 and the bottom row coincide)"))
            continue
        failures = check(n)
        items.append(IdentityItem(name, not failures, "; ".join(failures)))
    return tuple(items)
