"""Exact weight-combinatorics checks for unipotent translates.

The central object: given an eigenvector v of the principal diagonal element
and a translation u(x) with all x_i nonzero, classify which weights survive
in u(x) v and certify the sign and equality structure of their values
against the block diagonal elements.  Everything is exact rational
arithmetic; conclusions about invariance are cross-checked by the derived
action, never inferred.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Sequence, Tuple, Union

import numpy as np

from .. import exact
from ..exact import Mat
from . import modules
from .cartan import h_block, sl2_coroot
from .groups import u_elem, u_top
from .modules import (
    ModuleVector,
    WeightModule,
    act,
    act_algebra,
    support_indices,
)

SubgroupSpec = Union[str, Tuple[str, int]]


def subgroup_generators(n: int, spec: SubgroupSpec) -> Tuple[Mat, ...]:
    """Lie algebra generators (as matrices) for the named subgroup.

    ("G", n0) is the block upper subgroup whose rows past n0 are standard
    basis rows, and "G" = ("G", n) the full group; ("Q", n0) is its
    intersection with the stabilizer "Q" = ("Q", n) of the last basis
    vector; ("sl2", i) is the rank one subgroup through slot i.
    """
    if spec in ("G", "Q"):
        spec = (spec, n)
    if not (isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[1], int)):
        raise ValueError(f"unknown subgroup: {spec!r}")
    name, m = spec
    if name in ("G", "Q"):
        if not 0 <= m <= n:
            raise ValueError(f"block size {m} out of range")
        cols = n + 1 if name == "G" else n
        return tuple(
            exact.elementary(n + 1, i, j)
            for i in range(m + 1)
            for j in range(cols)
            if i != j
        )
    if name == "sl2":
        if not 1 <= m <= n:
            raise ValueError(f"slot {m} out of range")
        return (exact.elementary(n + 1, 0, m), exact.elementary(n + 1, m, 0))
    raise ValueError(f"unknown subgroup: {spec!r}")


def fixed_check(v: ModuleVector, subgroup: SubgroupSpec) -> bool:
    """Whether the derived action of every generator kills v (exact)."""
    for x in subgroup_generators(v.module.n, subgroup):
        if not act_algebra(x, v).is_zero():
            return False
    return True


# -- S-set classification -------------------------------------------------------


@dataclass
class SSetReport:
    """Outcome of the weight-support classification of u(x) v.

    Each support weight of u(x) v has a level (its value on the principal
    element minus the eigenvalue b of v) and, for k = 1..n, a margin (its
    value on the size-k block element minus that level).  s_n holds the
    weights with a nonnegative size-n margin, s_all those with every margin
    nonnegative.  ``consistent`` says that each equality case forces the
    matching invariance of v, checked by the derived action.
    """

    nonneg_levels: bool
    s_n_nonempty: bool
    s_all_nonempty: bool
    consistent: bool


def s_sets(v: ModuleVector, x: Sequence) -> SSetReport:
    """Classify the weight support of u(x) v for an eigenvector v.

    Preconditions checked exactly: v nonzero, v an eigenvector of the
    principal diagonal element, all entries of x nonzero.
    """
    mod = v.module
    n = mod.n
    xs = tuple(Q(c) for c in x)
    if len(xs) != n:
        raise ValueError(f"x must have length {n}")
    if any(c == 0 for c in xs):
        raise ValueError("all entries of x must be nonzero")
    if v.is_zero():
        raise ValueError("v must be nonzero")
    own_levels = {lev for lev, c in zip(mod.levels, v.coords) if c != 0}
    if len(own_levels) != 1:
        raise ValueError("v is not an eigenvector of the principal element")
    b = own_levels.pop()

    idx = support_indices(act(u_top(xs), v))
    blocks = [mod.grading(h_block(n, k)) for k in range(1, n + 1)]
    levels = [mod.levels[i] - b for i in idx]
    margins = [[block[i] - lev for block in blocks] for i, lev in zip(idx, levels)]
    s_n = [m for m, row in enumerate(margins) if row[n - 1] >= 0]
    s_all = [m for m, row in enumerate(margins) if min(row) >= 0]

    # flat case: every index of s_n has zero block-n margin and zero level;
    # then v is fixed by the full group
    flat = bool(s_n) and all(margins[m][n - 1] == 0 and levels[m] == 0 for m in s_n)
    consistent = not flat or fixed_check(v, "G")
    # equality pairs (j, n0) over the full intersection: v is fixed by the
    # parabolic block n0, and by the block n0 itself when every level is zero
    if s_all:
        zero_levels = all(levels[m] == 0 for m in s_all)
        for j in range(1, n):
            for n0 in range(j, n + 1):
                if all(margins[m][j - 1] == 0 and margins[m][n0 - 1] == 0 for m in s_all):
                    consistent = (consistent and fixed_check(v, ("Q", n0))
                                  and (not zero_levels or fixed_check(v, ("G", n0))))

    return SSetReport(
        nonneg_levels=all(lev >= 0 for lev in levels),
        s_n_nonempty=bool(s_n),
        s_all_nonempty=bool(s_all),
        consistent=consistent,
    )


# -- rank one max-level check ----------------------------------------------------


@dataclass
class Sl2Report:
    """Top levels of v and of its translate under the slot coroot, whether
    they sum to zero, and whether every part of the check held."""

    lam_max_v: Q
    lam_max_w: Q
    equality: bool
    ok: bool


def _sigma1(n: int, i: int, r: Q) -> Mat:
    rows = [[Q(1) if a == b else Q(0) for b in range(n + 1)] for a in range(n + 1)]
    rows[0][0] = Q(0)
    rows[i][i] = Q(0)
    rows[0][i] = r
    rows[i][0] = -1 / r
    return exact.mat(rows)


def _sl2_rules(mod: WeightModule, i: int, r: Q) -> tuple:
    """Rules of u(r E_0i), u(-E_i0 / r) and sigma_1 at slot i and derived
    rules of E_i0 and E_0i, built once per (module, slot, r)."""
    rules = mod._rules.get(("sl2", i, r))
    if rules is None:
        n = mod.n
        groups = (u_elem(n, 0, i, r), u_elem(n, i, 0, -1 / r), _sigma1(n, i, r))
        algebra = (exact.elementary(n + 1, i, 0), exact.elementary(n + 1, 0, i))
        rules = mod._rules["sl2", i, r] = tuple(
            [modules._group_rule(mod, g) for g in groups]
            + [modules._algebra_rule(mod, x) for x in algebra])
    return rules


def _level_max(v: ModuleVector, a_diag) -> Q:
    vals = [lev for lev, c in zip(v.module.grading(a_diag), v.coords) if c != 0]
    if not vals:
        raise ValueError("zero vector has no top level")
    return max(vals)


def _level_component(v: ModuleVector, a_diag, level: Q) -> ModuleVector:
    coords = tuple(
        c if (c != 0 and lev == level) else Q(0)
        for c, lev in zip(v.coords, v.module.grading(a_diag))
    )
    return ModuleVector(v.module, coords)


def sl2_maxweight_check(i: int, r, v: ModuleVector) -> Sl2Report:
    """Certify the top-level inequality for the rank one subgroup at slot i.

    Computes the top level of v and of u(r e_i) v for the grading by the slot
    coroot, checks that the two top levels sum to something nonnegative, and
    checks that equality happens exactly when v is recovered from the lower
    unipotent applied to its own top component while the translate's top
    component is the rotated top component.
    """
    rq = Q(r)
    if rq == 0:
        raise ValueError("r must be nonzero")
    mod = v.module
    n = mod.n
    if v.is_zero():
        raise ValueError("v must be nonzero")
    a = sl2_coroot(n, i)
    up, down, sigma, lower, upper = _sl2_rules(mod, i, rq)
    lam_v = _level_max(v, a)
    w = ModuleVector(mod, up(v.coords))
    lam_w = _level_max(w, a)
    equality = lam_w + lam_v == 0

    # equality happens exactly when v is recovered from its top component
    # and the translate's top component is the rotated top component
    v_max = _level_component(v, a, lam_v)
    w_max = _level_component(w, a, lam_w)
    recovered = down(v_max.coords) == v.coords
    rotated_top = sigma(v_max.coords) == w_max.coords
    ok = lam_w + lam_v >= 0 and equality == (recovered and rotated_top)

    # for an eigenvector of the coroot, equality, equal levels and both
    # levels zero are the invariances under the lower, upper and both
    # unipotents; in the equality case the translate's top is the rotated v
    if len({lev for lev, c in zip(mod.grading(a), v.coords) if c != 0}) == 1:
        fixed_lower = not any(lower(v.coords))
        fixed_upper = not any(upper(v.coords))
        ok = (ok and equality == fixed_lower
              and equality == (sigma(v.coords) == w_max.coords)
              and (lam_w == lam_v) == fixed_upper
              and (lam_v == 0 and lam_w == 0) == (fixed_lower and fixed_upper))
    return Sl2Report(lam_max_v=lam_v, lam_max_w=lam_w, equality=equality, ok=ok)


# -- lower estimate for the surviving component ------------------------------------


def delta_plus_indices(module: WeightModule, b: Q) -> Tuple[int, ...]:
    """Basis indices whose weight mu has mu(principal) - b >= 0 and
    nonnegative margin against every block element."""
    blocks = [module.grading(h_block(module.n, k)) for k in range(1, module.n + 1)]
    out = []
    for idx, level in enumerate(module.levels):
        lev = level - b
        if lev < 0:
            continue
        if all(block[idx] - lev >= 0 for block in blocks):
            out.append(idx)
    return tuple(out)


def level_indices(module: WeightModule, b: Q) -> Tuple[int, ...]:
    return tuple(idx for idx, level in enumerate(module.levels) if level == b)


# Ticks per free coordinate on each face of the unit cube in estimate_D1.
_FACE_DENSITY = 7


def estimate_D1(module: WeightModule, b, x: Sequence) -> float:
    """Grid estimate of the smallest surviving component norm.

    Over unit sup-norm vectors v in the level-b eigenspace, estimates the
    minimum of the sup norm of the projection of u(x) v onto the weights
    with nonnegative level and nonnegative block margins.  The grid walks
    the faces of the unit cube (one coordinate pinned to +-1, the others on
    a uniform grid of _FACE_DENSITY ticks), so the returned value is an upper
    estimate of the true infimum; the infimum is positive whenever x has no
    zero entries.
    """
    bq = Q(b)
    rows = delta_plus_indices(module, bq)
    cols = level_indices(module, bq)
    if not cols:
        raise ValueError("no weights at the requested level")
    if not rows:
        raise ValueError("no admissible weights at this level")
    xs = tuple(Q(c) for c in x)
    if any(c == 0 for c in xs):
        raise ValueError("all entries of x must be nonzero")
    rho = module.group_action(u_top(xs))
    m = np.array(
        [[float(rho[a][c]) for c in cols] for a in rows]
    )
    dim = len(cols)
    if dim == 1:
        return float(np.abs(m[:, 0]).max())

    density = _FACE_DENSITY
    # keep the face grid affordable for wide levels
    while 2 * dim * density ** (dim - 1) > 250_000 and density > 2:
        density -= 1
    ticks = np.linspace(-1.0, 1.0, density)
    best = np.inf
    for face in range(dim):
        for sign in (1.0, -1.0):
            for rest in itertools.product(ticks, repeat=dim - 1):
                vec = np.empty(dim)
                vec[face] = sign
                pos = 0
                for j in range(dim):
                    if j == face:
                        continue
                    vec[j] = rest[pos]
                    pos += 1
                best = min(best, np.abs(m @ vec).max())
    return float(best)
