"""Exact weight-combinatorics checks for unipotent translates.

The central object: given an eigenvector v of the principal diagonal element
and a translation u(x) with all x_i nonzero, classify which weights survive
in u(x) v and certify the sign and equality structure of their values
against the block diagonal elements.  Everything is exact: vectors, rules
and levels are integers over one denominator each, so no check builds a
``Fraction`` per rule application.  Conclusions about invariance are
cross-checked by the derived action, never inferred.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Sequence, Tuple, Union

import numpy as np

from .. import exact
from ..exact import IntRows
from .cartan import h_block, h_principal, sl2_coroot
from .groups import u_top
from . import modules
from .modules import ModuleVector, WeightModule, extreme_part, support_indices

SubgroupSpec = Union[str, Tuple[str, int]]


def _generator_slots(n: int, spec: SubgroupSpec) -> Tuple[Tuple[int, int], ...]:
    """The positions (i, j) of the elementary generators E_ij of a subgroup.

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
        return tuple((i, j) for i in range(m + 1) for j in range(cols) if i != j)
    if name == "sl2":
        if not 1 <= m <= n:
            raise ValueError(f"slot {m} out of range")
        return ((0, m), (m, 0))
    raise ValueError(f"unknown subgroup: {spec!r}")


def _rows(m: int, diag: int, entries: dict) -> IntRows:
    """Integer rows of size m: diag on the diagonal, then the given entries."""
    rows = [[diag * (a == b) for b in range(m)] for a in range(m)]
    for (a, b), c in entries.items():
        rows[a][b] = c
    return rows


def fixed_check(v: ModuleVector, subgroup: SubgroupSpec) -> bool:
    """Whether the derived action of every generator kills v (exact)."""
    mod = v.module
    slots = _generator_slots(mod.n, subgroup)
    images = mod._cache.get(slots)
    if images is None:
        images = mod._cache[slots] = tuple(
            modules._algebra_rule(mod, _rows(mod.n + 1, 0, {(i, j): 1}), 1)[0]
            for i, j in slots)
    return not any(any(image(v.ints)) for image in images)


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


def _block_levels(mod: WeightModule) -> Tuple[IntRows, int]:
    """The principal levels and the gradings of the block elements k = 1..n,
    as integer rows over one denominator, built once per module."""
    out = mod._cache.get("blocks")
    if out is None:
        n = mod.n
        gradings = [mod.grading(h_principal(n))]
        gradings += [mod.grading(h_block(n, k)) for k in range(1, n + 1)]
        d = math.lcm(*(gd for _, gd in gradings))
        out = mod._cache["blocks"] = (
            tuple(tuple(a * (d // gd) for a in g) for g, gd in gradings), d)
    return out


def s_sets(v: ModuleVector, x: Sequence) -> SSetReport:
    """Classify the weight support of u(x) v for an eigenvector v.

    Preconditions checked exactly: v nonzero, v an eigenvector of the
    principal diagonal element, all entries of x nonzero.
    """
    mod = v.module
    n = mod.n
    (xi,), xd = exact._scaled((x,))
    if len(xi) != n:
        raise ValueError(f"x must have length {n}")
    if not all(xi):
        raise ValueError("all entries of x must be nonzero")
    if v.is_zero():
        raise ValueError("v must be nonzero")
    (principal, *blocks), _ = _block_levels(mod)
    own_levels = {lev for lev, c in zip(principal, v.ints) if c}
    if len(own_levels) != 1:
        raise ValueError("v is not an eigenvector of the principal element")
    b = own_levels.pop()

    top = _rows(n + 1, xd, {(0, j): c for j, c in enumerate(xi, 1)})  # u(x) over xd
    idx = support_indices(modules._apply_rule(modules._group_rule(mod, top, xd), v))
    levels = [principal[i] - b for i in idx]
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


def _sl2_rules(mod: WeightModule, i: int, r: Q) -> tuple:
    """Rules of u(r E_0i), u(-E_i0 / r) and sigma_1, the corner rotation
    with r at (0, i) and -1/r at (i, 0), at slot i; built once per (module,
    slot, r) from integer rows."""
    rules = mod._cache.get(("sl2", i, r))
    if rules is None:
        m = mod.n + 1
        p, q = r.as_integer_ratio()
        a, s = abs(p), (1 if p > 0 else -1)  # r = p / q and -1 / r = -s q / a
        groups = ((_rows(m, q, {(0, i): p}), q), (_rows(m, a, {(i, 0): -s * q}), a),
                  (_rows(m, q * a, {(0, 0): 0, (i, i): 0, (0, i): p * a, (i, 0): -s * q * q}),
                   q * a))
        rules = mod._cache["sl2", i, r] = tuple(modules._group_rule(mod, *g) for g in groups)
    return rules


def _sl2_algebra_rules(mod: WeightModule, i: int) -> tuple:
    """Derived rules of E_i0 and E_0i, built once per (module, slot)."""
    rules = mod._cache.get(("sl2", i))
    if rules is None:
        m = mod.n + 1
        rules = mod._cache["sl2", i] = (modules._algebra_rule(mod, _rows(m, 0, {(i, 0): 1}), 1),
                                        modules._algebra_rule(mod, _rows(m, 0, {(0, i): 1}), 1))
    return rules


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
    if v.is_zero():
        raise ValueError("v must be nonzero")
    levels, d = mod.grading(sl2_coroot(mod.n, i))
    up, down, sigma = _sl2_rules(mod, i, rq)
    w = modules._apply_rule(up, v)
    lam_v, v_max = extreme_part(v, levels)
    lam_w, w_max = extreme_part(w, levels)
    equality = lam_w + lam_v == 0

    # equality happens exactly when v is recovered from its top component
    # and the translate's top component is the rotated top component
    recovered = modules._apply_rule(down, v_max) == v
    rotated_top = modules._apply_rule(sigma, v_max) == w_max
    ok = lam_w + lam_v >= 0 and equality == (recovered and rotated_top)

    # for an eigenvector of the coroot, equality, equal levels and both
    # levels zero are the invariances under the lower, upper and both
    # unipotents; in the equality case the translate's top is the rotated v
    if v_max == v:
        (lower, _), (upper, _) = _sl2_algebra_rules(mod, i)
        fixed_lower = not any(lower(v.ints))
        fixed_upper = not any(upper(v.ints))
        ok = (ok and equality == fixed_lower
              and equality == (modules._apply_rule(sigma, v) == w_max)
              and (lam_w == lam_v) == fixed_upper
              and (lam_v == 0 and lam_w == 0) == (fixed_lower and fixed_upper))
    return Sl2Report(lam_max_v=Q(lam_v, d), lam_max_w=Q(lam_w, d), equality=equality, ok=ok)


# -- lower estimate for the surviving component ------------------------------------


def delta_plus_indices(module: WeightModule, b: Q) -> Tuple[int, ...]:
    """Basis indices whose weight mu has mu(principal) - b >= 0 and
    nonnegative margin against every block element."""
    (principal, *blocks), d = _block_levels(module)
    bn, bd = b.as_integer_ratio()
    out = []
    for idx, level in enumerate(principal):
        lev = level * bd - bn * d  # mu(principal) - b, over d * bd
        if lev >= 0 and all(block[idx] * bd - lev >= 0 for block in blocks):
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
    rest = np.array(list(itertools.product(np.linspace(-1.0, 1.0, density), repeat=dim - 1)))
    points = np.concatenate([np.insert(rest, face, sign, axis=1)
                             for face in range(dim) for sign in (1.0, -1.0)])
    # one matrix-vector product per point, as m @ point rounds it
    return float(np.abs(m @ points[..., None]).max(axis=(1, 2)).min())
