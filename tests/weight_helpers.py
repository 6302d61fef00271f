"""Test-only Fraction oracles for the weightlab lemmas, and random inputs.

``s_sets_oracle`` and ``sl2_oracle`` are the ``Fraction`` forms of
``s_sets`` and ``sl2_maxweight_check``: every level is a ``Fraction`` from
``weight_levels``, every action is an exact matrix from
``group_action``/``algebra_action`` times the ``Fraction`` coordinates, and
the reports are built from those by the same rules.  The library computes
the same reports in integers over one denominator; the tests check that
the two agree report by report.  ``act``, ``act_algebra`` and
``subgroup_generators`` apply the library's vector rules and name its
subgroup generators for the law tests.
"""

from fractions import Fraction as Q
from typing import Sequence, Tuple

from horolab import exact
from horolab.weightlab import (
    h_block,
    h_principal,
    lemmas,
    modules,
    sl2_coroot,
    u_elem,
    u_top,
    vector,
)
from horolab.weightlab.lemmas import SSetReport, Sl2Report

Vec = Tuple[Q, ...]


def act(g, v):
    """The exact group element g applied to the module vector v."""
    return modules._apply_rule(modules._group_rule(v.module, *exact._scaled(g)), v)


def act_algebra(x, v):
    """The derived action of the exact algebra element x applied to v."""
    return modules._apply_rule(modules._algebra_rule(v.module, *exact._scaled(x)), v)


def subgroup_generators(n: int, spec):
    """The Lie algebra generators of a named subgroup, as exact matrices."""
    return tuple(exact.elementary(n + 1, i, j) for i, j in lemmas._generator_slots(n, spec))


def weight_levels(mod, h) -> Vec:
    """The value of every basis weight on the diagonal h, in Fractions:
    sum_i m_i (h_0 - h_i) for the beta coefficients m_i = row_i / (n + 1)."""
    d = [Q(c) for c in h]
    assert len(d) == mod.n + 1
    return tuple(sum((Q(m, mod.n + 1) * (d[0] - d[i]) for i, m in enumerate(row, 1)), Q(0))
                 for row in mod.weights)


def _times(matrix, coords: Vec) -> Vec:
    return tuple(sum((a * c for a, c in zip(row, coords)), Q(0)) for row in matrix)


def _fixed(mod, coords: Vec, spec) -> bool:
    return all(not any(_times(mod.algebra_action(x), coords))
               for x in subgroup_generators(mod.n, spec))


def s_sets_oracle(v, x: Sequence) -> SSetReport:
    """``s_sets`` in Fractions."""
    mod, coords, n = v.module, v.coords, v.module.n
    xs = tuple(Q(c) for c in x)
    principal = weight_levels(mod, h_principal(n))
    own = {lev for lev, c in zip(principal, coords) if c != 0}
    assert len(own) == 1 and all(xs), "not an input of s_sets"
    b = own.pop()
    w = _times(mod.group_action(u_top(xs)), coords)
    seen = {}
    for idx, (c, row) in enumerate(zip(w, mod.weights)):
        if c != 0:
            seen.setdefault(tuple(Q(m, n + 1) for m in row), idx)
    idx = [seen[key] for key in sorted(seen)]
    blocks = [weight_levels(mod, h_block(n, k)) for k in range(1, n + 1)]
    levels = [principal[i] - b for i in idx]
    margins = [[block[i] - lev for block in blocks] for i, lev in zip(idx, levels)]
    s_n = [m for m, row in enumerate(margins) if row[n - 1] >= 0]
    s_all = [m for m, row in enumerate(margins) if min(row) >= 0]
    flat = bool(s_n) and all(margins[m][n - 1] == 0 and levels[m] == 0 for m in s_n)
    consistent = not flat or _fixed(mod, coords, "G")
    if s_all:
        zero_levels = all(levels[m] == 0 for m in s_all)
        for j in range(1, n):
            for n0 in range(j, n + 1):
                if all(margins[m][j - 1] == 0 and margins[m][n0 - 1] == 0 for m in s_all):
                    consistent = (consistent and _fixed(mod, coords, ("Q", n0))
                                  and (not zero_levels or _fixed(mod, coords, ("G", n0))))
    return SSetReport(
        nonneg_levels=all(lev >= 0 for lev in levels),
        s_n_nonempty=bool(s_n),
        s_all_nonempty=bool(s_all),
        consistent=consistent,
    )


def _sigma1(n: int, i: int, r: Q):
    rows = [[Q(int(a == b)) for b in range(n + 1)] for a in range(n + 1)]
    rows[0][0] = rows[i][i] = Q(0)
    rows[0][i] = r
    rows[i][0] = -1 / r
    return exact.mat(rows)


def _top(coords: Vec, levels: Vec) -> Tuple[Q, Vec]:
    lam = max(lev for lev, c in zip(levels, coords) if c != 0)
    return lam, tuple(c if lev == lam else Q(0) for c, lev in zip(coords, levels))


def sl2_oracle(i: int, r, v) -> Sl2Report:
    """``sl2_maxweight_check`` in Fractions."""
    mod, coords, n = v.module, v.coords, v.module.n
    rq = Q(r)
    levels = weight_levels(mod, sl2_coroot(n, i))
    up = mod.group_action(u_elem(n, 0, i, rq))
    down = mod.group_action(u_elem(n, i, 0, -1 / rq))
    sigma = mod.group_action(_sigma1(n, i, rq))
    w = _times(up, coords)
    lam_v, v_max = _top(coords, levels)
    lam_w, w_max = _top(w, levels)
    equality = lam_w + lam_v == 0
    recovered = _times(down, v_max) == coords
    rotated_top = _times(sigma, v_max) == w_max
    ok = lam_w + lam_v >= 0 and equality == (recovered and rotated_top)
    if len({lev for lev, c in zip(levels, coords) if c != 0}) == 1:
        fixed_lower = not any(_times(mod.algebra_action(exact.elementary(n + 1, i, 0)), coords))
        fixed_upper = not any(_times(mod.algebra_action(exact.elementary(n + 1, 0, i)), coords))
        ok = (ok and equality == fixed_lower
              and equality == (_times(sigma, coords) == w_max)
              and (lam_w == lam_v) == fixed_upper
              and (lam_v == 0 and lam_w == 0) == (fixed_lower and fixed_upper))
    return Sl2Report(lam_max_v=lam_v, lam_max_w=lam_w, equality=equality, ok=ok)


def random_rational(rng, nonzero: bool = False) -> Q:
    while True:
        q = Q(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
        if q or not nonzero:
            return q


def random_eigenvector(mod, rng):
    """A random nonzero vector on one random level of the principal element."""
    principal = mod.levels
    level = sorted(set(principal))[int(rng.integers(0, len(set(principal))))]
    on_level = [k for k, lev in enumerate(principal) if lev == level]
    coords = [Q(0)] * mod.dim
    while not any(coords):
        for k in on_level:
            coords[k] = random_rational(rng)
    return vector(mod, coords)


def random_vector(mod, rng):
    coords = [Q(0)] * mod.dim
    while not any(coords):
        coords = [random_rational(rng) for _ in range(mod.dim)]
    return vector(mod, coords)
