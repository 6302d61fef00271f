"""Support classification, fixed-subgroup tests, and the rank one inequality."""

import gc
import itertools
import weakref
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolab import exact
from horolab.rng import generator
from horolab.weightlab import lemmas
from horolab.weightlab import (
    basis_vector,
    build_module,
    estimate_D1,
    fixed_check,
    h_principal,
    s_sets,
    sl2_maxweight_check,
    u_top,
    vector,
)
from weight_helpers import (
    random_eigenvector,
    random_rational,
    random_vector,
    s_sets_oracle,
    sl2_oracle,
    subgroup_generators,
)


def test_s_sets_rejects_bad_input():
    mod = build_module("standard", 2)
    with pytest.raises(ValueError):
        s_sets(basis_vector(mod, 0), [Q(1), Q(0)])  # zero entry
    with pytest.raises(ValueError):
        s_sets(vector(mod, [Q(0), Q(0), Q(0)]), [Q(1), Q(1)])
    # mixed-level vectors are not eigenvectors of the principal element
    with pytest.raises(ValueError):
        s_sets(vector(mod, [Q(1), Q(1), Q(0)]), [Q(1), Q(1)])


@pytest.mark.parametrize("kind", ["standard", "exterior(2)", "adjoint"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_s_sets_on_basis_eigenvectors(kind, n):
    mod = build_module(kind, n)
    x = [Q(1)] * n
    for idx in range(mod.dim):
        rep = s_sets(basis_vector(mod, idx), x)
        assert rep.nonneg_levels
        assert rep.s_n_nonempty and rep.s_all_nonempty
        assert rep.consistent


def test_fixed_check_last_column_stabilizer():
    mod = build_module("standard", 2)
    e_last = basis_vector(mod, 2)
    assert fixed_check(e_last, "Q")
    assert not fixed_check(e_last, "G")
    assert not fixed_check(basis_vector(mod, 0), "Q")


def test_subgroup_letters_name_the_full_blocks():
    for n in (1, 2, 3):
        assert subgroup_generators(n, "G") == subgroup_generators(n, ("G", n))
        assert subgroup_generators(n, "Q") == subgroup_generators(n, ("Q", n))
        assert len(subgroup_generators(n, "G")) == n * (n + 1)
        assert len(subgroup_generators(n, "Q")) == n * n
    with pytest.raises(ValueError):
        subgroup_generators(2, [exact.elementary(3, 0, 1)])


def test_fixed_check_sl2_slot():
    mod = build_module("exterior(2)", 2)
    # the wedge of the two non-distinguished directions is killed by slot 1
    fixed = [idx for idx in range(mod.dim)
             if fixed_check(basis_vector(mod, idx), ("sl2", 2))]
    assert fixed  # at least one basis wedge avoids slot 2 entirely


def test_estimate_d1_positive_and_small():
    mod = build_module("standard", 2)
    assert 0 < estimate_D1(mod, Q(1), [Q(1), Q(1)]) <= 1


def _face_grid_minimum(mod, b, x):
    """estimate_D1's face grid walked one point at a time."""
    rows, cols = lemmas.delta_plus_indices(mod, b), lemmas.level_indices(mod, b)
    rho = mod.group_action(u_top(x))
    m = np.array([[float(rho[a][c]) for c in cols] for a in rows])
    dim = len(cols)
    ticks = np.linspace(-1.0, 1.0, lemmas._FACE_DENSITY)
    best = np.inf
    for face in range(dim):
        for sign in (1.0, -1.0):
            for rest in itertools.product(ticks, repeat=dim - 1):
                vec = np.array([*rest[:face], sign, *rest[face:]])
                best = min(best, np.abs(m @ vec).max())
    return float(best)


@pytest.mark.parametrize("n, x", [(2, (Q(1), Q(-2))), (2, (Q(-3, 2), Q(1, 3))),
                                  (3, (Q(1, 2), Q(-1), Q(3))), (3, (Q(-7, 2), Q(3), Q(-8, 3)))])
def test_estimate_d1_walks_the_face_grid_of_a_wide_level(n, x):
    mod = build_module("adjoint", n)
    wide = [b for b in mod.level_set() if len(lemmas.level_indices(mod, b)) > 1]
    assert len(wide) == 2 * n - 1
    for b in wide:
        assert estimate_D1(mod, b, x) == _face_grid_minimum(mod, b, x)


small_q = st.fractions(min_value=-5, max_value=5, max_denominator=4)
nonzero_q = small_q.filter(lambda q: q != 0)


@given(
    coords=st.lists(small_q, min_size=3, max_size=3),
    r=nonzero_q,
    slot=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=120, deadline=None)
def test_sl2_inequality_always_holds(coords, r, slot):
    mod = build_module("standard", 2)
    if all(c == 0 for c in coords):
        coords = [Q(1)] + list(coords)[1:]
    rep = sl2_maxweight_check(slot, r, vector(mod, coords))
    assert rep.lam_max_w + rep.lam_max_v >= 0
    assert rep.equality == (rep.lam_max_w + rep.lam_max_v == 0)
    assert rep.ok


def test_sl2_equality_mixed_vector():
    # both weight lines populated; equality forces the exact recovery form
    mod = build_module("standard", 1)
    rep = sl2_maxweight_check(1, Q(-3, 2), vector(mod, [Q(7, 2), Q(7, 3)]))
    assert (rep.lam_max_v, rep.lam_max_w) == (1, -1)
    assert rep.equality and rep.ok


def test_sl2_equality_needs_matching_ratio():
    # same vector, different r: the translate keeps its top level
    mod = build_module("standard", 1)
    rep = sl2_maxweight_check(1, Q(1, 2), vector(mod, [Q(7, 2), Q(7, 3)]))
    assert not rep.equality
    assert rep.lam_max_w + rep.lam_max_v > 0
    assert rep.ok


def test_sl2_low_eigenvector_is_always_equality():
    mod = build_module("standard", 2)
    v = basis_vector(mod, 1)  # pure weight line below the top
    for r in (Q(1), Q(-2), Q(5, 3)):
        rep = sl2_maxweight_check(1, r, v)
        assert (rep.lam_max_v, rep.lam_max_w) == (-1, 1)
        assert rep.equality and rep.ok


def test_sl2_eigenvector_branch_decides_ok(monkeypatch):
    # v spans one level of the slot-1 coroot, so equality must coincide with
    # invariance under the lower unipotent; a lower rule that fixes nothing
    # breaks that, and only the eigenvector branch sees it.  The derived
    # rules are built per slot, apart from the group rules of each r.
    honest = lemmas._sl2_algebra_rules

    def identity_lower(mod, i):
        _, upper = honest(mod, i)
        return (lambda ints: ints, 1), upper

    monkeypatch.setattr(lemmas, "_sl2_algebra_rules", identity_lower)
    mod = build_module("standard", 2)
    rep = sl2_maxweight_check(1, Q(1), basis_vector(mod, 1))
    assert rep.equality
    assert not rep.ok


def test_sl2_rejects_degenerate_input():
    mod = build_module("standard", 2)
    with pytest.raises(ValueError):
        sl2_maxweight_check(1, 0, basis_vector(mod, 0))
    with pytest.raises(ValueError):
        sl2_maxweight_check(1, Q(1), vector(mod, [Q(0)] * 3))


# Seeds that no preset uses; every kind, exterior(3) and a tensor included.
ORACLE_SEEDS = (3, 5, 8)
ORACLE_MODULES = [
    (n, kind)
    for n in (1, 2, 3)
    for kind in ["standard", "exterior(2)", "adjoint", "tensor(standard,exterior(2))"]
    + (["exterior(3)"] if n >= 2 else [])
]


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_s_sets_matches_the_fraction_oracle(seed):
    for n, kind in ORACLE_MODULES:
        mod = build_module(kind, n)
        rng = generator(seed, f"s-sets-oracle-{kind}", n)
        for _ in range(4):
            v = random_eigenvector(mod, rng)
            x = [random_rational(rng, nonzero=True) for _ in range(n)]
            assert s_sets(v, x) == s_sets_oracle(v, x), (kind, n, v, x)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_sl2_check_matches_the_fraction_oracle(seed):
    equalities = 0
    for n, kind in ORACLE_MODULES:
        mod = build_module(kind, n)
        rng = generator(seed, f"sl2-oracle-{kind}", n)
        inputs = [(basis_vector(mod, int(rng.integers(0, mod.dim))),
                   int(rng.integers(1, n + 1)), random_rational(rng, nonzero=True))
                  for _ in range(3)]
        inputs += [(random_vector(mod, rng), int(rng.integers(1, n + 1)),
                    random_rational(rng, nonzero=True)) for _ in range(3)]
        for v, slot, r in inputs:
            rep = sl2_maxweight_check(slot, r, v)
            assert rep == sl2_oracle(slot, r, v), (kind, n, slot, r, v)
            assert type(rep.lam_max_v) is Q and type(rep.lam_max_w) is Q
            equalities += rep.equality
    assert equalities  # the equality branch is exercised


@pytest.mark.parametrize("kind", ["standard", "exterior(2)", "adjoint",
                                  "tensor(adjoint,exterior(2))"])
def test_a_module_is_freed_without_the_cyclic_collector(kind):
    # the rules a module keeps in its cache must not hold the module, or it
    # lives in a reference cycle until the collector runs
    gc.disable()
    try:
        mod = build_module(kind, 2)
        ref = weakref.ref(mod)
        v = basis_vector(mod, 0)
        s_sets(v, [Q(1), Q(-2, 3)])
        fixed_check(v, "G")
        fixed_check(v, ("Q", 1))
        sl2_maxweight_check(1, Q(3, 2), v)
        assert mod._cache
        del mod, v
        assert ref() is None
    finally:
        gc.enable()
