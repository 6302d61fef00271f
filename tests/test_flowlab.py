"""Flow schedules, expansion floors, and the fixed-limit construction."""

import math
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolab import flowlab as fl
from horolab.weightlab import basis_vector, build_module, h_block, vector, w_limit
from weight_helpers import weight_levels


# -- schedules ---------------------------------------------------------------


def test_equal_preset_sums_and_sorts():
    sched = fl.FlowSchedule.preset("equal", n=3)
    for t in (0.5, 2.0, 7.5):
        r = -sched.exponents(t)[1:]
        assert abs(float(r.sum()) - 3 * t) <= 1e-12 * max(1.0, 3 * t)
        assert all(a >= b for a, b in zip(r, r[1:]))


def test_linear_preset_parses_fractions():
    sched = fl.FlowSchedule.preset("linear:3/2,1/2", n=2)
    assert sched.slopes == (Q(3, 2), Q(1, 2))
    r = -sched.exponents(4.0)[1:]
    assert abs(r[0] - 6.0) < 1e-12 and abs(r[1] - 2.0) < 1e-12


def test_schedule_validation():
    with pytest.raises(fl.ScheduleError):
        fl.FlowSchedule.linear([Q(0), Q(2)])  # increasing
    with pytest.raises(fl.ScheduleError):
        fl.FlowSchedule.preset("linear:3,1", n=2)  # sums to 4, not 2


def test_a_matrix_has_unit_determinant():
    # log det a_t = t * sum(log_diagonal), and that sum is exactly 0
    for name, n in (("linear:2,0", 2), ("linear:3/2,1/2", 2), ("equal", 3)):
        assert sum(fl.FlowSchedule.preset(name, n=n).log_diagonal) == 0


@pytest.mark.parametrize(
    "name,expected",
    [
        ("equal", (2, True)),
        ("linear:2,0", (1, False)),
        ("linear:3/2,1/2", (2, False)),
    ],
)
def test_classify_triples(name, expected):
    sched = fl.FlowSchedule.preset(name, n=2)
    cls = fl.classify(sched)
    assert (cls.n0, cls.uniform) == expected


@pytest.mark.parametrize(
    "name,expected",
    [
        # small slopes still diverge, and small gaps still grow
        ("linear:1999/1000,1/1000", (2, False)),
        ("linear:199/100,1/100", (2, False)),
        ("linear:2001/2000,1999/2000", (2, False)),
    ],
)
def test_classify_small_slopes_exactly(name, expected):
    cls = fl.classify(fl.FlowSchedule.preset(name, n=2))
    assert (cls.n0, cls.uniform) == expected


@st.composite
def _slopes(draw):
    n = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n)
                   .filter(any))
    return sorted((Q(n * w, sum(weights)) for w in weights), reverse=True)


@given(slopes=_slopes())
@settings(max_examples=200, deadline=None)
def test_classification_meets_its_definitions(slopes):
    sched = fl.FlowSchedule.linear(slopes)
    n = sched.n
    cls = fl.classify(sched)
    assert 1 <= cls.n0 <= n
    # exactly the first n0 exponents r_i(t) = s_i t diverge
    assert all(c > 0 for c in slopes[:cls.n0])
    assert all(c == 0 for c in slopes[cls.n0:])
    # uniform: every gap r_i - r_{i+1} = (s_i - s_{i+1}) t stays bounded
    assert cls.uniform == all(a == b for a, b in zip(slopes, slopes[1:]))


def test_sublinear_tail_is_not_a_schedule():
    with pytest.raises(fl.ScheduleError):
        fl.FlowSchedule.preset("sublinear-tail", n=2)


def test_log_diagonal_grades_the_exponents():
    sched = fl.FlowSchedule.preset("linear:3/2,1/2", n=2)
    module = build_module("exterior(2)", 2)
    assert sched.log_diagonal == (2, Q(-3, 2), Q(-1, 2))
    for t in (1.0, 7.5, 20.0):
        exps = sched.exponents(t)
        levels, d = module.grading(sched.log_diagonal)
        assert [Q(a, d) * Q(t) for a in levels] == list(weight_levels(module, exps))


@pytest.mark.parametrize("count", [2, 3, 5, 33, 34, 40, 64, 129])
def test_eta_grid_is_np_unique_bit_for_bit(count):
    # the presets use 33 points; the others are a few more sizes
    a, b = map(float, fl.WINDOW)
    j = np.arange(count)
    cheb = (a + b) / 2 + (b - a) / 2 * np.cos(np.pi * j / (count - 1))
    want = np.unique(np.concatenate([np.linspace(a, b, count), cheb]))
    got = fl._eta_grid(count)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_eta_grid_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on first use; the grid must not
    code = ("import sys; from horolab import flowlab; flowlab._eta_grid(33); "
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(fl.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


# -- polynomial floor constants ------------------------------------------------


def test_vandermonde_closed_forms():
    assert fl.vandermonde_constant(0, (1, 2)).certified == 1
    assert fl.vandermonde_constant(1, (1, 2)).certified == Q(1, 3)
    assert fl.vandermonde_constant(2, (1, 2)).certified == Q(1, 24)


def test_vandermonde_certified_below_empirical():
    for d in range(7):
        consts = fl.vandermonde_constant(d, (1, 2))
        assert consts.certified <= consts.empirical
        assert consts.certified > 0


def test_vandermonde_floor_on_random_polynomials():
    rng = np.random.default_rng(5)
    grid = np.linspace(1.0, 2.0, 501)
    for d in (1, 3, 5):
        consts = fl.vandermonde_constant(d, (1, 2))
        for _ in range(100):
            coeffs = rng.uniform(-1.0, 1.0, d + 1)
            sup = float(np.abs(np.polyval(coeffs[::-1], grid)).max())
            assert sup >= float(consts.certified) * float(np.abs(coeffs).max())


# -- expansion ---------------------------------------------------------------


def test_expansion_floor_and_growth():
    module = build_module("exterior(1)", 2)
    frame = fl.moment_frame(2)
    sched = fl.FlowSchedule.preset("equal", n=2)
    d2 = fl.assemble_expansion_bound(module, frame)
    assert d2 > 0
    v = vector(module, [Q(1, 3), Q(-1), Q(1, 2)]).to_floats()
    values = []
    for t in (2.0, 6.0, 10.0):
        (value,) = fl.expansion_supremum(module, [v], sched, frame, t)
        assert value >= d2
        values.append(value)
    assert values[0] < values[1] < values[2]


def test_stacked_suprema_match_one_vector_calls():
    module = build_module("exterior(2)", 2)
    frame = fl.moment_frame(2)
    sched = fl.FlowSchedule.preset("linear:3/2,1/2", n=2)
    rng = np.random.default_rng(3)
    stack = [rng.normal(size=module.dim) for _ in range(5)]
    stack.append(np.zeros(module.dim))
    stack.append(basis_vector(module, 1).to_floats())
    for t in (5.0, 20.0):
        stacked = fl.expansion_supremum(module, stack, sched, frame, t)
        single = [fl.expansion_supremum(module, [v], sched, frame, t)[0]
                  for v in stack]
        assert stacked.tobytes() == np.array(single).tobytes()
        assert stacked[5] == 0.0 and (np.delete(stacked, 5) > 0).all()


def test_log_slope_is_the_exact_least_squares_slope():
    ts = [5, 10, 15, 20]
    values = np.exp(np.random.default_rng(7).normal(size=4) + 0.7 * np.array(ts)).tolist()
    slope = fl.log_slope(ts, values)
    assert abs(slope - np.polyfit(ts, np.log(values), 1)[0]) <= 1e-12
    # exact sums do not depend on the order of the points
    assert fl.log_slope(ts[::-1], values[::-1]) == slope
    assert fl.log_slope([0, 1], [1.0, math.e]) == math.log(math.e)


def test_growth_witness_needs_a_non_uniform_schedule():
    module = build_module("standard", 2)
    with pytest.raises(ValueError, match="non-uniform"):
        fl.growth_witness(module, basis_vector(module, 0),
                          fl.FlowSchedule.preset("equal", n=2), fl.moment_frame(2))


# -- fixed limits -------------------------------------------------------------


def test_qfixed_residual_shrinks_along_ladder():
    frame = fl.moment_frame(2)
    sched = fl.FlowSchedule.preset("equal", n=2)
    residuals = [
        fl.qfixed_limit(frame, sched, eta=2.0, t=t).residual
        for t in (5.0, 10.0, 20.0)
    ]
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[-1] < 1e-6


def test_qfixed_closed_form_at_eta_two():
    frame = fl.moment_frame(2)
    res = fl.qfixed_limit(frame, fl.FlowSchedule.preset("equal", n=2), eta=2.0, t=20.0)
    limit = np.asarray(res.limit, dtype=float)
    assert abs(limit[0] - 4.0) < 1e-9
    assert np.abs(limit[1:]).max() < 1e-9


@pytest.mark.parametrize("n, name", [
    (1, "equal"), (2, "equal"), (2, "linear:2,0"), (2, "linear:3/2,1/2"), (3, "equal"),
    (3, "linear:3,0,0"), (3, "linear:3/2,3/2,0"), (3, "linear:2,1/2,1/2"),
])
def test_qfixed_columns_match_the_matrix_products(n, name):
    # the oracle builds a_t, u(x), exp((log eta) H) and w as float matrices
    # and reads column n of their products
    frame = fl.moment_frame(n)
    sched = fl.FlowSchedule.preset(name, n=n)
    n0 = sched.classification.n0
    e_n = np.eye(n + 1)[n]
    h = np.array([float(c) for c in h_block(n, n0)])
    w = np.array([[float(c) for c in row] for row in w_limit(n, n0, frame.kappa[-1])])
    for t in (0.5, 3.0, 8.0, 20.0):
        for eta in (1.0, 1.5, 2.0):
            u = np.eye(n + 1)
            u[0, 1:] = frame.r_poly(math.exp(-t) * eta)
            flowed = np.diag(np.exp(sched.exponents(t))) @ u @ e_n
            limit = np.diag(np.exp(math.log(eta) * h)) @ w @ e_n
            tol = 4 * np.spacing(max(np.abs(flowed).max(), np.abs(limit).max()))
            res = fl.qfixed_limit(frame, sched, eta=eta, t=t)
            assert res.n0 == n0
            assert np.abs(res.limit - limit).max() <= tol
            assert abs(res.residual - np.abs(flowed - limit).max()) <= tol


def test_growth_witness_consistency():
    module = build_module("exterior(2)", 2)
    frame = fl.moment_frame(2)
    sched = fl.FlowSchedule.preset("linear:2,0", n=2)
    wit = fl.growth_witness(module, basis_vector(module, 2), sched, frame)
    assert wit.verdict in ("bounded", "divergent")
    assert wit.consistent
