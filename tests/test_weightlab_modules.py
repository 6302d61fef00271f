"""Representation bookkeeping: dimensions, weights, and the two actions."""

import math
import random
from fractions import Fraction as Q
from math import comb

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from horolab import exact
from horolab.weightlab import modules
from horolab.weightlab import (
    ModuleVector,
    basis_vector,
    build_module,
    h_block,
    h_principal,
    sl2_coroot,
    u_elem,
    vector,
)
from weight_helpers import act, act_algebra, weight_levels


def _minus(a, b):
    """Coordinates of a - b."""
    return tuple(x - y for x, y in zip(a.coords, b.coords))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dimensions(n):
    assert build_module("standard", n).dim == n + 1
    assert build_module("adjoint", n).dim == (n + 1) ** 2 - 1
    for k in range(1, n + 2):
        assert build_module(f"exterior({k})", n).dim == comb(n + 1, k)


def test_adjoint_weights_sum_to_zero():
    mod = build_module("adjoint", 2)
    hp = h_principal(2)
    total = sum(weight_levels(mod, hp))
    assert total == 0


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        build_module("spinor", 2)


small_q = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@given(c1=small_q, c2=small_q, coords=st.lists(small_q, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_action_is_multiplicative(c1, c2, coords):
    mod = build_module("standard", 2)
    v = vector(mod, coords)
    g = u_elem(2, 0, 1, c1)
    h = u_elem(2, 1, 2, c2)
    lhs = act(g, act(h, v))
    rhs = act(exact.matmul(g, h), v)
    assert lhs.coords == rhs.coords


@given(coords=st.lists(small_q, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_algebra_action_respects_brackets(coords):
    mod = build_module("exterior(2)", 2)
    v = vector(mod, coords)
    x = exact.elementary(3, 0, 1)
    y = exact.elementary(3, 1, 0)
    lhs = act_algebra(exact.commutator(x, y), v)
    rhs = _minus(act_algebra(x, act_algebra(y, v)), act_algebra(y, act_algebra(x, v)))
    assert lhs.coords == rhs


# Every kind at n = 2, 3, including tensors with an adjoint operand.
LAW_MODULES = [
    (n, kind)
    for n in (2, 3)
    for kind in (["standard", "adjoint", "tensor(standard,exterior(2))",
                  "tensor(adjoint,standard)"]
                 + [f"exterior({d})" for d in range(1, n + 2)])
]


# No shrinking: on these dense rational examples it takes minutes to report
# a failure that generation finds in seconds.
_LAW_SETTINGS = settings(max_examples=8, deadline=None,
                         phases=(Phase.explicit, Phase.reuse, Phase.generate))


def _square(draw, n):
    return exact.mat(draw(st.lists(st.lists(small_q, min_size=n + 1, max_size=n + 1),
                                   min_size=n + 1, max_size=n + 1)))


def _invertible(draw, n):
    g = _square(draw, n)
    assume(exact.det(g) != 0)
    return g


def _module_vector(draw, mod):
    return vector(mod, draw(st.lists(small_q, min_size=mod.dim, max_size=mod.dim)))


@pytest.mark.parametrize("n,kind", LAW_MODULES)
@given(data=st.data())
@_LAW_SETTINGS
def test_group_action_is_a_homomorphism(n, kind, data):
    mod = build_module(kind, n)
    g, h = _invertible(data.draw, n), _invertible(data.draw, n)
    v = _module_vector(data.draw, mod)
    assert act(g, act(h, v)).coords == act(exact.matmul(g, h), v).coords
    assert act(exact.identity(n + 1), v).coords == v.coords


@pytest.mark.parametrize("n,kind", LAW_MODULES)
@given(data=st.data())
@_LAW_SETTINGS
def test_algebra_action_is_a_lie_homomorphism(n, kind, data):
    mod = build_module(kind, n)
    x, y = _square(data.draw, n), _square(data.draw, n)
    v = _module_vector(data.draw, mod)
    lhs = act_algebra(exact.commutator(x, y), v)
    rhs = _minus(act_algebra(x, act_algebra(y, v)), act_algebra(y, act_algebra(x, v)))
    assert lhs.coords == rhs


@pytest.mark.parametrize("n,kind", LAW_MODULES)
@given(data=st.data())
@_LAW_SETTINGS
def test_exponential_of_nilpotent_matches_algebra_series(n, kind, data):
    # x strictly upper triangular, so both exponential series are finite
    mod = build_module(kind, n)
    x = exact.mat([[data.draw(small_q) if b > a else 0 for b in range(n + 1)]
                   for a in range(n + 1)])
    v = _module_vector(data.draw, mod)
    exp_x = exact.identity(n + 1)
    power = exact.identity(n + 1)
    for k in range(1, n + 1):
        power = exact.scale(Q(1, k), exact.matmul(power, x))
        exp_x = exact.add(exp_x, power)
    series, term = v.coords, v
    for k in range(1, mod.dim + 1):
        term = vector(mod, [c / k for c in act_algebra(x, term).coords])
        if term.is_zero():
            break
        series = tuple(a + b for a, b in zip(series, term.coords))
    assert term.is_zero()
    assert act(exp_x, v).coords == series


def _floats(m):
    return np.array([[float(v) for v in row] for row in m], dtype=float)


@pytest.mark.parametrize("n", [2, 3])
def test_batched_float_action_matches_exact(n):
    tops = ([Q(1, 3)] * n, [Q(-5, 2), Q(7, 4), Q(-1, 9)][:n], [Q(0)] * n)
    stack = []
    for x in tops:
        u = [[Q(int(a == b)) for b in range(n + 1)] for a in range(n + 1)]
        u[0][1:] = x
        stack.append(exact.mat(u))
    general = exact.mat([[Q(a + 2) if a == b else Q(a - 2 * b, b + 3)
                          for b in range(n + 1)] for a in range(n + 1)])
    assert exact.det(general) != 0
    stack.append(general)
    kinds = (["standard", "adjoint", "tensor(standard,exterior(2))"]
             + [f"exterior({d})" for d in range(1, n + 2)])
    for kind in kinds:
        mod = build_module(kind, n)
        got = mod.group_action_float(np.stack([_floats(g) for g in stack]))
        assert got.shape == (len(stack), mod.dim, mod.dim)
        for g, rho in zip(stack, got):
            want = _floats(mod.group_action(g))
            assert np.all(np.abs(rho - want) <= 1e-12 * np.abs(want).max()), kind
        single = mod.group_action_float(_floats(general))
        assert single.shape == (mod.dim, mod.dim)
        assert np.allclose(single, got[-1], rtol=1e-12, atol=0.0)


def test_float_action_rejects_wrong_size():
    with pytest.raises(ValueError):
        build_module("standard", 2).group_action_float(np.eye(4))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_graded_levels_equal_weight_evaluation(n):
    kinds = ["standard", "adjoint", "tensor(standard,adjoint)"]
    kinds += [f"exterior({d})" for d in range(1, n + 2)]
    elements = [h_principal(n)]
    elements += [sl2_coroot(n, i) for i in range(1, n + 1)]
    elements += [h_block(n, k) for k in range(1, n + 1)]
    for kind in kinds:
        mod = build_module(kind, n)
        for h in elements:
            levels, d = mod.grading(h)
            assert all(type(a) is int for a in levels) and d > 0
            assert tuple(Q(a, d) for a in levels) == weight_levels(mod, h)
            assert mod.grading(list(h)) is mod.grading(h)  # evaluated once
        assert mod.levels == weight_levels(mod, h_principal(n))


def test_adjoint_coordinates_reject_a_matrix_with_trace():
    mod = build_module("adjoint", 2)
    with pytest.raises(ValueError):
        modules._adjoint_coords(mod.n, mod.basis_data[1], exact.identity(3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_adjoint_rules_over_the_support_match_the_matrix_products(n):
    # the rules skip the zeros of X (group) and of x (derived); the matrix
    # forms g X g^-1 and x X - X x skip nothing
    mod = build_module("adjoint", n)
    pairs = mod.basis_data[1]
    rng = random.Random(n)
    m = n + 1

    def dense():
        return exact.mat([[Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m)]
                          for _ in range(m)])

    g = dense()
    while exact.det(g) == 0:
        g = dense()
    elements = [exact.elementary(m, 0, n), exact.elementary(m, n, 0), dense()]
    vectors = [basis_vector(mod, b) for b in range(mod.dim)]
    vectors += [vector(mod, [Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(mod.dim)]),
                vector(mod, [0] * (mod.dim - 1) + [1]), vector(mod, [1] + [0] * (mod.dim - 1))]
    for v in vectors:
        big_x = exact.mat(modules._adjoint_matrix(n, pairs, v.coords))
        want = exact.matmul(exact.matmul(g, big_x), exact.inverse(g))
        assert act(g, v).coords == modules._adjoint_coords(n, pairs, want)
        for x in elements:
            want = exact.sub(exact.matmul(x, big_x), exact.matmul(big_x, x))
            assert act_algebra(x, v).coords == modules._adjoint_coords(n, pairs, want)


# -- vectors: integer rows over one denominator ---------------------------------


def test_vectors_normalise_to_one_integer_row():
    mod = build_module("standard", 2)
    v = vector(mod, [Q(1, 2), 1, 0])
    assert v == vector(mod, [Q(2, 4), Q(2, 2), 0]) == vector(mod, [0.5, 1.0, 0.0])
    assert (v.ints, v.denom) == ((1, 2, 0), 2)
    assert math.gcd(*v.ints, v.denom) == 1
    # a negative or unreduced denominator is normalised the same way
    assert ModuleVector(mod, (-3, -6, 0), -6) == v
    assert ModuleVector(mod, (0, 0, 0), -7) == ModuleVector(mod, (0, 0, 0))
    assert ModuleVector(mod, (0, 0, 0), -7).denom == 1
    assert vector(mod, [Q(1, 3), 0, 0]) != v
    with pytest.raises(ValueError):
        ModuleVector(mod, (1, 2), 1)
    with pytest.raises(ZeroDivisionError):
        ModuleVector(mod, (1, 2, 0), 0)


@given(coords=st.lists(st.fractions(max_denominator=10**6), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_vector_coords_round_trip(coords):
    v = vector(build_module("standard", 3), coords)
    assert v.coords == tuple(Q(c) for c in coords)
    assert all(type(c) is Q for c in v.coords)
    assert vector(v.module, v.coords) == v
    assert v.denom > 0 and math.gcd(*v.ints, v.denom) == 1
    assert v.is_zero() == (not any(coords))


def test_is_zero():
    mod = build_module("exterior(2)", 3)
    assert vector(mod, [0] * mod.dim).is_zero()
    assert not any(basis_vector(mod, b).is_zero() for b in range(mod.dim))
    assert not vector(mod, [0] * (mod.dim - 1) + [Q(-1, 10**30)]).is_zero()


def test_to_floats_matches_float_of_each_coordinate_at_200_bits():
    mod = build_module("tensor(standard,standard)", 2)
    rnd = random.Random(20)
    for _ in range(200):
        coords = [Q(rnd.getrandbits(240) - 2**239, rnd.getrandbits(200) | 1)
                  for _ in range(mod.dim)]
        got = vector(mod, coords).to_floats()
        want = np.array([float(c) for c in coords])
        assert got.tobytes() == want.tobytes()
