"""Operator identities checked vertex by vertex in exact arithmetic."""

from fractions import Fraction as Q
from math import factorial

import pytest

from horolab import exact
from horolab.weightlab import (
    a_x,
    corner_log_lower,
    identity_suite,
    lower_ones,
    sigma,
    sigma_kappa,
    u_top,
    upper_ones,
    w_limit,
)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_suite_all_exact(n):
    for item in identity_suite(n):
        assert item.passed, f"{item.name} at n={n}: {item.detail}"


def test_suite_has_stable_size():
    assert len(identity_suite(1)) == len(identity_suite(3)) == 7
    # at n = 1 the corner-to-bottom-row identity is vacuous, and says so
    vacuous = identity_suite(1)[4]
    assert vacuous.name == "corner_to_bottom_row" and vacuous.passed
    assert vacuous.detail == "vacuous for n=1 (slot 1 and the bottom row coincide)"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_corner_log_exponentiates_to_ones(n):
    # nilpotent series: exp(L) = sum L^k / k! terminates at k = n
    log = corner_log_lower(n)
    total = exact.identity(n + 1)
    power = exact.identity(n + 1)
    for k in range(1, n + 1):
        power = exact.matmul(power, log)
        total = exact.add(total, exact.scale(Q(1, factorial(k)), power))
    assert total == lower_ones(n)


def test_lower_upper_ones_are_transposes():
    assert upper_ones(3) == exact.transpose(lower_ones(3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sigma_rotates_last_slot_to_first(n):
    s = sigma(n)
    assert exact.det(s) == 1
    # the last column of sigma is the image of the last basis vector
    e_last = [[Q(0)]] * n + [[Q(1)]]
    assert exact.matmul(s, e_last) == ((Q(1),),) + ((Q(0),),) * n


def test_sigma_kappa_corner_entries():
    s = sigma_kappa(2, Q(3, 2))
    assert s[0][2] == Q(3, 2)
    assert s[2][0] == Q(-2, 3)
    assert exact.det(s) == 1
    with pytest.raises(ValueError):
        sigma_kappa(2, 0)


def test_u_top_inverse_is_negation():
    x = [Q(3, 2), Q(-1, 3)]
    assert exact.matmul(u_top(x), u_top([-c for c in x])) == exact.identity(3)


def test_a_x_is_reciprocal_diagonal():
    assert a_x([Q(2), Q(3)]) == exact.diag([Q(1), Q(1, 2), Q(1, 3)])
    with pytest.raises(ValueError):
        a_x([Q(1), Q(0)])


def test_w_limit_two_regimes():
    # interior slot: unipotent carrying kappa in the last top entry
    w = w_limit(3, 1, Q(5))
    assert w[0] == (Q(1), Q(0), Q(0), Q(5))
    # full slot: the corner rotation
    assert w_limit(2, 2, Q(5)) == sigma_kappa(2, Q(5))
