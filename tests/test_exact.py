"""Rational matrix kernel: everything here must be exact, no floats."""

from fractions import Fraction as Q

import pytest

from horolab import exact


def test_det_known_values():
    assert exact.det(exact.identity(3)) == 1
    assert exact.det([[Q(2), Q(1)], [Q(1), Q(1)]]) == 1
    assert exact.det([[Q(0), Q(1)], [Q(1), Q(0)]]) == -1
    assert exact.det([[Q(1, 2), Q(0)], [Q(7), Q(4)]]) == 2


def test_det_accepts_int_entries():
    # plain ints used to fall into float division inside elimination
    d = exact.det([[3, 5], [1, 2]])
    assert d == 1
    assert not isinstance(d, float)


def test_inverse_roundtrip():
    a = [[Q(2), Q(1), Q(0)], [Q(0), Q(1), Q(3)], [Q(1), Q(0), Q(1)]]
    inv = exact.inverse(a)
    assert exact.matmul(a, inv) == exact.identity(3)
    assert exact.matmul(inv, a) == exact.identity(3)


def test_inverse_accepts_int_entries():
    inv = exact.inverse([[1, 1], [0, 1]])
    assert inv == exact.mat([[1, -1], [0, 1]])


def test_inverse_singular_raises():
    with pytest.raises(ValueError):
        exact.inverse([[1, 2], [2, 4]])


def test_commutator():
    e01 = exact.elementary(2, 0, 1)
    e10 = exact.elementary(2, 1, 0)
    h = exact.commutator(e01, e10)
    assert h == exact.diag([Q(1), Q(-1)])


def test_matvec_and_norms():
    a = [[Q(1), Q(-2)], [Q(0), Q(3)]]
    assert exact.matvec(a, [Q(1), Q(1)]) == (Q(-1), Q(3))


def test_minor():
    a = [[Q(1), Q(2), Q(3)], [Q(4), Q(5), Q(6)], [Q(7), Q(8), Q(10)]]
    assert exact.minor(a, (0, 1), (0, 1)) == Q(-3)
