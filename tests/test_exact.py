"""Rational matrix kernel: everything here must be exact, no floats."""

from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# -- the integer kernels against plain Fraction arithmetic -----------------------


def _ref_mat(a):
    return [[Q(x) for x in row] for row in a]


def _ref_matmul(a, b):
    a, b = _ref_mat(a), _ref_mat(b)
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), Q(0)) for col in zip(*b))
                 for row in a)


def _ref_det(a):
    """Gaussian elimination in Fractions."""
    rows = _ref_mat(a)
    n = len(rows)
    result = Q(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Q(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            result = -result
        p = rows[col][col]
        result *= p
        for r in range(col + 1, n):
            f = rows[r][col] / p
            for c in range(col, n):
                rows[r][c] -= f * rows[col][c]
    return result


def _ref_inverse(a):
    """Gauss-Jordan in Fractions; None if singular."""
    n = len(a)
    rows = [row + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(_ref_mat(a))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return tuple(tuple(row[n:]) for row in rows)


def _all_fractions(result):
    return all(type(x) is Q for row in result for x in row)


# ints, Fractions with either sign of denominator, and finite floats
_entry = st.one_of(
    st.integers(-6, 6),
    st.builds(Q, st.integers(-9, 9), st.integers(1, 7)),
    st.builds(lambda a, b: Q(a, -b), st.integers(-9, 9), st.integers(1, 7)),
    st.sampled_from([0.0, -0.5, 0.1, 1.25, -3.0, 2.0**-30, 1e10]),
)


@st.composite
def _matrix(draw, rows=None, cols=None):
    r = draw(st.integers(1, 4)) if rows is None else rows
    c = draw(st.integers(1, 4)) if cols is None else cols
    # a few zero and rank-deficient matrices among the draws
    shape = draw(st.sampled_from(["full", "full", "full", "zero", "repeat"]))
    if shape == "zero":
        return [[0] * c for _ in range(r)]
    out = [[draw(_entry) for _ in range(c)] for _ in range(r)]
    if shape == "repeat" and r > 1:
        out[-1] = list(out[0])
    return out


@st.composite
def _square(draw):
    n = draw(st.integers(1, 4))
    return draw(_matrix(n, n))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_matmul_and_matvec_match_fractions(data):
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b = data.draw(_matrix(r, k)), data.draw(_matrix(k, c))
    got = exact.matmul(a, b)
    assert got == _ref_matmul(a, b) and _all_fractions(got)
    # a matrix times a vector is the product with one column
    column = [[row[0]] for row in b]
    got_v = exact.matmul(a, column)
    assert got_v == _ref_matmul(a, column) and _all_fractions(got_v)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_commutator_matches_fractions(data):
    n = data.draw(st.integers(1, 4))
    a, b = data.draw(_matrix(n, n)), data.draw(_matrix(n, n))
    got = exact.commutator(a, b)
    ab, ba = _ref_matmul(a, b), _ref_matmul(b, a)
    assert got == tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(ab, ba))
    assert _all_fractions(got)


@given(a=_square())
@settings(max_examples=300, deadline=None)
def test_det_minor_and_inverse_match_fractions(a):
    d = exact.det(a)
    assert d == _ref_det(a) and type(d) is Q
    n = len(a)
    rows, cols = tuple(range(n - 1, -1, -2)), tuple(range(0, n, 2))
    sub = [[a[r][c] for c in cols] for r in rows]
    assert exact.det(sub) == _ref_det(sub)
    want = _ref_inverse(a)
    assert (want is None) == (d == 0)
    if want is None:
        with pytest.raises(ValueError):
            exact.inverse(a)
    else:
        got = exact.inverse(a)
        assert got == want and _all_fractions(got)


def test_kernels_on_one_by_one_and_zero_matrices():
    assert exact.det([[Q(-3, 4)]]) == Q(-3, 4)
    assert exact.inverse([[Q(-3, 4)]]) == ((Q(-4, 3),),)
    assert exact.matmul([[0, 0], [0, 0]], [[1, 2], [3, 4]]) == exact.mat([[0, 0], [0, 0]])
    assert exact.det([[0, 0], [0, 0]]) == 0
    assert exact.det(()) == 1
    for singular in ([[0]], [[0, 0], [0, 0]], [[1, 2, 3], [2, 4, 6], [0, 1, 1]]):
        with pytest.raises(ValueError):
            exact.inverse(singular)


def test_numpy_integer_entries_do_not_wrap():
    big = np.int64(2**40)
    assert exact.matmul([[big]], [[big]]) == ((Q(2**80),),)
    assert exact.det([[big, 0], [0, big]]) == 2**80
    assert exact.inverse([[big]]) == ((Q(1, 2**40),),)


def test_mat_keeps_fraction_entries():
    q = Q(2, 3)
    assert exact.mat([[q, 1]])[0][0] is q
    assert exact.mat([[q, 1]])[0][1] == Q(1) and type(exact.mat([[1]])[0][0]) is Q
