"""Jets, ordered-regular frames, and the curve regularity scan."""

from fractions import Fraction as Q

import numpy as np
import pytest

from horolab.curvejet import (
    CurveSpec,
    NotOrderedRegular,
    jet_exact,
    ordered_regular_frame,
    regularity_scan,
    taylor_frame_remainder,
)


def test_moment_frame_at_zero_is_identity():
    curve = CurveSpec.moment(2)
    frame = ordered_regular_frame(curve, 0)
    assert frame.exact
    assert frame.kappa == (Q(1), Q(1))
    assert frame.b_matrix == ((Q(1), Q(0)), (Q(0), Q(1)))


def test_polynomial_frame_tracks_taylor_coefficients():
    # second row of the frame carries phi''/2!, so halving the quadratic
    # halves the second pivot
    curve = CurveSpec.polynomial([[0, 1], [0, 0, Q(1, 2)]])
    frame = ordered_regular_frame(curve, 0)
    assert frame.kappa[1] == Q(1, 2)


def test_jet_matches_hand_derivatives():
    # rows: s, s^2, 1 + 2 s^3
    curve = CurveSpec.polynomial([[0, 1], [0, 0, 1], [1, 0, 0, 2]])
    rows = jet_exact(curve, Q(3, 4), 3)
    assert rows == [
        (Q(1), Q(3, 2), Q(27, 8)),
        (Q(0), Q(2), Q(9)),
        (Q(0), Q(0), Q(12)),
    ]


def test_numeric_frame_agrees_with_exact_frame():
    # k > n brings in the tail rows; s = 1/2 is a binary fraction, so both
    # frames factor the same Taylor rows
    curve = CurveSpec.polynomial([[0, 1, 1, 1], [0, 0, 1, 0, 1]])
    exact = ordered_regular_frame(curve, Q(1, 2), 4)
    numeric = ordered_regular_frame(curve, Q(1, 2), 4, numeric=True)
    assert exact.exact and not numeric.exact
    assert any(i > curve.n for _, i in exact.coeff_table)
    assert np.abs(np.asarray(exact.kappa, dtype=float)
                  - np.asarray(numeric.kappa)).max() < 1e-12
    assert np.abs(exact.b_inverse_floats() - numeric.b_inverse_floats()).max() < 1e-12
    assert set(exact.coeff_table) == set(numeric.coeff_table)
    for key, c in exact.coeff_table.items():
        assert abs(float(c) - numeric.coeff_table[key]) < 1e-12, key


def test_degenerate_curve_rejected():
    # two identical coordinates: the derivative rows are linearly dependent
    curve = CurveSpec.polynomial([[0, 1], [0, 1]])
    with pytest.raises(NotOrderedRegular):
        ordered_regular_frame(curve, Q(1, 2))


def test_regularity_scan_flags_pivot_collapse():
    # (s^2, s^3) loses its first derivative at s = 0
    curve = CurveSpec.polynomial([[0, 0, 1], [0, 0, 0, 1]])
    scan = regularity_scan(curve, (-0.5, 0.5), 41)
    assert scan.checked == 41
    assert scan.failures
    bad = min(abs(s) for s, _ in scan.failures)
    assert bad < 0.05


def test_regularity_scan_clean_on_trig():
    curve = CurveSpec.preset("trig")
    scan = regularity_scan(curve, (0.1, 3.0), 60)
    assert not scan.failures


def test_taylor_remainder_shrinks():
    curve = CurveSpec.preset("trig")
    rems = [
        float(np.abs(taylor_frame_remainder(curve, 1.0, 2, h)).max())
        for h in (1e-1, 1e-2, 1e-3)
    ]
    assert rems[0] > rems[1] > rems[2]
    assert rems[2] < 1e-6


def test_frame_inverse_consistency():
    curve = CurveSpec.preset("trig")
    frame = ordered_regular_frame(curve, 0.7)
    b = np.asarray(frame.b_matrix, dtype=float)
    b_inv = np.asarray(frame.b_inverse, dtype=float)
    assert np.abs(b @ b_inv - np.eye(2)).max() < 1e-10


def test_moment_preset_needs_n():
    with pytest.raises(ValueError):
        CurveSpec.preset("moment")
    with pytest.raises(ValueError):
        CurveSpec.preset("helix")
