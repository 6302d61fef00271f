"""The int64 limbs of exact integers, against Python ints."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from horolab import limbs


def _count(xs, bits):
    """Enough limbs for every |x| below 2^(count bits - 1)."""
    return max(1, -(-max(abs(x).bit_length() + 1 for x in xs) // bits))


@given(xs=st.lists(st.integers(-(2**300), 2**300), min_size=1, max_size=6),
       bits=st.integers(2, 62))
@settings(max_examples=100, deadline=None)
def test_a_table_writes_its_integers(xs, bits):
    count = _count(xs, bits)
    table = limbs.table([[x, -x] for x in xs], bits, [count] * len(xs))
    assert table.shape == (2, count, len(xs))
    assert [limbs.join(table[0, :, k], bits) for k in range(len(xs))] == xs
    assert [limbs.join(table[1, :, k], bits) for k in range(len(xs))] == [-x for x in xs]
    assert ((table[:, :-1] >= 0) & (table[:, :-1] < 2**bits)).all()


@given(rows=st.lists(st.lists(st.integers(-(2**61), 2**61), min_size=3, max_size=3),
                     min_size=2, max_size=6),
       bits=st.integers(1, 60))
@settings(max_examples=100, deadline=None)
def test_carried_limbs_keep_their_value_and_compare_as_it_does(rows, bits):
    raw = np.array(rows, dtype=np.int64).T  # (limb, integer)
    want = [limbs.join(raw[:, k], bits) for k in range(raw.shape[1])]
    got = limbs.carry(raw.copy(), bits)
    assert [limbs.join(got[:, k], bits) for k in range(got.shape[1])] == want
    assert ((got[:-1] >= 0) & (got[:-1] < 2**bits)).all()
    for k in range(got.shape[1]):
        y = got[:, [k]]  # one integer, broadcast against all
        assert limbs.below(got, y, True).tolist() == [x < want[k] for x in want]
        assert limbs.below(got, y, False).tolist() == [x <= want[k] for x in want]


@given(d=st.integers(1, 2**200), fractions=st.lists(st.fractions(-1, 1), min_size=1, max_size=8),
       bits=st.integers(8, 60))
@settings(max_examples=100, deadline=None)
def test_the_nearest_error_is_min_of_r_and_d_less_r(d, fractions, bits):
    rs = [int(f * d) for f in fractions] + [d, -d, 0]
    count = _count([d], bits)
    table = limbs.table([[r, d] for r in rs], bits, [count] * len(rs))
    e = limbs.nearest_error(table[0].copy(), table[1], bits)
    assert [limbs.join(e[:, k], bits) for k in range(len(rs))] == [min(abs(r), d - abs(r)) for r in rs]
