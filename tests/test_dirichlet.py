"""Witness searches for simultaneous approximation, both forms.

Every found witness is re-verified here in exact rational arithmetic against
the float inputs taken at their exact binary values, so a passing suite means
the searches never report a false positive.
"""

import itertools
import math
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolab import dirichlet as di


def _allowance(x):
    """Half-ulp uncertainty of a float input; exact inputs carry none."""
    if isinstance(x, float):
        return Q(math.ulp(x) if x else math.ulp(0.0)) / 2
    return Q(0)


def _canonical(q):
    mag = tuple(abs(c) for c in q)
    return (max(mag), mag[::-1], tuple(int(c < 0) for c in q))


def _plain_witnesses(query):
    """Every exact primal witness of the box as (err, q, p), by a plain scan."""
    xi = [Q(x) for x in query.xi]
    rates = [_allowance(x) for x in query.xi]
    bound = Q(query.mu) / query.box_product
    found = []
    for q in itertools.product(*(range(-b, b + 1) for b in query.bounds)):
        if not any(q):
            continue
        r = sum(x * c for x, c in zip(xi, q))
        shrink = sum(u * abs(c) for u, c in zip(rates, q))
        for p in range(math.floor(r - bound), math.ceil(r + bound) + 1):
            if abs(r - p) + shrink <= bound:
                found.append((abs(r - p), q, p))
    return found


def _plain_dual_witness(query):
    """Smallest q > 0 passing every coordinate, by a plain scan."""
    for q in range(1, query.box_product + 1):
        ps = []
        for x, n_i in zip(query.xi, query.bounds):
            r = Q(x) * q
            err, p = min((abs(r - p), p) for p in (math.floor(r), math.floor(r) + 1))
            if err + _allowance(x) * q > Q(query.mu) / n_i:
                break
            ps.append(p)
        else:
            return (q, tuple(ps))
    return None


def _primal_holds(query, witness, slack=Q(1, 10**12)):
    q_vec, p = witness
    xi = [Q(x) for x in query.xi]
    err = abs(sum(x * q for x, q in zip(xi, q_vec)) - p)
    bound = Q(query.mu) / query.box_product
    return err <= bound * (1 + slack) + slack


def _dual_holds(query, witness, slack=Q(1, 10**12)):
    q, p_vec = witness
    for x, p, n_i in zip(query.xi, p_vec, query.bounds):
        if abs(Q(x) * q - p) > Q(query.mu) / n_i * (1 + slack) + slack:
            return False
    return True


# -- primal form --------------------------------------------------------------


def test_rational_point_hits_exactly():
    res = di.di_witness(di.DIQuery((1 / 3,), (3,), 0.5))
    assert res.found
    assert res.witness == ((3,), 1)
    # the float 1/3 is (2^54 - 1) / (3 2^54), so 3 (1/3) - 1 misses by 2^-54
    assert abs(3 * Q(1 / 3) - 1) == Q(1, 2**54)


def test_irrational_point_two_candidates():
    xi = math.sqrt(2) - 1
    res = di.di_witness(di.DIQuery((xi,), (2,), 0.9))
    assert res.found
    assert res.witness == ((2,), 1)
    assert abs(2 * xi - 1) <= 0.45


def test_irrational_point_no_witness_at_tight_mu():
    xi = math.sqrt(2) - 1
    res = di.di_witness(di.DIQuery((xi,), (1,), 0.4))
    assert not res.found
    assert res.witness is None


def test_witness_ties_resolve_to_nonnegative_q():
    res = di.di_witness(di.DIQuery((0.5,), (2,), 1.0))
    assert res.found
    assert res.witness == ((2,), 1)


def test_half_integer_ties_take_the_lower_p():
    # q xi = 1/2 sits between p = 0 and p = 1 at the same error
    assert di.di_witness(di.DIQuery((0.5,), (1,), 1.0)).witness == ((1,), 0)
    assert di.di_witness(di.DIQuery((-0.5,), (1,), 1.0)).witness == ((1,), -1)
    assert di.di_dual_witness(di.DIQuery((0.5,), (1,), 1.0)).witness == (1, (0,))
    assert di.box_point_search(di.DIQuery((0.5,), (1,), 1.0)).witness == ((1,), 0)


def test_witness_exactly_on_the_boundary_is_found():
    # |10/11 - 1| = 1/11 is the bound exactly, but in floats the error
    # reads 0.0909...094 against a bound of 0.0909...091: only a band
    # widened by the rounding of the sweep keeps the witness
    query = di.DIQuery((Q(10, 11),), (2,), Q(2, 11))
    assert di.di_witness(query).witness == ((1,), 1)
    assert di.box_point_search(query).witness == ((1,), 1)
    assert di.di_dual_witness(query).witness == (1, (1,))


def test_search_volume_counts_the_grid():
    res = di.di_witness(di.DIQuery((0.3, 0.7), (2, 3), 0.9))
    assert res.search_volume == 5 * 7 - 1


def test_budget_guard():
    with pytest.raises(di.SearchBudgetError):
        di.di_witness(di.DIQuery((0.3, 0.4), (4000, 4000), 0.5))


def test_query_validation():
    with pytest.raises(ValueError):
        di.DIQuery((0.5,), (0,), 0.5)
    bad_mu = [math.nan, math.inf, -math.inf, 0.0, -0.5, 1.5, 1.0 + 2**-52,
              0, -1, 2, Q(0), Q(-1, 3), Q(3, 2), 1 + Q(1, 10**30)]
    # a bool or a non-real is no factor, not even True as 1
    bad_mu += [True, False, np.True_, "0.5", None, 0.5j, [0.5]]
    for mu in bad_mu:
        with pytest.raises(ValueError):
            di.DIQuery((0.5,), (2,), mu)
    for mu in (1, 1.0, Q(1), 5e-324, Q(1, 10**30), np.float64(0.5)):
        assert di.DIQuery((0.5,), (2,), mu).mu == mu
    # a float coordinate must be finite, before any search runs
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            di.DIQuery((0.5, x), (2, 2), 0.5)
    # a coordinate is a number read exactly: no bool as 1, string, complex or float32
    for x in (True, np.True_, "0.5", None, 0.5 + 0j, np.float32(0.5), [0.5]):
        with pytest.raises(ValueError, match="coordinates"):
            di.DIQuery((0.5, x), (2, 2), 0.5)
    for x in (np.float64(0.5), Q(1, 2), 1, np.int64(1)):
        assert di.DIQuery((0.5, x), (2, 2), 0.5).xi == (0.5, x)
    # box sizes are integers: no truncated float, no bool, no string
    for bounds in [(2.7,), (2.0,), (True,), (2, False), (np.True_,), ("2",), (Q(2),), (0,)]:
        with pytest.raises(ValueError):
            di.DIQuery((0.5,) * len(bounds), bounds, 0.5)
    sized = di.DIQuery((0.5, 0.25), (np.int64(3), 2), 0.5)
    assert sized.bounds == (3, 2) and all(type(b) is int for b in sized.bounds)


@given(
    xi=st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=1, max_size=2),
    bounds=st.lists(st.integers(1, 6), min_size=1, max_size=2),
    mu=st.sampled_from([0.2, 0.5, 0.9]),
)
@settings(max_examples=80, deadline=None)
def test_found_primal_witnesses_verify_exactly(xi, bounds, mu):
    k = min(len(xi), len(bounds))
    query = di.DIQuery(tuple(xi[:k]), tuple(bounds[:k]), mu)
    res = di.di_witness(query)
    if res.found:
        assert _primal_holds(query, res.witness)
        # with the half-ulp shrink of every input, the error is within the bound exactly
        q, p = res.witness
        err = abs(sum(Q(x) * c for x, c in zip(query.xi, q)) - p)
        shrink = sum(_allowance(x) * abs(c) for x, c in zip(query.xi, q))
        assert err + shrink <= Q(query.mu) / query.box_product


# -- dual form ----------------------------------------------------------------


def test_dual_common_denominator():
    res = di.di_dual_witness(di.DIQuery((0.5, 1 / 3), (2, 3), 0.5))
    assert res.found
    assert res.witness == (6, (3, 2))


def test_dual_minimal_q_is_returned():
    xi = (math.sqrt(2) - 1, math.sqrt(3) - 1)
    query = di.DIQuery(xi, (2, 2), 0.9)
    res = di.di_dual_witness(query)
    assert res.found
    q_found, _ = res.witness
    assert 1 <= q_found <= 4
    assert _dual_holds(query, res.witness)
    # no strictly smaller positive q admits a witness (margins are wide here)
    for q in range(1, q_found):
        worst = max(abs(x * q - round(x * q)) - 0.9 / n for x, n in
                    zip(xi, query.bounds))
        assert worst > 1e-6


@pytest.mark.parametrize("far", [10**300, 10**400], ids=["1e300", "1e400"])
def test_dual_witness_of_a_shifted_xi_shifts_p(far):
    # xi + far has the witnesses of xi, with each p moved by q far; the float
    # band is taken on xi less its nearest integers, so nothing overflows
    xi = (Q(1, 3) + Q(1, 2**40), Q(2, 7))
    base = di.di_dual_witness(di.DIQuery(xi, (4, 4), 0.6))
    moved = di.di_dual_witness(di.DIQuery(tuple(x + far for x in xi), (4, 4), 0.6))
    q, p = base.witness
    assert moved.witness == (q, tuple(c + q * far for c in p))


def test_dual_tiny_mu_finds_nothing():
    res = di.di_dual_witness(
        di.DIQuery((math.sqrt(2) - 1, math.sqrt(3) - 1), (2, 2), 1e-9)
    )
    assert not res.found


# -- lattice reformulation ----------------------------------------------------


def test_box_search_matches_direct_witness():
    query = di.DIQuery((0.4,), (3,), 1.0)
    direct = di.di_witness(query)
    boxed = di.box_point_search(query)
    assert direct.found and boxed.found
    (q,), p = boxed.witness
    # the lattice point (xi q - p, q) lies in the box [-1/3, 1/3] x [-3, 3]
    assert abs(Q(0.4) * q - p) <= Q(1, 3)
    assert 0 < abs(q) <= 3


def test_zero_vector_query_maps_to_integer_lattice():
    query = di.DIQuery((0.0, 0.0), (2, 2), 0.7)
    res = di.box_point_search(query)
    assert res.found
    assert res.witness[1] == 0  # p


def test_forms_agree_on_random_queries():
    import numpy as np

    rng = np.random.default_rng(99)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        query = di.DIQuery(
            tuple(float(x) for x in rng.uniform(-2, 2, n)),
            tuple(int(b) for b in rng.integers(1, 8, n)),
            float(rng.choice([0.3, 0.6, 0.9])),
        )
        assert di.di_witness(query).found == di.box_point_search(query).found


def test_mu_monotonicity():
    import numpy as np

    rng = np.random.default_rng(7)
    for _ in range(40):
        xi = tuple(float(x) for x in rng.uniform(-2, 2, 2))
        bounds = tuple(int(b) for b in rng.integers(1, 7, 2))
        flags = [
            di.di_witness(di.DIQuery(xi, bounds, mu)).found
            for mu in (0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        assert all(b or not a for a, b in zip(flags, flags[1:]))
        assert flags[-1]  # mu = 1 always admits a witness


# -- exponent statistics -------------------------------------------------------


def test_rbar1_exact_values():
    # a certified ratio is a Fraction; 0.5 == Q(1, 2) would pass as a float too
    half = di.rbar1([(2**k, 2**k) for k in range(1, 21)])
    assert isinstance(half, Q) and half == Q(1, 2)
    two_thirds = di.rbar1([(4**k, 2**k) for k in range(1, 21)])
    assert isinstance(two_thirds, Q) and two_thirds == Q(2, 3)


@pytest.mark.parametrize("target, value", [
    ((2**30, 2**15), Q(2, 3)),  # b = 3 at prod = 2^45
    ((2**10, 2), Q(10, 11)),  # b = 11 = log2(prod), the largest the bound allows
    ((3**40, 3**9, 3**5), Q(20, 27)),
])
def test_rbar1_certifies_exact_ratios_at_large_products(target, value):
    res = di.rbar1([target])
    assert isinstance(res, Q) and res == value


def test_rbar1_trivial_direction():
    res = di.rbar1([(2**k, 1) for k in range(1, 11)])
    assert res == 1


def test_rbar1_skips_degenerate_entries():
    # (1, 1) has both logs zero; the other two give 1/2
    assert di.rbar1([(1, 1), (4, 4), (8, 8)]) == Q(1, 2)
    with pytest.raises(ValueError):
        di.rbar1([(1, 1)])


def test_rbar1_range_invariant():
    import numpy as np

    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        seq = [tuple(int(b) for b in rng.integers(1, 50, n)) for _ in range(12)]
        if all(math.prod(t) == 1 for t in seq):
            continue
        res = di.rbar1(seq)
        assert Q(1, n) <= res <= 1
    # a ratio no integer identity certifies stays a float
    assert isinstance(di.rbar1([(3, 2)]), float)


# -- curve scans ---------------------------------------------------------------


def _improvable(s_values, answers, targets):
    """Fraction of grid points whose answers all found a witness, recounted."""
    by_s = {}
    for k, pair in enumerate(answers):
        by_s.setdefault(s_values[k // targets], []).extend(res.found for res in pair)
    assert all(len(found) == 2 * targets for found in by_s.values())
    return sum(all(found) for found in by_s.values()) / len(by_s)


def test_curve_scan_small_table():
    curve = di.CurveSpec.moment(2)
    s_values, answers, fraction = di.curve_scan(curve, (0.0, 1.0), ((2, 2), (4, 4)), 0.3, 12)
    assert len(set(s_values)) == 12
    assert len(answers) == 12 * 2  # a (primal, dual) pair per (s, N)
    assert all(isinstance(res, di.WitnessResult) for pair in answers for res in pair)
    assert 0.0 <= fraction <= 1.0
    assert fraction == _improvable(s_values, answers, 2)


def test_box_sizes_are_checked_as_the_query_checks_them():
    # int() would run 2.7 as 2 and True as 1
    curve = di.CurveSpec.moment(2)
    for prefix in [((2.7, 2), (True, 3)), ((2, 2), (True, 3)), ((2, 2), (0, 3))]:
        with pytest.raises(ValueError, match="box sizes"):
            di.curve_scan(curve, (0.0, 1.0), prefix, 0.3, 2)
    for targets in [[(2.7, 2.2), (4.9, 2)], [(4, 4), (True, 2)], [(4, 4), (0, 2)],
                    [(4, "2")], [(Q(4), 4)]]:
        with pytest.raises(ValueError, match="box sizes"):
            di.rbar1(targets)
    assert di.rbar1([(np.int64(4), 4)]) == Q(1, 2)


def test_curve_scan_raises_on_a_target_over_the_budget(monkeypatch):
    # prod N = 16 for (4, 4) is over a budget of 10; no cell is made up for it
    monkeypatch.setattr(di, "SEARCH_BUDGET", 10)
    curve = di.CurveSpec.moment(2)
    with pytest.raises(di.SearchBudgetError, match="16 points exceeds budget 10"):
        di.curve_scan(curve, (0.0, 1.0), ((2, 2), (4, 4)), 0.3, 12)
    _, answers, _ = di.curve_scan(curve, (0.0, 1.0), ((2, 2),), 0.3, 12)
    assert len(answers) == 12


def test_a_dirichlet_scan_over_the_budget_exits_4(monkeypatch, tmp_path):
    # the scan's targets (2^k, 2^k) pass 1,000 at (32, 32); seed 3's few random
    # queries stay within it, so the scan is what stops the run
    from horolab.harness import run, validate_config

    monkeypatch.setattr(di, "SEARCH_BUDGET", 1000)
    cfg = validate_config({"kind": "dirichlet-scan", "n": 2, "curve": "moment", "seed": 3,
                           "samples": {"grid": 3, "monotonicity": 2, "queries": 2}})
    out = run(cfg, tmp_path)
    assert out.exit_code == 4
    entry = out.summary["checks"]["acceptance-10"]
    assert entry["budget_exceeded"] and not entry["pass"]
    assert "1024 points exceeds budget 1000" in entry["detail"]


def test_curve_scan_mu_one_everything_found():
    curve = di.CurveSpec.moment(2)
    _, answers, fraction = di.curve_scan(curve, (0.1, 0.9), ((2, 2), (2, 4)), 1.0, 6)
    assert all(res.found for pair in answers for res in pair)
    assert fraction == 1.0


# -- exact sweeps --------------------------------------------------------------


@pytest.mark.parametrize("s, witness", [
    (0.18181818181818182, ((21, -55), 2)),
    (0.36363636363636365, ((23, -33), 4)),
    (0.7272727272727273, ((46, -33), 16)),
])
def test_scan_cells_get_the_smallest_error_witness(s, witness):
    # Near 2/11, 4/11 and 8/11 the moment curve puts 128 exact witnesses in
    # the float band of the (64, 64) box, all with errors near 1e-17.  A
    # shortlist cut used to return a larger-error one, e.g. ((2, -11), 0)
    # with error 1.01e-17 at s = 2/11 against 5.05e-18 here.
    query = di.DIQuery((Q(s), Q(s) ** 2), (64, 64), 0.3)
    res = di.di_witness(query)
    assert res.found and res.witness == witness
    _, q, p = min(_plain_witnesses(query), key=lambda w: (w[0], _canonical(w[1]), w[2]))
    assert (q, p) == witness


def _near_rational(draw):
    """a/b plus an offset over 2^k or 3 2^k, k = 20 .. 300: denominators of
    one limb to several."""
    b = draw(st.integers(1, 12))
    x = Q(draw(st.integers(-2 * b, 2 * b)), b)
    return x + Q(draw(st.integers(-3, 3)),
                 draw(st.sampled_from([1, 3])) * 2 ** draw(st.integers(20, 300)))


def _subnormal(draw):
    return draw(st.integers(-(2**52) + 1, 2**52 - 1)) * 5e-324


def _boxes(draw, n, small):
    """Box sizes up to ``small``, one of them up to a few hundred; the plain
    scans walk the whole box."""
    bounds = [draw(st.integers(1, small)) for _ in range(n)]
    bounds[draw(st.integers(0, n - 1))] = draw(st.integers(1, (300, 40, 8)[n - 1]))
    return tuple(bounds)


@st.composite
def _near_rational_queries(draw):
    """xi = a/b plus a small dyadic or 3-adic offset, or a subnormal float;
    mu just below, on or above the smallest factor at which the box holds a
    witness."""
    n = draw(st.integers(1, 3))
    as_float = draw(st.booleans())
    xi = []
    for _ in range(n):
        if as_float and draw(st.integers(0, 3)) == 0:
            xi.append(_subnormal(draw))
            continue
        x = _near_rational(draw)
        xi.append(float(x) if as_float else x)
    bounds = _boxes(draw, n, 5)
    edge = min(
        abs(r - round(r))
        for q in itertools.product(*(range(-b, b + 1) for b in bounds)) if any(q)
        for r in [sum(Q(x) * c for x, c in zip(xi, q))]
    ) * math.prod(bounds)
    side = draw(st.sampled_from([-1, 0, 1]))
    mu = edge * (1 + side * Q(1, 2**30)) if edge else Q(2 + side, 2**30)
    return di.DIQuery(tuple(xi), bounds, min(mu, Q(1)))


@given(query=_near_rational_queries())
@settings(max_examples=60, deadline=None)
def test_searches_match_a_plain_exact_scan(query):
    witnesses = _plain_witnesses(query)
    direct = di.di_witness(query)
    boxed = di.box_point_search(query)
    assert direct.found == boxed.found == bool(witnesses)
    if witnesses:
        # the sweep: smallest error, then canonical q, then p
        _, q, p = min(witnesses, key=lambda w: (w[0], _canonical(w[1]), w[2]))
        assert direct.witness == (q, p)
        # the lattice search: canonical-first q, then its nearest p
        _, q, p = min(witnesses, key=lambda w: (_canonical(w[1]), w[0], w[2]))
        assert boxed.witness == (q, p)
    assert di.di_dual_witness(query).witness == _plain_dual_witness(query)


@pytest.mark.parametrize("prefix", [((2, 2), (4, 4), (8, 8)), ((2, 2), (2, 4)),
                                    ((4, 2), (2, 4), (3, 3))])
def test_curve_scan_cells_equal_single_searches(prefix):
    curve = di.CurveSpec.moment(2)
    for interval in ((0.0, 1.0), (0.05, 0.95)):
        s_values, answers, fraction = di.curve_scan(curve, interval, prefix, 0.3, 12)
        assert fraction == _improvable(s_values, answers, len(prefix))
        for k, pair in enumerate(answers):
            sq = Q(s_values[k // len(prefix)])
            query = di.DIQuery((sq, sq * sq), prefix[k % len(prefix)], 0.3)
            assert pair == (di.di_witness(query), di.di_dual_witness(query))


def _window_candidates(query):
    """The positive-first points the window search confirms for one query."""
    return [tuple(int(c) for c in col) for _, q in di._Sweep([query]).candidates() for col in q.T]


@pytest.mark.parametrize("block", [1, 2, 5, None])
def test_a_zero_target_makes_every_positive_first_point_a_candidate_once(monkeypatch, block):
    # every residue of xi = 0 is 0, so each window of a head holds its whole
    # tail: the units, blocks and de-duplicated windows must cover the
    # positive-first half exactly once, in any block size
    if block is not None:
        monkeypatch.setattr(di, "_BLOCK", block)
    for bounds in [(3,), (3, 2), (1, 4), (2, 2, 1)]:
        got = _window_candidates(di.DIQuery((0.0,) * len(bounds), bounds, 1.0))
        every = [q for q in itertools.product(*(range(-b, b + 1) for b in bounds)) if any(q)]
        half = [q for q in every if next(c for c in q if c) > 0]
        assert sorted(got) == sorted(half)
        assert sorted(got + [tuple(-c for c in q) for q in got]) == sorted(every)


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -4e-320, 2.2250738585072014e-308, 1e300,
            -1e300, 0.5, -0.5, 1 / 3]


@st.composite
def _window_queries(draw):
    """Queries of dimension 1-3 mixing extreme floats, floats and Fractions
    near small rationals, and factors at the edge of a witness."""
    n = draw(st.integers(1, 3))
    xi = []
    for _ in range(n):
        kind = draw(st.sampled_from(["special", "subnormal", "float", "fraction"]))
        if kind in ("special", "subnormal"):
            xi.append(draw(st.sampled_from(_SPECIAL)) if kind == "special" else _subnormal(draw))
            continue
        x = _near_rational(draw)
        xi.append(float(x) if kind == "float" else x)
    bounds = _boxes(draw, n, 4)
    edge = min(
        abs(r - round(r))
        for q in itertools.product(*(range(-b, b + 1) for b in bounds)) if any(q)
        for r in [sum(Q(x) * c for x, c in zip(xi, q))]
    ) * math.prod(bounds)
    mu = draw(st.sampled_from([Q(1), Q(1, 2), edge * (1 + Q(1, 2**30)), edge]))
    return di.DIQuery(tuple(xi), bounds, min(max(mu, Q(1, 2**40)), Q(1)))


@given(query=_window_queries())
@settings(max_examples=150, deadline=None)
def test_every_exact_witness_is_a_window_candidate(query):
    # the band covers the window arithmetic: each exact witness, taken with its
    # positive-first sign, is among the candidates, and no candidate repeats;
    # the limbs confirm each candidate to the plain scan's witness
    got = _window_candidates(query)
    assert len(got) == len(set(got))
    witnesses = _plain_witnesses(query)
    for _, q, _ in witnesses:
        lead = next(c for c in q if c)
        assert (q if lead > 0 else tuple(-c for c in q)) in set(got)
    res = di.di_witness(query)
    want = witnesses and min(witnesses, key=lambda w: (w[0], _canonical(w[1]), w[2]))
    assert res.witness == (want[1:] if want else None)
    assert res.confirmed == len(got)


def test_the_side_windows_keep_ties_at_half_residues(monkeypatch):
    # c(h) = b(q_n) = 1/2 for q = (1, 1): q . xi = 1 wraps to the window at
    # m = 1.  Its twin (1, -1) ties at error 0 and sorts later, so without the
    # side windows the witness changes; a wrapped witness never has a smaller
    # error than its twin, so only such ties depend on them.
    for x in (0.5, Q(1, 2)):
        query = di.DIQuery((x, x), (1, 1), 0.25)
        _, q, p = min(_plain_witnesses(query), key=lambda w: (w[0], _canonical(w[1]), w[2]))
        assert di.di_witness(query).witness == (q, p) == ((1, 1), 1)
        monkeypatch.setattr(di, "_SHIFTS", (0,))
        assert di.di_witness(query).witness == ((1, -1), 0)
        monkeypatch.undo()


@pytest.mark.parametrize("xi", [(0.0, 0.5), (-0.0, 0.5), (5e-324, 0.5), (0.5, -0.0, 5e-324),
                                (0.0, 0.25), (5e-324,)])
@pytest.mark.parametrize("mu", [Q(1), Q(1, 2), Q(1, 2**60)])
def test_tiny_floats_match_a_plain_exact_scan(xi, mu):
    # the half-ulp allowance of 0.0 is 2^-1075: it keeps its own denominator,
    # so the integer test of xi stays in one limb (a subnormal xi itself is
    # over 2^1074 and takes a limb per bits of its width)
    query = di.DIQuery(xi, (3,) * len(xi), mu)
    witnesses = _plain_witnesses(query)
    res = di.di_witness(query)
    assert res.found == bool(witnesses)
    if witnesses:
        _, q, p = min(witnesses, key=lambda w: (w[0], _canonical(w[1]), w[2]))
        assert res.witness == (q, p)
    assert di.box_point_search(query).found == res.found
    big = di.DIQuery(xi, (3000,) * len(xi) if len(xi) < 3 else (200, 200, 200), 0.5)
    sweep = di._Sweep([big])
    assert sweep.widths.tolist() == [1 if 5e-324 not in xi else -(-1075 // sweep.bits)]


def test_the_limbs_hold_the_largest_box_their_width_admits():
    # S = 63 - bitlen(M + ceil(M / 2)) for M = sum N_i: 682 is the largest M
    # at 53 bits.  The low 54 bits of 2^61 - 1 are all ones, so at q >= 514 a
    # limb one bit wider would pass 2^63
    xi = (Q(2**61 - 1, 2**62),)
    query = di.DIQuery(xi, (682,), 1)
    _, q, p = min(_plain_witnesses(query), key=lambda w: (w[0], _canonical(w[1]), w[2]))
    assert di.di_witness(query).witness == (q, p) == ((2,), 1)
    assert [di._Sweep([di.DIQuery(xi, (m,), 1)]).bits for m in (682, 683)] == [53, 52]


def test_an_error_equal_to_the_limit_is_a_witness_in_many_limbs():
    # 3 xi = 1 + 3 2^-200 over the denominator 3 2^200, four limbs: at
    # mu = 9 2^-200 the bound mu / 3 is that error exactly
    xi = (Q(1, 3) + Q(1, 2**200),)
    assert di._Sweep([di.DIQuery(xi, (3,), 1)]).widths.tolist() == [4]
    for mu, want in ((Q(9, 2**200), ((3,), 1)), (Q(9, 2**200) - Q(1, 2**300), None)):
        assert di.di_witness(di.DIQuery(xi, (3,), mu)).witness == want


def test_a_half_residue_over_2_200_ties_to_the_lower_p():
    # q . xi = +-1/2 exactly over 2^200: the limbs give the error D / 2
    # whichever way the float p rounds, and the winner's p ties low
    xi = (Q(1, 2) + Q(1, 2**200), Q(-1, 2**200))
    sweep = di._Sweep([di.DIQuery(xi, (1, 1), 1)])
    for q, p in (((1, 1), 0), ((-1, -1), -1)):
        best = [None]
        sweep.confirm(np.zeros(1, dtype=np.int64), np.array(q).reshape(2, 1), best)
        assert (best[0][0], *best[0][2:]) == (2**199, q, p)


def test_the_counts_show_each_python_int_shrink_test():
    # 2 xi = 1 exactly: the Fraction passes in limbs, and the float's half-ulp
    # shrink 2^-53, over the bound 2^-61, takes one Python-int test
    exact, rounded = (di.di_witness(di.DIQuery((x,), (2,), Q(1, 2**60))) for x in (Q(1, 2), 0.5))
    assert (exact.witness, exact.python_int) == (((2,), 1), 0)
    assert (rounded.found, rounded.python_int) == (False, 1)
    assert exact.confirmed == rounded.confirmed == len(_window_candidates(
        di.DIQuery((0.5,), (2,), Q(1, 2**60))))


def test_tie_with_the_negation_goes_to_the_positive_first_point():
    # (0, 2) and (0, -2) both have error 0; the leading zero does not decide
    query = di.DIQuery((0.3, 0.5), (2, 2), 1.0)
    assert di.di_witness(query).witness == ((0, 2), 1)


def test_sweeps_match_single_searches_in_any_slab_size(monkeypatch):
    # primal blocks and dual slabs only bound memory; they change no result
    rng = np.random.default_rng(5)
    forms = ((di.primal_sweep, di.di_witness), (di.dual_sweep, di.di_dual_witness))
    batches = []
    for _ in range(30):
        n = int(rng.integers(1, 4))
        xi = tuple(float(x) for x in rng.uniform(-2, 2, n))
        mu = float(rng.choice([0.3, 0.6, 1.0]))
        for sweep, search in forms:
            batches.append((sweep, search, [
                di.DIQuery(xi, tuple(int(b) for b in rng.integers(1, 7, n)), mu)
                for _ in range(3)]))

    def sweep_all():
        return [sweep(batch) for sweep, _, batch in batches]

    whole = sweep_all()
    for (_, search, batch), results in zip(batches, whole):
        assert results == [search(q) for q in batch]
    monkeypatch.setattr(di, "_BLOCK", 5)
    monkeypatch.setattr(di, "_DUAL_CHUNK", 5)
    assert sweep_all() == whole


def _mixed_batch():
    """Queries of dimensions 1-3 in shuffled order, each xi asked with several
    boxes and factors, and the float 0.5 next to the Fraction 1/2."""
    rng = np.random.default_rng(11)
    batch = []
    for _ in range(12):
        n = int(rng.integers(1, 4))
        xi = tuple(float(x) for x in rng.uniform(-2, 2, n))
        if rng.integers(0, 2):
            xi = tuple(Q(x).limit_denominator(int(rng.integers(2, 40))) for x in xi)
        for mu in (0.3, 0.7, 1.0):
            batch.append(di.DIQuery(xi, tuple(int(b) for b in rng.integers(1, 9, n)), mu))
    # q = 2 meets 2 xi = 1 exactly; the half-ulp shrink of the float (2^-53)
    # is over the bound 2^-61, so only the Fraction finds it
    batch += [di.DIQuery((x, 0.25), (2, 1), Q(1, 2**60)) for x in (0.5, Q(1, 2))]
    return [batch[k] for k in rng.permutation(len(batch))]


def test_mixed_batches_equal_single_searches(monkeypatch):
    # a sweep takes any list of queries: mixed dimensions, shared xi, blocks
    # and slabs change no result
    batch = _mixed_batch()
    forms = ((di.primal_sweep, di.di_witness), (di.dual_sweep, di.di_dual_witness))
    single = [[search(q) for q in batch] for _, search in forms]
    exact, rounded = (next(r for q, r in zip(batch, single[0])
                           if q.mu == Q(1, 2**60) and type(q.xi[0]) is t) for t in (Q, float))
    assert exact.witness == ((2, 0), 1) and not rounded.found
    for (sweep, _), want in zip(forms, single):
        assert sweep(batch) == want
    monkeypatch.setattr(di, "_BLOCK", 3)
    monkeypatch.setattr(di, "_DUAL_CHUNK", 3)
    for (sweep, _), want in zip(forms, single):
        assert sweep(batch) == want
    for sweep, _ in forms:
        with pytest.raises(ValueError):
            sweep([])


def _counting(monkeypatch, name):
    """Replace ``di.<name>`` by a wrapper that records its arguments."""
    calls = []
    inner = getattr(di, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(di, name, wrapper)
    return calls


def test_a_curve_scan_makes_one_sweep_per_form(monkeypatch, tmp_path):
    # acceptance-10 sweeps its three query batches in one primal call and its
    # whole scan in another; the scan's grid points share one dual call
    from horolab.harness import run, validate_config

    primal = _counting(monkeypatch, "primal_sweep")
    dual = _counting(monkeypatch, "dual_sweep")
    cfg = validate_config({"kind": "dirichlet-scan", "n": 2, "curve": "moment",
                           "interval": [0, 1], "seed": 3,
                           "samples": {"grid": 9, "monotonicity": 20, "queries": 40}})
    assert run(cfg, tmp_path).exit_code == 0
    assert [len(args[0]) for args in primal] == [40 + 40 + 100, 9 * 8]
    assert [len(args[0]) for args in dual] == [9 * 8]


def test_blocks_bound_the_kernel_memory(monkeypatch):
    # thin boxes split into units, and a target whose whole box ties at
    # error 0 splits its candidates, without changing a result
    batch = [di.DIQuery((0.3, 0.7), (10**4, 1), 0.5),
             di.DIQuery((0.3, 0.7), (1, 10**4), 0.5),
             di.DIQuery((Q(0), Q(0)), (20, 20), 0.3),
             di.DIQuery((0.3, 0.7, 0.1), (5, 1, 6), 0.9)]
    want = [di.di_witness(q) for q in batch]
    assert want[2].witness == ((1, 0), 0)
    monkeypatch.setattr(di, "_BLOCK", 64)
    blocks = []
    inner = di._blocks

    def sizes(bounds):
        for k, h0, h1, t0, t1 in inner(bounds):
            blocks.append(int((h1 - h0 + t1 - t0).sum()))
            yield k, h0, h1, t0, t1

    monkeypatch.setattr(di, "_blocks", sizes)
    chunks = [kq.size for kq, _ in di._Sweep(batch).candidates()]
    # a chunk takes whole windows of at most half a block each: at most 1.5 blocks
    assert max(blocks) <= 64 and max(chunks) <= 96 and sum(chunks) >= 20 * 41
    assert di.primal_sweep(batch) == want


@pytest.mark.parametrize("prefix", [((2, 2), (4, 4), (8, 8), (16, 16)), ((3, 5), (8, 2))])
def test_scan_rows_at_rational_points_equal_a_plain_exact_scan(prefix):
    # s = 0 and s = 1 tie every box point at error 0; s = 1/3 and 2/3 put a
    # ninth of each box near an integer
    s_values, answers, _ = di.curve_scan(di.CurveSpec.moment(2), (0.0, 1.0), prefix, 0.3, 4)
    assert s_values == (0.0, 1 / 3, 2 / 3, 1.0)
    for k, (primal, dual) in enumerate(answers):
        s = Q(s_values[k // len(prefix)])
        query = di.DIQuery((s, s**2), prefix[k % len(prefix)], 0.3)
        witnesses = _plain_witnesses(query)
        want = witnesses and min(witnesses, key=lambda w: (w[0], _canonical(w[1]), w[2]))
        assert primal.witness == (want[1:] if want else None)
        assert dual.witness == _plain_dual_witness(query)
        assert all(res.found == (res.witness is not None) for res in (primal, dual))
