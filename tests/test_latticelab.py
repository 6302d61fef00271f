"""The D u(x) B builder, reduction, shortest vectors, sampling, and the
escape-rate probes of the escape experiment."""

import csv
import math
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horolab import exact
from horolab import latticelab as ll
from horolab import flowlab as fl
from horolab.curvejet import CurveError, CurveSpec
from horolab.harness import run, validate_config
from horolab.rng import generator
from lattice_helpers import (basis_rows, brute_force_shortest, random_real_basis,
                             random_unimodular_basis, walk_minimum)


_EXACT = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=60),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.integers(min_value=-9, max_value=9),
)


def _reference(diagonal, shear, base):
    """D u(x) B by exact matrix products: each generator row v goes to g v."""
    d = len(diagonal)
    u = [[Q(int(i == j)) for j in range(d)] for i in range(d)]
    u[0][1:] = map(Q, shear)
    g = exact.matmul(exact.diag(diagonal), exact.mat(u))
    rows = exact.transpose(g)
    if base is not None:
        rows = exact.matmul(basis_rows(base), rows)
    return rows


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(min_value=2, max_value=4), st.booleans())
def test_shear_basis_matches_the_exact_product(data, d, with_base):
    head = data.draw(st.lists(_EXACT.filter(bool), min_size=d - 1, max_size=d - 1))
    shear = data.draw(st.lists(_EXACT, min_size=d - 1, max_size=d - 1))
    base = None
    if with_base:
        rows = [list(map(Q, row)) for row in data.draw(
            st.lists(st.lists(_EXACT, min_size=d, max_size=d), min_size=d, max_size=d))]
        det = exact.det(rows)
        if det:  # the first row over det B makes the base unimodular
            rows[0] = [c / det for c in rows[0]]
            base = ll.LatticeBasis.from_rows(rows)
    det_b = base.det if base else 1
    # the last entry of D makes prod D det B = 1
    diagonal = head + [1 / (math.prod(map(Q, head)) * det_b)]
    built = ll.shear_basis(diagonal, shear, base)
    want = _reference(diagonal, shear, base)
    # the lowest-terms rows are the exact rows over their least denominator
    assert (built.ints, built.denom) == exact._scaled(want)
    # the determinant the builder checks is the one elimination finds
    assert built.det == math.prod(map(Q, diagonal)) * det_b == exact.det(want) == 1


def test_shear_basis_rejects_a_non_unimodular_diagonal():
    # the Fractions of float exponentials are unimodular within the tolerance
    ll.shear_basis((math.exp(20.0), math.exp(-20.0)), (0.25,), ll.catalog_basis(1))
    with pytest.raises(ll.LatticeError, match="not unimodular"):
        ll.shear_basis((1 + 1e-6, 1), (Q(1, 3),))
    with pytest.raises(ll.LatticeError, match="not unimodular"):
        ll.shear_basis((Q(1), Q(1) - Q(1, 10**6)), (Q(1, 3),), ll.catalog_basis(2))
    with pytest.raises(ll.LatticeError, match="dependent"):
        ll.shear_basis((0, 1), (1,))
    with pytest.raises(ll.LatticeError, match="shear entries"):
        ll.shear_basis((1, 1, 1), (1,))


_GOLDEN_ETA = (math.sqrt(5.0) - 1.0) / 2.0


def _escape_rows(tmp_path, ladder):
    """The escape.csv rows of the escape experiment along a t-ladder."""
    out = run(validate_config({"kind": "escape", "t_ladder": ladder}), tmp_path / "escape")
    with (out.artifact_dir / "escape.csv").open() as f:
        return list(csv.DictReader(f))


def test_escape_probe_matches_the_group_element_lattice(tmp_path):
    # the path before the builder: the columns of g = ((e^t, e^t x), (0, e^-t))
    rows = _escape_rows(tmp_path, list(range(1, 21)))
    assert [row["rate"] for row in rows] == ["super"] * 20 + ["critical"] * 20
    for row in rows:
        t = float(row["t"])
        e_plus, e_minus = Q(math.exp(t)), Q(math.exp(-t))
        if row["rate"] == "super":
            x = Q(math.exp(-2 * t))
        else:
            x = Q(_GOLDEN_ETA) * e_minus
        g = ((e_plus, e_plus * x), (Q(0), e_minus))
        assert float(row["value"]) == ll.systole(ll.LatticeBasis.from_rows(tuple(zip(*g))))


def test_translate_sample_is_one_series_per_seed():
    curve = CurveSpec.moment(1)
    sched = fl.FlowSchedule.preset("equal", n=1)
    base = ll.catalog_basis(1)
    alone = ll.translate_sample(curve, sched, base, t=3.0, count=60, seed=5)
    # other series drawn in between change nothing
    ll.translate_sample(curve, sched, ll.catalog_basis(0), t=3.0, count=40, seed=5)
    ll.translate_sample(curve, sched, base, t=3.0, count=40, seed=6)
    again = ll.translate_sample(curve, sched, base, t=3.0, count=60, seed=5)
    assert again.tolist() == alone.tolist()
    # the series is the seeded generator's draws in order, so a shorter
    # run is a prefix of a longer one
    draws = generator(5, "translate-sample").uniform(0.0, 1.0, size=60)
    diagonal = np.exp(sched.exponents(3.0)).tolist()
    systoles = [ll.systole(ll.shear_basis(diagonal, (s,), base)) for s in draws.tolist()]
    assert alone.tolist() == sorted(systoles)
    head = ll.translate_sample(curve, sched, base, t=3.0, count=25, seed=5)
    assert head.tolist() == sorted(systoles[:25])


@pytest.mark.parametrize("t", [0.5, 3.0, 8.0, 12.0])
def test_translate_sample_is_the_systole_of_each_built_lattice(t):
    # the sampler's hoisted rows and unreduced minimum give the same floats,
    # bit for bit, as the reduced LatticeBasis and its Fraction systole
    curve = CurveSpec.moment(1)
    sched = fl.FlowSchedule.preset("equal", n=1)
    draws = generator(9, "translate-sample").uniform(0.0, 1.0, size=150).tolist()
    diagonal = np.exp(sched.exponents(t)).tolist()
    for index in range(3):
        base = ll.catalog_basis(index)
        want = np.sort([ll.systole(ll.shear_basis(diagonal, (s,), base)) for s in draws])
        got = ll.translate_sample(curve, sched, base, t=t, count=150, seed=9)
        assert np.array_equal(got, want), (index, t)


def test_translate_sample_in_rank_three_walks_the_lll_record():
    curve = CurveSpec.moment(2)
    sched = fl.FlowSchedule.preset("equal", n=2)
    base = ll.LatticeBasis.from_rows(np.eye(3).tolist())
    draws = generator(4, "translate-sample").uniform(0.0, 1.0, size=30).tolist()
    diagonal = np.exp(sched.exponents(3.0)).tolist()
    want = np.sort([ll.systole(ll.shear_basis(diagonal, (Q(s), Q(s) ** 2), base)) for s in draws])
    assert np.array_equal(ll.translate_sample(curve, sched, base, t=3.0, count=30, seed=4), want)


def test_translate_sample_builds_no_lattice_per_sample(monkeypatch):
    base = ll.catalog_basis(2)

    def refuse(*args, **kwargs):
        raise AssertionError("a per-sample lattice was built")

    monkeypatch.setattr(ll, "shear_basis", refuse)
    monkeypatch.setattr(ll, "systole", refuse)
    values = ll.translate_sample(CurveSpec.moment(1), fl.FlowSchedule.preset("equal", n=1),
                                 base, t=3.0, count=20, seed=0)
    assert values.size == 20 and 0 < values[0] <= values[-1]


def test_translate_sample_needs_a_polynomial_curve():
    with pytest.raises(CurveError, match="polynomial"):
        ll.translate_sample(CurveSpec.preset("trig"), fl.FlowSchedule.preset("equal", n=2),
                            ll.LatticeBasis.from_rows(np.eye(3).tolist()), t=1.0, count=3,
                            seed=0)


def test_samplers_need_a_seed():
    # a forgotten seed is an error, not a silent reuse of series 0
    sched = fl.FlowSchedule.preset("equal", n=1)
    with pytest.raises(TypeError, match="seed"):
        ll.translate_sample(CurveSpec.moment(1), sched, ll.catalog_basis(0), t=1.0, count=3)


def test_catalog_bases_are_unimodular():
    # rotations enter as exact images of floats, so unimodular up to rounding
    for idx in range(len(ll.CATALOG_BASES)):
        basis = ll.catalog_basis(idx)
        assert abs(abs(float(exact.det(basis_rows(basis)))) - 1.0) < 1e-12


def test_lll_transform_is_unimodular():
    rows = random_unimodular_basis(3, seed=11).ints
    red = ll.lll_reduce(rows)
    assert abs(exact.det(red.transform)) == 1
    # the Gram-Schmidt data updated in place are those of transform x rows
    assert red.gso == ll._integral_gso(exact._imul(red.transform, rows))


def test_integer_unimodular_systole_is_one():
    # such bases span the full integer lattice, so the systole is pinned
    for seed in range(8):
        basis = random_unimodular_basis(3, seed=seed)
        assert abs(ll.systole(basis) - 1.0) < 1e-9


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_reduction_agrees_with_enumeration(dim):
    for seed in range(60):
        basis = random_real_basis(dim, seed=seed)
        fast = ll.shortest_vector(basis)
        slow = Q(brute_force_shortest(basis.ints), basis.denom**2)
        assert math.isclose(float(fast), float(slow), rel_tol=1e-9), f"dim={dim} seed={seed}"


def _skewed_t20_bases():
    t = 20.0
    a_t = (math.exp(t), math.exp(-t))
    # a_20 u(x) translates of the catalog bases, with x chosen so that a
    # short vector exists and the oracle's box stays small
    for idx in range(len(ll.CATALOG_BASES)):
        for x in (0.5, -2.0 / 3.0, math.exp(-2 * t)):
            yield ll.shear_basis(a_t, (x,), ll.catalog_basis(idx))
    # the super-rate escape-probe lattices a_t u(eta e^{-2t}) Z^2
    for eta in (1.0, (math.sqrt(5.0) - 1.0) / 2.0):
        yield ll.shear_basis(a_t, (Q(eta) * Q(math.exp(-2 * t)),))


def test_skewed_t20_bases_agree_with_brute_force():
    for basis in _skewed_t20_bases():
        fast = ll._minimum(basis.ints)
        slow = brute_force_shortest(basis.ints, radius=math.sqrt(fast) * (1 + 1e-9))
        assert slow == fast, basis.ints
        assert ll.shortest_vector(basis) == Q(fast, basis.denom**2)


def _rank2_rows():
    # a_t u(x) translates of the catalog bases, as the samplers draw them
    draws = generator(7, "rank2-cross-check").uniform(-3.0, 3.0, size=4).tolist()
    for t in (0.0, 0.5, 2.0, 5.0, 10.0, 15.0, 20.0):
        a_t = (math.exp(t), math.exp(-t))
        for idx in range(len(ll.CATALOG_BASES)):
            for x in draws + [0.5, math.exp(-2 * t)]:
                yield ll.shear_basis(a_t, (x,), ll.catalog_basis(idx)).ints
    # rational bases of any covolume, scaled to integer rows
    rng = np.random.default_rng(2)
    for _ in range(40):
        rows = [[Q(int(rng.integers(-99, 100)), int(rng.integers(1, 12))) for _ in range(2)]
                for _ in range(2)]
        i, k = int(rng.integers(0, 2)), int(rng.integers(1, 500))
        rows[i] = [c * k for c in rows[i]]  # skew the input
        ints, _ = exact._scaled(rows)
        if exact._bareiss_det(ints):
            yield ints
    # the rounding boundaries 2B = A and 2B = -A, and the stop test C = A
    # met at once and after one size reduction
    yield from (((2, 0), (1, 5)), ((2, 0), (-1, 5)), ((3, 1), (-1, 3)), ((3, 1), (2, 4)),
                ((1, 0), (0, 1)), ((2, 1), (1, 2)))


def test_rank2_minimum_matches_the_generic_kernel():
    # the LLL-plus-walk route stays the rank-2 reference
    brute = 0
    for rows in _rank2_rows():
        swapped = rows[::-1]
        fast = ll._minimum(rows)
        assert fast == ll._minimum(swapped), rows
        for order in (rows, swapped):
            red = ll.lll_reduce(order)
            assert fast == walk_minimum(red, red.gso[0][1]), rows
        try:
            slow = brute_force_shortest(rows, radius=math.sqrt(fast) * (1 + 1e-9))
        except ll.LatticeError:  # the oracle's box is too large
            continue
        assert slow == fast, rows
        brute += 1
    assert brute >= 100


def test_rank2_minimum_needs_no_lll(monkeypatch):
    class Reached(Exception):
        pass

    def refuse(basis):
        raise Reached

    monkeypatch.setattr(ll, "lll_reduce", refuse)
    sched = fl.FlowSchedule.preset("equal", n=1)
    ll.translate_sample(CurveSpec.moment(1), sched, ll.catalog_basis(1), t=3.0, count=5, seed=0)
    assert ll.systole(ll.catalog_basis(1)) == 1.0
    # rows (2, 0) and (2/3, 1/2)
    assert ll.shortest_vector(ll.shear_basis((2, Q(1, 2)), (Q(1, 3),))) == Q(25, 36)
    with pytest.raises(Reached):
        ll.shortest_vector(random_unimodular_basis(3, seed=0))
    with pytest.raises(Reached):
        ll.systole(random_real_basis(3, seed=0))


def _fraction_gso(rows):
    star, mu = [], {}
    for i, row in enumerate(rows):
        v = list(row)
        for j, s in enumerate(star):
            mu[i, j] = sum(a * b for a, b in zip(row, s)) / sum(c * c for c in s)
            v = [a - mu[i, j] * b for a, b in zip(v, s)]
        star.append(v)
    return mu, [sum(c * c for c in v) for v in star]


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_lll_output_is_reduced_on_fraction_bases(dim):
    rng = np.random.default_rng(dim)
    swaps = 0
    for _ in range(20):
        rows = [[Q(int(rng.integers(-99, 100)), int(rng.integers(1, 12)))
                 for _ in range(dim)] for _ in range(dim)]
        rows[0] = [c * 1000 for c in rows[0]]  # skew the input
        ints, _ = exact._scaled(rows)
        if not exact._bareiss_det(ints):
            continue
        red = ll.lll_reduce(ints)
        swaps += red.swaps
        assert abs(exact.det(red.transform)) == 1
        assert red.gso == ll._integral_gso(exact._imul(red.transform, ints))
        # reduced over the integer rows is reduced over the Fraction rows
        mu, norms = _fraction_gso(exact.matmul(red.transform, rows))
        assert all(abs(m) <= Q(1, 2) for m in mu.values())
        for k in range(1, dim):
            assert norms[k] >= (Q(3, 4) - mu[k, k - 1] ** 2) * norms[k - 1]
    assert swaps > 0


def test_basis_failure_paths():
    with pytest.raises(ll.LatticeError, match="square"):
        ll.LatticeBasis.from_rows([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ll.LatticeError, match="dependent"):
        ll.LatticeBasis.from_rows([[Q(1, 2), Q(1, 3)], [Q(3, 2), 1]])
    with pytest.raises(ll.LatticeError, match="dependent"):
        ll.LatticeBasis.from_rows([[0, 1, 0], [0, 2, 0], [1, 0, 0]])
    with pytest.raises(ll.LatticeError, match="not unimodular"):
        ll.LatticeBasis.from_rows([[2, 0], [0, Q(3, 5)]])
    # the kernel takes the integer rows of that lattice all the same
    ints, denom = exact._scaled([[2, 0], [0, Q(3, 5)]])
    assert Q(ll._minimum(ints), denom**2) == Q(9, 25)
    # a zero leading pivot is not a dependency
    ll.LatticeBasis.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def test_enumeration_alone_is_exact_on_unreduced_bases():
    # LLL keeps the coefficient ranges short; a skewed basis makes the
    # enumeration search wide intervals, which must still be exact
    for dim in (2, 3, 4):
        for seed in range(20):
            basis = random_real_basis(dim, seed=seed)
            shear = random_unimodular_basis(dim, seed=seed + 100).ints
            skewed = exact._imul(shear, basis.ints)
            identity = [[int(i == j) for j in range(dim)] for i in range(dim)]
            red = ll.ReducedBasis(identity, 0, ll._integral_gso(skewed))
            # from the shortest input row, which bounds the minimum
            radius = min(sum(c * c for c in row) for row in skewed)
            assert walk_minimum(red, radius) == ll._minimum(basis.ints)


def test_ball_walk_visits_every_point_once():
    # the region walk behind the systole and the Dirichlet box search
    # against a plain scan of a coefficient box that contains the ball
    import itertools

    for dim in (2, 3, 4):
        for seed in range(6):
            ints = random_real_basis(dim, seed=seed).ints
            red = ll.lll_reduce(ints)
            rows = exact._imul(red.transform, ints)
            # the longest reduced row lies on the sphere itself
            radius = max(sum(c * c for c in row) for row in rows)
            walked = []

            def visit(coords, norm):
                walked.append((tuple(coords), norm))
                return radius

            ll.enumerate_ball(red, radius, visit)
            inv = exact.inverse(rows)
            reach = math.sqrt(radius)
            spans = [int(reach * math.hypot(*(float(r[i]) for r in inv))) + 1
                     for i in range(dim)]
            expected = []
            for y in itertools.product(*(range(-b, b + 1) for b in spans)):
                x = [sum(c * row[k] for c, row in zip(y, rows)) for k in range(dim)]
                norm = sum(v * v for v in x)
                if norm <= radius:
                    expected.append((y, norm))
            assert sorted(walked) == sorted(expected)


def test_brute_force_radius_controls_cost():
    hit = brute_force_shortest(ll.catalog_basis(0).ints, radius=1.5)
    assert hit == 1


def test_brute_force_rejects_oversized_cell():
    basis = random_real_basis(3, seed=2)
    with pytest.raises(ll.LatticeError):
        brute_force_shortest(basis.ints, radius=500.0 * basis.denom)


def test_integer_shear_stabilizes_integer_lattice():
    # an integer unimodular map permutes Z^2 with itself
    moved = ll.shear_basis((1, 1), (1,), ll.catalog_basis(0))
    assert basis_rows(moved) == ((Q(1), Q(0)), (Q(1), Q(1)))
    assert abs(ll.systole(moved) - 1.0) < 1e-9
    assert abs(exact.det(basis_rows(moved))) == 1


def test_translate_sample_is_deterministic():
    curve = CurveSpec.moment(1)
    sched = fl.FlowSchedule.preset("equal", n=1)
    kw = dict(t=3.0, count=400, seed=123)
    m1 = ll.translate_sample(curve, sched, ll.catalog_basis(0), **kw)
    m2 = ll.translate_sample(curve, sched, ll.catalog_basis(0), **kw)
    assert m1.tolist() == m2.tolist()


def _farey_length(t, r):
    """Independent reference for F_t(r): the length of the union of the
    s-intervals in [0, 1) on which some primitive (p, q) has
    |(e^t (p + s q), e^-t q)| <= r, merged after sorting."""
    shrink = math.exp(-t)
    pieces = []
    for q in range(1, int(r / shrink) + 1):
        room = r * r - (shrink * q) ** 2
        if room <= 0:
            continue
        half = shrink * math.sqrt(room) / q
        pieces += [(max(a / q - half, 0.0), min(a / q + half, 1.0))
                   for a in range(q + 1) if math.gcd(a, q) == 1]
    total, end = 0.0, 0.0
    for lo, hi in sorted(pieces):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


@pytest.mark.parametrize("t", [1.0, 2.0])
def test_horocycle_law_is_the_farey_length(t):
    r = np.linspace(0.0, 1.0, 201)
    law = ll.horocycle_law(t, r)
    assert max(abs(a - _farey_length(t, b)) for a, b in zip(law.tolist(), r.tolist())) <= 1e-12


def test_horocycle_law_vanishes_below_the_first_vector_and_tends_to_haar():
    for t in (0.5, 1.0, 2.0, 3.0):
        r = np.linspace(0.0, math.exp(-t), 50)
        assert not ll.horocycle_law(t, r).any()
    r = np.linspace(0.0, 1.0, 2001)
    assert np.abs(ll.horocycle_law(8.0, r) - ll.haar_law(r)).max() <= 1e-4
    assert ll.haar_law(np.array([1.0]))[0] == 3 / math.pi


def test_horocycle_law_rejects_what_it_does_not_cover():
    for t, r in ((0.0, [0.5]), (1.0, [0.5, 1.5]), (1.0, [0.6, 0.5]), (1.0, [-0.1, 0.5]),
                 (1.0, [])):
        with pytest.raises(ValueError):
            ll.horocycle_law(t, np.array(r))


def _per_q_law(t, r):
    """F_t as first written: a fresh searchsorted and fresh temporaries per q."""
    shrink = math.exp(-t)
    phi = np.arange(int(r[-1] / shrink) + 1)
    law = np.zeros_like(r)
    for q in range(1, phi.size):
        if q > 1 and phi[q] == q:
            phi[q::q] -= phi[q::q] // q
        edge = shrink * q
        start = int(np.searchsorted(r, edge, side="right"))
        tail = r[start:]
        law[start:] += (2 * shrink * int(phi[q]) / q) * np.sqrt((tail - edge) * (tail + edge))
    return law


@pytest.mark.parametrize("t, top", [(1.0, 1.0), (2.0, 1.0), (8.0, 1.0), (12.0, 0.25)])
def test_horocycle_law_is_the_per_q_sum_bit_for_bit(t, top):
    # each point's value is its own ordered sum over q: the same on a merged
    # grid as on each part, and the same as the per-q loop (F_12 sums over
    # 40,000 denominators at r = 1/4 and 163,000 at r = 1)
    rng = np.random.default_rng(int(t))
    part_a = np.sort(rng.uniform(0.0, top, 60))
    part_b = np.linspace(0.0, top, 33)
    merged = np.union1d(part_a, part_b)
    law = ll.horocycle_law(t, merged)
    assert np.array_equal(law, _per_q_law(t, merged))
    for part in (part_a, part_b):
        assert np.array_equal(ll.horocycle_law(t, part), law[np.searchsorted(merged, part)])


def _sup_distance(values, law):
    """sup over r <= 1 of |F_n(r) - law(r)|, from its definition: the
    empirical CDF jumps only at sample points, so the sup is attained at or
    just below one of them, or at r = 1."""
    n = len(values)
    probes = [x for x in values if x <= 1] + [1.0]
    gaps = [abs(sum(v <= r for v in values) / n - law(r)) for r in probes]
    gaps += [abs(sum(v < r for v in values) / n - law(r)) for r in probes]
    return max(gaps)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.2), min_size=1, max_size=40))
def test_ks_distance_is_the_sup_over_r_at_most_one(points):
    values = np.sort(points)
    for law in (ll.haar_law, lambda r: np.asarray(r, dtype=float)):
        want = _sup_distance(values.tolist(), lambda r: float(law(np.array([r]))[0]))
        assert abs(ll.ks_distance(values, law) - want) <= 1e-12


def test_ks_distance_rejects_an_empty_sample():
    with pytest.raises(ValueError, match="non-empty"):
        ll.ks_distance(np.array([]), ll.haar_law)


def test_ks_distance_separates_flow_times():
    curve = CurveSpec.moment(1)
    sched = fl.FlowSchedule.preset("equal", n=1)
    values = ll.translate_sample(curve, sched, ll.catalog_basis(0), t=1.0, count=400, seed=1)
    threshold = ll.ks_null_quantile(400, 1e-3)
    assert ll.ks_distance(values, lambda r: ll.horocycle_law(1.0, r)) <= threshold
    assert ll.ks_distance(values, lambda r: ll.horocycle_law(6.0, r)) > threshold


def test_ks_null_quantile_shrinks_with_samples():
    # sqrt(ln(2 / alpha) / 2) / sqrt(n): 1.949 / sqrt(n) at alpha = 1e-3
    assert abs(ll.ks_null_quantile(10_000, 1e-3) - 0.019495) < 1e-6
    assert abs(ll.ks_null_quantile(3000, 1e-3) - 0.035592) < 1e-6
    assert ll.ks_null_quantile(10_000, 1e-3) < ll.ks_null_quantile(100, 1e-3) < 1.0
    assert ll.ks_null_quantile(100, 0.05) < ll.ks_null_quantile(100, 1e-3)


def test_escape_probe_super_regime(tmp_path):
    rows = [row for row in _escape_rows(tmp_path, list(range(16))) if row["rate"] == "super"]
    # at t = 0 the translate is u(1) Z^2 = Z^2, below the crossover 2 <= e^{4t}
    assert (rows[0]["in_regime"], float(rows[0]["value"])) == ("false", 1.0)
    for row in rows[1:]:
        t, value = float(row["t"]), float(row["value"])
        expected = math.exp(-t) * math.sqrt(2.0)
        assert row["in_regime"] == "true"
        assert abs(value - expected) <= 1e-12 * expected
        assert float(row["rel_err"]) == abs(value - expected) / expected <= 1e-12


def test_escape_probe_critical_stays_positive(tmp_path):
    rows = [row for row in _escape_rows(tmp_path, list(range(16))) if row["rate"] == "critical"]
    assert len(rows) == 16
    assert min(float(row["value"]) for row in rows) > 0.1
