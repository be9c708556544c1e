"""Correlations, the finite-time mixing statistic, and its verdicts.

The exact correlation path is cross-checked against a blunt numeric
oracle (dense grid membership counting) that shares no code with the
interval-overlap arithmetic, and against an exact oracle that recomputes
frac(i*gamma) per lag and overlaps intervals in QuadraticReal objects.
The floor-sum statistic is checked bit for bit against the O(t) exact
sum of ``mixing_oracle``, and both against that module's Monte-Carlo
estimates, which also reach the skew map's rectangles.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergolab import (
    BernoulliSpec,
    CylinderSet,
    NoClosedFormError,
    QuadraticReal,
    RotationNumber,
    SampleBatch,
    SystemSpec,
    TestSet,
    WindowError,
    correlation,
    iterate_batch,
    sample_batch,
    spawn_rngs,
    spectral_weak_mixing_check,
    spectrum_of,
    weak_mixing_statistic,
    weak_mixing_verdict,
)
from ergolab import systems
from ergolab.mixing import CONSISTENT_BELOW, INCONSISTENT_ABOVE, MAX_WEAK_MIXING_DIGITS

from entropy_oracle import concatenate, copied
from exact_oracle import bracket_float
from helpers import BENCH_ANGLES, GAMMA, UNIFORM4, four_systems
import mixing_oracle
from mixing_oracle import (
    CircleOrbit,
    birkhoff_average,
    exact_correlations,
    monte_carlo_correlation,
    monte_carlo_statistic,
    orbit_track,
    statistic_prefixes,
)

FAIR = BernoulliSpec.fair_coin()
ROT = SystemSpec.rotation(GAMMA)
SKEW = SystemSpec.skew(GAMMA)
SHIFT = SystemSpec.shift(FAIR)
PROD = SystemSpec.product(GAMMA, FAIR)

HALF = TestSet.u_interval(0, Fraction(1, 2))
W0 = TestSet.from_cylinder(CylinderSet(((0, 1),)))


def _grid_overlap_oracle(shift: float, a1, b1, a2, b2, grid: int = 2_000_001) -> float:
    """|(I1 + shift) cap I2| measured by dense membership counting."""
    xs = (np.arange(grid) + 0.5) / grid
    in1 = ((xs - shift) % 1.0 >= float(a1)) & ((xs - shift) % 1.0 < float(b1))
    in2 = (xs >= float(a2)) & (xs < float(b2))
    return float(np.mean(in1 & in2))


def _qr_interval_overlap_oracle(shift, a1, b1, a2, b2):
    """Exact length of ([a1, b1) + shift) cap [a2, b2) on the circle, with
    every comparison and difference made on Fraction/QuadraticReal objects.
    """
    lo = a1 + shift
    hi = b1 + shift
    if not hi > 1:
        pieces = [(lo, hi)]
    elif lo < 1:
        pieces = [(lo, Fraction(1)), (Fraction(0), hi - 1)]
    else:  # wholly past 1
        pieces = [(lo - 1, hi - 1)]
    total = None
    for plo, phi in pieces:
        left = plo if plo > a2 else a2
        right = phi if phi < b2 else b2
        if right > left:
            piece = right - left
            total = piece if total is None else total + piece
    return Fraction(0) if total is None else total


@st.composite
def _interval(draw):
    den = draw(st.integers(1, 13))
    lo, hi = sorted(draw(st.lists(st.integers(0, den), min_size=2, max_size=2,
                                  unique=True)))
    return Fraction(lo, den), Fraction(hi, den)


def _oracle_correlation(spec, A, B, i):
    """mu(S^i(A) cap B) on a system with a rotation factor, with
    frac(i*gamma) recomputed from scratch; a set that leaves a factor
    free has the whole circle or no constraint there."""
    value = _qr_interval_overlap_oracle(spec.gamma.frac_multiple(i), *A.u_arc, *B.u_arc)
    both = A.w_cylinder.translate(-i).merge(B.w_cylinder)
    return value * (0 if both is None else both.measure(spec.bernoulli))


# ---------------------------------------------------------------------------
# exact measures
# ---------------------------------------------------------------------------


def test_exact_measures():
    assert HALF.exact_measure(ROT) == Fraction(1, 2)
    assert TestSet.rectangle(0, Fraction(1, 3), Fraction(1, 4), 1).exact_measure(
        SKEW
    ) == Fraction(1, 4)
    assert W0.exact_measure(SHIFT) == Fraction(1, 2)
    both = TestSet.product_set(0, Fraction(1, 2), CylinderSet(((0, 1), (2, -1))))
    assert both.exact_measure(PROD) == Fraction(1, 8)
    assert TestSet.from_cylinder(CylinderSet(((0, 2),))).exact_measure(
        SystemSpec.shift(UNIFORM4)
    ) == Fraction(1, 4)


def test_a_test_set_takes_only_its_kinds_fields():
    """As a system spec refuses a field its kind does not take, so does a
    test set, and it names the field."""
    half, cyl = Fraction(1, 2), CylinderSet(((0, 1),))
    with pytest.raises(ValueError, match="^a u-interval test set takes no 'cylinder'$"):
        TestSet(kind="u-interval", a=Fraction(0), b=half, cylinder=cyl)
    with pytest.raises(ValueError, match="^a cylinder test set takes no 'a'$"):
        TestSet(kind="cylinder", a=Fraction(0), cylinder=cyl)
    with pytest.raises(ValueError, match="^a u-interval test set needs 'b'$"):
        TestSet(kind="u-interval", a=Fraction(0))
    with pytest.raises(ValueError, match="^a product test set needs 'cylinder'$"):
        TestSet(kind="product", a=Fraction(0), b=half)
    assert TestSet.from_json({"kind": "u-interval", "a": 0, "b": "1/2"}) == HALF
    with pytest.raises(ValueError, match="^a test-set end must be a finite number or "
                       "fraction string, got '1/0'$"):
        TestSet.from_json({"kind": "u-interval", "a": 0, "b": "1/0"})


def test_test_set_ends_are_read_as_probabilities_are():
    """An end is read by the one reader of probabilities: a float by
    its shortest repr, so 0.1 is 1/10 and not its binary value, and a
    string or a Fraction exactly."""
    tenth = TestSet.from_json({"kind": "u-interval", "a": 0.1, "b": "1/3"})
    assert (tenth.a, tenth.b) == (Fraction(1, 10), Fraction(1, 3))
    assert TestSet.u_interval(0.1, 0.5) == TestSet.u_interval("1/10", Fraction(1, 2))
    assert TestSet.rectangle(0.1, 0.2, 0.3, 0.7).exact_measure(SKEW) == Fraction(1, 25)


@pytest.mark.parametrize("spec", [ROT, PROD], ids=["rotation", "product"])
def test_a_rectangle_on_a_system_without_v_names_the_coordinate(spec):
    """A rectangle constrains v, which a rotation or product sample does
    not have; a u-interval on the same sample is answered."""
    batch = sample_batch(spec, spawn_rngs(0, 1)[0], 10)
    assert HALF.contains_batch(spec, batch).shape == (10,)
    with pytest.raises(ValueError, match="^rectangle set needs a v coordinate$"):
        TestSet.rectangle(0, "1/2", 0, "1/2").contains_batch(spec, batch)


@given(st.integers(0, 40))
def test_membership_frequency_matches_measure(seed):
    rng = spawn_rngs(seed, 1)[0]
    spec, ts = (ROT, HALF) if seed % 2 == 0 else (SHIFT, W0)
    batch = sample_batch(spec, rng, 4_000)
    freq = float(np.mean(ts.contains_batch(spec, batch)))
    mu = float(ts.exact_measure(spec))
    assert abs(freq - mu) < 5 * math.sqrt(mu * (1 - mu) / 4_000)


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("i", [0, 1, 3, 10, 57])
def test_rotation_correlation_matches_grid_oracle(i):
    point = correlation(ROT, HALF, HALF, i)
    theta = float(GAMMA.frac_multiple(i))
    oracle = _grid_overlap_oracle(theta, 0, 0.5, 0, 0.5)
    assert abs(point.estimate - oracle) <= 2e-6  # oracle is grid-limited
    assert point.i == i


def _overlap_by_lifts(shift, a1, b1, a2, b2):
    """|([a1, b1) + shift) cap [a2, b2)| on the circle as the overlaps of
    both lifts [a1 + shift - s, b1 + shift - s), s = 0, 1, with [a2, b2)."""
    total = Fraction(0)
    for s in (0, 1):
        lo, hi = a1 + shift - s, b1 + shift - s
        left = lo if lo > a2 else a2
        right = hi if hi < b2 else b2
        if right > left:
            total = right - left + total
    return total


def test_wrapped_arc_overlap():
    """A = [1/2, 1) moved by frac(2*gamma) = 2*sqrt(2) - 2 lies wholly past
    1, as the arc [2*sqrt(2) - 5/2, 2*sqrt(2) - 2); its overlap with
    [0, 1/2) is 3 - 2*sqrt(2) = 0.1716, not the 1/2 of the arc [0, hi - 1)."""
    A, B = TestSet.u_interval(Fraction(1, 2), 1), HALF
    for i in (2, 4, 7, 9, 11):
        shift = GAMMA.frac_multiple(i)
        want = QuadraticReal.of(0) + _overlap_by_lifts(shift, A.a, A.b, B.a, B.b)
        assert correlation(ROT, A, B, i).estimate == bracket_float(want)
    got = correlation(ROT, A, B, 2).estimate
    assert got == pytest.approx(3 - 2 * math.sqrt(2), abs=1e-15)
    assert abs(got - _grid_overlap_oracle(float(GAMMA.frac_multiple(2)), A.a, A.b, B.a, B.b)) <= 2e-6


@settings(max_examples=60, deadline=None)
@given(angle=st.sampled_from(BENCH_ANGLES), ia=_interval(), ib=_interval(),
       i=st.integers(0, 400))
def test_overlap_oracles_agree(angle, ia, ib, i):
    """The oracles' arcs cut at 1, the lifts and the library's overlap
    give the same exact value at every orbit point."""
    gamma = RotationNumber(*angle)
    A, B = TestSet.u_interval(*ia), TestSet.u_interval(*ib)
    shift = gamma.frac_multiple(i)
    want = QuadraticReal.of(0, gamma.exact.d) + _overlap_by_lifts(shift, *ia, *ib)
    assert want == _qr_interval_overlap_oracle(shift, *ia, *ib)
    orbit = CircleOrbit(gamma, A, B)
    p, q = orbit.length(*next(orbit.orbit(i)))
    assert want == QuadraticReal.from_integers(p, q, gamma.exact.d, orbit.D)
    assert correlation(SystemSpec.rotation(gamma), A, B, i).estimate == bracket_float(want)


def test_skew_u_interval_correlation_reduces_to_the_rotation():
    for i in (0, 2, 9):
        assert correlation(SKEW, HALF, HALF, i).estimate == pytest.approx(
            correlation(ROT, HALF, HALF, i).estimate, abs=1e-15
        )


def test_bernoulli_correlations_are_products_or_clashes():
    # lag 0, same constraint: mu(A) itself
    assert correlation(SHIFT, W0, W0, 0).estimate == 0.5
    # lag 0, clashing constraint: empty intersection
    wm = TestSet.from_cylinder(CylinderSet(((0, -1),)))
    assert correlation(SHIFT, W0, wm, 0).estimate == 0.0
    # positive lags separate the constraints: exact independence
    for i in (1, 2, 19):
        assert correlation(SHIFT, W0, W0, i).estimate == 0.25


def test_product_correlation_factorizes():
    A = TestSet.product_set(0, Fraction(1, 2), CylinderSet(((0, 1),)))
    for i in (0, 1, 4):
        got = correlation(PROD, A, A, i).estimate
        u_part = correlation(ROT, HALF, HALF, i).estimate
        w_part = correlation(SHIFT, W0, W0, i).estimate
        assert got == pytest.approx(u_part * w_part, abs=1e-15)


def test_monte_carlo_correlation_is_consistent():
    rng = spawn_rngs(99, 1)[0]
    exact = correlation(ROT, HALF, HALF, 7).estimate
    mc = monte_carlo_correlation(ROT, HALF, HALF, 7, samples=40_000, rng=rng)
    assert mc.stderr > 0
    assert abs(mc.estimate - exact) <= 5 * mc.stderr


def test_a_factor_the_system_lacks_has_no_closed_form():
    with pytest.raises(NoClosedFormError, match="^a u-interval test set constrains u, "
                       "which a bernoulli system does not have$"):
        correlation(SHIFT, W0, HALF, 1)
    for spec in (ROT, SKEW):
        with pytest.raises(NoClosedFormError, match="^a cylinder test set constrains "
                           f"sequence symbols, which a {spec.kind} system does not have$"):
            correlation(spec, HALF, W0, 1)


#: Pairs of different kinds on the product, which factor exactly: a set
#: that leaves a factor free is the whole coordinate there.
MIXED_PRODUCT_PAIRS = {
    "interval-cylinder": (TestSet.u_interval(Fraction(1, 4), Fraction(5, 6)),
                          TestSet.from_cylinder(CylinderSet(((0, 1), (2, -1))))),
    "set-interval": (TestSet.product_set(0, Fraction(1, 3), CylinderSet(((-1, 1), (2, -1)))),
                     TestSet.u_interval(Fraction(1, 4), 1)),
    "set-cylinder": (TestSet.product_set(0, Fraction(1, 3), CylinderSet(((-1, 1), (2, -1)))),
                     TestSet.from_cylinder(CylinderSet(((1, 1), (4, 1))))),
}


@pytest.mark.parametrize("pair", list(MIXED_PRODUCT_PAIRS))
def test_mixed_product_pairs_match_monte_carlo(pair):
    A, B = MIXED_PRODUCT_PAIRS[pair]
    rng = spawn_rngs(31, 1)[0]
    for i in range(21):
        exact = correlation(PROD, A, B, i).estimate
        mc = monte_carlo_correlation(PROD, A, B, i, samples=20_000, rng=rng)
        assert abs(mc.estimate - exact) <= 4 * mc.stderr, i


def test_an_interval_and_a_cylinder_are_independent_on_the_product():
    """Every correlation of a u-interval with a cylinder is exactly
    mu(A)mu(B), so the statistic is exactly 0 at every t."""
    A, B = MIXED_PRODUCT_PAIRS["interval-cylinder"]
    for t in (1, 57, 10**12):
        assert weak_mixing_statistic(PROD, A, B, t) == 0.0
        assert weak_mixing_statistic(PROD, B, A, t) == 0.0
    assert correlation(PROD, A, B, 3).estimate == float(A.exact_measure(PROD) * B.exact_measure(PROD))


def test_rectangles_have_no_closed_form_on_the_skew():
    """Nor on the rotation and the product, whose torus has no v, even
    against a u-interval; the skew's Monte Carlo estimate still runs."""
    R = TestSet.rectangle(0, Fraction(1, 2), 0, Fraction(1, 2))
    message = "^a rectangle test set constrains v, which has no closed form$"
    for spec in (ROT, SKEW, PROD):
        with pytest.raises(NoClosedFormError, match=message):
            correlation(spec, R, HALF, 3)
        with pytest.raises(NoClosedFormError, match=message):
            weak_mixing_statistic(spec, HALF, R, 10)
    with pytest.raises(NoClosedFormError, match=message):
        correlation(SKEW, R, R, 3)
    rng = spawn_rngs(98, 1)[0]
    mc = monte_carlo_correlation(SKEW, R, R, 3, samples=20_000, rng=rng)
    assert 0.0 <= mc.estimate <= 0.5


# ---------------------------------------------------------------------------
# the mixing statistic
# ---------------------------------------------------------------------------


def test_shift_statistic_is_exactly_the_lag_zero_term():
    """All positive lags factorize exactly, so only lag 0 contributes:
    (1/t) * (mu(A) - mu(A)^2) = 1/(4t) for the half cylinder."""
    for t in (1, 10, 250):
        assert weak_mixing_statistic(SHIFT, W0, W0, t) == 1 / (4 * t)


@pytest.mark.parametrize("t", [1, 3, 50])
def test_cylinders_exactly_t_apart_add_no_lag_t_term(t):
    """The lags run over 0 <= i < t.  Half cylinders at positions t and 0
    meet only at lag t, outside the sum, so on the shift the statistic is
    the lag-0 term, 0 for independent positions; one lag more takes in
    the meeting, mu(A) - mu(A)^2 = 1/4, over t + 1 lags."""
    A = TestSet.from_cylinder(CylinderSet(((t, 1),)))
    assert weak_mixing_statistic(SHIFT, A, W0, t) == 0.0
    assert weak_mixing_statistic(SHIFT, A, W0, t + 1) == 1 / (4 * (t + 1))


def test_rotation_statistic_stays_large():
    s = weak_mixing_statistic(ROT, HALF, HALF, 600)
    assert abs(s - 0.125) < 0.01  # Cesaro limit of |overlap - 1/4| is 1/8


def test_monte_carlo_statistic_tracks_exact():
    rng = spawn_rngs(97, 1)[0]
    exact = weak_mixing_statistic(ROT, HALF, HALF, 50)
    mc = monte_carlo_statistic(ROT, HALF, HALF, 50, samples=60_000, rng=rng)
    assert abs(mc - exact) < 0.01


@settings(max_examples=40, deadline=None)
@given(
    angle=st.sampled_from(BENCH_ANGLES),
    kind=st.sampled_from(["rotation", "skew", "product", "product-set",
                          "interval-cylinder", "set-interval", "set-cylinder"]),
    ia=_interval(),
    ib=_interval(),
    t=st.integers(1, 300),
    lag=st.integers(0, 400),
    sym=st.sampled_from([1, -1]),
)
@example(angle=BENCH_ANGLES[0], kind="skew", ia=(Fraction(0), Fraction(1)),
         ib=(Fraction(1, 3), Fraction(1, 2)), t=300, lag=7, sym=1)  # B strictly inside A
@example(angle=BENCH_ANGLES[5], kind="rotation", ia=(Fraction(2, 13), Fraction(1)),
         ib=(Fraction(0), Fraction(5, 7)), t=300, lag=0, sym=1)
@example(angle=BENCH_ANGLES[3], kind="product-set", ia=(Fraction(1, 4), Fraction(1)),
         ib=(Fraction(0), Fraction(1, 2)), t=50, lag=0, sym=-1)  # lag 0 clashes: w = 0
def test_statistic_equals_the_per_lag_quadratic_oracle(angle, kind, ia, ib, t, lag, sym):
    """Recurrence plus integer sign tests give the oracle's exact values,
    and the statistic is their exact mean, correctly rounded."""
    gamma = RotationNumber(*angle)
    prod = SystemSpec.product(gamma, FAIR)
    ua, ub = TestSet.u_interval(*ia), TestSet.u_interval(*ib)
    sa = TestSet.product_set(*ia, CylinderSet(((0, 1),)))
    sb = TestSet.product_set(*ib, CylinderSet(((0, sym),)))
    cb = TestSet.from_cylinder(CylinderSet(((-1, sym),)))  # meets sa's at lag 1
    spec, A, B = {
        "rotation": (SystemSpec.rotation(gamma), ua, ub),
        "skew": (SystemSpec.skew(gamma), ua, ub),
        "product": (prod, ua, ub),
        "product-set": (prod, sa, sb),
        "interval-cylinder": (prod, ua, cb),
        "set-interval": (prod, sa, ub),
        "set-cylinder": (prod, sa, cb),
    }[kind]
    product = A.exact_measure(spec) * B.exact_measure(spec)
    d = gamma.exact.d
    oracle = [QuadraticReal.of(0, d) + _oracle_correlation(spec, A, B, i) - product
              for i in range(t)]
    kernel = itertools.islice(exact_correlations(spec, A, B, 0, product), t)
    assert [QuadraticReal.from_integers(p, q, d, r) for p, q, r in kernel] == oracle
    mean = sum((-v if v < 0 else v for v in oracle), QuadraticReal.of(0, d)) * Fraction(1, t)
    assert weak_mixing_statistic(spec, A, B, t) == bracket_float(mean)
    # one lag on its own, seeded from frac_multiple(lag)
    single = QuadraticReal.of(0, d) + _oracle_correlation(spec, A, B, lag)
    assert correlation(spec, A, B, lag).estimate == bracket_float(single)


WRAPPING = (TestSet.u_interval(Fraction(2, 3), 1), TestSet.u_interval(Fraction(1, 4), Fraction(3, 5)))


@pytest.mark.parametrize("angle", BENCH_ANGLES)
def test_closed_form_equals_the_O_t_sum_at_every_horizon(angle):
    """Every t <= 500, for [0, 1/2) against itself and for an A whose
    moved arc wraps past 1 or lies wholly beyond it."""
    spec = SystemSpec.skew(RotationNumber(*angle))
    for A, B in ((HALF, HALF), WRAPPING):
        want = statistic_prefixes(spec, A, B, 500)
        assert [weak_mixing_statistic(spec, A, B, t) for t in range(1, 501)] == want


@st.composite
def _cylinder(draw, law):
    positions = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3, unique=True))
    return CylinderSet(tuple((p, draw(st.sampled_from(law.symbols))) for p in positions))


BIASED3 = BernoulliSpec((0.25, 0.5, 0.25), ("a", "b", "c"))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), angle=st.sampled_from(BENCH_ANGLES), law=st.sampled_from([FAIR, BIASED3]),
       kind=st.sampled_from(["rotation", "skew", "product", "product-set", "bernoulli",
                             "product-cylinder", "interval-cylinder", "set-interval",
                             "set-cylinder"]),
       t=st.integers(1, 2_000))
@example(data=None, angle=BENCH_ANGLES[3], law=FAIR, kind="product-set", t=2_000)
def test_closed_form_equals_the_O_t_sum(data, angle, law, kind, t):
    """Every set kind with an exact statistic: u-intervals on the three
    systems with a rotation factor, product sets, cylinders on the shift
    and the product, and pairs of different kinds on the product."""
    gamma = RotationNumber(*angle)
    if data is None:  # constraints that meet at lags 1 and 3; A's arc wraps
        A = TestSet.product_set(Fraction(3, 4), 1, CylinderSet(((0, 1), (2, -1))))
        B = TestSet.product_set(Fraction(1, 5), Fraction(9, 10), CylinderSet(((-1, -1), (1, 1))))
        spec = SystemSpec.product(gamma, law)
    elif kind in ("rotation", "skew", "product"):
        spec = {"rotation": SystemSpec.rotation(gamma), "skew": SystemSpec.skew(gamma),
                "product": SystemSpec.product(gamma, law)}[kind]
        A, B = (TestSet.u_interval(*data.draw(_interval())) for _ in range(2))
    elif kind == "product-set":
        spec = SystemSpec.product(gamma, law)
        A, B = (TestSet.product_set(*data.draw(_interval()), data.draw(_cylinder(law)))
                for _ in range(2))
    elif kind in ("interval-cylinder", "set-interval", "set-cylinder"):
        spec = SystemSpec.product(gamma, law)
        draw = {
            "interval": lambda: TestSet.u_interval(*data.draw(_interval())),
            "cylinder": lambda: TestSet.from_cylinder(data.draw(_cylinder(law))),
            "set": lambda: TestSet.product_set(*data.draw(_interval()), data.draw(_cylinder(law))),
        }
        A, B = (draw[part]() for part in kind.split("-"))
    else:
        spec = SystemSpec.shift(law) if kind == "bernoulli" else SystemSpec.product(gamma, law)
        A, B = (TestSet.from_cylinder(data.draw(_cylinder(law))) for _ in range(2))
    assert weak_mixing_statistic(spec, A, B, t) == statistic_prefixes(spec, A, B, t)[-1]


def test_statistic_at_a_trillion_lags():
    """O(log t): 10**12 lags on the skew map, deterministically, near the
    Cesaro limit 1/8 of |overlap - 1/4| for [0, 1/2)."""
    stat = weak_mixing_statistic(SKEW, HALF, HALF, 10**12)
    assert 0.124 < stat < 0.126
    assert weak_mixing_statistic(SKEW, HALF, HALF, 10**12) == stat


def test_statistic_refuses_t_over_the_digit_budget(monkeypatch):
    """A library caller is refused as ``compute weak-mixing`` is, with
    the same text, before any measure or floor sum is taken; a t at the
    budget's last digit count is not."""
    def measured(*args):
        raise AssertionError("the statistic began its sums")

    monkeypatch.setattr(TestSet, "exact_measure", measured)
    with pytest.raises(ValueError) as caught:
        weak_mixing_statistic(SKEW, HALF, HALF, 10**MAX_WEAK_MIXING_DIGITS)
    assert str(caught.value) == (
        f"weak-mixing t has {MAX_WEAK_MIXING_DIGITS + 1} digits, over the budget of "
        f"{MAX_WEAK_MIXING_DIGITS}: its floor sums would take about 3 s"
    )
    with pytest.raises(AssertionError, match="began its sums"):
        weak_mixing_statistic(SKEW, HALF, HALF, 10**MAX_WEAK_MIXING_DIGITS - 1)


def test_statistic_counts_the_digits_of_a_t_past_the_str_limit():
    """A t of more than 4,300 digits, which ``str`` refuses to convert,
    gets the budget's message and estimate too."""
    with pytest.raises(ValueError) as caught:
        weak_mixing_statistic(SKEW, HALF, HALF, 10**5000)
    assert str(caught.value) == (
        f"weak-mixing t has 5001 digits, over the budget of "
        f"{MAX_WEAK_MIXING_DIGITS}: its floor sums would take about 375 s"
    )


@pytest.mark.parametrize(
    "angle, expected",
    # bench/oracles.weak_mixing_oracle: the same sum at 40 significant digits
    [((-1, 1, 2, 1), 0.12499869507055364), ((-1, 1, 5, 2), 0.12500287342187968)],
)
def test_statistic_pinned_at_ten_thousand_lags(angle, expected):
    spec = SystemSpec.skew(RotationNumber(*angle))
    assert weak_mixing_statistic(spec, HALF, HALF, 10_000) == expected


@pytest.mark.parametrize("angle", [(-1, 1, 2, 1), (2, -1, 2, 1), (-3, 1, 13, 2)])
def test_recurrence_orbit_is_frac_multiple(angle):
    """2 - sqrt(2) has q < 0 and (sqrt(13) - 3)/2 has r = 2."""
    gamma = RotationNumber(*angle)
    overlap = CircleOrbit(gamma, HALF, HALF)
    D, d = overlap.D, overlap.d
    for i, (p, q) in zip(range(2_000), overlap.orbit(0)):
        assert QuadraticReal(Fraction(p, D), Fraction(q, D), d) == gamma.frac_multiple(i)
    for start in (1, 999):
        assert next(overlap.orbit(start)) == next(
            itertools.islice(overlap.orbit(0), start, None)
        )


def test_statistic_input_validation():
    with pytest.raises(ValueError):
        weak_mixing_statistic(SHIFT, W0, W0, 0)
    with pytest.raises(ValueError):
        monte_carlo_statistic(SHIFT, W0, W0, 0, samples=100, rng=spawn_rngs(1, 1)[0])


@pytest.mark.parametrize("mode", ["exact", "monte-carlo"])
def test_cylinders_need_a_sequence_coordinate(mode):
    for spec in (SystemSpec.rotation(GAMMA), SystemSpec.skew(GAMMA)):
        with pytest.raises(ValueError, match="constrains sequence symbols"):
            if mode == "exact":
                weak_mixing_statistic(spec, W0, W0, 10)
            else:
                monte_carlo_statistic(spec, W0, W0, 10, samples=100, rng=spawn_rngs(1, 1)[0])


def test_sequence_window_memory_guard():
    with pytest.raises(ValueError):
        monte_carlo_statistic(
            SHIFT, W0, W0, 100_000, samples=100_000, rng=spawn_rngs(1, 1)[0]
        )


def test_window_guard_states_the_cost():
    """The refusal threshold counts samples x (2 * width + 1) symbols,
    width reaching the lag: correlation at lag i, the statistic at t."""
    refused = 2 * 10**8 // 21 + 1  # width 10: lag 9 for W0
    with pytest.raises(ValueError, match=f"{refused} samples of 21-symbol .* lag 9 "
                       f"are {refused * 21} symbols"):
        monte_carlo_correlation(SHIFT, W0, W0, 9, samples=refused, rng=spawn_rngs(1, 1)[0])
    with pytest.raises(ValueError, match=f"at lag 9 are {refused * 21} symbols"):
        monte_carlo_statistic(PROD, W0, W0, 9, samples=refused, rng=spawn_rngs(1, 1)[0])
    assert (refused - 1) * 21 <= mixing_oracle.MAX_WINDOW_SYMBOLS < refused * 21


@pytest.mark.parametrize("spec, A, B", [
    (PROD, TestSet.product_set(0, Fraction(1, 3), CylinderSet(((-1, 1), (2, -1)))),
     TestSet.product_set(Fraction(1, 4), 1, CylinderSet(((1, 1),)))),
    (SKEW, TestSet.rectangle(0, Fraction(1, 2), 0, Fraction(1, 2)), HALF),
])
def test_streamed_monte_carlo_equals_one_batch(spec, A, B, monkeypatch):
    """Hit counts over chunks give exactly the one-batch indicator means
    on the concatenated draws, for the statistic and one correlation."""
    monkeypatch.setattr(systems, "SAMPLE_CHUNK", 700)
    drawn = []

    def recording(*args, **kwargs):
        for batch in systems.sample_chunks(*args, **kwargs):
            drawn.append(copied(batch))
            yield batch

    monkeypatch.setattr(mixing_oracle, "sample_chunks", recording)
    t, samples = 6, 2_003
    stat = monte_carlo_statistic(spec, A, B, t, samples=samples, rng=spawn_rngs(41, 1)[0])
    assert [len(b) for b in drawn] == [700, 700, 603]
    batch = concatenate(drawn)
    in_a = A.contains_batch(spec, batch)
    product = float(A.exact_measure(spec) * B.exact_measure(spec))
    means = [float(np.mean(in_a & B.contains_batch(spec, iterate_batch(batch, i))))
             for i in range(t)]
    assert stat == sum(abs(m - product) for m in means) / t
    drawn.clear()
    point = monte_carlo_correlation(spec, A, B, 4, samples=samples, rng=spawn_rngs(42, 1)[0])
    batch = concatenate(drawn)
    hits = A.contains_batch(spec, batch) & B.contains_batch(spec, iterate_batch(batch, 4))
    assert point.estimate == float(np.mean(hits))


def test_monte_carlo_values_on_a_biased_product_are_pinned():
    """Hit counts on a (0.3, 0.7) product at fixed seeds.  Both values
    were computed when symbols were drawn by ``Generator.choice``;
    ``sample_batch`` draws the same symbols, so the hit counts must not
    move.  The statistic subtracts the exact mu(A) mu(B), which reads 0.3
    as 3/10: it was 0.0077224999999999985 while 0.3 was read by its
    binary value."""
    spec = SystemSpec.product(GAMMA, BernoulliSpec((0.3, 0.7)))
    A = TestSet.product_set(0, Fraction(1, 3), CylinderSet(((-1, 1), (2, -1))))
    B = TestSet.product_set(Fraction(1, 4), 1, CylinderSet(((1, 1),)))
    stat = monte_carlo_statistic(spec, A, B, 8, samples=100_000, rng=spawn_rngs(5, 1)[0])
    point = monte_carlo_correlation(spec, A, B, 3, samples=100_000, rng=spawn_rngs(6, 1)[0])
    assert stat == 0.0077225
    assert point.estimate == 0.02095


def test_verdict_thresholds():
    assert weak_mixing_verdict(0.0001) == "consistent with weak mixing"
    assert weak_mixing_verdict(0.12) == "inconsistent with weak mixing"
    assert weak_mixing_verdict(0.03) == "inconclusive"
    # each threshold itself belongs to neither trend
    assert weak_mixing_verdict(CONSISTENT_BELOW) == "inconclusive"
    assert weak_mixing_verdict(INCONSISTENT_ABOVE) == "inconclusive"


# ---------------------------------------------------------------------------
# spectral predicates vs finite-time trends
# ---------------------------------------------------------------------------


def test_spectral_predicates():
    rot, skew, shift, prod = [spectrum_of(s) for s in four_systems()]
    assert [spectral_weak_mixing_check(d) for d in (rot, skew, shift, prod)] == [
        False, False, True, False,
    ]
    assert all(d.point_part_simple for d in (rot, skew, shift, prod))


def test_trend_verdicts_agree_with_spectra():
    cases = [
        (ROT, HALF), (SKEW, HALF), (SHIFT, W0),
        (PROD, TestSet.product_set(0, Fraction(1, 2), CylinderSet(((0, 1),)))),
    ]
    for spec, ts in cases:
        s = weak_mixing_statistic(spec, ts, ts, 400)
        trend = weak_mixing_verdict(s) == "consistent with weak mixing"
        assert trend == spectral_weak_mixing_check(spectrum_of(spec))


# ---------------------------------------------------------------------------
# orbits and time averages
# ---------------------------------------------------------------------------


def _stepped_hits(spec, test_set, x0, n):
    """How many of x0's first n images lie in ``test_set``, found by a
    loop that steps (u + gamma, v + u) on floats one point at a time and
    reads the symbol at position p of S^j x0 at position p + j of x0."""
    gamma = float(spec.gamma.exact) if spec.gamma is not None else None
    u = None if x0.u is None else float(x0.u[0])
    v = None if x0.v is None else float(x0.v[0])
    hits = 0
    for j in range(n):
        inside = True
        if test_set.a is not None:
            inside = float(test_set.a) <= u < float(test_set.b)
        if test_set.c is not None:
            inside = inside and float(test_set.c) <= v < float(test_set.d)
        if test_set.cylinder is not None:
            symbols = spec.bernoulli.symbols
            inside = inside and all(
                symbols[x0.sym[0, p + j - x0.anchor]] == sym
                for p, sym in test_set.cylinder.constraints
            )
        hits += inside
        if u is not None:
            u, v = (u + gamma) % 1.0, None if v is None else (v + u) % 1.0
    return hits


def test_orbit_track_indicator_average_equals_birkhoff():
    x0 = SampleBatch(spec=ROT, u=np.array([0.1]))
    orbit = orbit_track(ROT, x0, 500)
    ind = HALF.contains_batch(ROT, orbit)
    assert ind.shape == (500,)
    assert np.mean(ind) == birkhoff_average(ROT, HALF, x0, 500)
    assert birkhoff_average(ROT, HALF, x0, 500) == _stepped_hits(ROT, HALF, x0, 500) / 500


@pytest.mark.parametrize("spec", four_systems(), ids=lambda s: s.kind)
def test_orbit_rows_are_the_iterates(spec):
    """Row j of the orbit batch is S^j x0, coordinates and symbols alike."""
    n = 20
    x0 = sample_batch(spec, spawn_rngs(40, 1)[0], 1, positions=range(-3, 30))
    orbit = orbit_track(spec, x0, n)
    assert len(orbit) == n and orbit.anchor == x0.anchor
    for j in range(n):
        image = iterate_batch(x0, j)
        for name in ("u", "v"):
            if getattr(x0, name) is not None:
                d = abs(getattr(orbit, name)[j] - getattr(image, name)[0]) % 1.0
                assert min(d, 1 - d) < 1e-12, (name, j)
        if x0.sym is not None:
            # the orbit holds the positions all n images still cover
            for p in range(-3, 30 - n + 1):
                assert orbit.symbol_indices_at(p)[j] == image.symbol_indices_at(p)[0]
    if x0.sym is not None:
        with pytest.raises(WindowError):
            orbit.symbol_indices_at(30 - n + 1)
        with pytest.raises(WindowError):
            orbit_track(spec, x0, 34)  # 33 symbols cannot follow 34 steps


def test_orbit_track_takes_one_point_of_its_system():
    with pytest.raises(ValueError):
        orbit_track(ROT, sample_batch(ROT, spawn_rngs(40, 1)[0], 2), 5)
    with pytest.raises(ValueError):
        orbit_track(SKEW, SampleBatch(spec=ROT, u=np.array([0.1])), 5)


def test_birkhoff_on_a_shift_with_string_symbols():
    bern = BernoulliSpec((0.5, 0.5), ("a", "b"))
    spec = SystemSpec.shift(bern)
    x0 = sample_batch(spec, spawn_rngs(41, 1)[0], 1, positions=range(0, 400))
    word = [bern.symbols[k] for k in x0.sym[0]]
    n = 300
    orbit = orbit_track(spec, x0, n)
    assert [bern.symbols[k] for k in orbit.symbol_indices_at(0)] == word[:n]
    A = TestSet.from_cylinder(CylinderSet(((0, "a"), (1, "b"))))
    expected = sum(word[j] == "a" and word[j + 1] == "b" for j in range(n)) / n
    assert birkhoff_average(spec, A, x0, n) == expected
    assert expected == _stepped_hits(spec, A, x0, n) / n


def test_birkhoff_on_skew_orbits():
    # [0, 1/2) x [1/4, 1) has measure 3/8; the skew map is uniquely ergodic
    rect = TestSet.rectangle(0, Fraction(1, 2), Fraction(1, 4), 1)
    x0 = SampleBatch(spec=SKEW, u=np.array([0.3]), v=np.array([0.7]))
    assert birkhoff_average(SKEW, rect, x0, 2_000) == _stepped_hits(SKEW, rect, x0, 2_000) / 2_000
    assert abs(birkhoff_average(SKEW, rect, x0, 50_000) - 0.375) < 5e-3


def test_birkhoff_on_product_orbits():
    both = TestSet.product_set(0, Fraction(1, 2), CylinderSet(((0, 1), (2, -1))))
    x0 = sample_batch(PROD, spawn_rngs(42, 1)[0], 1, positions=range(0, 3_003))
    assert birkhoff_average(PROD, both, x0, 3_000) == _stepped_hits(PROD, both, x0, 3_000) / 3_000
    # the space average 1/2 * 1/4, within about four standard errors
    assert abs(birkhoff_average(PROD, both, x0, 3_000) - 0.125) < 0.025


def test_birkhoff_average_converges_to_the_space_average():
    # unique ergodicity of the rotation: every orbit equidistributes
    avg = birkhoff_average(ROT, HALF, SampleBatch(spec=ROT, u=np.array([0.31])), 20_000)
    assert abs(avg - 0.5) < 5e-4


def test_birkhoff_accepts_callables():
    avg = birkhoff_average(
        ROT,
        lambda orbit: np.sin(2 * np.pi * orbit.u) ** 2,
        SampleBatch(spec=ROT, u=np.array([0.05])),
        8_000,
    )
    assert abs(avg - 0.5) < 5e-3
