"""Correlations, the finite-time mixing statistic, and its verdicts.

The exact correlation path is cross-checked against a blunt numeric
oracle (dense grid membership counting) that shares no code with the
interval-overlap arithmetic, and against an exact oracle that recomputes
frac(i*gamma) per lag and overlaps intervals in QuadraticReal objects.
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
    SystemSpec,
    TestSet,
    birkhoff_average,
    correlation,
    cylinder_measure,
    iterate_batch,
    orbit_track,
    sample_batch,
    spawn_rngs,
    spectral_ergodicity_check,
    spectral_weak_mixing_check,
    spectrum_of,
    weak_mixing_statistic,
    weak_mixing_verdict,
)
from ergolab import mixing, systems
from ergolab.mixing import _CircleOverlap, _exact_correlations, _merge_measure

from entropy_oracle import concatenate
from helpers import GAMMA, UNIFORM4, four_systems

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
    pieces = [(lo, hi)] if not hi > 1 else [(lo, Fraction(1)), (Fraction(0), hi - 1)]
    total = None
    for plo, phi in pieces:
        left = plo if plo > a2 else a2
        right = phi if phi < b2 else b2
        if right > left:
            piece = right - left
            total = piece if total is None else total + piece
    return Fraction(0) if total is None else total


def _oracle_correlation(spec, A, B, i):
    """mu(S^i(A) cap B) for u-interval or product sets, with frac(i*gamma)
    recomputed from scratch."""
    value = _qr_interval_overlap_oracle(spec.gamma.frac_multiple(i), A.a, A.b, B.a, B.b)
    if A.kind == "product":
        value = value * _merge_measure(spec.bernoulli, A.cylinder.translate(-i), B.cylinder)
    return value


# The benchmark's nine angles (p, q, d, r) for (p + q*sqrt(d))/r.
BENCH_ANGLES = (
    (-1, 1, 2, 1), (-1, 1, 5, 2), (-1, 1, 3, 1), (2, -1, 2, 1), (-2, 1, 7, 1),
    (-3, 1, 13, 2), (3, -1, 5, 2), (-3, 1, 10, 1), (-2, 1, 6, 1),
)


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
    assert point.exact
    theta = float(GAMMA.frac_multiple(i).approx_float())
    oracle = _grid_overlap_oracle(theta, 0, 0.5, 0, 0.5)
    assert abs(point.estimate - oracle) <= 2e-6  # oracle is grid-limited
    assert point.i == i and point.stderr == 0.0


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
    mc = correlation(ROT, HALF, HALF, 7, mode="monte-carlo", samples=40_000, rng=rng)
    assert not mc.exact and mc.stderr > 0
    assert abs(mc.estimate - exact) <= 5 * mc.stderr
    with pytest.raises(ValueError):
        correlation(ROT, HALF, HALF, 1, mode="monte-carlo")  # rng required


def test_rectangles_have_no_closed_form_on_the_skew():
    R = TestSet.rectangle(0, Fraction(1, 2), 0, Fraction(1, 2))
    with pytest.raises(NoClosedFormError):
        correlation(SKEW, R, R, 3)
    rng = spawn_rngs(98, 1)[0]
    mc = correlation(SKEW, R, R, 3, mode="monte-carlo", samples=20_000, rng=rng)
    assert 0.0 <= mc.estimate <= 0.5


# ---------------------------------------------------------------------------
# the mixing statistic
# ---------------------------------------------------------------------------


def test_shift_statistic_is_exactly_the_lag_zero_term():
    """All positive lags factorize exactly, so only lag 0 contributes:
    (1/t) * (mu(A) - mu(A)^2) = 1/(4t) for the half cylinder."""
    for t in (1, 10, 250):
        assert weak_mixing_statistic(SHIFT, W0, W0, t) == 1 / (4 * t)


def test_rotation_statistic_stays_large():
    s = weak_mixing_statistic(ROT, HALF, HALF, 600)
    assert abs(s - 0.125) < 0.01  # Cesaro limit of |overlap - 1/4| is 1/8


def test_monte_carlo_statistic_tracks_exact():
    rng = spawn_rngs(97, 1)[0]
    exact = weak_mixing_statistic(ROT, HALF, HALF, 50)
    mc = weak_mixing_statistic(
        ROT, HALF, HALF, 50, mode="monte-carlo", samples=60_000, rng=rng
    )
    assert abs(mc - exact) < 0.01


@st.composite
def _interval(draw):
    den = draw(st.integers(1, 13))
    lo, hi = sorted(draw(st.lists(st.integers(0, den), min_size=2, max_size=2,
                                  unique=True)))
    return Fraction(lo, den), Fraction(hi, den)


@settings(max_examples=40, deadline=None)
@given(
    angle=st.sampled_from(BENCH_ANGLES),
    kind=st.sampled_from(["rotation", "skew", "product", "product-set"]),
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
    its exact types (which decide the float rounding, even for a term
    scaled by a cylinder measure of 0) and therefore the same statistic,
    bit for bit."""
    gamma = RotationNumber.quadratic(*angle)
    if kind == "product-set":
        spec = SystemSpec.product(gamma, FAIR)
        A = TestSet.product_set(*ia, CylinderSet(((0, 1),)))
        B = TestSet.product_set(*ib, CylinderSet(((0, sym),)))
    else:
        spec = {
            "rotation": SystemSpec.rotation(gamma),
            "skew": SystemSpec.skew(gamma),
            "product": SystemSpec.product(gamma, FAIR),
        }[kind]
        A, B = TestSet.u_interval(*ia), TestSet.u_interval(*ib)
    product = A.exact_measure(spec) * B.exact_measure(spec)
    oracle = [_oracle_correlation(spec, A, B, i) - product for i in range(t)]
    kernel = list(itertools.islice(_exact_correlations(spec, A, B, 0, product), t))
    assert kernel == oracle
    assert [type(v) for v in kernel] == [type(v) for v in oracle]
    expected = 0.0
    for value in oracle:
        expected += -float(value) if value < 0 else float(value)
    assert weak_mixing_statistic(spec, A, B, t) == expected / t
    # one lag on its own, seeded from frac_multiple(lag)
    single = _oracle_correlation(spec, A, B, lag)
    assert correlation(spec, A, B, lag).estimate == float(single)


@pytest.mark.parametrize(
    "angle, expected",
    [((-1, 1, 2, 1), 0.12499869507055396), ((-1, 1, 5, 2), 0.1250028734218797)],
)
def test_statistic_pinned_at_ten_thousand_lags(angle, expected):
    spec = SystemSpec.skew(RotationNumber.quadratic(*angle))
    assert weak_mixing_statistic(spec, HALF, HALF, 10_000) == expected


@pytest.mark.parametrize("angle", [(-1, 1, 2, 1), (2, -1, 2, 1), (-3, 1, 13, 2)])
def test_recurrence_orbit_is_frac_multiple(angle):
    """2 - sqrt(2) has q < 0 and (sqrt(13) - 3)/2 has r = 2."""
    gamma = RotationNumber.quadratic(*angle)
    overlap = _CircleOverlap(gamma, HALF, HALF)
    D, d = overlap.D, overlap.d
    for i, (p, q) in zip(range(2_000), overlap.orbit(0)):
        assert QuadraticReal(Fraction(p, D), Fraction(q, D), d) == gamma.frac_multiple(i)
    for start in (1, 999):
        assert next(overlap.orbit(start)) == next(
            itertools.islice(overlap.orbit(0), start, None)
        )


def test_decimal_angles_have_no_exact_statistic():
    spec = SystemSpec.rotation(RotationNumber.decimal("0.41421356"))
    with pytest.raises(NoClosedFormError):
        weak_mixing_statistic(spec, HALF, HALF, 10)
    with pytest.raises(NoClosedFormError):
        correlation(spec, HALF, HALF, 3)


def test_statistic_input_validation():
    with pytest.raises(ValueError):
        weak_mixing_statistic(SHIFT, W0, W0, 0)
    with pytest.raises(ValueError):
        weak_mixing_statistic(SHIFT, W0, W0, 10, mode="nonsense")
    with pytest.raises(ValueError):
        weak_mixing_statistic(SHIFT, W0, W0, 10, mode="monte-carlo")


@pytest.mark.parametrize("mode", ["exact", "monte-carlo"])
def test_cylinders_need_a_sequence_coordinate(mode):
    for spec in (SystemSpec.rotation(GAMMA), SystemSpec.skew(GAMMA)):
        with pytest.raises(ValueError, match="constrains sequence symbols"):
            weak_mixing_statistic(
                spec, W0, W0, 10, mode=mode, samples=100, rng=spawn_rngs(1, 1)[0]
            )


def test_sequence_window_memory_guard():
    with pytest.raises(ValueError):
        weak_mixing_statistic(
            SHIFT, W0, W0, 100_000, mode="monte-carlo",
            samples=100_000, rng=spawn_rngs(1, 1)[0],
        )


def test_window_guard_states_the_cost():
    """The refusal threshold counts samples x (2 * width + 1) symbols,
    width reaching the lag: correlation at lag i, the statistic at t."""
    refused = 2 * 10**8 // 21 + 1  # width 10: lag 9 for W0
    with pytest.raises(ValueError, match=f"{refused} samples of 21-symbol .* lag 9 "
                       f"are {refused * 21} symbols"):
        correlation(SHIFT, W0, W0, 9, mode="monte-carlo", samples=refused, rng=spawn_rngs(1, 1)[0])
    with pytest.raises(ValueError, match=f"at lag 9 are {refused * 21} symbols"):
        weak_mixing_statistic(
            PROD, W0, W0, 9, mode="monte-carlo", samples=refused, rng=spawn_rngs(1, 1)[0]
        )
    assert (refused - 1) * 21 <= mixing.MAX_WINDOW_SYMBOLS < refused * 21


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
            drawn.append(batch)
            yield batch

    monkeypatch.setattr(mixing, "sample_chunks", recording)
    t, samples = 6, 2_003
    stat = weak_mixing_statistic(
        spec, A, B, t, mode="monte-carlo", samples=samples, rng=spawn_rngs(41, 1)[0]
    )
    assert [len(b) for b in drawn] == [700, 700, 603]
    batch = concatenate(drawn)
    in_a = A.contains_batch(spec, batch)
    product = float(A.exact_measure(spec) * B.exact_measure(spec))
    means = [float(np.mean(in_a & B.contains_batch(spec, iterate_batch(batch, i))))
             for i in range(t)]
    assert stat == sum(abs(m - product) for m in means) / t
    drawn.clear()
    point = correlation(spec, A, B, 4, mode="monte-carlo", samples=samples,
                        rng=spawn_rngs(42, 1)[0])
    batch = concatenate(drawn)
    hits = A.contains_batch(spec, batch) & B.contains_batch(spec, iterate_batch(batch, 4))
    assert point.estimate == float(np.mean(hits))


def test_verdict_thresholds():
    assert weak_mixing_verdict(0.0001) == "consistent with weak mixing"
    assert weak_mixing_verdict(0.12) == "inconsistent with weak mixing"
    assert weak_mixing_verdict(0.03) == "inconclusive"


# ---------------------------------------------------------------------------
# spectral predicates vs finite-time trends
# ---------------------------------------------------------------------------


def test_spectral_predicates():
    rot, skew, shift, prod = [spectrum_of(s) for s in four_systems()]
    assert [spectral_weak_mixing_check(d) for d in (rot, skew, shift, prod)] == [
        False, False, True, False,
    ]
    assert all(spectral_ergodicity_check(d) for d in (rot, skew, shift, prod))


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
# orbit tracks and time averages
# ---------------------------------------------------------------------------


def test_orbit_track_indicator_average_equals_birkhoff():
    track = orbit_track(ROT, 0.1, 500)
    ind = track.indicator(HALF)
    assert ind.shape == (500,)
    assert np.mean(ind) == pytest.approx(birkhoff_average(ROT, HALF, 0.1, 500))


def test_birkhoff_average_converges_to_the_space_average():
    # unique ergodicity of the rotation: every orbit equidistributes
    avg = birkhoff_average(ROT, HALF, 0.31, 20_000)
    assert abs(avg - 0.5) < 5e-4


def test_birkhoff_accepts_callables():
    avg = birkhoff_average(
        ROT, lambda track: np.sin(2 * np.pi * track.u) ** 2, 0.05, 8_000
    )
    assert abs(avg - 0.5) < 5e-3
