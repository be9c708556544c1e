"""Exact arithmetic: field laws, exact order, and angle-group queries.

The reference oracle for every numeric assertion is mpmath at 120 bits;
the library's exact predicates must agree with it on every generated
value.
"""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import (
    QuadraticReal,
    RotationNumber,
    SQRT2_MINUS_1,
    floor_sums,
    integral_combination,
)
from ergolab import quadratic
from ergolab.cli import ExperimentConfig

from exact_oracle import bracket_float, floor_sums_term_by_term, surd_sign
from helpers import BENCH_ANGLES

FIELDS = (2, 3, 5, 6, 7, 10)

fractions = st.fractions(
    min_value=-8, max_value=8, max_denominator=12
)


def quadratics(d: int) -> st.SearchStrategy[QuadraticReal]:
    return st.builds(QuadraticReal, fractions, fractions, st.just(d))


def _mp(x: QuadraticReal) -> mpmath.mpf:
    with mpmath.workprec(120):
        return mpmath.mpf(x.a.numerator) / x.a.denominator + mpmath.sqrt(
            x.d
        ) * x.b.numerator / x.b.denominator


# ---------------------------------------------------------------------------
# field laws
# ---------------------------------------------------------------------------


@given(quadratics(2), quadratics(2), quadratics(2))
@settings(max_examples=200)
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == 0
    assert x - y == x + (-y)


@given(quadratics(3), fractions)
@settings(max_examples=100)
def test_scalar_mixing(x, c):
    assert x + c == c + x
    assert x * c == c * x
    assert (x + c) - c == x


@given(quadratics(6))
@settings(max_examples=30)
def test_abs_is_the_signed_value(x):
    assert abs(x) == (x if x.sign() >= 0 else -x) and abs(x).sign() >= 0


def test_distinct_fields_do_not_mix():
    a = QuadraticReal.from_integers(0, 1, 2, 1)
    b = QuadraticReal.from_integers(0, 1, 3, 1)
    with pytest.raises(ValueError):
        a + b
    # ... unless one side is rational, which belongs to every field.
    c = QuadraticReal.of(Fraction(1, 2), d=3)
    assert (a + c).d == 2


def test_squarefree_folding():
    # sqrt(8) = 2 sqrt(2) though 8 is kept; sqrt(9) folds into the rational part.
    root8 = QuadraticReal(Fraction(0), Fraction(1), 8)
    assert root8 == QuadraticReal(Fraction(0), Fraction(2), 2) and root8.d == 8
    assert root8 != QuadraticReal(Fraction(0), Fraction(1), 2)
    assert QuadraticReal(Fraction(1), Fraction(3), 9) == 10


@given(st.sampled_from(FIELDS), st.integers(1, 10**7), fractions, fractions, quadratics(2))
@settings(max_examples=200)
def test_a_radicand_with_square_factors_agrees_with_its_squarefree_form(d0, s, a, b, z):
    """``a + b*sqrt(s*s*d0)`` keeps its radicand, which may be over 10^14,
    and agrees with ``a + b*s*sqrt(d0)`` on every operation; floor and
    sign agree with mpmath too.  z shares the field when d0 is 2 and
    raises for both forms alike otherwise."""
    x, y = QuadraticReal(a, b * s, d0), QuadraticReal(a, b, s * s * d0)
    assert y.d == s * s * d0
    assert x == y and y == x and hash(x) == hash(y)
    assert x != QuadraticReal(a, b + 1, s * s * d0) != x
    v = _mp(y)
    assert x.floor() == y.floor() == int(mpmath.floor(v))
    assert x.sign() == y.sign() == (0 if v == 0 else (1 if v > 0 else -1))
    assert float(x) == float(y)
    if d0 != 2 and b != 0 and z.b != 0:
        for w in (x, y):
            with pytest.raises(ValueError, match="cannot mix"):
                w + z
        return
    for op in (lambda u, w: u + w, lambda u, w: u * w):
        assert op(x, z) == op(y, z) == op(z, y) and hash(op(x, z)) == hash(op(z, y))


# ---------------------------------------------------------------------------
# exact order, floor, frac
# ---------------------------------------------------------------------------


@given(st.sampled_from(FIELDS).flatmap(quadratics))
@settings(max_examples=300)
def test_sign_matches_high_precision(x):
    v = _mp(x)
    expected = 0 if v == 0 else (1 if v > 0 else -1)
    assert x.sign() == expected


@given(st.sampled_from(FIELDS).flatmap(quadratics))
@settings(max_examples=300)
def test_floor_and_frac(x):
    f = x.frac()
    assert x.floor() == int(mpmath.floor(_mp(x)))
    assert 0 <= f.sign() or f == 0
    assert (f - 1).sign() < 0
    assert x == f + x.floor()


@pytest.mark.parametrize("k", [10, 40, 120])
def test_floor_of_large_parts_under_cancellation(k):
    """(1 + sqrt(2))**k = P + Q*sqrt(2) with P, Q near 10**(k/2.6), and
    P - Q*sqrt(2) is tiny: a float guess at the value is off by about
    P * 2**-53 (10**30 at k = 120), far more than any shift below."""
    x = QuadraticReal.of(1) + QuadraticReal(Fraction(0), Fraction(1), 2)
    power = QuadraticReal.of(1)
    for _ in range(k):
        power *= x
    tiny = QuadraticReal(power.a, -power.b, 2)
    for shift in (Fraction(0), Fraction(1, 3), Fraction(-7, 2), Fraction(10**20, 3)):
        value = tiny + shift
        with mpmath.workprec(4 * k + 200):
            want = int(mpmath.floor(mpmath.mpf(value.a.numerator) / value.a.denominator
                                    - mpmath.sqrt(2) * power.b))
        assert value.floor() == want


@pytest.mark.parametrize("k", [10, 40, 120])
def test_sign_under_cancellation_agrees_with_the_squares_oracle(k):
    """The sign read off the floor agrees with the oracle's comparison of
    squares at +-(P - Q*sqrt(2)), about 10**(-k/2.6), shifted by rationals
    of both signs that outweigh it (10**-(k//3)) or do not (10**-(k//2))."""
    x = QuadraticReal.of(1) + QuadraticReal(Fraction(0), Fraction(1), 2)
    power = QuadraticReal.of(1)
    for _ in range(k):
        power *= x
    tiny = QuadraticReal(power.a, -power.b, 2)
    shifts = [Fraction(0)] + [Fraction(e, 10**j) for j in (k // 3, k // 2) for e in (1, -1)]
    for value in (t + shift for t in (tiny, -tiny) for shift in shifts):
        assert value.sign() == surd_sign(value.a, value.b, 2) != 0
        assert (value < 0) == (surd_sign(value.a, value.b, 2) < 0)


@given(quadratics(5), quadratics(5))
@settings(max_examples=200)
def test_order_total_and_consistent(x, y):
    assert (x < y) == (_mp(x) < _mp(y))
    assert (x == y) == (_mp(x) == _mp(y))
    assert (x < y) or (y < x) or (x == y)


def test_float_conversion_is_correctly_rounded():
    x = QuadraticReal.from_integers(-1, 1, 2, 1)
    with mpmath.workprec(120):
        want = float(mpmath.sqrt(2) - 1)
    assert float(x) == want


def test_float_is_correctly_rounded_under_cancellation():
    """p - q*sqrt(2) with q = round(p/sqrt(2)): the value is tiny next to
    its parts, which an 80-bit evaluation rounded to 53 bits got wrong by
    up to 6 ulp (at 19601 - 13860*sqrt(2))."""
    values = [
        QuadraticReal.from_integers(p, -round(p / math.sqrt(2)), 2, 1)
        for p in range(1, 20_000)
    ]
    assert QuadraticReal.from_integers(19601, -13860, 2, 1) in values
    assert [float(x) for x in values] == [bracket_float(x) for x in values]


@given(st.sampled_from(FIELDS), fractions, fractions)
@settings(max_examples=300)
def test_float_matches_the_bracket_oracle(d, a, b):
    x = QuadraticReal(a, b, d)
    assert float(x) == bracket_float(x)


# ---------------------------------------------------------------------------
# rotation numbers
# ---------------------------------------------------------------------------


def test_quadratic_angle_validation():
    with pytest.raises(ValueError):
        RotationNumber(0, 0, 2, 1)  # q = 0: rational
    with pytest.raises(ValueError):
        RotationNumber(0, 1, 4, 1)  # perfect square: rational
    with pytest.raises(ValueError):
        RotationNumber(3, 1, 2, 1)  # outside (0, 1)
    with pytest.raises(ValueError):
        RotationNumber(-1, 1, 2, 0)  # zero denominator


@pytest.mark.parametrize("p, q, inside", [
    (-1393, 985, True),  # 985*sqrt(2) - 1393, about 3.6e-4
    (1394, -985, True),  # 1 minus that
    (1393, -985, False),  # about -3.6e-4
    (-1392, 985, False),  # about 1 + 3.6e-4
    (-2, 1, False),  # sqrt(2) - 2
])
def test_an_angle_is_refused_outside_the_open_unit_interval(p, q, inside):
    """The range check reads the floor, so both ends are tested close by."""
    if inside:
        assert 0 < float(RotationNumber(p, q, 2).exact) < 1
    else:
        with pytest.raises(ValueError, match="^angle must lie strictly between 0 and 1$"):
            RotationNumber(p, q, 2)


def test_default_angle_value():
    assert math.isclose(float(SQRT2_MINUS_1.exact), math.sqrt(2) - 1, rel_tol=1e-15)


def test_one_minus_is_an_involution():
    g = SQRT2_MINUS_1
    h = g.one_minus()
    assert h.exact == 1 - g.exact
    assert h.one_minus() == g
    assert 0 < float(h.exact) < 1


@given(st.integers(-40, 40))
def test_frac_multiple(k):
    g = SQRT2_MINUS_1
    got = g.frac_multiple(k)
    assert got == (g.exact * k).frac()
    assert 0 <= float(got) <= 1


def test_json_round_trip():
    for g in (SQRT2_MINUS_1, RotationNumber(1, 1, 5, 4)):
        assert RotationNumber.from_json(g.to_json()) == g
    # the reader trusts its input: the config schema refuses other keys
    with pytest.raises(ValueError, match=r"^invalid configuration at systems/0/gamma: "
                       r"Additional properties are not allowed \('nope' was unexpected\)$"):
        ExperimentConfig(scenario="theorem1", systems=({"kind": "rotation", "gamma": {"nope": 1}},))


def test_a_radicand_past_the_str_limit_gets_the_budget_message(monkeypatch):
    """A d of more than 4,300 digits, which ``str`` refuses to convert,
    is refused with its digit count and estimated time too, before any
    integer square root."""
    monkeypatch.setattr(quadratic, "math", None)
    with pytest.raises(ValueError, match=r"^radicand d has 5001 digits, over the budget of 1000: "
                       r"weak mixing at the largest t would take about 16 s$"):
        QuadraticReal(Fraction(0), Fraction(1), 10**5000 + 1)


def test_radicands_over_the_budget_are_refused(monkeypatch):
    """The floor-sum integers carry the digits of d: a d of over 1,000
    digits is refused with its size and the estimated time, before any
    arithmetic, even a perfect square; a d of 1,000 digits is not."""
    d = 10**1000 - 1
    assert RotationNumber(-math.isqrt(d), 1, d, 1).exact.d == d
    for d in (10**1000, 10**1000 + 1):
        with monkeypatch.context() as m, pytest.raises(
            ValueError, match=r"^radicand d has 1001 digits, over the budget of 1000: "
            r"weak mixing at the largest t would take about 2 s$"
        ):
            m.setattr(quadratic, "math", None)
            RotationNumber(0, 1, d, 10**501)
    for angle in BENCH_ANGLES:
        assert RotationNumber.from_json({"quadratic": list(angle)}).to_json() == {
            "quadratic": list(angle)
        }


# ---------------------------------------------------------------------------
# integral combinations (the group-membership backbone)
# ---------------------------------------------------------------------------


def test_integral_combination_basics():
    g = SQRT2_MINUS_1
    assert integral_combination([(g, 1), (g.one_minus(), 1)])  # g + (1-g) = 1
    assert integral_combination([(g, 0)])
    assert not integral_combination([(g, 3)])
    assert not integral_combination([(g, 1), (RotationNumber(-1, 1, 3, 1), 1)])


@given(st.integers(-10, 10), st.integers(-10, 10))
def test_integral_combination_linearity(j, k):
    """j*g + k*(1-g) is integral iff j == k (g irrational)."""
    g = SQRT2_MINUS_1
    assert integral_combination([(g, j), (g.one_minus(), k)]) == (j == k)


# ---------------------------------------------------------------------------
# floor sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("angle", BENCH_ANGLES)
def test_floor_sums_match_term_by_term_at_the_bench_angles(angle):
    """Offsets 0 and 3 put a lattice point on the line at i = 0, and
    2 - 7*gamma puts one at i = 7."""
    gamma = RotationNumber(*angle).exact
    offsets = [QuadraticReal.of(0), QuadraticReal.of(3), 2 - 7 * gamma,
               QuadraticReal.of(Fraction(-1, 3)), gamma - Fraction(1, 2)]
    for offset in offsets:
        for n in (0, 1, 7, 2_000):
            assert floor_sums(n, gamma, offset) == floor_sums_term_by_term(n, gamma, offset)


#: Angles whose continued fractions have long periods: sqrt(2)/1,009,
#: sqrt(2)/1,000,003 and sqrt(999,999,999,989) - 999,999, a prime
#: radicand of 12 digits.
LONG_PERIOD_ANGLES = ((0, 1, 2, 1_009), (0, 1, 2, 1_000_003), (-999_999, 1, 999_999_999_989, 1))


@pytest.mark.parametrize("angle", LONG_PERIOD_ANGLES)
def test_floor_sums_match_term_by_term_at_long_period_angles(angle):
    gamma = RotationNumber(*angle).exact
    offsets = [QuadraticReal.of(0), gamma, gamma - Fraction(1, 2), QuadraticReal.of(Fraction(1, 3))]
    for offset in offsets:
        for n in (0, 1, 7, 10_000):
            assert floor_sums(n, gamma, offset) == floor_sums_term_by_term(n, gamma, offset)


@pytest.mark.parametrize("n", [10_000, 10**40])
@pytest.mark.parametrize("angle", LONG_PERIOD_ANGLES)
def test_floor_sums_walk_only_as_deep_as_n_needs(angle, n, monkeypatch):
    """Each complete quotient past the first reduces one offset, so the
    ``_reduced`` calls count the quotients one call derives: at most
    2*ceil(log2(n + 1)) + 4, however long the period of the slope's
    continued fraction, and the walk holds well under 64 KB.  The slope
    1 + gamma appears in no other test."""
    gamma = RotationNumber(*angle).exact + 1
    offset = gamma - Fraction(1, 2)  # no lattice point: one walk
    calls = []
    reduced = quadratic._reduced
    monkeypatch.setattr(quadratic, "_reduced", lambda *t: calls.append(t) or reduced(*t))
    want = floor_sums(n, gamma, offset)
    assert len(calls) <= 2 * math.ceil(math.log2(n + 1)) + 4
    tracemalloc.start()
    try:
        assert floor_sums(n, gamma, offset) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


_irrational = st.tuples(
    st.sampled_from(FIELDS), fractions, fractions.filter(lambda b: b != 0)
).map(lambda t: QuadraticReal(t[1], t[2], t[0]))


@settings(max_examples=40, deadline=None)
@given(
    slope=_irrational,
    shift=fractions,
    tilt=fractions,
    lattice=st.one_of(st.none(), st.integers(0, 60)),
    n=st.integers(-1, 2_000),
)
def test_floor_sums_match_term_by_term(slope, shift, tilt, lattice, n):
    """Random slopes and offsets in Q(sqrt(d)); with ``lattice`` = k the
    line passes through the integer point (k, shift) when shift is whole."""
    if lattice is None:
        offset = QuadraticReal(shift, tilt, slope.d)
    else:
        offset = QuadraticReal.of(math.floor(shift), slope.d) - slope * lattice
    assert floor_sums(n, slope, offset) == floor_sums_term_by_term(n, slope, offset)


def test_floor_sums_need_an_irrational_slope():
    with pytest.raises(ValueError, match="irrational slope"):
        floor_sums(10, QuadraticReal.of(Fraction(1, 3)), QuadraticReal.of(0))
    with pytest.raises(ValueError):
        floor_sums(10, QuadraticReal(Fraction(0), Fraction(1), 2),
                   QuadraticReal(Fraction(0), Fraction(1), 3))
    assert floor_sums(-1, SQRT2_MINUS_1.exact, QuadraticReal.of(5)) == (0, 0, 0)


def test_floor_sums_scale_to_long_ranges():
    """n = 10**40 takes O(log n) steps.  sum_{i<=n} frac(i*gamma) =
    n(n+1)/2*gamma - sum floor(i*gamma) must lie within O(log n) of n/2,
    since gamma = sqrt(2) - 1 has bounded partial quotients (Ostrowski)."""
    gamma = SQRT2_MINUS_1.exact
    n = 10**40
    f, g, h = floor_sums(n, gamma, QuadraticReal.of(0))
    assert f == floor_sums(n - 1, gamma, gamma)[0]  # lag 0 adds 0
    with mpmath.workprec(400):
        fracs = mpmath.mpf(n) * (n + 1) / 2 * (mpmath.sqrt(2) - 1) - f
        assert abs(fracs - mpmath.mpf(n) / 2) < 10 * math.log(n)
