"""Exact arithmetic: field laws, exact order, and angle-group queries.

The reference oracle for every numeric assertion is mpmath at 120 bits;
the library's exact predicates must agree with it on every generated
value.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import (
    ExactnessError,
    QuadraticReal,
    RotationNumber,
    SQRT2_MINUS_1,
    floor_sums,
    integral_combination,
)

from exact_oracle import bracket_float, floor_sums_term_by_term
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
    # sqrt(8) = 2 sqrt(2); sqrt(9) folds into the rational part.
    assert QuadraticReal(Fraction(0), Fraction(1), 8) == QuadraticReal(
        Fraction(0), Fraction(2), 2
    )
    assert QuadraticReal(Fraction(1), Fraction(3), 9) == 10


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
        RotationNumber.quadratic(0, 0, 2, 1)  # q = 0: rational
    with pytest.raises(ValueError):
        RotationNumber.quadratic(0, 1, 4, 1)  # perfect square: rational
    with pytest.raises(ValueError):
        RotationNumber.quadratic(3, 1, 2, 1)  # outside (0, 1)
    with pytest.raises(ValueError):
        RotationNumber.quadratic(-1, 1, 2, 0)  # zero denominator


def test_default_angle_value():
    assert math.isclose(SQRT2_MINUS_1.to_float(), math.sqrt(2) - 1, rel_tol=1e-15)
    assert SQRT2_MINUS_1.is_exact


def test_one_minus_is_an_involution():
    g = SQRT2_MINUS_1
    h = g.one_minus()
    assert h.exact == 1 - g.exact
    assert h.one_minus() == g
    assert 0 < h.to_float() < 1


@given(st.integers(-40, 40))
def test_frac_multiple(k):
    g = SQRT2_MINUS_1
    got = g.frac_multiple(k)
    assert got == (g.exact * k).frac()
    assert 0 <= float(got) <= 1


def test_json_round_trip():
    for g in (SQRT2_MINUS_1, RotationNumber.quadratic(1, 1, 5, 4),
              RotationNumber.decimal("0.1234567890123456789", bits=96)):
        assert RotationNumber.from_json(g.to_json()) == g
    with pytest.raises(ValueError):
        RotationNumber.from_json({"nope": 1})


def test_decimal_kind_is_reproducible_but_inexact():
    g = RotationNumber.decimal("0.5772156649015328606", bits=128)
    assert g.value(128) == g.value(128)
    assert not g.is_exact
    with pytest.raises(ExactnessError):
        _ = g.exact
    with pytest.raises(ExactnessError):
        g.one_minus()


def test_decimal_to_float_rounds_once():
    # 2^-54 above 1/2 is the midpoint of two floats; these digits sit
    # just above it, so only a single rounding lands on the upper float
    digits = "0.500000000000000055511151231258827021181583404541015625"
    g = RotationNumber.decimal(digits)
    assert g.to_float() == float(Fraction(digits)) == 0.5 + 2.0**-53
    assert g.to_float() == float(g.value(g.bits))


def _random_literals(rng: random.Random, bits: int) -> list[str]:
    """Decimal literals in (0, 1): 1-60 random digits, ratios "p/q", and
    exact ties, dyadic rationals with bits + 1 significant bits."""
    literals = []
    for _ in range(150):
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 60)))
        if int(digits):
            literals.append("0." + digits)
        q = rng.randint(2, 10**9)
        literals.append(f"{rng.randint(1, q - 1)}/{q}")
        m = rng.getrandbits(bits) | (1 << bits) | 1
        e = bits + 1 + rng.randint(0, 8)  # m / 2**e has e decimal places
        literals.append("0." + str(m * 5**e).rjust(e, "0"))
    return literals


@pytest.mark.parametrize("bits", [24, 53, 64, 128, 200])
def test_decimal_value_equals_mpmath(bits):
    """value(bits) is the dyadic rational mpmath rounds the literal to at
    ``bits`` of working precision, and to_float is that value's float."""
    for digits in _random_literals(random.Random(bits), bits):
        g = RotationNumber.decimal(digits, bits=bits)
        with mpmath.workprec(bits):
            want = mpmath.mpf(digits)
        man, exp = want.man_exp
        assert g.value(bits) == Fraction(man) * Fraction(2) ** exp, digits
        assert g.to_float() == float(want), digits


@pytest.mark.parametrize("bits", [24, 53, 64, 128, 200])
def test_quadratic_value_is_correctly_rounded(bits):
    """For the quadratic kind, value(bits) is the angle rounded once:
    mpmath rounding a value 200 bits more precise agrees."""
    for angle in BENCH_ANGLES:
        g = RotationNumber.quadratic(*angle)
        precise = g.exact.to_mpf(bits + 200)
        with mpmath.workprec(bits):
            man, exp = (+precise).man_exp
        assert g.value(bits) == Fraction(man) * Fraction(2) ** exp


# ---------------------------------------------------------------------------
# integral combinations (the group-membership backbone)
# ---------------------------------------------------------------------------


def test_integral_combination_basics():
    g = SQRT2_MINUS_1
    assert integral_combination([(g, 1), (g.one_minus(), 1)])  # g + (1-g) = 1
    assert integral_combination([(g, 0)])
    assert not integral_combination([(g, 3)])
    assert not integral_combination([(g, 1), (RotationNumber.quadratic(-1, 1, 3, 1), 1)])


def test_integral_combination_requires_exact_angles():
    d = RotationNumber.decimal("0.41421356237309515", bits=64)
    with pytest.raises(ExactnessError):
        integral_combination([(d, 1)])
    # zero coefficients never force exactness
    assert integral_combination([(d, 0)])


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
    gamma = RotationNumber.quadratic(*angle).exact
    offsets = [QuadraticReal.of(0), QuadraticReal.of(3), 2 - 7 * gamma,
               QuadraticReal.of(Fraction(-1, 3)), gamma - Fraction(1, 2)]
    for offset in offsets:
        for n in (0, 1, 7, 2_000):
            assert floor_sums(n, gamma, offset) == floor_sums_term_by_term(n, gamma, offset)


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
