"""Exact arithmetic for rotation angles.

Group-membership questions about an irrational angle (is ``k*gamma`` an
integer?  do two angles generate the same subgroup of R/Z?) cannot be
settled in floating point.  This module represents an angle as a
quadratic irrational ``(p + q*sqrt(d)) / r`` and reduces all arithmetic
on it to integer arithmetic, so every such question is decided exactly;
a float is taken only of a finished exact value, correctly rounded.  One
integer square root decides each question about sqrt(d): a value's
floor, hence its sign and order, and, with no radicand factored,
whether sqrt(d) and sqrt(e) span one field (d*e a perfect square).
:func:`floor_sums` sums the floors along a line of quadratic slope
exactly, in O(log n) steps: it derives each complete quotient of the
slope's continued fraction from the one before, and only as many as n
needs, however long the period.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from typing import Union

from ._record import record

__all__ = [
    "QuadraticReal",
    "RotationNumber",
    "SQRT2_MINUS_1",
    "floor_sums",
    "integral_combination",
]

_Scalar = Union[int, Fraction]

#: Most decimal digits of a radicand d.  Nothing factors d; what grows
#: with it are the floor-sum integers, which carry its digits.  An exact
#: weak-mixing run at t = 10^999 on the skew map takes 0.6-0.9 s for
#: d up to 100 digits, and about 2 * (digits/1000)^1.3 s above that on a
#: 2-core x86-64 host (2.0 s at 1,000 digits, 4.4 at 2,000, 12.3 at
#: 4,000), so the budget keeps that run within its 3 s.
_MAX_RADICAND_DIGITS = 1000
_RADICAND_BOUND = 10**_MAX_RADICAND_DIGITS  # the least d refused


def decimal_digits(n: int) -> int:
    """The decimal digits of an int n >= 1, counted without ``str(n)``,
    which refuses ints of over 4,300 digits.  An n of b bits has f + 1 or
    f + 2 digits, f = floor((b - 1) log10 2), which log10 2 to 40 places
    gives exactly for every b below 10^16; one comparison decides."""
    f = (n.bit_length() - 1) * 3010299956639811952137388947244930267681 // 10**40
    return f + 1 + (n >= 10 ** (f + 1))


def _same_field(d: int, e: int) -> Fraction | None:
    """``sqrt(e)/sqrt(d)`` when sqrt(d) and sqrt(e) span one field, which
    is when d*e is a perfect square; then the ratio is ``isqrt(d*e)/d``.
    None otherwise."""
    s = math.isqrt(d * e)
    return Fraction(s, d) if s * s == d * e else None


def _floor_of(p: int, q: int, r: int, d: int) -> int:
    """``floor((p + q*sqrt(d)) / r)`` for integers with r != 0, exactly.

    ``s = isqrt(q*q*d)`` puts ``|q|*sqrt(d)`` strictly between s and
    s + 1 (a nonzero q*sqrt(d) is irrational), so the numerator lies
    strictly inside ``(p + s, p + s + 1)`` for q > 0 and inside
    ``(p - s - 1, p - s)`` for q < 0; dividing an open unit interval
    with integer ends by r > 0 cannot straddle an integer.
    """
    if r < 0:
        p, q, r = -p, -q, -r
    if q == 0:
        return p // r
    s = math.isqrt(q * q * d)
    return (p + s) // r if q > 0 else (p - s - 1) // r


@total_ordering
@record(frozen=True)
class QuadraticReal:
    """An element ``a + b*sqrt(d)`` of a real quadratic field.

    ``a`` and ``b`` are exact rationals and ``d >= 2`` is an integer of at
    most ``_MAX_RADICAND_DIGITS`` digits, kept as given unless it is a
    perfect square, which folds into ``a``: sqrt(8) equals, hashes and
    combines like 2*sqrt(2) (:func:`_same_field`).  Values with ``b == 0``
    are plain rationals and combine with any field.  ``floor`` is exact,
    from one integer square root, and ``frac``, the sign and so every
    comparison of an irrational value read it.
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"field tag d must be >= 2, got {self.d}")
        if self.d >= _RADICAND_BOUND:
            digits = decimal_digits(self.d)
            raise ValueError(
                f"radicand d has {digits} digits, over the budget of {_MAX_RADICAND_DIGITS}: "
                f"weak mixing at the largest t would take about {2 * (digits / 1000) ** 1.3:.0f} s")
        s = math.isqrt(self.d)
        if s * s == self.d:  # b*sqrt(d) is rational; fold it into a
            object.__setattr__(self, "a", self.a + self.b * s)
            object.__setattr__(self, "b", Fraction(0))
            object.__setattr__(self, "d", 2)

    # -- construction ------------------------------------------------

    @classmethod
    def of(cls, value: _Scalar, d: int = 2) -> "QuadraticReal":
        return cls(Fraction(value), Fraction(0), d)

    @classmethod
    def from_integers(cls, p: int, q: int, d: int, r: int) -> "QuadraticReal":
        """Exact value of ``(p + q*sqrt(d)) / r``."""
        if r == 0:
            raise ZeroDivisionError("denominator r must be nonzero")
        return cls(Fraction(p, r), Fraction(q, r), d)

    # -- field helpers -----------------------------------------------

    def _coerce(self, other: object) -> "QuadraticReal | None":
        if isinstance(other, QuadraticReal):
            if other.b == 0 or self.b == 0 or other.d == self.d:
                return other
            ratio = _same_field(self.d, other.d)
            if ratio is not None:
                return QuadraticReal(other.a, other.b * ratio, self.d)
            raise ValueError(
                f"cannot mix sqrt({self.d}) and sqrt({other.d}) exactly"
            )
        if isinstance(other, (int, Fraction)):
            return QuadraticReal.of(other, self.d)
        return None

    def _tag(self, other: "QuadraticReal") -> int:
        return self.d if self.b != 0 else other.d

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: object) -> "QuadraticReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadraticReal(self.a + o.a, self.b + o.b, self._tag(o))

    __radd__ = __add__

    def __neg__(self) -> "QuadraticReal":
        return QuadraticReal(-self.a, -self.b, self.d)

    def __sub__(self, other: object) -> "QuadraticReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadraticReal(self.a - o.a, self.b - o.b, self._tag(o))

    def __rsub__(self, other: object) -> "QuadraticReal":
        return (-self) + other

    def __abs__(self) -> "QuadraticReal":
        return -self if self.sign() < 0 else self

    def __mul__(self, other: object) -> "QuadraticReal":
        if isinstance(other, (int, Fraction)):  # a rational scales both parts
            return QuadraticReal(self.a * other, self.b * other, self.d)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._tag(o)
        return QuadraticReal(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            d,
        )

    __rmul__ = __mul__

    # -- exact order --------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}: a rational's own; an irrational value
        is positive exactly when its floor is at least 0."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        return 1 if self.floor() >= 0 else -1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadraticReal):
            if self.b == 0 or other.b == 0 or self.d == other.d:
                return self.a == other.a and self.b == other.b
            ratio = _same_field(self.d, other.d)
            return ratio is not None and self.a == other.a and self.b == other.b * ratio
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b * self.b * self.d, self.b > 0))  # however d is written

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    # -- floor / frac -------------------------------------------------

    def __float__(self) -> float:
        """The nearest float, correctly rounded.

        Over one denominator D the value is ``(p + q*sqrt(d))/D``;
        ``s = isqrt(d * 4**K)`` brackets ``2**K sqrt(d)`` in ``[s, s + 1)``,
        so the value lies strictly between the two rationals below (sqrt(d)
        is irrational).  Once both round to the same float, so does every
        number between them; until then K doubles.  Integer true division
        rounds correctly.
        """
        if self.b == 0:
            return float(self.a)
        p, q, D = self._numerators()
        K = 64
        while True:
            s = math.isqrt(self.d << (2 * K))
            lo = ((p << K) + q * s) / (D << K)
            if lo == ((p << K) + q * (s + 1)) / (D << K):
                return lo
            K *= 2

    def to_mpf(self, bits: int = 53):
        """The value as an ``mpmath.mpf`` at ``bits`` of working precision.

        Nothing in the package calls it; it is kept for the benchmark's
        traced span and for mpmath oracles, and imports mpmath (from
        the ``test`` extra) when called, so no scenario loads mpmath.
        """
        import mpmath

        with mpmath.workprec(bits):
            return mpmath.mpf(self.a.numerator) / self.a.denominator + (
                mpmath.sqrt(self.d) * self.b.numerator / self.b.denominator
            )

    def _numerators(self) -> tuple[int, int, int]:
        """Integers ``(p, q, r)``, r > 0, with the value ``(p + q*sqrt(d))/r``."""
        r = math.lcm(self.a.denominator, self.b.denominator)
        return (
            self.a.numerator * (r // self.a.denominator),
            self.b.numerator * (r // self.b.denominator),
            r,
        )

    def floor(self) -> int:
        """Exactly, from one integer square root (:func:`_floor_of`)."""
        return _floor_of(*self._numerators(), self.d)

    def frac(self) -> "QuadraticReal":
        """Fractional part, exactly in [0, 1)."""
        return self - self.floor()

    def __repr__(self) -> str:
        if self.b == 0:
            return f"QuadraticReal({self.a})"
        return f"QuadraticReal({self.a} + {self.b}*sqrt({self.d}))"


@record(frozen=True)
class RotationNumber:
    """An irrational rotation angle ``(p + q*sqrt(d)) / r`` in (0, 1).

    The fields are integers with ``r != 0``, ``q != 0`` and ``d > 1`` not
    a perfect square, so the angle is irrational by construction and
    every group query on it is decided exactly.  Equality compares the
    four fields, not the angle: ``(-1, 1, 2, 1)`` and ``(-2, 2, 2, 2)``
    are the same angle but unequal values.
    """

    p: int
    q: int
    d: int
    r: int = 1

    def __post_init__(self) -> None:
        if self.r == 0:
            raise ValueError("r must be nonzero")
        if self.q == 0:
            raise ValueError("q must be nonzero (angle would be rational)")
        if self.d <= 1:
            raise ValueError(f"d must exceed 1, got {self.d}")
        x = self.exact
        if x.b == 0:
            raise ValueError(f"d={self.d} is a perfect square; angle would be rational")
        if x.floor() != 0:  # x is irrational, so never 0 or 1
            raise ValueError("angle must lie strictly between 0 and 1")

    @property
    def exact(self) -> QuadraticReal:
        return QuadraticReal.from_integers(self.p, self.q, self.d, self.r)

    def frac_multiple(self, k: int) -> QuadraticReal:
        """``k * gamma mod 1``, exactly."""
        return (self.exact * k).frac()

    def one_minus(self) -> "RotationNumber":
        """The angle ``1 - gamma`` (again in (0, 1))."""
        return RotationNumber(self.r - self.p, -self.q, self.d, self.r)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"quadratic": [self.p, self.q, self.d, self.r]}

    @classmethod
    def from_json(cls, obj: dict) -> "RotationNumber":
        """Read ``{"quadratic": [p, q, d, r]}``, which the config schema
        has validated: four integers, integral floats among them."""
        return cls(*map(int, obj["quadratic"]))

    def __str__(self) -> str:
        return f"({self.p}+{self.q}*sqrt({self.d}))/{self.r}"


#: Default angle of the reproduce-letter scenario, sqrt(2) - 1.
SQRT2_MINUS_1 = RotationNumber(-1, 1, 2, 1)


def integral_combination(
    terms: list[tuple[RotationNumber, int]],
) -> bool:
    """Is ``sum(coeff * gamma)`` an integer?  Decided exactly.

    Angles from distinct quadratic fields are linearly independent over
    the rationals together with 1, so the combination is integral iff
    every per-field irrational coefficient vanishes and the rational
    remainder is an integer.  A field is keyed by the first radicand met
    in it, and :func:`_same_field` rewrites the others in its terms.
    """
    rational = Fraction(0)
    irrational: dict[int, Fraction] = {}  # the coefficient of sqrt(d), one d per field
    for gamma, coeff in terms:
        x = gamma.exact  # b != 0: an angle is irrational
        rational += coeff * x.a
        d = next((d for d in irrational if _same_field(d, x.d) is not None), x.d)
        irrational[d] = irrational.get(d, 0) + coeff * x.b * _same_field(d, x.d)
    if any(c != 0 for c in irrational.values()):
        return False
    return rational.denominator == 1


def floor_sums(
    n: int, slope: QuadraticReal, offset: QuadraticReal
) -> tuple[int, int, int]:
    """``(sum F_i, sum i*F_i, sum F_i**2)`` over i = 0..n, where
    ``F_i = floor(slope*i + offset)``, exactly, in O(log n) steps.

    ``slope`` must be irrational; ``offset`` is any value of its field
    (or a rational).  An irrational line meets at most one lattice point
    ``slope*i + offset in Z``; that term is added directly and the two
    ranges beside it go to :func:`_floor_sums`, which needs a line
    clear of lattice points.
    """
    if slope.b == 0:
        raise ValueError("floor_sums needs an irrational slope")
    offset = slope._coerce(offset)
    if n < 0:
        return 0, 0, 0
    k = -offset.b / slope.b  # the only i where the sqrt(d) parts cancel
    v = slope.a * k + offset.a if k.denominator == 1 and 0 <= k <= n else None
    if v is None or v.denominator != 1:
        return _floor_sums(n, slope._numerators(), offset._numerators(), slope.d)
    k, v = int(k), int(v)
    f1, g1, h1 = floor_sums(k - 1, slope, offset)
    f2, g2, h2 = floor_sums(n - k - 1, slope, offset + slope * (k + 1))
    # the upper range counts from i = k + 1
    return f1 + v + f2, g1 + k * v + (k + 1) * f2 + g2, h1 + v * v + h2


def _floor_sums(n: int, slope, offset, d: int) -> tuple[int, int, int]:
    """:func:`floor_sums` for a line with no lattice point at i = 0..n.

    Slope and offset are integer triples ``(p, q, r)`` for
    ``(p + q*sqrt(d))/r``.  Each level takes out the integer parts A and
    B, leaving ``alpha, beta`` in [0, 1) and ``F_i = A*i + B + R_i`` with
    ``R_i = floor(alpha*i + beta)`` < m + 1, ``m = R_n``.  Then
    ``R_i > j`` iff ``i > Y_j = floor((j + 1 - beta)/alpha)`` (never
    equal, as no lattice point lies on the line), so swapping the axes
    turns the sums of R into sums of Y over j = 0..m-1: a line of slope
    1/alpha and offset (1 - beta)/alpha, again clear of lattice points.
    The slopes are the complete quotients of the continued fraction of
    the first one, each derived from the one before: written
    ``(P + k*sqrt(d))/Q`` with k > 0 fixed and Q dividing ``k*k*d - P*P``,
    ``1/alpha = (-P + k*sqrt(d))/Q'`` for the exact quotient
    ``Q' = (k*k*d - P*P)/Q``, which Q' divides again.  Two levels at
    least halve n (Euclid's algorithm on a real slope; the three-distance
    theorem has the same recursion), so the walk ends after about
    2*log2(n) levels.
    """
    sp, sq, sr = slope
    sign = 1 if sq > 0 else -1  # keeps k > 0
    P, k, Q = sign * sp * sr, sign * sq * sr, sign * sr * sr  # Q divides k*k*d - P*P
    kkd = k * k * d
    s = math.isqrt(kkd)  # k*sqrt(d) lies strictly between s and s + 1
    op, oq, orr = offset
    levels = []
    while True:
        A = (P + s) // Q if Q > 0 else (P + s + 1) // Q
        P -= A * Q  # alpha = (P + k*sqrt(d))/Q
        B = _floor_of(op, oq, orr, d)
        op -= B * orr
        m = _floor_of(P * n * orr + op * Q, k * n * orr + oq * Q, Q * orr, d)
        levels.append((n, m, A, B))
        if m == 0:
            break
        P, Q = -P, (kkd - P * P) // Q  # 1/alpha
        # (1 - beta)/alpha, with 1 - beta = (u + v*sqrt(d))/orr
        u, v = orr - op, -oq
        op, oq, orr = _reduced(u * P + v * k * d, u * k + v * P, orr * Q)
        n = m - 1
    f = g = h = 0  # the sums of Y one level down (none below m == 0)
    for n, m, A, B in reversed(levels):
        f, g, h = m * n - f, (m * n * (n + 1) - h - f) // 2, n * m * m - 2 * g - f
        s0, s1, s2 = n + 1, n * (n + 1) // 2, n * (n + 1) * (2 * n + 1) // 6
        f, g, h = (
            A * s1 + B * s0 + f,
            A * s2 + B * s1 + g,
            A * A * s2 + 2 * A * B * s1 + B * B * s0 + 2 * A * g + 2 * B * f + h,
        )
    return f, g, h


def _reduced(p: int, q: int, r: int) -> tuple[int, int, int]:
    """``(p, q, r)`` over their gcd, with r > 0."""
    g = math.gcd(p, q, r)
    if r < 0:
        g = -g
    return p // g, q // g, r // g
