"""Exact arithmetic for rotation angles.

Group-membership questions about an irrational angle (is ``k*gamma`` an
integer?  do two angles generate the same subgroup of R/Z?) cannot be
settled in floating point.  This module represents an angle either as a
quadratic irrational ``(p + q*sqrt(d)) / r`` with all arithmetic reduced
to integer arithmetic, or as a high-precision decimal for user-supplied
values that have no exact form.  Only the quadratic kind supports exact
group queries; numeric evaluation is available for both and is
bit-reproducible at a fixed precision.  :func:`floor_sums` sums the
floors along a line of quadratic slope exactly, in O(log n) steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Union

__all__ = [
    "ExactnessError",
    "QuadraticReal",
    "RotationNumber",
    "SQRT2_MINUS_1",
    "floor_sums",
    "integral_combination",
    "surd_sign",
]

_Scalar = Union[int, Fraction]


class ExactnessError(TypeError):
    """An operation that requires exact arithmetic got an inexact angle."""


@lru_cache(maxsize=None)
def _squarefree(d: int) -> tuple[int, int]:
    """Split ``d = s**2 * d0`` with ``d0`` squarefree; returns ``(s, d0)``.

    Trial division costs O(sqrt(d)) and every arithmetic result checks
    its d again, so the split is memoised per d."""
    if d <= 0:
        raise ValueError(f"radicand must be positive, got {d}")
    s = 1
    f = 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            s *= f
        f += 1
    return s, d


def surd_sign(a, b, d: int) -> int:
    """Exact sign in {-1, 0, 1} of ``a + b*sqrt(d)``.

    ``a`` and ``b`` are rationals or integers and ``d >= 2`` is not a
    perfect square.  Opposite signs are settled by comparing ``a**2``
    with ``b**2 * d``, so integer inputs cost a few integer operations.
    """
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs, rhs = a * a, b * b * d
    if a > 0:  # b < 0
        return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
    return -1 if lhs > rhs else (1 if lhs < rhs else 0)


def _floor_of(p: int, q: int, r: int, d: int) -> int:
    """``floor((p + q*sqrt(d)) / r)`` for integers with r > 0, exactly.

    ``s = isqrt(q*q*d)`` puts ``|q|*sqrt(d)`` strictly between s and
    s + 1 (a nonzero q*sqrt(d) is irrational), so the numerator lies
    strictly inside ``(p + s, p + s + 1)`` for q > 0 and inside
    ``(p - s - 1, p - s)`` for q < 0; dividing an open unit interval
    with integer ends by r cannot straddle an integer.
    """
    if q == 0:
        return p // r
    s = math.isqrt(q * q * d)
    return (p + s) // r if q > 0 else (p - s - 1) // r


@total_ordering
@dataclass(frozen=True)
class QuadraticReal:
    """An element ``a + b*sqrt(d)`` of a real quadratic field.

    ``a`` and ``b`` are exact rationals and ``d`` is a squarefree integer
    ``>= 2``.  Values with ``b == 0`` are plain rationals and combine with
    any field.  Comparisons, ``floor`` and ``frac`` are exact.
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"field tag d must be >= 2, got {self.d}")
        s, d0 = _squarefree(self.d)
        if s != 1:
            object.__setattr__(self, "b", self.b * s)
            object.__setattr__(self, "d", d0)
        if self.d == 1:  # b*sqrt(1) is rational; fold it into a
            object.__setattr__(self, "a", self.a + self.b)
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
        """Exact sign in {-1, 0, 1}."""
        return surd_sign(self.a, self.b, self.d)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadraticReal):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

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
        traced span and for mpmath oracles, and imports mpmath when
        called, so no scenario loads mpmath.
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


@dataclass(frozen=True)
class RotationNumber:
    """An irrational rotation angle in (0, 1).

    Two kinds:

    ``quadratic``
        ``(p + q*sqrt(d)) / r`` with integer fields, ``d > 1`` not a
        perfect square and ``q != 0``.  Supports exact arithmetic.
    ``decimal``
        A decimal literal carried at a stated binary precision, for
        angles with no closed form.  Exact group queries refuse it.

    ``value(bits)`` is bit-identical across calls at the same precision.
    """

    kind: str
    p: int = 0
    q: int = 0
    d: int = 0
    r: int = 1
    digits: str = ""
    bits: int = 53

    def __post_init__(self) -> None:
        if self.kind == "quadratic":
            if self.r == 0:
                raise ValueError("r must be nonzero")
            if self.q == 0:
                raise ValueError("q must be nonzero (angle would be rational)")
            if self.d <= 1:
                raise ValueError(f"d must exceed 1, got {self.d}")
            if math.isqrt(self.d) ** 2 == self.d:
                raise ValueError(f"d={self.d} is a perfect square; angle would be rational")
            x = self.exact
            if not (0 < x.sign() and (x - 1).sign() < 0):
                raise ValueError("angle must lie strictly between 0 and 1")
        elif self.kind == "decimal":
            if not self.digits:
                raise ValueError("decimal kind requires digits")
            if self.bits < 24:
                raise ValueError("precision below 24 bits is not meaningful here")
            v = self.value(self.bits)
            if not (0 < v < 1):
                raise ValueError("angle must lie strictly between 0 and 1")
        else:
            raise ValueError(f"unknown rotation-number kind {self.kind!r}")

    # -- constructors --------------------------------------------------

    @classmethod
    def quadratic(cls, p: int, q: int, d: int, r: int = 1) -> "RotationNumber":
        return cls(kind="quadratic", p=p, q=q, d=d, r=r)

    @classmethod
    def decimal(cls, digits: str | float, bits: int = 128) -> "RotationNumber":
        return cls(kind="decimal", digits=str(digits), bits=bits)

    # -- exactness ------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.kind == "quadratic"

    @property
    def exact(self) -> QuadraticReal:
        if self.kind != "quadratic":
            raise ExactnessError(
                "decimal rotation numbers carry no exact representation"
            )
        return QuadraticReal.from_integers(self.p, self.q, self.d, self.r)

    # -- numeric --------------------------------------------------------

    def value(self, bits: int = 53) -> Fraction:
        """The angle rounded once to ``bits`` significant bits
        (:func:`_round_to_bits`), as an exact dyadic rational; a decimal
        literal is rounded as mpmath rounds it at that precision."""
        if self.kind == "quadratic":
            return _round_to_bits(self.exact, bits)
        return _round_to_bits(QuadraticReal.of(Fraction(self.digits)), bits)

    def to_float(self) -> float:
        """The angle as a float: correctly rounded for the quadratic kind,
        and rounded once from the angle's own ``bits`` for the decimal
        kind."""
        if self.kind == "quadratic":
            return float(self.exact)
        return float(self.value(self.bits))

    # -- exact helpers ----------------------------------------------------

    def frac_multiple(self, k: int) -> QuadraticReal:
        """``k * gamma mod 1``, exactly."""
        return (self.exact * k).frac()

    def one_minus(self) -> "RotationNumber":
        """The angle ``1 - gamma`` (again in (0, 1))."""
        if self.kind != "quadratic":
            raise ExactnessError("one_minus requires the quadratic kind")
        return RotationNumber.quadratic(self.r - self.p, -self.q, self.d, self.r)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "quadratic":
            return {"quadratic": [self.p, self.q, self.d, self.r]}
        return {"decimal": {"digits": self.digits, "bits": self.bits}}

    @classmethod
    def from_json(cls, obj: dict) -> "RotationNumber":
        if "quadratic" in obj:
            p, q, d, r = obj["quadratic"]
            return cls.quadratic(int(p), int(q), int(d), int(r))
        if "decimal" in obj:
            spec = obj["decimal"]
            return cls.decimal(spec["digits"], int(spec.get("bits", 128)))
        raise ValueError(f"unrecognized rotation-number object: {obj!r}")

    def __str__(self) -> str:
        if self.kind == "quadratic":
            return f"({self.p}+{self.q}*sqrt({self.d}))/{self.r}"
        return f"~{self.digits}@{self.bits}b"


def _round_to_bits(x: QuadraticReal, bits: int) -> Fraction:
    """``x`` rounded once to ``bits`` significant bits, as an exact dyadic
    rational: to nearest, and an exact tie (only a rational meets one) to
    even.  The scale 2**s that leaves ``bits`` bits before the point is
    found from the bit length of ``floor(x * 2**s)``, which is exact."""
    if bits < 1:
        raise ValueError(f"cannot round to {bits} bits")
    sign = x.sign()
    if sign <= 0:
        return -_round_to_bits(-x, bits) if sign else Fraction(0)
    s = bits
    while True:
        scaled = x * Fraction(2) ** s
        m = scaled.floor()
        if m.bit_length() == bits:
            break
        s += bits - m.bit_length()
    twice_rest = (scaled - m) * 2
    if twice_rest > 1 or (twice_rest == 1 and m % 2):
        m += 1
    return m / Fraction(2) ** s


#: Default angle of the reproduce-letter scenario, sqrt(2) - 1.
SQRT2_MINUS_1 = RotationNumber.quadratic(-1, 1, 2, 1)


def integral_combination(
    terms: list[tuple[RotationNumber, int]],
) -> bool:
    """Is ``sum(coeff * gamma)`` an integer?  Decided exactly.

    Angles from distinct quadratic fields are linearly independent over
    the rationals together with 1, so the combination is integral iff
    every per-field irrational coefficient vanishes and the rational
    remainder is an integer.  Raises :class:`ExactnessError` if any
    angle with a nonzero coefficient is inexact.
    """
    rational = Fraction(0)
    irrational: dict[int, Fraction] = {}
    for gamma, coeff in terms:
        if coeff == 0:
            continue
        if not gamma.is_exact:
            raise ExactnessError(
                "group membership is undecidable for decimal angles"
            )
        x = gamma.exact
        rational += coeff * x.a
        if x.b != 0:
            irrational[x.d] = irrational.get(x.d, Fraction(0)) + coeff * x.b
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
    if offset.b != 0 and offset.d != slope.d:
        raise ValueError(f"cannot mix sqrt({slope.d}) and sqrt({offset.d}) exactly")
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
    the first one (:func:`_continued_fraction`), so two levels at least
    halve n (Euclid's algorithm on a real slope; the three-distance
    theorem has the same recursion).
    """
    quotients, start = _continued_fraction(slope, d)
    period = len(quotients) - start
    op, oq, orr = offset
    levels = []
    while True:
        k = len(levels)
        A, (ap, aq, ar), (sp, sq, sr) = quotients[
            k if k < start else start + (k - start) % period
        ]
        B = _floor_of(op, oq, orr, d)
        op -= B * orr
        m = _floor_of(ap * n * orr + op * ar, aq * n * orr + oq * ar, ar * orr, d)
        levels.append((n, m, A, B))
        if m == 0:
            break
        # (1 - beta)/alpha, with 1 - beta = (u + v*sqrt(d))/orr
        u, v = orr - op, -oq
        op, oq, orr = _reduced(u * sp + v * sq * d, u * sq + v * sp, orr * sr)
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


@lru_cache(maxsize=16)
def _continued_fraction(x: tuple[int, int, int], d: int) -> tuple[list, int]:
    """The levels ``(A, alpha, 1/alpha)`` of the continued fraction of the
    irrational ``x = (p + q*sqrt(d))/r`` (``A = floor``, alpha the rest),
    up to the first complete quotient that repeats, and the level where
    the repetition starts.  Complete quotients of a quadratic irrational
    are eventually periodic (Lagrange), and a reduced triple names its
    value uniquely, so the first repeat closes the period."""
    seen: dict = {}
    levels = []
    while x not in seen:
        seen[x] = len(levels)
        p, q, r = x
        A = _floor_of(p, q, r, d)
        p -= A * r
        x = _reduced(r * p, -r * q, p * p - q * q * d)
        levels.append((A, (p, q, r), x))
    return levels, seen[x]


def _reduced(p: int, q: int, r: int) -> tuple[int, int, int]:
    """``(p, q, r)`` over their gcd, with r > 0."""
    g = math.gcd(p, q, r)
    if r < 0:
        g = -g
    return p // g, q // g, r // g
