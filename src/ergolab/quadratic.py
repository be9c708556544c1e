"""Exact arithmetic for rotation angles.

Group-membership questions about an irrational angle (is ``k*gamma`` an
integer?  do two angles generate the same subgroup of R/Z?) cannot be
settled in floating point.  This module represents an angle either as a
quadratic irrational ``(p + q*sqrt(d)) / r`` with all arithmetic reduced
to integer arithmetic, or as a high-precision decimal for user-supplied
values that have no exact form.  Only the quadratic kind supports exact
group queries; numeric evaluation is available for both and is
bit-reproducible at a fixed precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Union

import mpmath

__all__ = [
    "ExactnessError",
    "QuadraticReal",
    "RotationNumber",
    "SQRT2_MINUS_1",
    "integral_combination",
    "surd_sign",
]

_Scalar = Union[int, Fraction]


class ExactnessError(TypeError):
    """An operation that requires exact arithmetic got an inexact angle."""


def _squarefree(d: int) -> tuple[int, int]:
    """Split ``d = s**2 * d0`` with ``d0`` squarefree; returns ``(s, d0)``."""
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


@lru_cache(maxsize=64)
def _sqrt_mpf(d: int, bits: int) -> mpmath.mpf:
    """``sqrt(d)`` rounded to ``bits``, evaluated once per (d, bits)."""
    with mpmath.workprec(bits):
        return mpmath.sqrt(d)


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

    def __mul__(self, other: object) -> "QuadraticReal":
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

    def approx_float(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __float__(self) -> float:
        # One correctly-directed refinement pass over the naive estimate:
        # evaluate at 80 bits and round once.
        return float(self.to_mpf(80))

    def to_mpf(self, bits: int = 53) -> mpmath.mpf:
        with mpmath.workprec(bits):
            return mpmath.mpf(self.a.numerator) / self.a.denominator + (
                _sqrt_mpf(self.d, bits) * self.b.numerator / self.b.denominator
            )

    def floor(self) -> int:
        n = math.floor(self.approx_float())
        while self < n:
            n -= 1
        while not self < n + 1:
            n += 1
        return n

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

    def value(self, bits: int = 53) -> mpmath.mpf:
        """The angle at ``bits`` of working precision (reproducible)."""
        if self.kind == "quadratic":
            return self.exact.to_mpf(bits)
        with mpmath.workprec(bits):
            return +mpmath.mpf(self.digits)

    def to_float(self) -> float:
        return float(self.value(80))

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
