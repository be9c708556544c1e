"""Reference answers for the exact quadratic layer, kept as test oracles.

* :func:`surd_sign` decides the sign of ``a + b*sqrt(d)`` by comparing
  squares, a different route from ``QuadraticReal.sign``, which reads
  the floor off one integer square root.
* :func:`bracket_float` rounds a ``QuadraticReal`` to the nearest float
  by a different route from ``QuadraticReal.__float__``: mpmath proposes
  ``n = floor(2**K x)``, exact comparisons confirm ``n <= 2**K x < n + 1``,
  and ``float(Fraction)`` rounds both ends.
* :func:`floor_sums_term_by_term` adds the three floor sums of
  ``floor_sums`` one term at a time; each floor starts from a float
  guess and is fixed by exact integer sign tests.
* :func:`bounded_group_relation` is the bounded coefficient search that
  ``point_spectrum_groups_equal`` once ran.  A witness it finds is a
  proof, so the exact decision must agree with it wherever it finds one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import mpmath

from ergolab import QuadraticReal, RotationNumber, integral_combination


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


def bracket_float(x: QuadraticReal) -> float:
    """The float nearest to x, from confirmed dyadic brackets."""
    K = 64
    while True:
        with mpmath.workprec(K + 128):
            value = mpmath.mpf(x.a.numerator) / x.a.denominator + (
                mpmath.sqrt(x.d) * x.b.numerator / x.b.denominator
            )
            n = int(mpmath.floor(value * mpmath.mpf(2) ** K))
        lo, hi = Fraction(n, 2**K), Fraction(n + 1, 2**K)
        assert lo <= x < hi, "mpmath proposed a wrong bracket"
        if float(lo) == float(hi):
            return float(lo)
        K *= 2


def floor_sums_term_by_term(
    n: int, slope: QuadraticReal, offset: QuadraticReal
) -> tuple[int, int, int]:
    """``(sum F_i, sum i*F_i, sum F_i**2)``, ``F_i = floor(slope*i + offset)``,
    over i = 0..n, in O(n)."""
    d = slope.d
    R = math.lcm(*(x.denominator for x in (slope.a, slope.b, offset.a, offset.b)))
    sp, sq, op, oq = (int(x * R) for x in (slope.a, slope.b, offset.a, offset.b))
    f = g = h = 0
    for i in range(n + 1):
        P, Q = sp * i + op, sq * i + oq
        k = math.floor((P + Q * math.sqrt(d)) / R)
        while surd_sign(P - k * R, Q, d) < 0:
            k -= 1
        while surd_sign(P - (k + 1) * R, Q, d) >= 0:
            k += 1
        f, g, h = f + k, g + i * k, h + k * k
    return f, g, h


def bounded_group_relation(
    gamma1: RotationNumber, gamma2: RotationNumber, bound: int
) -> Optional[tuple[int, int]]:
    """(a, b) with ``gamma2 = a*gamma1`` and ``gamma1 = b*gamma2 (mod 1)``,
    searched over 1 <= |a|, |b| <= bound; None if either is not found."""

    def member(target: RotationNumber, gen: RotationNumber) -> Optional[int]:
        for a in range(1, bound + 1):
            for s in (a, -a):
                if integral_combination([(gen, s), (target, -1)]):
                    return s
        return None

    a = member(gamma2, gamma1)
    b = member(gamma1, gamma2) if a is not None else None
    return None if b is None else (a, b)
