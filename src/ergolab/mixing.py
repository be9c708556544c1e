"""Correlation sequences and the finite-horizon weak-mixing statistic,
from exact closed forms.

Weak mixing asks that the Cesaro average of |mu(S^i A  cap  B) - mu(A)mu(B)|
tend to 0.  At desk scale only finite-t trends are observable, so verdicts
read "consistent with weak mixing" (statistic below 0.01) or "inconsistent"
(above 0.05), never the limit statement itself.  Correlations are exact
factor by factor, read off the map record ``systems.MAPS[kind] =
(N, t, s)``: a u-arc moves by the rotation of a torus part (t not
empty), a cylinder by the shift (s != 0), and a factor a set leaves free
is the whole coordinate.  Values and sums stay exact until one correctly
rounded conversion to float; a v-arc, or a factor the system lacks,
raises :class:`NoClosedFormError`.  The spectral predicate
``koopman.spectral_weak_mixing_check`` gives a second, non-numeric
opinion.  The exact statistic visits no lag of the
rotation orbit beyond the few where cylinder constraints meet: the
overlaps are piecewise linear in frac(i*gamma), so their sum over t lags
is a handful of floor sums, each O(log t) steps down the continued
fraction of gamma.
No numpy is imported: sample membership works on a batch's own arrays.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Union

from ._record import record
from .quadratic import QuadraticReal, RotationNumber, decimal_digits, floor_sums
from .systems import MAPS, BernoulliSpec, CylinderSet, SampleBatch, SystemSpec, read_fraction

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CorrelationPoint",
    "MAX_WEAK_MIXING_DIGITS",
    "NoClosedFormError",
    "TestSet",
    "correlation",
    "weak_mixing_statistic",
    "weak_mixing_verdict",
]

CONSISTENT_BELOW = 0.01
INCONSISTENT_ABOVE = 0.05
#: Most decimal digits of t that :func:`weak_mixing_statistic` accepts.
#: The exact statistic takes O(digits) levels of floor sums on integers of
#: O(digits) digits, about the cube of the digit count: 0.01-0.02 s at
#: 100 digits, 1.1-3.0 s at 1,000 and 16-54 s at 3,000 on a 2-core
#: x86-64 host, so the budget keeps one run near 3 s.
MAX_WEAK_MIXING_DIGITS = 1000


class NoClosedFormError(ValueError):
    """Exact correlation was requested for a pair without a closed form."""


#: The fields each test-set kind takes; it takes none of the others.
_TEST_SET_FIELDS = {
    "u-interval": ("a", "b"),
    "rectangle": ("a", "b", "c", "d"),
    "cylinder": ("cylinder",),
    "product": ("a", "b", "cylinder"),
}


@record(frozen=True)
class TestSet:
    """A measurable test set with an exactly computable measure.

    Kinds: a half-open u-interval [a, b) (full in every other coordinate),
    a torus rectangle [a, b) x [c, d), a sequence cylinder, or a product
    of a u-interval with a cylinder.  Interval endpoints are read as
    exact rationals, as probabilities are (``read_fraction``: 0.1 is 1/10).
    """

    __test__ = False  # not a test-suite class, despite the name

    kind: str
    a: Optional[Fraction] = None
    b: Optional[Fraction] = None
    c: Optional[Fraction] = None
    d: Optional[Fraction] = None
    cylinder: Optional[CylinderSet] = None

    def __post_init__(self) -> None:
        if self.kind not in _TEST_SET_FIELDS:
            raise ValueError(f"unknown test-set kind {self.kind!r}")
        for name in ("a", "b", "c", "d", "cylinder"):
            given = getattr(self, name) is not None
            if given != (name in _TEST_SET_FIELDS[self.kind]):
                raise ValueError(
                    f"a {self.kind} test set {'takes no' if given else 'needs'} {name!r}"
                )
            if given and name != "cylinder":
                end = read_fraction(getattr(self, name), "a test-set end")
                object.__setattr__(self, name, end)
        if self.a is not None and not (0 <= self.a < self.b <= 1):
            raise ValueError("u-interval bounds must satisfy 0 <= a < b <= 1")
        if self.c is not None and not (0 <= self.c < self.d <= 1):
            raise ValueError("v-interval bounds must satisfy 0 <= c < d <= 1")

    # -- constructors ------------------------------------------------------

    @classmethod
    def u_interval(cls, a, b) -> "TestSet":
        return cls(kind="u-interval", a=a, b=b)

    @classmethod
    def rectangle(cls, a, b, c, d) -> "TestSet":
        return cls(kind="rectangle", a=a, b=b, c=c, d=d)

    @classmethod
    def from_cylinder(cls, cylinder: CylinderSet) -> "TestSet":
        return cls(kind="cylinder", cylinder=cylinder)

    @classmethod
    def product_set(cls, a, b, cylinder: CylinderSet) -> "TestSet":
        return cls(kind="product", a=a, b=b, cylinder=cylinder)

    @classmethod
    def from_json(cls, obj: dict) -> "TestSet":
        """Read a test set the config schema has validated: ends ``a`` and
        ``b`` as numbers or fraction strings, a cylinder as ``[position,
        symbol]`` pairs.  The constructor reads the ends and refuses a
        field the kind does not take."""
        ends = {e: obj[e] for e in "ab" if e in obj}
        cylinder = CylinderSet.from_json(obj["cylinder"]) if "cylinder" in obj else None
        return cls(kind=obj["kind"], cylinder=cylinder, **ends)

    # -- factors -----------------------------------------------------------

    @property
    def u_arc(self) -> tuple[Fraction, Fraction]:
        """The u-arc [a, b); the whole circle [0, 1) where u is free."""
        return (Fraction(0), Fraction(1)) if self.a is None else (self.a, self.b)

    @property
    def w_cylinder(self) -> CylinderSet:
        """The sequence constraints; none where the sequence is free."""
        return CylinderSet() if self.cylinder is None else self.cylinder

    # -- measure -----------------------------------------------------------

    def exact_measure(self, spec: SystemSpec) -> Fraction:
        """The measure as an exact rational, the product of its factors'
        (a cylinder's is :meth:`CylinderSet.measure` of the system's law)."""
        a, b = self.u_arc
        measure = b - a
        if self.c is not None:
            measure *= self.d - self.c
        if self.cylinder is not None:
            measure *= self.cylinder.measure(self._sequence_law(spec))
        return measure

    def _sequence_law(self, spec: SystemSpec) -> BernoulliSpec:
        """The symbol law a cylinder constrains; ValueError on a system
        without a sequence coordinate."""
        if spec.bernoulli is None:
            raise ValueError(
                f"a {self.kind} test set constrains sequence symbols, "
                f"which a {spec.kind} system does not have"
            )
        return spec.bernoulli

    # -- membership --------------------------------------------------------

    def contains_batch(self, spec: SystemSpec, batch: SampleBatch) -> np.ndarray:
        """Boolean membership array for a sample batch: the AND of the
        factors the set constrains."""
        result = None
        if self.a is not None:
            if batch.u is None:
                raise ValueError(f"{self.kind} set needs a u coordinate")
            result = (batch.u >= float(self.a)) & (batch.u < float(self.b))
        if self.c is not None:
            if batch.v is None:
                raise ValueError(f"{self.kind} set needs a v coordinate")
            result &= (batch.v >= float(self.c)) & (batch.v < float(self.d))
        if self.cylinder is not None:
            inside = self.cylinder.contains_batch(self._sequence_law(spec), batch)
            result = inside if result is None else (result & inside)
        return result

    def to_json(self) -> dict:
        data: dict = {"kind": self.kind}
        data.update((e, str(getattr(self, e))) for e in "abcd" if getattr(self, e) is not None)
        if self.cylinder is not None:
            data["cylinder"] = self.cylinder.to_json()
        return data


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


@record(frozen=True)
class CorrelationPoint:
    """mu(S^i(A) cap B), exact and correctly rounded."""

    i: int
    estimate: float

    def to_json(self) -> dict:
        return {"i": self.i, "estimate": self.estimate}


@record(frozen=True)
class _CircleOverlap:
    """The overlap ``f(x) = |([a1, b1) + x) cap [a2, b2)|`` of two arcs on
    the circle, and its deviations along one rotation orbit, exactly.

    :meth:`at` sums both lifts ``[a1 + x - s, b1 + x - s)``, s = 0 and 1,
    against ``[a2, b2)`` inside [0, 1], for a rational or quadratic x in
    [0, 1].  :meth:`deviation_sum` adds ``|f(frac(i*gamma)) - c|`` over a
    range of lags without visiting them: f is piecewise linear with
    slopes -1, 0 and 1, so the summand is linear between the rational
    points where an end of ``A + x`` meets an end of B or f crosses c,
    and each piece needs only the count and the sum of the orbit points
    below its ends, which are floor sums (:func:`floor_sums`).  A set
    that leaves u free contributes the whole circle [0, 1).  A statistic
    finds its pieces once, so :meth:`_steps` keeps no cache.
    """

    gamma: QuadraticReal
    a1: Fraction
    b1: Fraction
    a2: Fraction
    b2: Fraction

    @classmethod
    def between(cls, gamma: RotationNumber, A: TestSet, B: TestSet) -> "_CircleOverlap":
        return cls(gamma.exact, *A.u_arc, *B.u_arc)

    def at(self, x):
        """f(x) for x in [0, 1], in x's own arithmetic."""
        total = Fraction(0)
        for lift in (x, x - 1):
            left = max(self.a1 + lift, self.a2)
            right = min(self.b1 + lift, self.b2)
            if right > left:
                total = right - left + total
        return total

    def deviation_sum(self, c: Fraction, t: int) -> QuadraticReal:
        """``sum_{1 <= i < t} |f(frac(i*gamma)) - c|``, exactly.

        Between consecutive cuts the summand is ``alpha + beta*x``.  With
        ``N(e)`` the number of points ``x_i = frac(i*gamma)`` below a cut
        e and ``S(e)`` their sum, the total is the sum over the cuts
        e > 0 of ``N(e)*dalpha + S(e)*dbeta``, where dalpha and dbeta are
        the coefficients of the piece below e less those of the piece
        above it (none above 1).  ``[x_i < e] = F_i - G_i`` with
        ``F_i = floor(i*gamma)`` and ``G_i = floor(i*gamma - e)``, and
        ``x_i*[x_i < e] = i*gamma*[x_i < e] - (F_i**2 - G_i**2 + [x_i < e])/2``,
        so N and S are floor sums.  Lag 0 is left out: frac(i*gamma) is
        irrational for every i >= 1, so no point of the range lands on a
        rational cut, and no floor sum meets a lattice point.
        """
        g = self.gamma
        # i = k + 1 for k = 0..t-2
        f0, f1, f2 = floor_sums(t - 2, g, g)
        L, steps = self._steps(c)
        along_gamma = twice_rational = 0  # scaled by L and by 2L
        for offset, d_alpha, d_beta in steps:
            g0, g1, g2 = floor_sums(t - 2, g, offset)
            count = f0 - g0
            along_gamma += (count + f1 - g1) * d_beta  # sum of i over the points
            twice_rational += 2 * count * d_alpha - (f2 - g2 + count) * d_beta
        return (g * along_gamma + Fraction(twice_rational, 2)) * Fraction(1, L)

    def _steps(self, c: Fraction) -> tuple[int, list[tuple[QuadraticReal, int, int]]]:
        """A denominator L and ``(gamma - e, L*dalpha, L*dbeta)`` at each
        cut e > 0 of ``|f(x) - c| = alpha_k + beta_k*x``: the kinks of f,
        where an end of ``A + x`` meets an end of B, and the points where
        f crosses c."""
        kinks = sorted(
            {Fraction(0), Fraction(1)}
            | {(e2 - e1) % 1 for e1 in (self.a1, self.b1) for e2 in (self.a2, self.b2)}
        )
        dev = {e: self.at(e) - c for e in kinks}  # f - c at each cut
        for lo, hi in zip(kinks, kinks[1:]):
            if dev[lo] * dev[hi] < 0:  # f is linear on [lo, hi] and crosses c
                dev[lo + (hi - lo) * dev[lo] / (dev[lo] - dev[hi])] = Fraction(0)
        cuts = sorted(dev)
        pieces = []
        for lo, hi in zip(cuts, cuts[1:]):
            beta = (abs(dev[hi]) - abs(dev[lo])) / (hi - lo)
            pieces.append((abs(dev[lo]) - beta * lo, beta))
        pieces.append((Fraction(0), Fraction(0)))  # nothing above 1
        steps = [
            (e, below[0] - above[0], below[1] - above[1])
            for e, below, above in zip(cuts[1:], pieces, pieces[1:])
        ]
        L = math.lcm(*(x.denominator for _, *ds in steps for x in ds))
        return L, [(self.gamma - e, int(da * L), int(db * L)) for e, da, db in steps]


def _rotation_factor(spec: SystemSpec, A: TestSet, B: TestSet) -> bool:
    """Does the exact correlation of A and B have a rotation factor,
    that is, does either set constrain u?  A u-arc needs a torus part in
    the system's map record ``MAPS[kind] = (N, t, s)`` and a cylinder a
    shift; a v-arc has no closed form, as the skew map moves v by u.
    Raises :class:`NoClosedFormError` where no closed form exists."""
    _, t, s = MAPS[spec.kind]
    for ts in (A, B):
        if ts.c is not None:
            raise NoClosedFormError(f"a {ts.kind} test set constrains v, which has no closed form")
        for given, has, factor in ((ts.a, t, "u"), (ts.cylinder, s, "sequence symbols")):
            if given is not None and not has:
                raise NoClosedFormError(f"a {ts.kind} test set constrains {factor}, "
                                        f"which a {spec.kind} system does not have")
    return A.a is not None or B.a is not None


def _exact_correlation(
    spec: SystemSpec, A: TestSet, B: TestSet, i: int
) -> Union[Fraction, QuadraticReal]:
    """Exact ``mu(S^i(A) cap B)``: a rational, or a value of the angle's
    field once a rotation factor moves off 0.

    The u factor is the arc overlap at ``frac(i*gamma)``, the w factor
    the measure of the merged cylinder constraints.  Raises
    :class:`NoClosedFormError` where no closed form exists.
    """
    has_u = _rotation_factor(spec, A, B)
    # S^i(A) moves A's constraints from p to p - i
    both = A.w_cylinder.translate(-i).merge(B.w_cylinder)
    value = Fraction(0) if both is None else both.measure(spec.bernoulli)
    if has_u:
        overlap = _CircleOverlap.between(spec.gamma, A, B)
        # lag 0 sits at the orbit's one rational point, 0
        value *= overlap.at(spec.gamma.frac_multiple(i) if i else Fraction(0))
    return value


def correlation(spec: SystemSpec, A: TestSet, B: TestSet, i: int) -> CorrelationPoint:
    """mu(S^i(A) cap B), from closed forms (interval overlap on the
    rotation factor, constraint merging on the shift factor); raises
    :class:`NoClosedFormError` where none exists."""
    if i < 0:
        raise ValueError("i must be >= 0")
    return CorrelationPoint(i=i, estimate=float(_exact_correlation(spec, A, B, i)))


# ---------------------------------------------------------------------------
# weak mixing
# ---------------------------------------------------------------------------


def weak_mixing_statistic(spec: SystemSpec, A: TestSet, B: TestSet, t: int) -> float:
    """The finite-t Cesaro average (1/t) sum_{i<t} |mu(S^i A cap B) - mu(A)mu(B)|.

    The sum is exact and only the mean becomes a float, correctly
    rounded; it costs O(log t), not O(t), and raises
    :class:`NoClosedFormError` where the correlations have no closed
    form.  The cylinder constraints of S^i(A) and B share a position only
    at the lags ``i = p_A - p_B``; at every other lag the w factor is
    exactly mu_w(A)mu_w(B) =: W.  Those lags and lag 0 are summed one by
    one (:func:`_exact_correlation`).  Without a rotation factor every
    other term is 0.  With one, every other term is ``W*|f(x_i) - c|``
    for the arc overlap f at ``x_i = frac(i*gamma)`` and
    ``c = |I_A||I_B|``; that sum over 1 <= i < t comes from floor sums
    down the continued fraction of gamma
    (:meth:`_CircleOverlap.deviation_sum`), less the lags already summed.
    A t of more than ``MAX_WEAK_MIXING_DIGITS`` digits is refused, with
    its estimated time, before any sum is taken.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    digits = decimal_digits(t)
    if digits > MAX_WEAK_MIXING_DIGITS:
        raise ValueError(
            f"weak-mixing t has {digits} digits, over the budget of "
            f"{MAX_WEAK_MIXING_DIGITS}: its floor sums would take about "
            f"{3 * (digits / MAX_WEAK_MIXING_DIGITS) ** 3:.0f} s"
        )
    product = A.exact_measure(spec) * B.exact_measure(spec)
    has_u = _rotation_factor(spec, A, B)
    meets = {pa - pb for pa in A.w_cylinder.positions for pb in B.w_cylinder.positions}
    lags = sorted(i for i in meets | {0} if 0 <= i < t)
    total = Fraction(0)
    for i in lags:
        total += abs(_exact_correlation(spec, A, B, i) - product)
    if has_u:
        overlap = _CircleOverlap.between(spec.gamma, A, B)
        c = (overlap.b1 - overlap.a1) * (overlap.b2 - overlap.a2)
        rest = overlap.deviation_sum(c, t)
        for i in lags[1:]:
            rest -= abs(overlap.at(spec.gamma.frac_multiple(i)) - c)
        total += product / c * rest
    return float(total * Fraction(1, t))


def weak_mixing_verdict(statistic: float) -> str:
    """Map the finite-t statistic to a trend verdict (never the limit)."""
    if statistic < CONSISTENT_BELOW:
        return "consistent with weak mixing"
    if statistic > INCONSISTENT_ABOVE:
        return "inconsistent with weak mixing"
    return "inconclusive"

