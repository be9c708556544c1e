"""Correlation sequences and the finite-horizon weak-mixing statistic,
with exact closed forms where the geometry allows them.

Weak mixing asks that the Cesaro average of |mu(S^i A  cap  B) - mu(A)mu(B)|
tend to 0.  At desk scale only finite-t trends are observable, so verdicts
read "consistent with weak mixing" (statistic below 0.01) or "inconsistent"
(above 0.05), never the limit statement itself.  Two independent tracks are
provided: an exact track for pairs with closed-form correlations (circle
interval overlaps, cylinder independence), whose values and sums stay
exact until one correctly rounded conversion to float, and a Monte-Carlo
track for everything else; the spectral predicates give a third,
non-numeric opinion.  The exact statistic visits no lag of the rotation
orbit beyond the few where cylinder constraints meet: the overlaps are
piecewise linear in frac(i*gamma), so their sum over t lags is a handful
of floor sums, each O(log t) steps along the continued fraction of gamma.
Only the Monte-Carlo track imports numpy, when it runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Union

from .quadratic import QuadraticReal, RotationNumber, floor_sums
from .systems import (
    BernoulliSpec,
    CylinderSet,
    SampleBatch,
    SystemSpec,
    iterate_batch,
    sample_chunks,
)

if TYPE_CHECKING:
    import numpy as np

    from .koopman import SpectrumDescriptor

__all__ = [
    "CorrelationPoint",
    "NoClosedFormError",
    "TestSet",
    "correlation",
    "spectral_ergodicity_check",
    "spectral_weak_mixing_check",
    "weak_mixing_statistic",
    "weak_mixing_verdict",
]

CONSISTENT_BELOW = 0.01
INCONSISTENT_ABOVE = 0.05
#: Most ``samples * (2 * width + 1)`` sequence symbols a Monte-Carlo
#: estimate accepts, width being the largest position it reads.
MAX_WINDOW_SYMBOLS = 2 * 10**8


class NoClosedFormError(ValueError):
    """Exact correlation was requested for a pair without a closed form."""


def _as_fraction(x) -> Fraction:
    # floats convert exactly (binary rationals), so 0.5 stays 1/2
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class TestSet:
    """A measurable test set with an exactly computable measure.

    Kinds: a half-open u-interval [a, b) (full in every other coordinate),
    a torus rectangle [a, b) x [c, d), a sequence cylinder, or a product
    of a u-interval with a cylinder.  Interval endpoints are stored as
    exact rationals.
    """

    __test__ = False  # not a test-suite class, despite the name

    kind: str
    a: Optional[Fraction] = None
    b: Optional[Fraction] = None
    c: Optional[Fraction] = None
    d: Optional[Fraction] = None
    cylinder: Optional[CylinderSet] = None

    def __post_init__(self) -> None:
        if self.kind not in ("u-interval", "rectangle", "cylinder", "product"):
            raise ValueError(f"unknown test-set kind {self.kind!r}")
        if self.kind in ("u-interval", "rectangle", "product"):
            if not (0 <= self.a < self.b <= 1):
                raise ValueError("u-interval bounds must satisfy 0 <= a < b <= 1")
        if self.kind == "rectangle" and not (0 <= self.c < self.d <= 1):
            raise ValueError("v-interval bounds must satisfy 0 <= c < d <= 1")
        if self.kind in ("cylinder", "product") and self.cylinder is None:
            raise ValueError(f"{self.kind} test set needs a cylinder")

    # -- constructors ------------------------------------------------------

    @classmethod
    def u_interval(cls, a, b) -> "TestSet":
        return cls(kind="u-interval", a=_as_fraction(a), b=_as_fraction(b))

    @classmethod
    def rectangle(cls, a, b, c, d) -> "TestSet":
        return cls(
            kind="rectangle",
            a=_as_fraction(a),
            b=_as_fraction(b),
            c=_as_fraction(c),
            d=_as_fraction(d),
        )

    @classmethod
    def from_cylinder(cls, cylinder: CylinderSet) -> "TestSet":
        return cls(kind="cylinder", cylinder=cylinder)

    @classmethod
    def product_set(cls, a, b, cylinder: CylinderSet) -> "TestSet":
        return cls(
            kind="product", a=_as_fraction(a), b=_as_fraction(b), cylinder=cylinder
        )

    # -- measure -----------------------------------------------------------

    def exact_measure(self, spec: SystemSpec) -> Fraction:
        """The measure as an exact rational (cylinder probabilities enter
        by their exact binary-float values)."""
        if self.kind == "u-interval":
            return self.b - self.a
        if self.kind == "rectangle":
            return (self.b - self.a) * (self.d - self.c)
        cyl = self.cylinder.measure(self._sequence_law(spec))
        if self.kind == "cylinder":
            return cyl
        return (self.b - self.a) * cyl

    def measure(self, spec: SystemSpec) -> float:
        return float(self.exact_measure(spec))

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
        """Boolean membership array for a sample batch."""
        import numpy as np

        result = None
        if self.kind in ("u-interval", "rectangle", "product"):
            if batch.u is None:
                raise ValueError(f"{self.kind} set needs a u coordinate")
            result = (batch.u >= float(self.a)) & (batch.u < float(self.b))
        if self.kind == "rectangle":
            result &= (batch.v >= float(self.c)) & (batch.v < float(self.d))
        if self.kind in ("cylinder", "product"):
            bern = self._sequence_law(spec)
            inside = np.ones(len(batch), dtype=bool)
            for pos, sym in self.cylinder.constraints:
                inside &= batch.symbol_indices_at(pos) == bern.index_of(sym)
            result = inside if result is None else (result & inside)
        return result

    def to_json(self) -> dict:
        data: dict = {"kind": self.kind}
        if self.a is not None:
            data["a"] = str(self.a)
            data["b"] = str(self.b)
        if self.c is not None:
            data["c"] = str(self.c)
            data["d"] = str(self.d)
        if self.cylinder is not None:
            data["cylinder"] = self.cylinder.to_json()
        return data


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationPoint:
    """mu(S^i(A) cap B), exactly or estimated."""

    i: int
    estimate: float
    exact: bool
    stderr: float = 0.0

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "estimate": self.estimate,
            "exact": self.exact,
            "stderr": self.stderr,
        }


@dataclass(frozen=True)
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
    below its ends, which are floor sums (:func:`floor_sums`).  The
    pieces depend on the arcs and c alone, so a sweep over t finds them
    once: instances compare by value and :meth:`_steps` is cached.
    """

    gamma: QuadraticReal
    a1: Fraction
    b1: Fraction
    a2: Fraction
    b2: Fraction

    @classmethod
    def between(cls, gamma: RotationNumber, A: TestSet, B: TestSet) -> "_CircleOverlap":
        if not gamma.is_exact:
            raise NoClosedFormError(
                "exact correlations need an exact rotation number"
            )
        return cls(gamma.exact, A.a, A.b, B.a, B.b)

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

    @functools.lru_cache(maxsize=64)
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


def _closed_form_factors(spec: SystemSpec, A: TestSet, B: TestSet) -> tuple[bool, bool]:
    """Which factors (rotation u, sequence w) the exact correlation of A
    and B multiplies; raises where no closed form exists."""
    kind = spec.kind
    if kind == "bernoulli":
        if A.kind != "cylinder" or B.kind != "cylinder":
            raise NoClosedFormError("shift correlations need cylinder sets")
        return False, True
    if kind == "rotation":
        if A.kind != "u-interval" or B.kind != "u-interval":
            raise NoClosedFormError("rotation correlations need u-intervals")
        return True, False
    if kind == "skew":
        # only u-interval sets (full in v) reduce to the rotation factor;
        # the v coordinate mixes u into itself and admits no closed form here
        if A.kind != "u-interval" or B.kind != "u-interval":
            raise NoClosedFormError(
                "skew correlations have closed forms only for u-interval sets"
            )
        return True, False
    # product: u-factor and sequence factor evolve independently
    if A.kind == B.kind and A.kind in ("u-interval", "cylinder", "product"):
        return A.kind != "cylinder", A.kind != "u-interval"
    raise NoClosedFormError(
        "product correlations need matching u-interval, cylinder, or product sets"
    )


def _exact_correlation(
    spec: SystemSpec, A: TestSet, B: TestSet, i: int
) -> Union[Fraction, QuadraticReal]:
    """Exact ``mu(S^i(A) cap B)``: a rational, or a value of the angle's
    field once a rotation factor moves off 0.

    The u factor is the arc overlap at ``frac(i*gamma)``, the w factor
    the merged cylinder constraints; a product set multiplies both.
    Raises :class:`NoClosedFormError` where no closed form exists.
    """
    has_u, has_w = _closed_form_factors(spec, A, B)
    value = Fraction(1)
    if has_u:
        overlap = _CircleOverlap.between(spec.gamma, A, B)
        # lag 0 sits at the orbit's one rational point, 0
        value *= overlap.at(spec.gamma.frac_multiple(i) if i else Fraction(0))
    if has_w:
        # S^i(A) moves A's constraints from p to p - i
        both = A.cylinder.translate(-i).merge(B.cylinder)
        value *= 0 if both is None else both.measure(spec.bernoulli)
    return value


def correlation(
    spec: SystemSpec,
    A: TestSet,
    B: TestSet,
    i: int,
    mode: str = "exact",
    samples: int = 100_000,
    rng: Optional[np.random.Generator] = None,
) -> CorrelationPoint:
    """mu(S^i(A) cap B).

    ``mode="exact"`` uses closed forms (interval overlap on the rotation
    factor, constraint merging on the shift factor) and raises
    :class:`NoClosedFormError` where none exists.  ``mode="monte-carlo"``
    estimates E[1_A(x) 1_B(S^i x)], which has the same value since the
    measure is preserved, by counting hits over a sample streamed in
    chunks; it refuses (ValueError) windows beyond
    ``MAX_WINDOW_SYMBOLS``.
    """
    if i < 0:
        raise ValueError("i must be >= 0")
    if mode == "exact":
        value = float(_exact_correlation(spec, A, B, i))
        return CorrelationPoint(i=i, estimate=value, exact=True)
    if mode != "monte-carlo":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        raise ValueError("monte-carlo mode needs an rng")
    _check_window_cost(spec, A, B, i, samples)
    hits = _monte_carlo_hits(spec, A, B, range(i, i + 1), samples, rng)
    p_hat = int(hits[0]) / samples
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples)
    return CorrelationPoint(i=i, estimate=p_hat, exact=False, stderr=stderr)


def _monte_carlo_hits(
    spec: SystemSpec,
    A: TestSet,
    B: TestSet,
    lags: range,
    samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """How many of ``samples`` points x have x in A and S^i x in B, per
    lag i in ``lags``.

    The sample is streamed through :func:`sample_chunks`, holding only
    the sequence positions the sets read: A's constraints at lag 0 and
    B's after each lag.
    """
    import numpy as np

    read = list(A.cylinder.positions) if A.cylinder is not None else []
    if B.cylinder is not None:
        read += [q + i for q in B.cylinder.positions for i in (lags[0], lags[-1])]
    positions = range(min(read), max(read) + 1) if read else range(0)
    hits = np.zeros(len(lags), dtype=np.int64)
    for batch in sample_chunks(spec, rng, samples, positions):
        in_a = A.contains_batch(spec, batch)
        for h, i in enumerate(lags):
            in_b = B.contains_batch(spec, iterate_batch(batch, i))
            hits[h] += np.count_nonzero(in_a & in_b)
    return hits


def _check_window_cost(
    spec: SystemSpec, A: TestSet, B: TestSet, lag: int, samples: int
) -> None:
    """Refuse a Monte-Carlo estimate whose ``samples`` sequence windows,
    wide enough for every position the sets read at ``lag``, would hold
    more than ``MAX_WINDOW_SYMBOLS`` symbols; the message states the
    count."""
    read = [0]
    for ts in (A, B):
        if ts.cylinder is not None:
            read.extend(abs(p) for p in ts.cylinder.positions)
    size = 2 * (max(read) + abs(lag) + 1) + 1
    if spec.kind in ("bernoulli", "product") and samples * size > MAX_WINDOW_SYMBOLS:
        raise ValueError(
            f"{samples} samples of {size}-symbol sequence windows at lag {lag} "
            f"are {samples * size} symbols, over the budget of "
            f"{MAX_WINDOW_SYMBOLS}; use exact mode or reduce the lag/sample count"
        )


# ---------------------------------------------------------------------------
# weak mixing
# ---------------------------------------------------------------------------


def weak_mixing_statistic(
    spec: SystemSpec,
    A: TestSet,
    B: TestSet,
    t: int,
    mode: str = "exact",
    samples: int = 100_000,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """The finite-t Cesaro average (1/t) sum_{i<t} |mu(S^i A cap B) - mu(A)mu(B)|.

    In exact mode the sum is exact and only the mean becomes a float,
    correctly rounded; it costs O(log t), not O(t).  The cylinder
    constraints of S^i(A) and B share a position only at the lags
    ``i = p_A - p_B``; at every other lag the w factor is exactly
    mu_w(A)mu_w(B) =: W.  Those lags and lag 0 are summed one by one
    (:func:`_exact_correlation`).  Without a rotation factor every other
    term is 0.  With one, every other term is ``W*|f(x_i) - c|`` for the
    arc overlap f at ``x_i = frac(i*gamma)`` and ``c = |I_A||I_B|``; that
    sum over 1 <= i < t comes from floor sums along the continued
    fraction of gamma (:meth:`_CircleOverlap.deviation_sum`), less the
    lags already summed.  In monte-carlo mode one sample, streamed in
    chunks, serves every lag: each chunk's hits are counted at all t
    lags before the next chunk is drawn.  The estimate stays consistent
    because each lag's indicator mean is unbiased.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if mode == "exact":
        product = A.exact_measure(spec) * B.exact_measure(spec)
        has_u, has_w = _closed_form_factors(spec, A, B)
        lags = {0}
        if has_w:
            lags |= {pa - pb for pa in A.cylinder.positions for pb in B.cylinder.positions}
        lags = sorted(i for i in lags if 0 <= i < t)
        total = Fraction(0)
        for i in lags:
            total += abs(_exact_correlation(spec, A, B, i) - product)
        if has_u:
            overlap = _CircleOverlap.between(spec.gamma, A, B)
            c = (A.b - A.a) * (B.b - B.a)
            rest = overlap.deviation_sum(c, t)
            for i in lags[1:]:
                rest -= abs(overlap.at(spec.gamma.frac_multiple(i)) - c)
            total += product / c * rest
        return float(total * Fraction(1, t))
    if mode != "monte-carlo":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        raise ValueError("monte-carlo mode needs an rng")
    product = float(A.exact_measure(spec) * B.exact_measure(spec))
    _check_window_cost(spec, A, B, t, samples)
    total = 0.0
    for hits in _monte_carlo_hits(spec, A, B, range(t), samples, rng).tolist():
        total += abs(hits / samples - product)
    return total / t


def weak_mixing_verdict(statistic: float) -> str:
    """Map the finite-t statistic to a trend verdict (never the limit)."""
    if statistic < CONSISTENT_BELOW:
        return "consistent with weak mixing"
    if statistic > INCONSISTENT_ABOVE:
        return "inconsistent with weak mixing"
    return "inconclusive"


# ---------------------------------------------------------------------------
# spectral predicates
# ---------------------------------------------------------------------------


def spectral_weak_mixing_check(descriptor: SpectrumDescriptor) -> bool:
    """True iff the point part is exactly {1} and 1 is simple."""
    return len(descriptor.point_generators) == 0 and descriptor.point_part_simple


def spectral_ergodicity_check(descriptor: SpectrumDescriptor) -> bool:
    """True iff the proper value 1 is simple in the descriptor."""
    return descriptor.point_part_simple
