"""Trajectory statistics: Birkhoff averages, correlation sequences, and
the finite-horizon weak-mixing statistic, with exact closed forms where
the geometry allows them.

Weak mixing asks that the Cesaro average of |mu(S^i A  cap  B) - mu(A)mu(B)|
tend to 0.  At desk scale only finite-t trends are observable, so verdicts
read "consistent with weak mixing" (statistic below 0.01) or "inconsistent"
(above 0.05), never the limit statement itself.  Two independent tracks are
provided: an exact track for pairs with closed-form correlations (circle
interval overlaps, cylinder independence) and a Monte-Carlo track for
everything else; the spectral predicates give a third, non-numeric opinion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .koopman import SpectrumDescriptor
from .quadratic import QuadraticReal, RotationNumber, surd_sign
from .systems import (
    BernoulliSpec,
    CylinderSet,
    SampleBatch,
    SymbolWindow,
    SystemSpec,
    iterate_batch,
    sample_chunks,
)

__all__ = [
    "CorrelationPoint",
    "NoClosedFormError",
    "TestSet",
    "birkhoff_average",
    "correlation",
    "orbit_track",
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
        cyl = _exact_cylinder_measure(self._sequence_law(spec), self.cylinder)
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

    def label(self) -> str:
        if self.kind == "u-interval":
            return f"u in [{self.a}, {self.b})"
        if self.kind == "rectangle":
            return f"[{self.a},{self.b}) x [{self.c},{self.d})"
        if self.kind == "cylinder":
            cons = ", ".join(f"w{p}={s}" for p, s in self.cylinder.constraints)
            return "{" + cons + "}"
        return f"u in [{self.a}, {self.b}) x " + TestSet.from_cylinder(self.cylinder).label()


def _exact_cylinder_measure(bern: BernoulliSpec, cyl: CylinderSet) -> Fraction:
    out = Fraction(1)
    for _, sym in cyl.constraints:
        out *= _as_fraction(bern.prob_of(sym))
    return out


# ---------------------------------------------------------------------------
# orbit tracks and Birkhoff averages
# ---------------------------------------------------------------------------


@dataclass
class OrbitTrack:
    """Coordinate arrays along one orbit: step j holds S^j x0."""

    spec: SystemSpec
    length: int
    u: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    window: Optional[SymbolWindow] = None

    def symbols(self, position: int = 0) -> np.ndarray:
        """Symbol value at ``position`` of the shifted sequence, per step:
        the original sequence read at position + j."""
        if self.window is None:
            raise ValueError(f"{self.spec.kind} orbits carry no symbols")
        values = [
            self.window.symbol_at(position + j) for j in range(self.length)
        ]
        return np.asarray(values, dtype=float)

    def indicator(self, test_set: TestSet) -> np.ndarray:
        out = None
        if test_set.kind in ("u-interval", "rectangle", "product"):
            if self.u is None:
                raise ValueError("test set needs a u coordinate")
            out = (self.u >= float(test_set.a)) & (self.u < float(test_set.b))
        if test_set.kind == "rectangle":
            out &= (self.v >= float(test_set.c)) & (self.v < float(test_set.d))
        if test_set.kind in ("cylinder", "product"):
            inside = np.ones(self.length, dtype=bool)
            for pos, sym in test_set.cylinder.constraints:
                inside &= self.symbols(pos) == sym
            out = inside if out is None else (out & inside)
        return out.astype(float)


def orbit_track(spec: SystemSpec, x0, n: int) -> OrbitTrack:
    """Closed-form orbit of length n.

    x0 is a bare u value or TorusPoint for the rotation, a TorusPoint for
    the skew map, a SymbolWindow for the shift, or a (u, SymbolWindow)
    pair for the product.  The v track of the skew map accumulates the u
    track (pairwise summation keeps the roundoff near machine precision
    even over 10^6 steps).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    gamma = spec.gamma.to_float() if spec.gamma is not None else None
    steps = np.arange(n)
    if spec.kind == "rotation":
        u0 = x0.u if hasattr(x0, "u") else float(x0)
        return OrbitTrack(spec, n, u=(u0 + steps * gamma) % 1.0)
    if spec.kind == "skew":
        u = (x0.u + steps * gamma) % 1.0
        increments = np.concatenate(([0.0], np.cumsum(u[:-1])))
        return OrbitTrack(spec, n, u=u, v=(x0.v + increments) % 1.0)
    if spec.kind == "bernoulli":
        return OrbitTrack(spec, n, window=x0)
    point, window = x0
    u0 = point.u if hasattr(point, "u") else float(point)
    return OrbitTrack(spec, n, u=(u0 + steps * gamma) % 1.0, window=window)


Observable = Union[TestSet, Callable[[OrbitTrack], np.ndarray]]


def birkhoff_average(spec: SystemSpec, f: Observable, x0, n: int) -> float:
    """The time average (1/n) sum_{j<n} f(S^j x0).

    ``f`` is a TestSet (averaged as its indicator) or a callable taking
    the OrbitTrack and returning per-step values.  For ergodic systems
    this tends to the space average; the function itself makes no claim
    beyond the finite sum.
    """
    track = orbit_track(spec, x0, n)
    values = track.indicator(f) if isinstance(f, TestSet) else f(track)
    return float(np.mean(values))


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


class _CircleOverlap:
    """Exact overlaps ``|([a1, b1) + x) cap [a2, b2)|`` on the circle for the
    points ``x = frac(i*gamma)`` of one rotation orbit, in integer arithmetic.

    gamma (as its exact ``a + b*sqrt(d)``) and the four endpoints are put
    over one common denominator D, so every point is ``(P + Q*sqrt(d))/D``
    with integers P and Q, and every comparison is the integer sign test
    :func:`surd_sign`.  :meth:`orbit` steps ``frac(i*gamma)`` by the exact
    recurrence ``x <- x + gamma - [x + gamma >= 1]`` (the one behind the
    three-distance theorem), so no lag recomputes ``i*gamma``.
    """

    def __init__(self, gamma: RotationNumber, A: TestSet, B: TestSet) -> None:
        if not gamma.is_exact:
            raise NoClosedFormError(
                "exact correlations need an exact rotation number"
            )
        self.gamma = gamma
        g = gamma.exact
        ends = (A.a, A.b, B.a, B.b)
        self.d = g.d
        self.D = D = math.lcm(
            g.a.denominator, g.b.denominator, *(e.denominator for e in ends)
        )
        self.step = self._numerators(g)
        self.a1, self.b1, self.a2, self.b2 = (int(e * D) for e in ends)

    def _numerators(self, x: QuadraticReal) -> tuple[int, int]:
        return int(x.a * self.D), int(x.b * self.D)

    def orbit(self, start: int) -> Iterator[tuple[int, int]]:
        """Numerators (P, Q) of frac(i*gamma) for i = start, start+1, ...

        The first point is ``frac_multiple(start)`` (0 needs no call);
        each later one costs one addition and one sign test.
        """
        D, d = self.D, self.d
        gp, gq = self.step
        p, q = self._numerators(self.gamma.frac_multiple(start)) if start else (0, 0)
        while True:
            yield p, q
            p += gp
            q += gq
            if surd_sign(p - D, q, d) >= 0:
                p -= D

    def length(
        self, p: int, q: int, scale: Fraction, minus: Fraction
    ) -> Union[Fraction, QuadraticReal]:
        """``|([a1, b1) + x) cap [a2, b2)| * scale - minus`` for
        ``x = (p + q*sqrt(d))/D``, exactly.

        An endpoint is a triple (P, Q, shifted), where ``shifted`` marks the
        ends of ``[a1, b1) + x``.  Only the result becomes an exact object:
        a Fraction when every contributing piece is clipped to [a2, b2) on
        both sides, a QuadraticReal otherwise, even when its sqrt(d) part
        cancels.  The two types convert to float differently (correctly
        rounded versus rounded at 80 bits and again to 53), and the
        statistic's bits follow that choice.
        """
        D, d = self.D, self.d

        def above(x, y):
            return surd_sign(x[0] - y[0], x[1] - y[1], d) > 0

        lo, hi = (self.a1 + p, q, True), (self.b1 + p, q, True)
        a2, b2 = (self.a2, 0, False), (self.b2, 0, False)
        if above(hi, (D, 0)):
            # wraps past 1: [lo, 1) and [0, hi - 1); 0 <= a2 and b2 <= 1,
            # so the wrap points never clip
            pieces = ((lo, b2), (a2, (hi[0] - D, q, True)))
        else:
            pieces = ((lo, hi),)
        num = irr = 0
        shifted = False
        for plo, phi in pieces:
            left = plo if above(plo, a2) else a2
            right = phi if above(b2, phi) else b2
            if above(right, left):
                num += right[0] - left[0]
                irr += right[1] - left[1]
                shifted = shifted or left[2] or right[2]
        sn, sd = scale.numerator, scale.denominator
        mn, md = minus.numerator, minus.denominator
        rational = Fraction(num * sn * md - mn * D * sd, D * sd * md)
        if not shifted:
            return rational
        return QuadraticReal(rational, Fraction(irr * sn, D * sd), d)


def _shifted_cylinder(cyl: CylinderSet, i: int) -> CylinderSet:
    """S^i(A) for a cylinder A: constraints move from p to p - i."""
    return cyl.translate(-i)


def _merge_measure(bern: BernoulliSpec, first: CylinderSet, second: CylinderSet) -> Fraction:
    merged: dict[int, object] = {}
    for pos, sym in list(first.constraints) + list(second.constraints):
        if pos in merged and merged[pos] != sym:
            return Fraction(0)
        merged[pos] = sym
    out = Fraction(1)
    for sym in merged.values():
        out *= _as_fraction(bern.prob_of(sym))
    return out


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


def _exact_correlations(
    spec: SystemSpec, A: TestSet, B: TestSet, start: int, minus: Fraction = Fraction(0)
) -> Iterator[Union[Fraction, QuadraticReal]]:
    """Exact ``mu(S^i(A) cap B) - minus`` for i = start, start+1, ...

    The u factor is the interval overlap along the rotation orbit, the w
    factor the merged cylinder constraints; a product set multiplies
    both.  Raises :class:`NoClosedFormError` where no closed form exists.
    """
    has_u, has_w = _closed_form_factors(spec, A, B)
    if has_u:
        overlap = _CircleOverlap(spec.gamma, A, B)
        orbit = overlap.orbit(start)
    for i in itertools.count(start):
        w = Fraction(1)
        if has_w:
            w = _merge_measure(
                spec.bernoulli, _shifted_cylinder(A.cylinder, i), B.cylinder
            )
        yield overlap.length(*next(orbit), w, minus) if has_u else w - minus


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
        value = next(_exact_correlations(spec, A, B, i))
        return CorrelationPoint(i=i, estimate=float(value), exact=True)
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

    In exact mode every term is exact and only the running sum is a float.
    On the rotation factor the orbit ``frac(i*gamma)`` is stepped by the
    exact recurrence and each overlap is decided by integer sign tests
    (:class:`_CircleOverlap`), a few integer operations per lag; each
    term then becomes one exact object, converted to float once as its
    type dictates.  In monte-carlo mode one sample, streamed in chunks,
    serves every lag: each chunk's hits are counted at all t lags before
    the next chunk is drawn.  The estimate stays consistent because each
    lag's indicator mean is unbiased.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if mode == "exact":
        product = A.exact_measure(spec) * B.exact_measure(spec)
        total = 0.0
        for value in itertools.islice(_exact_correlations(spec, A, B, 0, product), t):
            total += abs(float(value))
        return total / t
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
