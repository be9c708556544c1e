"""Reference implementations for the mixing tests.

* :func:`statistic_prefixes` is the O(t) exact weak-mixing sum that
  ``weak_mixing_statistic`` once ran: it steps ``frac(i*gamma)`` by the
  exact recurrence ``x <- x + gamma - [x + gamma >= 1]``, decides each
  arc overlap by integer sign tests and adds every ``|term|`` to exact
  rational and sqrt(d) parts.  The floor-sum closed form must equal it
  bit for bit.  Its overlap splits a wrapped arc into the pieces on
  either side of 1, not into two lifts as the library does.
* :func:`monte_carlo_correlation` and :func:`monte_carlo_statistic`
  estimate the correlations and the statistic by counting hits over a
  streamed sample.  They need no closed form, so they also reach the
  skew map's rectangles, where ``correlation`` raises
  ``NoClosedFormError``; sampled evidence stays out of the library.
* :func:`orbit_track` and :func:`birkhoff_average` are float orbits and
  time averages along them, kept for the tests that compare them with
  ``iterate_batch``; no scenario uses them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Union

import numpy as np

from ergolab import (
    QuadraticReal,
    RotationNumber,
    SampleBatch,
    SystemSpec,
    TestSet,
    WindowError,
    iterate_batch,
    sample_chunks,
)
from ergolab.mixing import _rotation_factor

from exact_oracle import surd_sign


class CircleOrbit:
    """The points ``x = frac(i*gamma)`` of one rotation orbit and the
    overlaps ``|([a1, b1) + x) cap [a2, b2)|`` at them, in integer
    arithmetic.

    gamma and the four endpoints are put over one common denominator D,
    so every point is ``(P + Q*sqrt(d))/D`` with integers P and Q, and
    every comparison is the squares-based sign test ``surd_sign`` of
    ``exact_oracle``, not the library's floor-based ``QuadraticReal.sign``.
    """

    def __init__(self, gamma: RotationNumber, A: TestSet, B: TestSet) -> None:
        self.gamma = gamma
        g = gamma.exact
        ends = (*A.u_arc, *B.u_arc)
        self.d = g.d
        self.D = D = math.lcm(
            g.a.denominator, g.b.denominator, *(e.denominator for e in ends)
        )
        self.step = self._numerators(g)
        self.a1, self.b1, self.a2, self.b2 = (int(e * D) for e in ends)

    def _numerators(self, x: QuadraticReal) -> tuple[int, int]:
        return int(x.a * self.D), int(x.b * self.D)

    def orbit(self, start: int) -> Iterator[tuple[int, int]]:
        """Numerators (P, Q) of frac(i*gamma) for i = start, start+1, ...;
        each point after ``frac_multiple(start)`` costs one addition and
        one sign test."""
        D, d = self.D, self.d
        gp, gq = self.step
        p, q = self._numerators(self.gamma.frac_multiple(start)) if start else (0, 0)
        while True:
            yield p, q
            p += gp
            q += gq
            if surd_sign(p - D, q, d) >= 0:
                p -= D

    def length(self, p: int, q: int) -> tuple[int, int]:
        """Numerators ``(P, Q)`` of the overlap at ``x = (p + q*sqrt(d))/D``.

        The arc ``[lo, hi) = [a1, b1) + x`` is cut at 1: it is ``[lo, hi)``
        below 1, ``[lo - 1, hi - 1)`` past it, and ``[lo, 1)`` together
        with ``[0, hi - 1)`` across it.
        """
        D, d = self.D, self.d

        def above(x, y):
            return surd_sign(x[0] - y[0], x[1] - y[1], d) > 0

        one = (D, 0)
        lo, hi = (self.a1 + p, q), (self.b1 + p, q)
        a2, b2 = (self.a2, 0), (self.b2, 0)
        if not above(hi, one):
            pieces = ((lo, hi),)
        elif above(one, lo):
            pieces = ((lo, one), ((0, 0), (hi[0] - D, q)))
        else:
            pieces = (((lo[0] - D, q), (hi[0] - D, q)),)
        num = irr = 0
        for plo, phi in pieces:
            left = plo if above(plo, a2) else a2
            right = phi if above(b2, phi) else b2
            if above(right, left):
                num += right[0] - left[0]
                irr += right[1] - left[1]
        return num, irr


def exact_correlations(
    spec: SystemSpec, A: TestSet, B: TestSet, start: int, minus: Fraction = Fraction(0)
) -> Iterator[tuple[int, int, int]]:
    """Exact ``mu(S^i(A) cap B) - minus`` for i = start, start+1, ...,
    each as integers ``(P, Q, R)`` with the value ``(P + Q*sqrt(d))/R``.
    A set that leaves a factor free has the whole circle or no sequence
    constraint there."""
    has_u = _rotation_factor(spec, A, B)
    num, irr, D = 1, 0, 1  # the whole circle
    if has_u:
        overlap = CircleOrbit(spec.gamma, A, B)
        orbit = overlap.orbit(start)
        D = overlap.D
    mn, md = minus.numerator, minus.denominator
    for i in itertools.count(start):
        both = A.w_cylinder.translate(-i).merge(B.w_cylinder)
        w = Fraction(0) if both is None else both.measure(spec.bernoulli)
        if has_u:
            num, irr = overlap.length(*next(orbit))
        wn, wd = w.numerator, w.denominator
        yield num * wn * md - mn * D * wd, irr * wn * md, D * wd * md


def field(spec: SystemSpec) -> int:
    gamma = spec.gamma
    return gamma.exact.d if gamma is not None else 2


def statistic_prefixes(spec: SystemSpec, A: TestSet, B: TestSet, t: int) -> list[float]:
    """The exact statistic at every horizon 1..t, from one O(t) pass:
    ``|term|`` is summed exactly and each mean is rounded once."""
    product = A.exact_measure(spec) * B.exact_measure(spec)
    d = field(spec)
    rational = irrational = Fraction(0)
    out = []
    for n, (p, q, r) in enumerate(
        itertools.islice(exact_correlations(spec, A, B, 0, product), t), start=1
    ):
        sign = surd_sign(p, q, d)
        rational += Fraction(sign * p, r)
        irrational += Fraction(sign * q, r)
        out.append(float(QuadraticReal(rational / n, irrational / n, d)))
    return out


#: Most ``samples * (2 * width + 1)`` sequence symbols a Monte-Carlo
#: estimate accepts, width being the largest position it reads.
MAX_WINDOW_SYMBOLS = 2 * 10**8


class Estimate(NamedTuple):
    """A sampled ``mu(S^i(A) cap B)`` and its standard error."""

    i: int
    estimate: float
    stderr: float


def monte_carlo_correlation(
    spec: SystemSpec, A: TestSet, B: TestSet, i: int, samples: int, rng: np.random.Generator
) -> Estimate:
    """E[1_A(x) 1_B(S^i x)], which equals mu(S^i(A) cap B) since the
    measure is preserved, by counting hits over ``samples`` points
    streamed in chunks; refuses (ValueError) windows beyond
    ``MAX_WINDOW_SYMBOLS``."""
    if i < 0:
        raise ValueError("i must be >= 0")
    check_window_cost(spec, A, B, i, samples)
    hits = monte_carlo_hits(spec, A, B, range(i, i + 1), samples, rng)
    p_hat = int(hits[0]) / samples
    return Estimate(i, p_hat, math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples))


def monte_carlo_statistic(
    spec: SystemSpec, A: TestSet, B: TestSet, t: int, samples: int, rng: np.random.Generator
) -> float:
    """The weak-mixing statistic with each correlation sampled.  One
    sample, streamed in chunks, serves every lag: each chunk's hits are
    counted at all t lags before the next chunk is drawn.  The estimate
    stays consistent because each lag's indicator mean is unbiased."""
    if t < 1:
        raise ValueError("t must be >= 1")
    product = float(A.exact_measure(spec) * B.exact_measure(spec))
    check_window_cost(spec, A, B, t, samples)
    total = 0.0
    for hits in monte_carlo_hits(spec, A, B, range(t), samples, rng).tolist():
        total += abs(hits / samples - product)
    return total / t


def monte_carlo_hits(
    spec: SystemSpec, A: TestSet, B: TestSet, lags: range, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """How many of ``samples`` points x have x in A and S^i x in B, per
    lag i in ``lags``.

    The sample is streamed through ``sample_chunks``, holding only the
    sequence positions the sets read: A's constraints at lag 0 and B's
    after each lag.
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


def check_window_cost(spec: SystemSpec, A: TestSet, B: TestSet, lag: int, samples: int) -> None:
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
            f"{MAX_WINDOW_SYMBOLS}; reduce the lag or the sample count"
        )


def orbit_track(spec: SystemSpec, x0: SampleBatch, n: int) -> SampleBatch:
    """The orbit of the one-row batch x0 as an n-row batch: row j is S^j x0.

    The u track is ``(u0 + j*gamma) mod 1`` in floats; the v track of the
    skew map accumulates the u track.  Row j of the sequence part reads
    x0's window from column j on, as a strided view at x0's anchor, so it
    covers the positions that every one of the n shifted windows still
    holds; a window narrower than n symbols raises ``WindowError``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(x0) != 1 or x0.spec != spec:
        raise ValueError(f"x0 must be one point of the {spec.kind} system")
    u = v = sym = None
    if x0.u is not None:
        u = (x0.u[0] + np.arange(n) * float(spec.gamma.exact)) % 1.0
    if x0.v is not None:
        increments = np.concatenate(([0.0], np.cumsum(u[:-1])))
        v = (x0.v[0] + increments) % 1.0
    if x0.sym is not None:
        width = x0.sym.shape[1] - n + 1
        if width < 1:
            raise WindowError(
                f"a window of {x0.sym.shape[1]} symbols cannot follow {n} steps"
            )
        sym = np.lib.stride_tricks.sliding_window_view(x0.sym[0], width)
    return SampleBatch(spec=spec, u=u, v=v, sym=sym, anchor=x0.anchor)


def birkhoff_average(
    spec: SystemSpec,
    f: Union[TestSet, Callable[[SampleBatch], np.ndarray]],
    x0: SampleBatch,
    n: int,
) -> float:
    """The time average (1/n) sum_{j<n} f(S^j x0) along :func:`orbit_track`;
    ``f`` is a TestSet (averaged as its indicator) or a callable taking
    the orbit batch and returning per-step values."""
    orbit = orbit_track(spec, x0, n)
    values = f.contains_batch(spec, orbit) if isinstance(f, TestSet) else f(orbit)
    return float(np.mean(values))
