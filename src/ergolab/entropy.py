"""Per-step information rates: exact values for product-measure shifts,
plug-in estimation from symbol streams, and the entropy classifier that
separates spectrally indistinguishable shifts.

Two estimation styles coexist, chosen by what is computable:

* measure-scored: when the exact measure of every refined cell is
  available (cylinder partitions of a shift), the rate is estimated as
  the sample mean of -(1/n) log mu(cell of the itinerary), which is
  unbiased for the block entropy at every sample size;
* frequency plug-in: otherwise, empirical itinerary frequencies feed the
  usual -sum f log f, guarded by a coverage heuristic (at least 100 * 2^n
  observations) because an undersampled plug-in silently biases low.

All natural logs; a bits flag belongs to the presentation layer.  The
sign convention is the nonnegative one, -sum p log p, throughout.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from .mixing import TestSet
from .systems import (
    BernoulliSpec,
    CylinderSet,
    SystemSpec,
    cumulative_law,
    iterate_batch,
    sample_chunks,
)

__all__ = [
    "EntropyEstimate",
    "PartitionSpec",
    "UndersampledError",
    "bernoulli_entropy",
    "block_entropy_rate",
    "entropy_classifier",
    "exact_block_entropy",
    "exact_block_entropy_rate",
    "partition_refine_entropy",
    "EntropyVerdict",
]

#: Working precision of the exact entropies: 40 significant digits, far
#: past the 17 a float holds, so each value is rounded to a float once.
_WORK = Context(prec=40)


class UndersampledError(ValueError):
    """Too little data for the requested block length."""


@dataclass(frozen=True)
class EntropyEstimate:
    """An entropy value in nats with its provenance.

    ``exact`` marks closed-form values (stderr 0); estimated values carry
    a standard error and the estimation method.
    """

    value: float
    block_length: int
    sample_count: int
    stderr: float
    exact: bool = False
    method: str = "exact"

    def __post_init__(self) -> None:
        if self.value < -1e-12:
            raise ValueError("entropy cannot be negative")
        if self.block_length < 1:
            raise ValueError("block length must be >= 1")

    def to_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# exact values
# ---------------------------------------------------------------------------


def bernoulli_entropy(spec: BernoulliSpec) -> float:
    """-sum p log p for the one-step distribution, in nats.

    Each probability enters by its exact binary value and its log is
    correctly rounded to 40 digits (``decimal``); the sum is rounded to a
    float once, so dyadic probability vectors land exactly on the
    correctly rounded float (fair coin: log 2; uniform over four
    symbols: log 4).
    """
    with localcontext(_WORK):
        return float(-sum(Decimal(p) * Decimal(p).ln() for p in spec.probs))


def _block_entropy(spec: BernoulliSpec, n: int) -> Decimal:
    """H_n to 40 digits, grouped by symbol-count vectors so the sum has
    O(n^{K-1}) terms instead of K^n.  The K logs are taken once.  The
    exact binary probabilities share a power-of-two denominator D, so
    each count vector's mass, its multinomial weight times the product
    of the probabilities, is an integer over D^n, rounded once."""
    ratios = [p.as_integer_ratio() for p in spec.probs]
    denominator = math.lcm(*(d for _, d in ratios))
    numerators = [a * (denominator // d) for a, d in ratios]
    powers = [[a**c for c in range(n + 1)] for a in numerators]
    K = len(numerators)
    with localcontext(_WORK):
        logs = [Decimal(p).ln() for p in spec.probs]
        scale = Decimal(denominator**n)
        total = Decimal(0)
        for combo in combinations_with_replacement(range(K), n):
            counts = [0] * K
            for idx in combo:
                counts[idx] += 1
            mass = _multinomial(n, counts) * math.prod(
                row[c] for row, c in zip(powers, counts)
            )
            log_p = sum(c * log for c, log in zip(counts, logs))
            total -= Decimal(mass) / scale * log_p
        return total


def _multinomial(n: int, counts: Sequence[int]) -> int:
    out = math.factorial(n)
    for c in counts:
        out //= math.factorial(c)
    return out


def exact_block_entropy(spec: BernoulliSpec, n: int) -> float:
    """The entropy of the n-block distribution (equals n * H_1, but
    computed from the distribution itself rather than the i.i.d.
    shortcut, so it doubles as an independent consistency check)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(_block_entropy(spec, n))


def exact_block_entropy_rate(spec: BernoulliSpec, n: int) -> EntropyEstimate:
    """H_n / n as an exact EntropyEstimate; equals the one-step entropy
    for every n because blocks are independent."""
    if n < 1:
        raise ValueError("n must be >= 1")
    with localcontext(_WORK):
        rate = float(_block_entropy(spec, n) / n)
    return EntropyEstimate(
        value=rate, block_length=n, sample_count=0, stderr=0.0, exact=True
    )


# ---------------------------------------------------------------------------
# stream plug-in estimation
# ---------------------------------------------------------------------------


def block_entropy_rate(stream: Sequence, n: int) -> EntropyEstimate:
    """Plug-in rate (1/n) * (-sum f log f) over empirical frequencies of
    overlapping n-blocks of the stream.

    Deterministic given the stream.  Requires at least 100 * 2^n stream
    entries (coverage heuristic); see :func:`exact_block_entropy_rate`
    for the analytic companion that needs no samples.  The standard
    error is a multinomial delta-method approximation that ignores block
    overlap, reported for scale rather than as a calibrated interval.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    data = np.asarray(stream)
    if data.ndim != 1:
        raise ValueError("stream must be one-dimensional")
    if len(data) < 100 * 2**n:
        raise UndersampledError(
            f"stream of length {len(data)} is below the coverage floor "
            f"100 * 2^{n} = {100 * 2 ** n}"
        )
    _, codes = np.unique(data, return_inverse=True)
    blocks = np.lib.stride_tricks.sliding_window_view(codes, n)
    base = int(codes.max()) + 1
    weights = base ** np.arange(n, dtype=np.int64)
    if n * math.log2(max(base, 2)) > 62:
        raise ValueError("block length too large to encode")
    encoded = blocks @ weights
    _, counts = np.unique(encoded, return_counts=True)
    return _frequency_estimate(counts, n)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionSpec:
    """A finite partition into TestSet cells with labels.

    Validation is exact where the cell geometry allows: interval cells
    must tile [0, 1) edge to edge, cylinder cells must disagree on a
    shared position pairwise and their measures must sum to 1 within
    1e-12.
    """

    cells: tuple[TestSet, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.labels):
            raise ValueError("one label per cell")
        if not self.cells:
            raise ValueError("a partition needs at least one cell")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")
        kinds = {c.kind for c in self.cells}
        if kinds == {"u-interval"}:
            bounds = sorted((c.a, c.b) for c in self.cells)
            if bounds[0][0] != 0 or bounds[-1][1] != 1:
                raise ValueError("interval cells must cover [0, 1)")
            for (_, b_prev), (a_next, _) in zip(bounds, bounds[1:]):
                if b_prev != a_next:
                    raise ValueError("interval cells must tile without gaps or overlaps")
        elif kinds == {"cylinder"}:
            for i, first in enumerate(self.cells):
                for second in self.cells[i + 1 :]:
                    if first.cylinder.merge(second.cylinder) is not None:
                        raise ValueError("cylinder cells must be pairwise disjoint")
        elif len(self.cells) > 1:
            raise ValueError(
                "mixed-kind partitions are not supported; use intervals or cylinders"
            )

    @classmethod
    def time_zero(cls, bern: BernoulliSpec) -> "PartitionSpec":
        """One cell per symbol value at position zero."""
        cells = tuple(
            TestSet.from_cylinder(CylinderSet(((0, s),))) for s in bern.symbols
        )
        labels = tuple(str(s) for s in bern.symbols)
        return cls(cells=cells, labels=labels)

    @classmethod
    def u_intervals(cls, breakpoints: Sequence) -> "PartitionSpec":
        """Cells [b_i, b_{i+1}) for 0 = b_0 < ... < b_k = 1."""
        pts = [Fraction(b) for b in breakpoints]
        if pts[0] != 0 or pts[-1] != 1 or any(x >= y for x, y in zip(pts, pts[1:])):
            raise ValueError("breakpoints must increase from 0 to 1")
        cells = tuple(TestSet.u_interval(a, b) for a, b in zip(pts, pts[1:]))
        labels = tuple(f"[{a},{b})" for a, b in zip(pts, pts[1:]))
        return cls(cells=cells, labels=labels)

    @classmethod
    def single_cell(cls, spec: SystemSpec) -> "PartitionSpec":
        if spec.kind in ("bernoulli",):
            return cls(
                cells=(TestSet.from_cylinder(CylinderSet(())),), labels=("all",)
            )
        return cls(cells=(TestSet.u_interval(0, 1),), labels=("all",))

    def measures_sum_to_one(self, spec: SystemSpec, tol: float = 1e-12) -> bool:
        return abs(sum(c.measure(spec) for c in self.cells) - 1.0) <= tol

    def cell_index_batch(self, spec: SystemSpec, batch) -> np.ndarray:
        """Cell index per sample (cells are disjoint, so at most one hit)."""
        out = np.full(len(batch), -1, dtype=np.int64)
        for idx, cell in enumerate(self.cells):
            hit = cell.contains_batch(spec, batch)
            out = np.where(hit, idx, out)
        return out


# ---------------------------------------------------------------------------
# Monte-Carlo partition refinement
# ---------------------------------------------------------------------------


def partition_refine_entropy(
    spec: SystemSpec,
    partition: PartitionSpec,
    n: int,
    samples: int,
    rng: np.random.Generator,
) -> EntropyEstimate:
    """Monte-Carlo estimate of the n-step refinement entropy rate
    H(alpha, n)/n: sample initial points, record the itinerary of cells
    visited over n steps, and score it.

    The sample is streamed: it is drawn from ``rng`` in consecutive
    chunks of at most ``SAMPLE_CHUNK`` points (:func:`sample_chunks`),
    holding only the sequence positions the cells read, and each chunk's
    itineraries are scored before the next chunk is drawn into the same
    arrays, so the sample never spans more than one chunk.  The scores
    of single-position cells, too, are computed in arrays kept for the
    whole call.  Calls on different generators share nothing, so
    concurrent calls, one per thread, hold one set of chunk arrays per
    thread.  Single-position cells then keep only merged
    moments, so memory does not grow with ``samples``; the
    multi-position cache of -log mu and the frequency counts hold one
    entry per distinct itinerary seen, up to the number of possible
    itineraries.

    When every cell is a one-constraint cylinder at one common position
    p, the cell entered at step j is fixed by the symbol at p + j alone,
    so a chunk is scored from the symbol counts of its window at
    p, ..., p + n - 1 (:func:`_symbol_count_scorer`) and no itinerary is
    built.  A symbol the sampler can draw but no cell holds raises before
    any draw, as a sample outside every cell does on the general path,
    which tests cell membership at every step.

    Cylinder partitions of a shift system are measure-scored: every
    itinerary's refined cell is itself a cylinder (constraints translated
    step by step and merged), so the exact -log mu(cell) is averaged,
    an unbiased estimator with zero variance for uniform shifts.  The
    chunks' score counts, means and squared deviations, taken about the
    first score drawn, are merged by Chan's update (:func:`_merge_moments`),
    so a uniform shift's estimate is its one score exactly, with stderr 0.
    Other partitions fall back to frequency plug-in over itineraries,
    whose counts are summed exactly across chunks, with the coverage
    guard of :func:`block_entropy_rate` checked before any sampling.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if samples < 100:
        raise UndersampledError("at least 100 samples are required")
    if not partition.measures_sum_to_one(spec):
        raise ValueError("partition cells do not cover the space")
    if len(partition.cells) == 1:
        return EntropyEstimate(
            value=0.0, block_length=n, sample_count=samples, stderr=0.0,
            exact=True, method="single-cell",
        )
    measure_scored = spec.bernoulli is not None and all(
        c.kind == "cylinder" for c in partition.cells
    )
    if not measure_scored and samples < 100 * 2**n:
        raise UndersampledError(f"{samples} samples are below the coverage floor 100 * 2^{n}")
    read = [p for c in partition.cells if c.cylinder is not None for p in c.cylinder.positions]
    # the cell entered at step j reads position p + j of the start point
    positions = range(min(read), max(read) + n) if read else range(0)
    table = _single_position_table(spec, partition)
    if table is not None:
        # a symbol the sampler can draw but no cell holds escapes every
        # cell; one whose step in the cumulative law is 0 is never drawn
        drawable = np.diff(cumulative_law(spec.bernoulli), prepend=0.0) > 0
        if np.any(drawable & (table[1] < 0)):
            raise ValueError("a sample escaped every cell; partition incomplete")
        score = _symbol_count_scorer(spec.bernoulli, n)
    elif measure_scored:
        score = _itinerary_scorer(spec, partition, n)
    moments = (0, 0.0, 0.0, 0.0)
    rows = counts = None
    for batch in sample_chunks(spec, rng, samples, positions):
        if table is not None:
            # the cell entered at step j is the cell of the symbol at p + j
            start = table[0] - batch.anchor
            moments = _merge_moments(moments, score(batch.sym[:, start : start + n]))
            continue
        itineraries = np.empty((len(batch), n), dtype=np.int64)
        for j in range(n):
            itineraries[:, j] = partition.cell_index_batch(spec, iterate_batch(batch, j))
        if np.any(itineraries < 0):
            raise ValueError("a sample escaped every cell; partition incomplete")
        if measure_scored:
            moments = _merge_moments(moments, score(itineraries))
        else:
            rows, counts = _merge_counts(rows, counts, itineraries)
    if measure_scored:
        count, pivot, mean, m2 = moments
        return EntropyEstimate(
            value=pivot + mean, block_length=n, sample_count=count,
            stderr=math.sqrt(m2 / (count - 1)) / math.sqrt(count), method="measure-scored",
        )
    return _frequency_estimate(counts, n)


def _single_position_table(spec: SystemSpec, partition: PartitionSpec):
    """``(p, cell_of)`` when every cell is a one-constraint cylinder at
    one common position p, else None.  ``cell_of[i]`` is the cell whose
    symbol has index i in ``spec.bernoulli.symbols``, or -1 where no cell
    holds that symbol."""
    if spec.bernoulli is None or any(c.kind != "cylinder" for c in partition.cells):
        return None
    constraints = [c.cylinder.constraints for c in partition.cells]
    if any(len(cons) != 1 or cons[0][0] != constraints[0][0][0] for cons in constraints):
        return None
    cell_of = np.full(len(spec.bernoulli.symbols), -1, dtype=np.int64)
    for idx, ((_, symbol),) in enumerate(constraints):
        cell_of[spec.bernoulli.index_of(symbol)] = idx
    return constraints[0][0][0], cell_of


def _symbol_count_scorer(bern: BernoulliSpec, n: int):
    """The per-sample score -(1/n) sum_j log p(x_j) of single-position
    cells as a function of the symbol window x (one row per sample, the
    symbol indices at p, ..., p + n - 1).

    With G_k the number of symbols in a row whose index is >= k, the
    score is -log p_0 - sum_{k >= 1} G_k (log p_k - log p_{k-1}) / n.
    G_k takes one pass over the window's columns (copied once per chunk
    so that each is contiguous), counted in the narrowest unsigned type
    that holds n; a k whose log step is 0 adds exactly 0 and is skipped,
    so every score of a uniform law is exactly -log p_0.

    The scores, the column copy and the counters live in arrays the
    scorer keeps and refills for every window (a stream's windows never
    grow), so the returned scores are valid only until the next call."""
    log_p = [math.log(p) for p in bern.probs]
    steps = [(k, (b - a) / n) for k, (a, b) in enumerate(zip(log_p, log_p[1:]), 1) if b != a]
    counter = np.min_scalar_type(n)
    out = terms = at_least_k = hits = columns = np.empty(0)

    def scores(window: np.ndarray) -> np.ndarray:
        nonlocal out, terms, at_least_k, hits, columns
        rows = len(window)
        if len(out) < rows:
            out = np.empty(rows)
            if steps:
                terms, at_least_k = np.empty(rows), np.empty(rows, dtype=counter)
                hits = np.empty(rows, dtype=bool)
                columns = np.empty((window.shape[1], rows), dtype=window.dtype)
        chunk = out[:rows]
        chunk.fill(-log_p[0])
        if steps:
            chunk_columns = columns[:, :rows]
            np.copyto(chunk_columns, window.T)
            count, flags = at_least_k[:rows], hits[:rows]
            for k, step in steps:
                count.fill(0)
                for column in chunk_columns:
                    count += np.greater_equal(column, k, out=flags)
                chunk -= np.multiply(count, step, out=terms[:rows])
        return chunk

    return scores


def _itinerary_scorer(spec: SystemSpec, partition: PartitionSpec, n: int):
    """The per-sample score -(1/n) log mu(refined cell) of multi-position
    cells as a function of an itinerary matrix (one row per sample, one
    cell index per step), cached per distinct itinerary."""
    log_p = {s: math.log(p) for s, p in zip(spec.bernoulli.symbols, spec.bernoulli.probs)}
    log_measures: dict[tuple, float] = {}  # per distinct itinerary

    def log_measure(row: tuple) -> float:
        # the cell entered at step j constrains position pos of the
        # j-th image, i.e. position pos + j of the start point
        refined = CylinderSet().merge(
            *(partition.cells[c].cylinder.translate(j) for j, c in enumerate(row))
        )
        if refined is None:
            raise AssertionError("observed itinerary has measure zero")
        # sum count * log p: the measure itself can underflow a double
        # once n is in the thousands
        counts = Counter(s for _, s in refined.constraints)
        return math.fsum(c * log_p[s] for s, c in counts.items())

    def scores(itineraries: np.ndarray) -> np.ndarray:
        rows, inverse = np.unique(itineraries, axis=0, return_inverse=True)
        logs = np.empty(len(rows))
        for r, row in enumerate(map(tuple, rows.tolist())):
            if row not in log_measures:
                log_measures[row] = log_measure(row)
            logs[r] = log_measures[row]
        return -logs[inverse.reshape(-1)] / n

    return scores


def _merge_moments(
    moments: tuple[int, float, float, float], scores: np.ndarray
) -> tuple[int, float, float, float]:
    """Fold one chunk of scores into (count, pivot, mean, sum of squared
    deviations) by Chan's pairwise update.  The pivot is the first score
    drawn, and the mean and deviations are those of the scores minus the
    pivot, so the estimate is pivot + mean: constant scores shift to
    exact zeros, whose mean and deviations no rounding can move.  The
    deviations are taken in place, so ``scores`` is overwritten."""
    count, pivot, mean, m2 = moments
    if count == 0:
        pivot = float(scores[0])
    shifted = np.subtract(scores, pivot, out=scores)
    k = shifted.size
    chunk_mean = float(np.mean(shifted))
    shifted -= chunk_mean
    chunk_m2 = float(np.sum(np.square(shifted, out=shifted)))
    if count == 0:
        return k, pivot, chunk_mean, chunk_m2
    total = count + k
    delta = chunk_mean - mean
    return (
        total,
        pivot,
        mean + delta * k / total,
        m2 + chunk_m2 + delta * delta * count * k / total,
    )


def _merge_counts(rows, counts, itineraries: np.ndarray):
    """Add one chunk's itineraries to the distinct rows seen so far
    (sorted lexicographically) and their integer counts."""
    new_rows, new_counts = np.unique(itineraries, axis=0, return_counts=True)
    if rows is None:
        return new_rows, new_counts
    merged, inverse = np.unique(
        np.concatenate([rows, new_rows]), axis=0, return_inverse=True
    )
    totals = np.zeros(len(merged), dtype=np.int64)
    np.add.at(totals, inverse.reshape(-1), np.concatenate([counts, new_counts]))
    return merged, totals


def _frequency_estimate(counts: np.ndarray, n: int) -> EntropyEstimate:
    """Plug-in rate from block or itinerary counts in lexicographic order."""
    samples = int(counts.sum())
    freq = counts / samples
    log_f = np.log(freq)
    h_n = float(-(freq * log_f).sum())
    var = float((freq * log_f**2).sum() - h_n**2)
    stderr = math.sqrt(max(var, 0.0) / samples) / n
    return EntropyEstimate(
        value=h_n / n,
        block_length=n,
        sample_count=samples,
        stderr=stderr,
        exact=False,
        method="frequency",
    )


# ---------------------------------------------------------------------------
# the classifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyVerdict:
    entropy_a: float
    entropy_b: float
    spacial: str
    spectral: str

    def to_json(self) -> dict:
        return asdict(self)


def entropy_classifier(
    spec_a: BernoulliSpec, spec_b: BernoulliSpec, tol: float = 1e-9
) -> EntropyVerdict:
    """Compare two product-measure shifts by their exact entropies.

    Different entropy rules out any spacial isomorphism; equal entropy
    implies spacial isomorphism for this class by Ornstein's theorem
    (the deep direction is quoted, not reproved here).  Either way both
    systems carry countable Lebesgue spectrum, so they are spectrally
    isomorphic.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    h_a = bernoulli_entropy(spec_a)
    h_b = bernoulli_entropy(spec_b)
    if abs(h_a - h_b) > tol:
        spacial = "not spacially isomorphic (entropy invariant)"
    else:
        spacial = "spacially isomorphic (Ornstein)"
    return EntropyVerdict(
        entropy_a=h_a,
        entropy_b=h_b,
        spacial=spacial,
        spectral="spectrally isomorphic (both Lebesgue systems)",
    )
