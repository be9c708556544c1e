"""Per-step information rates: exact values for product-measure shifts,
a sampled estimate that checks them, and the entropy classifier that
separates spectrally indistinguishable shifts.

The sampled estimate partitions a shift by the symbol at one position
and is measure-scored: every refined cell is a cylinder whose exact
measure is known, so the rate is the sample mean of -(1/n) log mu(cell
of the itinerary), unbiased for the block entropy at every sample size.

All natural logs; a bits flag belongs to the presentation layer.  The
sign convention is the nonnegative one, -sum p log p, throughout.  Only
the sampled estimate imports numpy, when it runs, so the exact entropies
load none.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from ._record import asdict, record
from .systems import (
    BernoulliSpec,
    CylinderSet,
    SystemSpec,
    sample_chunks,
    symbol_thresholds,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EntropyEstimate",
    "PartitionSpec",
    "UndersampledError",
    "bernoulli_entropy",
    "entropy_classifier",
    "exact_block_entropy_rate",
    "partition_refine_entropy",
    "EntropyVerdict",
]

#: Working precision of the exact entropies: 40 significant digits, far
#: past the 17 a float holds, so each value is rounded to a float once.
_WORK = Context(prec=40)


class UndersampledError(ValueError):
    """Too few samples for a sampled estimate."""


@record(frozen=True)
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

    Each exact probability n/d enters as ``Decimal(n) / d`` and its log
    as ``ln``, both correctly rounded to 40 digits (``decimal``); the sum
    is rounded to a float once, so dyadic probability vectors land
    exactly on the correctly rounded float (fair coin: log 2; uniform
    over four symbols: log 4).  The float is for display; equality of
    two entropies is decided exactly by :func:`_entropies_equal`.
    """
    with localcontext(_WORK):
        probs = [Decimal(p.numerator) / p.denominator for p in spec.probs]
        return float(-sum(p * p.ln() for p in probs))


def exact_block_entropy_rate(spec: BernoulliSpec, n: int) -> EntropyEstimate:
    """H_n / n as an exact EntropyEstimate.  The n symbols of a block are
    independent, so H_n = n H_1 by linearity of expectation and the rate
    is the one-step entropy :func:`bernoulli_entropy` at every n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return EntropyEstimate(
        value=bernoulli_entropy(spec), block_length=n, sample_count=0, stderr=0.0, exact=True
    )


# ---------------------------------------------------------------------------
# one-position partitions of a shift
# ---------------------------------------------------------------------------


@record(frozen=True)
class PartitionSpec:
    """A partition of a shift by the symbol at one position: every cell
    is a one-constraint cylinder, all at one common position, and no two
    cells hold the same symbol.  Whether the cells hold every symbol a
    law can draw is a property of the law, which
    :func:`partition_refine_entropy` checks before it samples.
    """

    cells: tuple[CylinderSet, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.labels):
            raise ValueError("one label per cell")
        if not self.cells:
            raise ValueError("a partition needs at least one cell")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")
        if any(len(c.constraints) != 1 for c in self.cells):
            raise ValueError("every cell must be a cylinder constraining one position")
        if len({c.positions for c in self.cells}) != 1:
            raise ValueError("every cell must constrain the same position")
        symbols = [c.constraints[0][1] for c in self.cells]
        if len(set(symbols)) != len(symbols):
            raise ValueError("cells must hold distinct symbols")

    @classmethod
    def time_zero(cls, bern: BernoulliSpec) -> "PartitionSpec":
        """One cell per symbol value at position zero."""
        cells = tuple(CylinderSet(((0, s),)) for s in bern.symbols)
        labels = tuple(str(s) for s in bern.symbols)
        return cls(cells=cells, labels=labels)

    @property
    def position(self) -> int:
        """The one position every cell constrains."""
        return self.cells[0].positions[0]

    def cell_index_batch(self, spec: SystemSpec, batch) -> np.ndarray:
        """Cell index per sample (cells are disjoint, so at most one hit)."""
        import numpy as np

        out = np.full(len(batch), -1, dtype=np.int64)
        for idx, cell in enumerate(self.cells):
            hit = cell.contains_batch(spec.bernoulli, batch)
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
    H(alpha, n)/n of a shift's one-position partition alpha: sample
    initial points, and average the score -(1/n) log mu of the refined
    cell each one enters over n steps.

    The refined cell is a cylinder, so its measure is exact and the
    estimate is unbiased at every sample size.  The cell entered at step
    j is fixed by the symbol at p + j alone (p the partition's position),
    so a point's score is -(1/n) sum_j log p(x_{p+j}), computed from the
    symbol counts of its window p, ..., p + n - 1
    (:func:`_symbol_count_scorer`), with no itinerary built.

    A system without a symbol law (rotation, skew) is refused.  So is,
    before any draw, a partition with a cell on a symbol the law lacks,
    or one that misses a symbol the sampler can draw; a symbol whose
    threshold equals the one before it (:func:`symbol_thresholds`) is
    never drawn and needs no cell.

    The sample is streamed (:func:`sample_chunks`) and each chunk is
    scored, into arrays kept for the call, before the next is drawn, so
    memory does not grow with ``samples``.  The chunks' moments, taken
    about the first score drawn, are merged by Chan's update
    (:func:`_merge_moments`), so a uniform shift's estimate is its one
    score exactly, with stderr 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if samples < 100:
        raise UndersampledError("at least 100 samples are required")
    if spec.bernoulli is None:
        raise ValueError(f"a {spec.kind} system has no symbol law to partition")
    # index_of refuses a cell on a symbol the law does not have
    held = {spec.bernoulli.index_of(c.constraints[0][1]) for c in partition.cells}
    thresholds = symbol_thresholds(spec.bernoulli)
    for index, (lo, hi) in enumerate(zip((0, *thresholds), thresholds)):
        if lo < hi and index not in held:
            raise ValueError(
                f"symbol {spec.bernoulli.symbols[index]!r} can be drawn, so a sample "
                "escaped every cell; partition incomplete"
            )
    score = _symbol_count_scorer(spec.bernoulli, n)
    p = partition.position
    moments = (0, 0.0, 0.0, 0.0)
    for batch in sample_chunks(spec, rng, samples, range(p, p + n)):
        moments = _merge_moments(moments, score(batch.sym))
    count, pivot, mean, m2 = moments
    return EntropyEstimate(
        value=pivot + mean, block_length=n, sample_count=count,
        stderr=math.sqrt(m2 / (count - 1)) / math.sqrt(count), method="measure-scored",
    )


def _symbol_count_scorer(bern: BernoulliSpec, n: int):
    """The per-sample score -(1/n) sum_j log p(x_j) of single-position
    cells as a function of the symbol window x (one row per sample, the
    symbol indices at p, ..., p + n - 1).

    With G_k the number of symbols in a row whose index is >= k, the
    score is -log p_0 - sum_{k >= 1} G_k (log p_k - log p_{k-1}) / n.
    G_k is one comparison of the window's columns (copied once per chunk
    so that each is contiguous) and one sum down them, counted in the
    narrowest unsigned type that holds n, so its cost does not depend on
    how a chunk's symbols split into rows and columns; a k whose log
    step is 0 adds exactly 0 and is skipped, so every score of a uniform
    law is exactly -log p_0.

    The scores, the column copy, its flags and the counters live in
    arrays the scorer keeps and refills for every window (a stream's
    windows never grow), so the returned scores are valid only until the
    next call."""
    import numpy as np

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
                columns = np.empty((window.shape[1], rows), dtype=window.dtype)
                hits = np.empty(columns.shape, dtype=bool)
        chunk = out[:rows]
        chunk.fill(-log_p[0])
        if steps:
            chunk_columns, flags = columns[:, :rows], hits[:, :rows]
            np.copyto(chunk_columns, window.T)
            count = at_least_k[:rows]
            for k, step in steps:
                np.greater_equal(chunk_columns, k, out=flags)
                np.add.reduce(flags, axis=0, dtype=counter, out=count)
                chunk -= np.multiply(count, step, out=terms[:rows])
        return chunk

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
    import numpy as np

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


# ---------------------------------------------------------------------------
# the classifier
# ---------------------------------------------------------------------------


@record(frozen=True)
class EntropyVerdict:
    entropy_a: float
    entropy_b: float
    spacial: str
    spectral: str

    def to_json(self) -> dict:
        return asdict(self)


def _entropies_equal(p: Sequence[Fraction], q: Sequence[Fraction]) -> bool:
    """Whether H(p) = H(q), decided exactly, for two laws of fractions
    that each sum to 1 (``BernoulliSpec.probs``).

    Over a common denominator D,
    with ``p_i = a_i / D`` and ``q_j = b_j / D``, ``H = log D - (1/D) sum a
    log a``, so the entropies are equal iff ``prod a_i^a_i = prod b_j^b_j``.
    The powers are never formed: factor refinement (Bach, Driscoll and
    Shallit, J. Algorithms 15, 1993) splits every a_i and b_j over a base
    of pairwise coprime integers, where both products have one exponent
    vector each, and those are compared.
    """
    D = math.lcm(*(x.denominator for law in (p, q) for x in law))
    a, b = ([x.numerator * (D // x.denominator) for x in law] for law in (p, q))
    base, pending = [], [n for n in a + b if n > 1]
    while pending:  # each split drops a factor g > 1 from the product
        x = pending.pop()
        for i, c in enumerate(base):
            if (g := math.gcd(x, c)) > 1:
                if x != c:
                    pending += [n for n in (base.pop(i) // g, g, x // g) if n > 1]
                break
        else:
            base.append(x)
    exponents = [0] * len(base)  # of prod a^a / prod b^b, per base element
    for sign, law in ((1, a), (-1, b)):
        for n in law:
            rest = n
            for i, c in enumerate(base):
                while rest % c == 0:
                    rest, exponents[i] = rest // c, exponents[i] + sign * n
    return not any(exponents)


def entropy_classifier(spec_a: BernoulliSpec, spec_b: BernoulliSpec) -> EntropyVerdict:
    """Compare two product-measure shifts by their entropies, whose
    equality is decided exactly (:func:`_entropies_equal`); the entropies
    reported are floats, for display.

    Different entropy rules out any spacial isomorphism; equal entropy
    implies spacial isomorphism for this class by Ornstein's theorem
    (the deep direction is quoted, not reproved here).  Either way both
    systems carry countable Lebesgue spectrum, so they are spectrally
    isomorphic.
    """
    if _entropies_equal(spec_a.probs, spec_b.probs):
        spacial = "spacially isomorphic (Ornstein)"
    else:
        spacial = "not spacially isomorphic (entropy invariant)"
    return EntropyVerdict(
        entropy_a=bernoulli_entropy(spec_a),
        entropy_b=bernoulli_entropy(spec_b),
        spacial=spacial,
        spectral="spectrally isomorphic (both Lebesgue systems)",
    )
