"""The one-batch entropy scorers, kept as a test oracle.

These are the scorers ``partition_refine_entropy`` used when it drew its
whole sample at once: they take the full itinerary matrix (one row per
sample, one cell index per step) and reduce it in one go, summing the
cells' log probabilities row by row.  The streamed estimator scores the
same draws chunk by chunk, single-position cells from symbol counts
with no itinerary matrix; on the concatenation of its chunks these
functions define the result it must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from ergolab import EntropyEstimate, UndersampledError, iterate_batch
from ergolab.entropy import _WORK
from ergolab.systems import SampleBatch


def fraction_block_entropy(probs, n: int) -> Decimal:
    """H_n to the 40 digits of ``entropy._block_entropy``, summed over
    symbol-count vectors with each mass an exact ``Fraction`` product of
    the binary probabilities, rounded once: the rationals the integer
    form must reproduce digit for digit."""
    fractions = [Fraction(p) for p in probs]
    with localcontext(_WORK):
        logs = [Decimal(p).ln() for p in probs]
        total = Decimal(0)
        for combo in combinations_with_replacement(range(len(probs)), n):
            counts = [combo.count(i) for i in range(len(probs))]
            weight = math.factorial(n)
            for c in counts:
                weight //= math.factorial(c)
            mass = weight * math.prod(p**c for p, c in zip(fractions, counts))
            log_p = sum(c * log for c, log in zip(counts, logs))
            total -= Decimal(mass.numerator) / mass.denominator * log_p
        return total


def copied(batch: SampleBatch) -> SampleBatch:
    """A batch holding copies of ``batch``'s arrays: a streamed batch is
    valid only until the next one is drawn into the same buffers."""
    return replace(batch, **{
        name: getattr(batch, name).copy()
        for name in ("u", "v", "sym")
        if getattr(batch, name) is not None
    })


def concatenate(batches: list[SampleBatch]) -> SampleBatch:
    """One batch holding the points of several batches drawn alike."""
    first = batches[0]

    def joined(name):
        if getattr(first, name) is None:
            return None
        return np.concatenate([getattr(b, name) for b in batches])

    assert all(b.anchor == first.anchor for b in batches)
    return SampleBatch(
        spec=first.spec, u=joined("u"), v=joined("v"), sym=joined("sym"),
        anchor=first.anchor,
    )


def itineraries(spec, partition, batch: SampleBatch, n: int) -> np.ndarray:
    out = np.empty((len(batch), n), dtype=np.int64)
    for j in range(n):
        cells = partition.cell_index_batch(spec, iterate_batch(batch, j))
        if np.any(cells < 0):
            raise ValueError("a sample escaped every cell; partition incomplete")
        out[:, j] = cells
    return out


def measure_scored(spec, partition, itineraries: np.ndarray, n: int) -> EntropyEstimate:
    samples = itineraries.shape[0]
    single_position = all(
        len(c.cylinder.constraints) == 1
        and c.cylinder.constraints[0][0] == partition.cells[0].cylinder.constraints[0][0]
        for c in partition.cells
    )
    if single_position:
        log_p = np.array(
            [
                math.log(spec.bernoulli.prob_of(c.cylinder.constraints[0][1]))
                for c in partition.cells
            ]
        )
        scores = -log_p[itineraries].sum(axis=1) / n
    else:
        rows, inverse = np.unique(itineraries, axis=0, return_inverse=True)
        log_measures = np.empty(len(rows))
        for r, row in enumerate(rows):
            merged: dict[int, object] = {}
            for j, cell_idx in enumerate(row):
                for pos, sym in partition.cells[cell_idx].cylinder.constraints:
                    shifted = pos + j
                    if shifted in merged and merged[shifted] != sym:
                        raise AssertionError("observed itinerary has measure zero")
                    merged[shifted] = sym
            # a sum of logs: the product itself underflows for long rows
            log_measures[r] = sum(
                math.log(spec.bernoulli.prob_of(sym)) for sym in merged.values()
            )
        scores = -log_measures[inverse.reshape(-1)] / n
    value = float(np.mean(scores))
    stderr = float(np.std(scores, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return EntropyEstimate(
        value=value,
        block_length=n,
        sample_count=samples,
        stderr=stderr,
        exact=False,
        method="measure-scored",
    )


def frequency_scored(itineraries: np.ndarray, n: int) -> EntropyEstimate:
    samples = itineraries.shape[0]
    if samples < 100 * 2**n:
        raise UndersampledError(
            f"{samples} samples are below the coverage floor 100 * 2^{n}"
        )
    _, counts = np.unique(itineraries, axis=0, return_counts=True)
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
