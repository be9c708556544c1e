"""The one-batch entropy scorers, kept as a test oracle.

This is the scorer ``partition_refine_entropy`` used when it drew its
whole sample at once: it takes the full itinerary matrix (one row per
sample, one cell index per step, found by testing cell membership) and
reduces it in one go, summing the cells' log probabilities row by row.
The streamed estimator scores the same draws chunk by chunk from symbol
counts, with no itinerary matrix; on the concatenation of its chunks
these functions define the result it must reproduce.
"""

from __future__ import annotations

import math

import numpy as np

from ergolab import EntropyEstimate, iterate_batch
from ergolab._record import replace
from ergolab.systems import SampleBatch


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
    log_p = np.array(
        [math.log(spec.bernoulli.prob_of(c.constraints[0][1])) for c in partition.cells]
    )
    scores = -log_p[itineraries].sum(axis=1) / n
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
