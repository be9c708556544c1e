"""Entropy: exact rates, sampled estimates, and the classifier.

Exact values are computed with 40 significant decimal digits and
rounded once, so the fair coin and the uniform 4-symbol alphabet land
exactly on log(2) and log(4) as doubles; the independent oracle here
recomputes them in binary with mpmath at 120 bits.
"""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import (
    BernoulliSpec,
    CylinderSet,
    PartitionSpec,
    SystemSpec,
    TestSet,
    UndersampledError,
    bernoulli_entropy,
    block_entropy_rate,
    entropy_classifier,
    exact_block_entropy,
    exact_block_entropy_rate,
    partition_refine_entropy,
    spawn_rngs,
)

from ergolab import entropy, systems
from ergolab.systems import SAMPLE_CHUNK

import entropy_oracle
from helpers import GAMMA, UNIFORM4

FAIR = BernoulliSpec.fair_coin()
BIASED = BernoulliSpec((0.25, 0.75), (0, 1))


def _oracle_entropy(probs) -> float:
    """Independent recomputation: -sum p log p at 120 bits, rounded once."""
    with mpmath.workprec(120):
        total = mpmath.mpf(0)
        for p in probs:
            mp_p = mpmath.mpf(p)
            total -= mp_p * mpmath.log(mp_p)
        return float(total)


def _oracle_block_entropy(probs, n: int):
    """Independent recomputation of H_n at 120 bits, as an mpf: the
    n-block law summed over symbol-count vectors, each with its
    multinomial weight, in binary floating point."""
    with mpmath.workprec(120):
        logs = [mpmath.log(mpmath.mpf(p)) for p in probs]
        total = mpmath.mpf(0)
        for combo in combinations_with_replacement(range(len(probs)), n):
            counts = [combo.count(i) for i in range(len(probs))]
            weight = math.factorial(n)
            for c in counts:
                weight //= math.factorial(c)
            mass = weight * mpmath.fprod(mpmath.mpf(p) ** c for p, c in zip(probs, counts))
            total -= mass * mpmath.fsum(c * log for c, log in zip(counts, logs))
        return total


NAMED_LAWS = {
    "fair coin": (0.5, 0.5),
    "uniform-4": (0.25, 0.25, 0.25, 0.25),
    "(0.1, 0.9)": (0.1, 0.9),
    "Meshalkin (1/2, 1/8 x4)": (0.5, 0.125, 0.125, 0.125, 0.125),
}


def _random_laws(count: int, seed: int) -> list[tuple[float, ...]]:
    rng = random.Random(seed)
    laws = []
    for _ in range(count):
        weights = [rng.random() + 1e-3 for _ in range(rng.randint(2, 6))]
        laws.append(tuple(w / sum(weights) for w in weights))
    return laws


def _assert_matches_oracle(probs, n: int) -> None:
    spec = BernoulliSpec(probs, tuple(range(len(probs))))
    h_n = _oracle_block_entropy(probs, n)
    assert bernoulli_entropy(spec) == _oracle_entropy(probs)
    assert exact_block_entropy(spec, n) == float(h_n)
    with mpmath.workprec(120):
        assert exact_block_entropy_rate(spec, n).value == float(h_n / n)


# ---------------------------------------------------------------------------
# exact values
# ---------------------------------------------------------------------------


def test_fair_coin_entropy_is_exactly_log2():
    assert bernoulli_entropy(FAIR) == math.log(2)


def test_uniform_four_entropy_is_exactly_log4():
    assert bernoulli_entropy(UNIFORM4) == math.log(4)


@given(
    st.lists(st.integers(1, 40), min_size=2, max_size=6).filter(
        lambda w: len(set(w)) > 1 or True
    )
)
@settings(max_examples=100)
def test_entropy_matches_oracle_and_bounds(weights):
    total = sum(weights)
    probs = tuple(w / total for w in weights)
    if abs(sum(probs) - 1.0) > 1e-9:
        return
    spec = BernoulliSpec(probs, tuple(range(len(probs))))
    h = bernoulli_entropy(spec)
    assert h == _oracle_entropy(probs)
    assert -1e-15 <= h <= math.log(len(probs)) + 1e-12


@given(st.permutations(range(4)))
def test_entropy_is_permutation_invariant(perm):
    probs = (0.1, 0.2, 0.3, 0.4)
    base = BernoulliSpec(probs, (0, 1, 2, 3))
    shuffled = BernoulliSpec(tuple(probs[i] for i in perm), (0, 1, 2, 3))
    assert bernoulli_entropy(shuffled) == bernoulli_entropy(base)


def test_block_entropy_is_additive_for_independent_blocks():
    for spec in (FAIR, BIASED, UNIFORM4):
        h1 = bernoulli_entropy(spec)
        for n in (1, 2, 5, 8):
            assert abs(exact_block_entropy(spec, n) - n * h1) <= 1e-12


def test_exact_rate_equals_single_symbol_entropy():
    for spec in (FAIR, UNIFORM4, BIASED):
        est = exact_block_entropy_rate(spec, 10)
        assert est.exact and est.method == "exact"
        assert est.value == bernoulli_entropy(spec)
        assert est.stderr == 0.0


@pytest.mark.parametrize("name", list(NAMED_LAWS))
def test_exact_entropies_equal_the_binary_oracle_on_named_laws(name):
    for n in (1, 2, 5, 10):
        _assert_matches_oracle(NAMED_LAWS[name], n)


def test_exact_entropies_equal_the_binary_oracle_on_random_laws():
    """2,000 seeded laws of 2-6 symbols, block lengths 1-3: the 40-digit
    decimal values round to the same floats as the 120-bit oracle."""
    for i, probs in enumerate(_random_laws(2000, seed=12)):
        _assert_matches_oracle(probs, 1 + i % 3)


# ---------------------------------------------------------------------------
# stream estimates
# ---------------------------------------------------------------------------


def test_block_entropy_rate_on_a_fair_stream():
    rng = spawn_rngs(21, 1)[0]
    stream = rng.integers(0, 2, size=200_000)
    est = block_entropy_rate(stream, 3)
    assert abs(est.value - math.log(2)) < 5e-3
    assert est.stderr > 0 and not est.exact


def test_block_entropy_rate_of_a_constant_stream_is_zero():
    est = block_entropy_rate(np.zeros(10_000, dtype=int), 2)
    assert est.value == 0.0


def test_block_entropy_rate_guards_short_streams():
    with pytest.raises(UndersampledError):
        block_entropy_rate(np.zeros(500, dtype=int), 10)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def test_partition_validation():
    with pytest.raises(ValueError):
        PartitionSpec.u_intervals([0, Fraction(1, 2)])  # does not reach 1
    with pytest.raises(ValueError):
        PartitionSpec.u_intervals([0, Fraction(2, 3), Fraction(1, 3), 1])
    # overlapping cylinder cells are rejected
    with pytest.raises(ValueError):
        PartitionSpec(
            cells=(
                TestSet.from_cylinder(CylinderSet(((0, 1),))),
                TestSet.from_cylinder(CylinderSet(())),
            ),
            labels=("a", "b"),
        )
    part = PartitionSpec.time_zero(FAIR)
    assert len(part.cells) == 2
    assert part.measures_sum_to_one(SystemSpec.shift(FAIR))


def test_refinement_estimate_scores_the_true_measure():
    """For cylinder partitions of a shift the estimator scores the exact
    refined-cell measure, so a uniform alphabet gives the rate with zero
    variance at any sample size."""
    rng = spawn_rngs(22, 1)[0]
    for bern, expected in ((FAIR, math.log(2)), (UNIFORM4, math.log(4))):
        est = partition_refine_entropy(
            SystemSpec.shift(bern), PartitionSpec.time_zero(bern), 10, 2_000, rng
        )
        assert est.method == "measure-scored"
        assert abs(est.value - expected) <= 1e-12
        assert est.stderr <= 1e-12


def test_refinement_estimate_is_unbiased_for_a_biased_coin():
    rng = spawn_rngs(23, 1)[0]
    exact = bernoulli_entropy(BIASED)
    est = partition_refine_entropy(
        SystemSpec.shift(BIASED), PartitionSpec.time_zero(BIASED), 8, 20_000, rng
    )
    assert est.method == "measure-scored"
    assert est.stderr > 0
    assert abs(est.value - exact) <= 4 * est.stderr


def test_refinement_on_the_rotation_uses_frequencies():
    """A half-circle partition of the rotation has zero entropy rate in
    the limit; the frequency estimate at small n stays well below the
    alphabet ceiling and is nonnegative."""
    rng = spawn_rngs(24, 1)[0]
    part = PartitionSpec.u_intervals([0, Fraction(1, 2), 1])
    est = partition_refine_entropy(SystemSpec.rotation(GAMMA), part, 3, 10_000, rng)
    assert est.method == "frequency"
    assert 0.0 <= est.value < math.log(2)


def test_single_cell_partition_has_zero_entropy():
    rot = SystemSpec.rotation(GAMMA)
    est = partition_refine_entropy(
        rot, PartitionSpec.single_cell(rot), 4, 1_000, spawn_rngs(25, 1)[0]
    )
    assert est.value == 0.0 and est.method == "single-cell"


def test_refinement_guards():
    rng = spawn_rngs(26, 1)[0]
    rot = SystemSpec.rotation(GAMMA)
    part = PartitionSpec.u_intervals([0, Fraction(1, 2), 1])
    with pytest.raises(ValueError):
        partition_refine_entropy(rot, part, 3, 50, rng)  # too few samples
    with pytest.raises(UndersampledError):
        # frequency scoring needs 100 * 2^n samples at the ceiling rate
        partition_refine_entropy(rot, part, 12, 1_000, rng)


# ---------------------------------------------------------------------------
# streamed sampling
# ---------------------------------------------------------------------------

# two-position cells, so refined cells overlap and the scorer merges
# constraints row by row
PAIR_CELLS = PartitionSpec(
    cells=tuple(
        TestSet.from_cylinder(CylinderSet(((0, a), (1, b))))
        for a in (0, 1)
        for b in (0, 1)
    ),
    labels=("00", "01", "10", "11"),
)
SCORERS = {
    # name: (system, partition, n)
    "single-position": (SystemSpec.shift(BIASED), PartitionSpec.time_zero(BIASED), 8),
    "multi-position": (SystemSpec.shift(BIASED), PAIR_CELLS, 4),
    "frequency": (
        SystemSpec.rotation(GAMMA),
        PartitionSpec.u_intervals([0, Fraction(1, 2), 1]),
        3,
    ),
}


@pytest.mark.parametrize(
    "samples", [100, SAMPLE_CHUNK - 1, 3 * SAMPLE_CHUNK, 3 * SAMPLE_CHUNK + 5]
)
def test_chunk_boundaries_give_valid_estimates(samples):
    spec, part, n = SCORERS["single-position"]
    est = partition_refine_entropy(spec, part, n, samples, spawn_rngs(31, 1)[0])
    assert est.sample_count == samples and est.method == "measure-scored"
    assert est.stderr > 0
    assert abs(est.value - bernoulli_entropy(BIASED)) <= 5 * est.stderr
    fair = partition_refine_entropy(
        SystemSpec.shift(FAIR), PartitionSpec.time_zero(FAIR), 10, samples,
        spawn_rngs(32, 1)[0],
    )
    assert fair.sample_count == samples
    assert fair.value == math.log(2) and fair.stderr == 0.0


@pytest.mark.parametrize("scorer", list(SCORERS))
def test_same_seed_same_estimate(scorer):
    spec, part, n = SCORERS[scorer]
    runs = [
        partition_refine_entropy(spec, part, n, SAMPLE_CHUNK + 5, spawn_rngs(33, 1)[0])
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0].method == ("frequency" if scorer == "frequency" else "measure-scored")


@pytest.mark.parametrize("scorer", list(SCORERS))
def test_streamed_scorers_equal_the_one_batch_oracle(scorer, monkeypatch):
    """The chunks' merged state gives the one-batch scorer's result on
    the concatenated draws: counts exactly, and moments merged by Chan's
    update to 1e-12 relative (only the order of float sums differs)."""
    spec, part, n = SCORERS[scorer]
    monkeypatch.setattr(systems, "SAMPLE_CHUNK", 1000)
    drawn = []

    def recording(*args, **kwargs):
        for batch in systems.sample_chunks(*args, **kwargs):
            drawn.append(batch)
            yield batch

    monkeypatch.setattr(entropy, "sample_chunks", recording)
    est = partition_refine_entropy(spec, part, n, 3005, spawn_rngs(34, 1)[0])
    assert [len(b) for b in drawn] == [1000, 1000, 1000, 5]
    itin = entropy_oracle.itineraries(spec, part, entropy_oracle.concatenate(drawn), n)
    if scorer == "frequency":
        assert est == entropy_oracle.frequency_scored(itin, n)
        return
    expected = entropy_oracle.measure_scored(spec, part, itin, n)
    assert (est.sample_count, est.method) == (expected.sample_count, expected.method)
    assert est.value == pytest.approx(expected.value, rel=1e-12)
    assert est.stderr == pytest.approx(expected.stderr, rel=1e-12)


# ---------------------------------------------------------------------------
# itineraries of single-position partitions by table lookup
# ---------------------------------------------------------------------------

LAW3 = BernoulliSpec((0.2, 0.3, 0.5), ("a", "b", "c"))


def _cells_at(position: int, symbols: tuple) -> PartitionSpec:
    """One cell per listed symbol, all constraining ``position``."""
    return PartitionSpec(
        cells=tuple(TestSet.from_cylinder(CylinderSet(((position, s),))) for s in symbols),
        labels=tuple(str(s) for s in symbols),
    )


# cells listed out of symbol order, so a cell index is not a symbol index
TABLE_CASES = {
    "2 symbols": (SystemSpec.shift(BIASED), PartitionSpec.time_zero(BIASED)),
    "3 symbols": (SystemSpec.shift(LAW3), PartitionSpec.time_zero(LAW3)),
    "4 symbols": (SystemSpec.product(GAMMA, UNIFORM4), PartitionSpec.time_zero(UNIFORM4)),
    "position 3": (SystemSpec.shift(LAW3), _cells_at(3, ("c", "a", "b"))),
    "position -2": (SystemSpec.shift(BIASED), _cells_at(-2, (1, 0))),
}


def _record(monkeypatch, drawn: list, scored: list) -> None:
    """Keep every chunk the estimator draws and every itinerary matrix
    it scores."""
    def recording(*args, **kwargs):
        for batch in systems.sample_chunks(*args, **kwargs):
            drawn.append(batch)
            yield batch

    scorer = entropy._itinerary_scorer

    def recording_scorer(*args):
        score = scorer(*args)

        def scored_and_kept(itineraries):
            scored.append(itineraries.copy())
            return score(itineraries)

        return scored_and_kept

    monkeypatch.setattr(entropy, "sample_chunks", recording)
    monkeypatch.setattr(entropy, "_itinerary_scorer", recording_scorer)


@pytest.mark.parametrize("case", list(TABLE_CASES))
def test_table_itineraries_equal_the_loop_oracle(case, monkeypatch):
    """Single-position cells read each chunk's itineraries off the symbol
    window by one lookup, never through cell membership, and get the
    membership loop's matrix."""
    spec, part = TABLE_CASES[case]
    n = 6
    monkeypatch.setattr(systems, "SAMPLE_CHUNK", 1000)
    drawn, scored = [], []
    _record(monkeypatch, drawn, scored)

    def no_membership(*args):
        raise AssertionError("the table path tested cell membership")

    monkeypatch.setattr(PartitionSpec, "cell_index_batch", no_membership)
    est = partition_refine_entropy(spec, part, n, 2_500, spawn_rngs(36, 1)[0])
    monkeypatch.undo()
    assert [len(b) for b in drawn] == [1000, 1000, 500]
    itin = entropy_oracle.itineraries(spec, part, entropy_oracle.concatenate(drawn), n)
    assert np.array_equal(np.concatenate(scored), itin)
    expected = entropy_oracle.measure_scored(spec, part, itin, n)
    assert est.value == pytest.approx(expected.value, rel=1e-12)


@pytest.mark.parametrize("path", ["table", "membership"])
def test_a_sample_outside_every_cell_is_caught(path, monkeypatch):
    """Cells that miss symbol c fail the cover check; past that check,
    the first sample holding c escapes every cell, on either path."""
    spec = SystemSpec.shift(LAW3)
    if path == "table":
        part = _cells_at(0, ("a", "b"))
    else:
        part = PartitionSpec(
            cells=tuple(
                TestSet.from_cylinder(CylinderSet(cons))
                for cons in (((0, "a"), (1, "a")), ((0, "a"), (1, "b")), ((0, "b"),))
            ),
            labels=("aa", "ab", "b"),
        )
    assert (entropy._single_position_table(spec, part) is None) == (path != "table")
    with pytest.raises(ValueError, match="do not cover"):
        partition_refine_entropy(spec, part, 4, 500, spawn_rngs(37, 1)[0])
    monkeypatch.setattr(PartitionSpec, "measures_sum_to_one", lambda self, spec: True)
    with pytest.raises(ValueError, match="escaped every cell"):
        partition_refine_entropy(spec, part, 4, 500, spawn_rngs(37, 1)[0])


def test_long_itineraries_score_without_underflow(monkeypatch):
    """At n = 2500 nearly every refined cell has a measure below the
    smallest double; its log is taken from the exact measure's numerator
    and denominator, and the estimate agrees with the oracle's sum of
    logs."""
    spec = SystemSpec.shift(BernoulliSpec((0.1, 0.9)))
    part = PartitionSpec(
        cells=tuple(
            TestSet.from_cylinder(CylinderSet(cons))
            for cons in (((0, 1), (1, 1)), ((0, 1), (1, -1)), ((0, -1),))
        ),
        labels=("aa", "ab", "b"),
    )
    n = 2500
    drawn, scored = [], []
    _record(monkeypatch, drawn, scored)
    est = partition_refine_entropy(spec, part, n, 100, spawn_rngs(38, 1)[0])
    expected = entropy_oracle.measure_scored(spec, part, np.concatenate(scored), n)
    assert est.value == pytest.approx(expected.value, rel=1e-12)
    assert est.stderr == pytest.approx(expected.stderr, rel=1e-12)
    assert abs(est.value - bernoulli_entropy(spec.bernoulli)) <= 5 * est.stderr


def test_streamed_sampling_memory_is_bounded():
    """10^6 samples at n = 10 keep one chunk's arrays alive at a time;
    the one-batch sampler traced about 350 MB here."""
    tracemalloc.start()
    try:
        est = partition_refine_entropy(
            SystemSpec.shift(FAIR), PartitionSpec.time_zero(FAIR), 10, 1_000_000,
            spawn_rngs(35, 1)[0],
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.sample_count == 1_000_000
    assert peak < 30 * 2**20


# ---------------------------------------------------------------------------
# the classifier
# ---------------------------------------------------------------------------


def test_classifier_separates_unequal_entropies():
    verdict = entropy_classifier(FAIR, UNIFORM4)
    assert verdict.spacial == "not spacially isomorphic (entropy invariant)"
    assert verdict.spectral == "spectrally isomorphic (both Lebesgue systems)"
    assert verdict.entropy_a == math.log(2) and verdict.entropy_b == math.log(4)


def test_classifier_accepts_equal_entropies():
    relabeled = BernoulliSpec((0.5, 0.5), ("a", "b"))
    verdict = entropy_classifier(FAIR, relabeled)
    assert verdict.spacial == "spacially isomorphic (Ornstein)"
