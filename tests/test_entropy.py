"""Entropy: exact rates, sampled estimates, and the classifier.

Exact values are computed with 40 significant decimal digits and
rounded once, so the fair coin and the uniform 4-symbol alphabet land
exactly on log(2) and log(4) as doubles; the independent oracle here
recomputes them in binary with mpmath at 120 bits.
"""

from __future__ import annotations

import itertools
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
    UndersampledError,
    bernoulli_entropy,
    entropy_classifier,
    exact_block_entropy_rate,
    partition_refine_entropy,
    spawn_rngs,
)

from ergolab import entropy, systems
from ergolab.cli import default_config
from ergolab.systems import SAMPLE_CHUNK

import entropy_oracle
from helpers import GAMMA, UNIFORM4

FAIR = BernoulliSpec.fair_coin()
BIASED = BernoulliSpec((0.25, 0.75), (0, 1))


def _mpf(p: Fraction):
    """The exact probability p at the working precision."""
    return mpmath.mpf(p.numerator) / p.denominator


def _oracle_entropy(probs) -> float:
    """Independent recomputation: -sum p log p at 120 bits for a law of
    exact fractions, rounded once."""
    with mpmath.workprec(120):
        total = mpmath.mpf(0)
        for p in probs:
            mp_p = _mpf(p)
            total -= mp_p * mpmath.log(mp_p)
        return float(total)


def _oracle_block_entropy(probs, n: int):
    """Independent recomputation of H_n at 120 bits, as an mpf: the
    n-block law of exact fractions summed over symbol-count vectors,
    each with its multinomial weight, in binary floating point."""
    with mpmath.workprec(120):
        logs = [mpmath.log(_mpf(p)) for p in probs]
        total = mpmath.mpf(0)
        for combo in combinations_with_replacement(range(len(probs)), n):
            counts = [combo.count(i) for i in range(len(probs))]
            weight = math.factorial(n)
            for c in counts:
                weight //= math.factorial(c)
            mass = weight * mpmath.fprod(_mpf(p) ** c for p, c in zip(probs, counts))
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
    assert bernoulli_entropy(spec) == _oracle_entropy(spec.probs)
    assert exact_block_entropy_rate(spec, n).value == bernoulli_entropy(spec)


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
    assert h == _oracle_entropy(spec.probs)
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
            assert exact_block_entropy_rate(spec, n).value == h1


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


def test_block_sum_oracle_is_n_times_the_one_step_entropy():
    """The 120-bit block-sum oracle, summed over the n-block law itself,
    rounds H_n / n to the one-step entropy, so the closed form
    H_n = n H_1 holds: on the named laws and 25 seeded laws of 2-6
    symbols, at n = 1, 2, 5 and 10.  Every law is read as fractions that
    sum to exactly 1, so the sum's factor (sum p)^(n-1) is 1."""
    for probs in [*NAMED_LAWS.values(), *_random_laws(25, seed=13)]:
        spec = BernoulliSpec(probs, tuple(range(len(probs))))
        assert sum(spec.probs) == 1
        h1 = bernoulli_entropy(spec)
        for n in (1, 2, 5, 10):
            with mpmath.workprec(120):
                assert float(_oracle_block_entropy(spec.probs, n) / n) == h1


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def test_partition_validation():
    """Cells at two positions, two cells on one symbol, and a cell
    constraining two positions or none are each refused when the
    partition is built."""
    def at(position, symbol):
        return CylinderSet(((position, symbol),))

    refused = {
        "same position": (at(0, 0), at(1, 1)),
        "distinct symbols": (at(0, 1), at(0, 1)),
        "constraining one position": (at(0, 0), CylinderSet(((0, 1), (1, 1)))),
        "cylinder constraining one position": (at(0, 0), CylinderSet()),
    }
    for message, cells in refused.items():
        with pytest.raises(ValueError, match=message):
            PartitionSpec(cells=cells, labels=("a", "b"))
    part = PartitionSpec.time_zero(FAIR)
    assert len(part.cells) == 2 and part.position == 0


def test_refinement_estimate_scores_the_true_measure():
    """For cylinder partitions of a shift the estimator scores the exact
    refined-cell measure, so a uniform alphabet gives the rate with zero
    variance at any sample size."""
    rng = spawn_rngs(22, 1)[0]
    for (bern, expected), n in itertools.product(((FAIR, math.log(2)), (UNIFORM4, math.log(4))), (1, 10)):
        est = partition_refine_entropy(
            SystemSpec.shift(bern), PartitionSpec.time_zero(bern), n, 2_000, rng
        )
        assert est.method == "measure-scored" and est.block_length == n
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


def test_refinement_guards():
    rng = spawn_rngs(26, 1)[0]
    shift, part = SystemSpec.shift(FAIR), PartitionSpec.time_zero(FAIR)
    with pytest.raises(UndersampledError):
        partition_refine_entropy(shift, part, 3, 50, rng)  # too few samples
    with pytest.raises(ValueError, match="no symbol law"):
        partition_refine_entropy(SystemSpec.rotation(GAMMA), part, 3, 1_000, rng)
    with pytest.raises(ValueError, match="unknown symbol 'z'"):
        partition_refine_entropy(shift, _cells_at(0, (1, -1, "z")), 3, 1_000, rng)


# ---------------------------------------------------------------------------
# streamed sampling
# ---------------------------------------------------------------------------

SCORERS = {
    # name: (system, partition, n)
    "single-position": (SystemSpec.shift(BIASED), PartitionSpec.time_zero(BIASED), 8),
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


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("cells", ["single-position"])
def test_uniform_laws_score_exactly(k, cells):
    """Every itinerary of a uniform law scores the same, so the estimate
    is that score exactly, with stderr 0, even when the last chunk is
    short (123,457 samples end on a chunk of 57,921)."""
    bern = BernoulliSpec((1 / k,) * k, tuple(range(k)))
    est = partition_refine_entropy(
        SystemSpec.shift(bern), PartitionSpec.time_zero(bern), 7, 123_457, spawn_rngs(35, 1)[0]
    )
    assert est.method == "measure-scored" and est.sample_count == 123_457
    assert est.value == -math.log(1 / k) and est.stderr == 0.0


@pytest.mark.parametrize("exponent", [320, 400])
def test_a_weight_below_the_normal_floats_scores_its_exact_log(exponent):
    """A weight of 10^-320 is a float that has lost five digits and one of
    10^-400 is float 0; a cell of either scores -log p from the exact
    fraction, 1e-12 close, as the law's other two cells do."""
    tiny = Fraction(1, 10**exponent)
    bern = BernoulliSpec((str(tiny), str(Fraction(1, 2) - tiny), "1/2"), (0, 1, 2))
    scores = entropy._symbol_count_scorer(bern, 1)(np.array([[0], [1], [2]]))
    for score, expected in zip(scores, (exponent * math.log(10), math.log(2), math.log(2))):
        assert math.isclose(score, expected, rel_tol=1e-15, abs_tol=1e-12)


@pytest.mark.parametrize("scorer", list(SCORERS))
def test_same_seed_same_estimate(scorer):
    spec, part, n = SCORERS[scorer]
    runs = [
        partition_refine_entropy(spec, part, n, SAMPLE_CHUNK + 5, spawn_rngs(33, 1)[0])
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0].method == "measure-scored"


@pytest.mark.parametrize("scorer", list(SCORERS))
def test_streamed_scorers_equal_the_one_batch_oracle(scorer, monkeypatch):
    """The chunks' merged state gives the one-batch scorer's result on
    the concatenated draws: moments merged by Chan's update to 1e-12
    relative (only the order of float sums differs)."""
    spec, part, n = SCORERS[scorer]
    monkeypatch.setattr(systems, "SAMPLE_CHUNK", 1000)
    drawn = []
    _record(monkeypatch, drawn)
    est = partition_refine_entropy(spec, part, n, 3005, spawn_rngs(34, 1)[0])
    assert [len(b) for b in drawn] == [1000, 1000, 1000, 5]
    itin = entropy_oracle.itineraries(spec, part, entropy_oracle.concatenate(drawn), n)
    expected = entropy_oracle.measure_scored(spec, part, itin, n)
    assert (est.sample_count, est.method) == (expected.sample_count, expected.method)
    assert est.value == pytest.approx(expected.value, rel=1e-12)
    assert est.stderr == pytest.approx(expected.stderr, rel=1e-12)


# ---------------------------------------------------------------------------
# single-position partitions scored from symbol counts
# ---------------------------------------------------------------------------

LAW3 = BernoulliSpec((0.2, 0.3, 0.5), ("a", "b", "c"))
# two equal adjacent probabilities: the log step between them is 0
LAW4 = BernoulliSpec((0.1, 0.2, 0.2, 0.5), ("a", "b", "c", "d"))
# a row of 300 symbols holds about 270 of index 1, past a uint8 counter
LONG = BernoulliSpec((0.1, 0.9))


def _cells_at(position: int, symbols: tuple) -> PartitionSpec:
    """One cell per listed symbol, all constraining ``position``."""
    return PartitionSpec(
        cells=tuple(CylinderSet(((position, s),)) for s in symbols),
        labels=tuple(str(s) for s in symbols),
    )


# (system, partition, n); at positions 3 and -2 the cells are listed out
# of symbol order, so a cell index is not a symbol index
TABLE_CASES = {
    "2 symbols": (SystemSpec.shift(BIASED), PartitionSpec.time_zero(BIASED), 6),
    "3 symbols": (SystemSpec.shift(LAW3), PartitionSpec.time_zero(LAW3), 6),
    "4 symbols": (
        SystemSpec.product(GAMMA, UNIFORM4), PartitionSpec.time_zero(UNIFORM4), 6
    ),
    "position 3": (SystemSpec.shift(LAW3), _cells_at(3, ("c", "a", "b")), 6),
    "position -2": (SystemSpec.shift(BIASED), _cells_at(-2, (1, 0)), 6),
    "4 symbols, a zero step": (SystemSpec.shift(LAW4), PartitionSpec.time_zero(LAW4), 6),
    "n = 300": (SystemSpec.shift(LONG), PartitionSpec.time_zero(LONG), 300),
}


def _record(monkeypatch, drawn: list) -> None:
    """Keep every chunk the estimator draws."""
    def recording(*args, **kwargs):
        for batch in systems.sample_chunks(*args, **kwargs):
            drawn.append(entropy_oracle.copied(batch))
            yield batch

    monkeypatch.setattr(entropy, "sample_chunks", recording)


@pytest.mark.parametrize("case", list(TABLE_CASES))
def test_table_scores_equal_the_loop_oracle(case, monkeypatch):
    """Single-position cells score each chunk from the symbol counts of
    its window, with no cell membership test and no itinerary matrix, and
    get the estimate and stderr of the membership loop's itineraries."""
    spec, part, n = TABLE_CASES[case]
    monkeypatch.setattr(systems, "SAMPLE_CHUNK", 1000)
    drawn = []
    _record(monkeypatch, drawn)

    def no_membership(*args):
        raise AssertionError("the table path tested cell membership")

    monkeypatch.setattr(PartitionSpec, "cell_index_batch", no_membership)
    est = partition_refine_entropy(spec, part, n, 2_500, spawn_rngs(36, 1)[0])
    monkeypatch.undo()
    assert [len(b) for b in drawn] == [1000, 1000, 500]
    itin = entropy_oracle.itineraries(spec, part, entropy_oracle.concatenate(drawn), n)
    expected = entropy_oracle.measure_scored(spec, part, itin, n)
    assert est.value == pytest.approx(expected.value, rel=1e-12)
    assert est.stderr == pytest.approx(expected.stderr, rel=1e-12)


@pytest.mark.parametrize("path", ["table"])
def test_a_sample_outside_every_cell_is_caught(path):
    """Cells that miss symbol c are refused: a sample holding c would
    escape every cell."""
    with pytest.raises(ValueError, match="'c' can be drawn, so a sample escaped every cell"):
        partition_refine_entropy(
            SystemSpec.shift(LAW3), _cells_at(0, ("a", "b")), 4, 500, spawn_rngs(37, 1)[0]
        )


def test_escapes_are_caught_on_the_table_before_sampling(monkeypatch):
    """A drawable symbol that no single-position cell holds raises before
    any draw; a symbol whose step in the sampler's cumulative law is 0 is
    never drawn, so it needs no cell."""
    monkeypatch.setattr(entropy, "sample_chunks", None)  # any draw fails
    with pytest.raises(ValueError, match="escaped every cell"):
        partition_refine_entropy(
            SystemSpec.shift(LAW3), _cells_at(0, ("a", "b")), 4, 500, spawn_rngs(37, 1)[0]
        )
    monkeypatch.undo()
    # "b" takes [1/2 - 10^-30, 1/2), which holds no multiple of 2^-53
    never_b = BernoulliSpec((Fraction(1, 2) - Fraction("1e-30"), "1e-30", "1/2"), ("a", "b", "c"))
    assert systems.symbol_thresholds(never_b) == (2**52, 2**52, 2**53)
    drawn = []
    _record(monkeypatch, drawn)
    est = partition_refine_entropy(
        SystemSpec.shift(never_b), _cells_at(0, ("c", "a")), 4, 500, spawn_rngs(37, 1)[0]
    )
    assert all(not np.any(b.sym == 1) for b in drawn)
    assert est.value == pytest.approx(math.log(2), rel=1e-12)


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
    assert peak < 10 * 2**20


def test_long_windows_keep_the_chunk_symbol_bound(monkeypatch):
    """A window of 1,000 positions takes batches of at most
    ``CHUNK_SYMBOLS`` symbols (655 points), so a non-uniform law's
    window, column copy and flags stay under 5 MB traced, where one batch
    of all 20,000 points held about 40 MB."""
    drawn = []

    def sizes(*args, **kwargs):
        for batch in systems.sample_chunks(*args, **kwargs):
            drawn.append(len(batch))
            yield batch

    monkeypatch.setattr(entropy, "sample_chunks", sizes)
    tracemalloc.start()
    try:
        est = partition_refine_entropy(
            SystemSpec.shift(LONG), PartitionSpec.time_zero(LONG), 1000, 20_000,
            spawn_rngs(38, 1)[0],
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert systems.CHUNK_SYMBOLS // 1000 == 655
    assert drawn == [655] * 30 + [20_000 - 30 * 655]
    assert est.sample_count == 20_000
    assert abs(est.value - bernoulli_entropy(LONG)) <= 5 * est.stderr
    assert peak < 5 * 2**20


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


def _verdict(p, q) -> str:
    spec_a, spec_b = (BernoulliSpec(tuple(law), tuple(range(len(law)))) for law in (p, q))
    return entropy_classifier(spec_a, spec_b).spacial


def test_classifier_decides_entropy_equality_exactly():
    """The near-fair coin differs from the fair one by 2e-10 nats;
    Meshalkin's pair (1/4)^4 and (1/2, 1/8, 1/8, 1/8, 1/8) has equal
    entropies, log 4 both; (1/3)^3 and (1/2, 1/6, 1/6, 1/6) do not."""
    equal, unequal = "spacially isomorphic (Ornstein)", "not spacially isomorphic (entropy invariant)"
    assert _verdict((0.5, 0.5), (0.50001, 0.49999)) == unequal
    assert _verdict((0.25,) * 4, (0.5,) + (0.125,) * 4) == equal
    assert _verdict((1 / 3,) * 3, (0.5,) + (1 / 6,) * 3) == unequal
    # the same laws written as fractions, read exactly
    assert _verdict(("1/4",) * 4, ("1/2",) + ("1/8",) * 4) == equal
    assert _verdict(("1/3",) * 3, ("1/2",) + ("1/6",) * 3) == unequal
    rng = random.Random(3)
    for _ in range(50):
        p = [rng.random() + 0.01 for _ in range(rng.randint(2, 5))]
        q = [rng.random() + 0.01 for _ in range(rng.randint(2, 4))]
        p, q = [x / sum(p) for x in p], [x / sum(q) for x in q]
        assert _verdict(p, rng.sample(p, len(p))) == equal
        assert _verdict([x * y for x in p for y in q], [y * x for y in q for x in p]) == equal


@st.composite
def _laws(draw) -> list[Fraction]:
    """A law of 2-5 fractions over a denominator D <= 1,000."""
    D = draw(st.integers(2, 1000))
    cuts = draw(st.lists(st.integers(1, D - 1), min_size=1, max_size=4, unique=True))
    ends = [0, *sorted(cuts), D]
    return [Fraction(b - a, D) for a, b in zip(ends, ends[1:])]


def _entropy_60(law) -> mpmath.mpf:
    return -mpmath.fsum(x * mpmath.log(x) for x in (_mpf(p) for p in law))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_laws(), st.data())
def test_entropy_equality_agrees_with_mpmath(p, data):
    """On laws with denominators up to 1,000, against another such law or
    a permutation of the first (equal entropies), the exact decision
    agrees with a 60-digit comparison."""
    q = data.draw(st.one_of(_laws(), st.permutations(p)))
    with mpmath.workdps(60):
        close = abs(_entropy_60(p) - _entropy_60(q)) < mpmath.mpf(10) ** -50
    assert entropy._entropies_equal(p, q) == close


def test_wide_windows_keep_flat_memory():
    """A window of 10^6 positions is drawn ``SAMPLE_CHUNK`` symbols at a
    time over the flattened window, so a (0.1, 0.9) estimate at 100
    samples stays under 5 MB traced, where blocks of whole rows traced
    12.2 MB; the float draws fill the window in the same order, so the
    value and stderr are those that row blocks gave, bit for bit."""
    tracemalloc.start()
    try:
        est = partition_refine_entropy(
            SystemSpec.shift(LONG), PartitionSpec.time_zero(LONG), 10**6, 100,
            spawn_rngs(39, 1)[0],
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (est.value, est.stderr) == (0.32497669363864246, 6.347044075117429e-05)
    assert peak <= 5 * 2**20


def test_estimates_advance_their_generators_by_the_words_their_laws_need():
    """Each default ``reproduce-kolmogorov`` estimate (a fair coin and a
    uniform law on four symbols, 10^6 samples at block length 10) reads
    10^7 one-byte fields, exactly 1.25 x 10^6 generator words, and a
    (0.1, 0.9) estimate one word per symbol: each generator ends where a
    clone advanced by that many words does, so a fallback to one word
    per symbol shows without any timing."""
    config = default_config("reproduce-kolmogorov")
    assert config.samples * config.block_length == 10**7
    cases = [(spec, config.samples, config.block_length, 1_250_000)
             for spec in config.system_specs()]
    cases.append((SystemSpec.shift(LONG), 10_000, 10, 100_000))
    for spec, samples, n, words in cases:
        rng = spawn_rngs(40, 1)[0]
        clone = np.random.Generator(np.random.PCG64())
        clone.bit_generator.state = rng.bit_generator.state
        partition_refine_entropy(spec, PartitionSpec.time_zero(spec.bernoulli), n, samples, rng)
        clone.bit_generator.advance(words)
        assert rng.bit_generator.state == clone.bit_generator.state


def test_a_step_below_the_draw_resolution_needs_no_cell():
    """Draws are multiples of 2^-53, so a cumulative step of 2e-300 that
    starts past the first multiple holds none of them: symbol "b" of
    (1e-300, 2e-300, 1/2, 1/2) has the threshold of "a" and is never
    drawn, so a partition without it is complete.  The law sums to
    1 + 3e-300 and is divided by that sum, so "c" ends just past 1/2."""
    tiny = BernoulliSpec((1e-300, 2e-300, 0.5, 0.5), ("a", "b", "c", "d"))
    assert systems.symbol_thresholds(tiny) == (1, 1, 2**52 + 1, 2**53)
    est = partition_refine_entropy(
        SystemSpec.shift(tiny), _cells_at(0, ("a", "c", "d")), 4, 500, spawn_rngs(37, 1)[0]
    )
    assert est.sample_count == 500
