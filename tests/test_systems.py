"""Batches of points, their closed-form iteration, sampling, and the
cylinder-set algebra.

A point is a one-row ``SampleBatch``.  The closed-form iterator is
checked against a test-local one-step map applied step by step, and
against itself run backwards (negative lags invert); sampling is
checked for determinism under the seed-spawning scheme.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ergolab import (
    BernoulliSpec,
    CylinderSet,
    SampleBatch,
    SystemSpec,
    WindowError,
    iterate_batch,
    sample_batch,
    sample_chunks,
    spawn_rngs,
)
from ergolab import systems

from helpers import (
    GAMMA,
    UNIFORM4,
    drawn_symbols,
    exact_thresholds,
    field_width,
    four_systems,
)


# ---------------------------------------------------------------------------
# closed-form iteration
# ---------------------------------------------------------------------------


@given(st.integers(-60, 60))
def test_skew_iterates_are_exact_at_the_origin(i):
    """S^i(0, 0) = (frac(i gamma), frac(C(i,2) gamma)), each reduced
    exactly before it becomes a float."""
    origin = SampleBatch(spec=SystemSpec.skew(GAMMA), u=np.zeros(1), v=np.zeros(1))
    moved = iterate_batch(origin, i)
    assert math.isclose(moved.u[0], float(GAMMA.frac_multiple(i)), abs_tol=1e-12)
    assert math.isclose(moved.v[0], float(GAMMA.frac_multiple(i * (i - 1) // 2)), abs_tol=1e-12)


def _assert_same_points(got: SampleBatch, want: SampleBatch, tol: float) -> None:
    assert got.anchor == want.anchor
    for name in ("u", "v"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None)
        if a is not None:
            # wrap-around makes the distance circle-valued
            d = np.abs(a - b) % 1.0
            assert np.minimum(d, 1 - d).max() < tol, name
    assert got.sym is want.sym


def _one_step(batch: SampleBatch) -> SampleBatch:
    """S applied once by its definition: u + gamma, v + u (mod 1) on
    floats, and the shift as anchor - 1."""
    spec = batch.spec
    gamma = float(spec.gamma.exact) if spec.gamma is not None else None
    u = None if batch.u is None else (batch.u + gamma) % 1.0
    v = None if batch.v is None else (batch.v + batch.u) % 1.0
    anchor = batch.anchor - 1 if batch.sym is not None else batch.anchor
    return SampleBatch(spec=spec, u=u, v=v, sym=batch.sym, anchor=anchor)


@pytest.mark.parametrize("spec", four_systems(), ids=lambda s: s.kind)
def test_iterate_batch_matches_stepping(spec):
    batch = sample_batch(spec, spawn_rngs(11, 1)[0], 64, positions=range(-8, 9))
    stepped = batch
    for i in range(1, 6):
        stepped = _one_step(stepped)
        _assert_same_points(iterate_batch(batch, i), stepped, 1e-12)


@pytest.mark.parametrize("spec", four_systems(), ids=lambda s: s.kind)
def test_negative_lags_invert(spec):
    batch = sample_batch(spec, spawn_rngs(16, 1)[0], 64, positions=range(-8, 9))
    for i in range(-7, 8):
        _assert_same_points(iterate_batch(iterate_batch(batch, i), -i), batch, 1e-12)
        _assert_same_points(iterate_batch(iterate_batch(batch, -i), i), batch, 1e-12)


@pytest.mark.parametrize("spec", four_systems(), ids=lambda s: s.kind)
def test_iterate_batch_is_additive(spec):
    rng = spawn_rngs(12, 1)[0]
    batch = sample_batch(spec, rng, 32, positions=range(-10, 11))
    two_hops = iterate_batch(iterate_batch(batch, 3), 4)
    one_hop = iterate_batch(batch, 7)
    assert two_hops.anchor == one_hop.anchor
    if batch.u is not None:
        d = np.abs(two_hops.u - one_hop.u)
        assert np.minimum(d, 1 - d).max() < 1e-9
    if batch.v is not None:
        d = np.abs(two_hops.v - one_hop.v)
        assert np.minimum(d, 1 - d).max() < 1e-9


def test_shift_moves_the_anchor_only():
    spec = SystemSpec.shift(BernoulliSpec.fair_coin())
    point = sample_batch(spec, spawn_rngs(17, 1)[0], 1, positions=range(-2, 3))
    assert len(point) == 1
    moved = iterate_batch(point, 1)
    assert moved.sym is point.sym and moved.anchor == point.anchor - 1
    # (Rw)_i = w_{i+1}: reading position p after the shift sees p+1 before.
    for p in range(-3, 2):
        assert moved.symbol_indices_at(p) == point.symbol_indices_at(p + 1)
    assert iterate_batch(moved, -1).anchor == point.anchor
    with pytest.raises(WindowError):
        moved.symbol_indices_at(2)


def test_symbol_indices_follow_the_anchor():
    spec = SystemSpec.shift(BernoulliSpec.fair_coin())
    rng = spawn_rngs(13, 1)[0]
    batch = sample_batch(spec, rng, 16, positions=range(-4, 5))
    moved = iterate_batch(batch, 3)
    # the symbol seen at position p after 3 steps sat at p + 3 before
    assert np.array_equal(moved.symbol_indices_at(-4), batch.symbol_indices_at(-1))
    with pytest.raises(WindowError):
        moved.symbol_indices_at(4)  # drifted outside the stored window


@pytest.mark.parametrize("spec", four_systems()[2:], ids=lambda s: s.kind)
def test_restricted_positions_are_the_only_stored_symbols(spec):
    batch = sample_batch(spec, spawn_rngs(14, 1)[0], 50, positions=range(3, 13))
    assert batch.sym.dtype == np.uint8 and batch.sym.shape == (50, 10)
    assert batch.anchor == 3
    for position in (3, 12):
        assert batch.symbol_indices_at(position).shape == (50,)
    for position in (2, 13, -3):
        with pytest.raises(WindowError):
            batch.symbol_indices_at(position)
    moved = iterate_batch(batch, 3)
    assert np.array_equal(moved.symbol_indices_at(0), batch.symbol_indices_at(3))
    with pytest.raises(WindowError):
        moved.symbol_indices_at(10)  # position 13 was never drawn
    with pytest.raises(ValueError):
        sample_batch(spec, spawn_rngs(14, 1)[0], 5, positions=range(0, 10, 2))


def test_chunks_draw_in_sequence_from_one_generator(monkeypatch):
    monkeypatch.setattr(systems, "SAMPLE_CHUNK", 40)
    spec = SystemSpec.product(GAMMA, UNIFORM4)
    rng, replay = spawn_rngs(15, 1)[0], spawn_rngs(15, 1)[0]
    sizes = []
    # a batch is valid until the next one is drawn, so each is checked as it comes
    for chunk in sample_chunks(spec, rng, 125, range(-2, 3)):
        sizes.append(len(chunk))
        again = sample_batch(spec, replay, len(chunk), positions=range(-2, 3))
        assert np.array_equal(chunk.u, again.u) and np.array_equal(chunk.sym, again.sym)
    assert sizes == [40, 40, 40, 5]
    assert list(sample_chunks(spec, rng, 0, range(0))) == []


# ---------------------------------------------------------------------------
# sampling determinism
# ---------------------------------------------------------------------------


def test_spawned_rngs_are_reproducible_and_distinct():
    a = spawn_rngs(42, 3)
    b = spawn_rngs(42, 3)
    draws_a = [r.random(4).tolist() for r in a]
    draws_b = [r.random(4).tolist() for r in b]
    assert draws_a == draws_b
    assert draws_a[0] != draws_a[1] != draws_a[2]


@pytest.mark.parametrize("spec", four_systems(), ids=lambda s: s.kind)
def test_sample_batch_is_seed_deterministic(spec):
    x = sample_batch(spec, spawn_rngs(5, 1)[0], 100)
    y = sample_batch(spec, spawn_rngs(5, 1)[0], 100)
    for a, b in ((x.u, y.u), (x.v, y.v), (x.sym, y.sym)):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a, b)
    assert len(x) == 100


HALF, EPS30 = Fraction(1, 2), Fraction(1, 2**30)


def _random_law(k: int) -> BernoulliSpec:
    weights = np.random.default_rng(k).random(k) + 0.1
    return BernoulliSpec(tuple(weights / weights.sum()), tuple(range(k)))


LAWS = {
    "fair": BernoulliSpec.fair_coin(),
    "0.1-0.9": BernoulliSpec((0.1, 0.9)),
    "three": BernoulliSpec((0.2, 0.3, 0.5), (0, 1, 2)),
    "uniform4": UNIFORM4,
    "dyadic5": BernoulliSpec((0.5, 0.25, 0.125, 0.0625, 0.0625), tuple(range(5))),
    "16-bit": BernoulliSpec((0.5 + 2**-12, 0.5 - 2**-12)),
    # written as fractions: 0.5 + 2^-30 prints as 0.5000000009313226,
    # and a float is read by its shortest repr
    "32-bit": BernoulliSpec((HALF + EPS30, "1/4", Fraction(1, 4) - EPS30), (0, 1, 2)),
    # cuts whose lowest set bit needs exactly 8, 16 and 32 bits
    **{f"exactly {w}-bit": BernoulliSpec((HALF + Fraction(1, 2**w), HALF - Fraction(1, 2**w)))
       for w in (8, 16, 32)},
    "256": _random_law(256),
    "300": _random_law(300),  # indices past 255 take uint16 windows
}
#: The field each law draws a symbol from, in bits; 64 is a whole word.
WIDTHS = {"fair": 8, "0.1-0.9": 64, "three": 64, "uniform4": 8, "dyadic5": 8,
          "16-bit": 16, "32-bit": 32, "exactly 8-bit": 8, "exactly 16-bit": 16,
          "exactly 32-bit": 32, "256": 64, "300": 64}
# the last cumulative entry before the end is 1: symbol 2 is never drawn
EDGE = BernoulliSpec((0.5, 0.5, 1e-300), (0, 1, 2))


class RecordingRng:
    """Passes draws on to a generator and records each one, as
    ("random", size) for ``random`` and ("raw", words) for
    ``bit_generator.random_raw``."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.calls, self.bit_generator = rng, [], self

    def random(self, size=None, out=None):
        self.calls.append(("random", size if out is None else out.size))
        return self.rng.random(size, out=out)

    def random_raw(self, size):
        self.calls.append(("raw", size))
        return self.rng.bit_generator.random_raw(size)


class Fields:
    """A generator stand-in whose raw words hold the given fields."""

    def __init__(self, fields: np.ndarray):
        self.words, self.bit_generator = fields.view(np.uint64), self

    def random_raw(self, words):
        assert words == len(self.words)
        return self.words


def _symbol_draws(bern: BernoulliSpec, symbols: int, chunk: int) -> list:
    """The draws of a window of ``symbols`` symbols in blocks of at most
    ``chunk``: ceil(m W / 64) words for m W-bit fields."""
    w = field_width(bern)
    sizes = [min(chunk, symbols - start) for start in range(0, symbols, chunk)]
    return [("raw", -(-m * w // 64)) for m in sizes]


@pytest.mark.parametrize("law", [*LAWS, "edge"])
def test_each_law_draws_from_the_field_its_thresholds_need(law):
    """Every field value is drawn exactly as often as the float
    comparison draws its symbol: over all 2^W values of a W-bit field (W
    <= 16), symbol i takes (t_i - t_{i-1}) >> (53 - W) of them, t the
    thresholds ceil(c_i 2^53) of the cumulative law.  The never-drawn
    last symbol of ``EDGE`` stays never drawn."""
    bern = EDGE if law == "edge" else LAWS[law]
    w = field_width(bern)
    assert w == (8 if law == "edge" else WIDTHS[law])
    assert systems.symbol_thresholds(bern) == tuple(exact_thresholds(bern))
    assert systems._buffers(SystemSpec.shift(bern), 1, 1).field.itemsize * 8 == w
    if w > 16:
        return
    every = Fields(np.arange(2**w, dtype=f"u{w // 8}"))
    batch = sample_batch(SystemSpec.shift(bern), every, 2**w, positions=range(1))
    thresholds = [0, *exact_thresholds(bern)]
    counts = [(b - a) >> (53 - w) for a, b in zip(thresholds, thresholds[1:])]
    assert np.bincount(batch.sym[:, 0], minlength=len(counts)).tolist() == counts


@pytest.mark.parametrize("kind", ["bernoulli", "product"])
@pytest.mark.parametrize("law", list(LAWS))
def test_sample_batch_draws_what_choice_draws(law, kind, monkeypatch):
    """A law of more than 32 bits compares uniform draws with the
    cumulative law: the symbols of ``Generator.choice``.  A law of at
    most 32 bits reads W-bit fields of raw words: the symbols a
    plain-Python decoding of the same words gives.  Either way the
    generator ends in the oracle's state.  Index 255 of a 256-symbol law
    still fits the uint8 array, and a 300-symbol law draws into uint16.
    The same holds when ``SAMPLE_CHUNK`` splits the flattened window
    into many blocks ending on a partial one, when a row is wider than
    ``SAMPLE_CHUNK``, and for a window of no positions."""
    bern = LAWS[law]
    spec = SystemSpec.shift(bern) if kind == "bernoulli" else SystemSpec.product(GAMMA, bern)
    k = len(bern.probs)
    cases = [  # (SAMPLE_CHUNK, points, positions, blocks drawn)
        (systems.SAMPLE_CHUNK, 3_000, range(-3, 4), 1),
        (50, 3_000, range(-3, 4), 420),  # 21,000 symbols in blocks of 50
        (50, 301, range(-30, 30), 362),  # 18,060: 361 blocks of 50, then 10
        (50, 3_000, range(0), 0),
    ]
    for chunk, n, positions, blocks in cases:
        monkeypatch.setattr(systems, "SAMPLE_CHUNK", chunk)
        rng, oracle = RecordingRng(spawn_rngs(16, 1)[0]), spawn_rngs(16, 1)[0]
        batch = sample_batch(spec, rng, n, positions=positions)
        coordinates = []
        if kind == "product":
            assert np.array_equal(batch.u, oracle.random(n))
            coordinates = [("random", n)]
        width = len(positions)
        expected = drawn_symbols(bern, oracle, (n, width), chunk)
        assert batch.sym.dtype == expected.dtype == np.min_scalar_type(k - 1)
        assert np.array_equal(batch.sym, expected)
        if width:
            assert np.array_equal(np.unique(batch.sym), np.arange(k))
        assert rng.calls == coordinates + _symbol_draws(bern, n * width, chunk)
        assert len(rng.calls) == len(coordinates) + blocks
        assert rng.rng.bit_generator.state == oracle.bit_generator.state


STREAM_CASES = {
    "rotation": SystemSpec.rotation(GAMMA),
    "skew": SystemSpec.skew(GAMMA),
    **{f"bernoulli {law}": SystemSpec.shift(bern) for law, bern in LAWS.items()},
    **{f"product {law}": SystemSpec.product(GAMMA, bern) for law, bern in LAWS.items()},
}


@pytest.mark.parametrize("case", list(STREAM_CASES))
def test_streams_draw_what_fresh_batches_draw(case, monkeypatch):
    """A stream refills one set of buffers for every batch and draws what
    drawing each batch afresh did: ``u``, ``v`` and the symbols (as the
    law's oracle draws them), chunk by chunk, and the generator's state
    afterwards.  ``SAMPLE_CHUNK`` = 50 splits 301 points into six chunks
    and a partial one; a chunk's window of 350 (7 wide) or 3,000 (60
    wide) symbols is drawn in blocks of 50, and the last point's in one
    block of 7, or in one of 50 and one of 10.  Consecutive batches
    share their storage."""
    spec = STREAM_CASES[case]
    monkeypatch.setattr(systems, "SAMPLE_CHUNK", 50)
    coordinates = (spec.kind != "bernoulli") + (spec.kind == "skew")
    for positions, blocks in ((range(-3, 4), 6 * 7 + 1), (range(-30, 30), 6 * 60 + 2),
                              (range(0), 0)):
        rng, oracle = RecordingRng(spawn_rngs(17, 1)[0]), spawn_rngs(17, 1)[0]
        sizes, previous, calls = [], None, []
        for batch in sample_chunks(spec, rng, 301, positions):
            m = len(batch)
            sizes.append(m)
            calls += [("random", m)] * coordinates
            for name in ("u", "v"):
                drawn = getattr(batch, name)
                expected = oracle.random(m) if drawn is not None else None
                assert (drawn is None) == (expected is None)
                if drawn is not None:
                    assert np.array_equal(drawn, expected)
            if spec.bernoulli is None:
                assert batch.sym is None
            else:
                shape = (m, len(positions))
                expected = drawn_symbols(spec.bernoulli, oracle, shape, 50)
                assert batch.sym.dtype == expected.dtype
                assert np.array_equal(batch.sym, expected)
                assert batch.anchor == positions.start
                calls += _symbol_draws(spec.bernoulli, m * len(positions), 50)
            if previous is not None:
                for name in ("u", "v", "sym"):
                    now, before = getattr(batch, name), getattr(previous, name)
                    if now is not None and now.size:
                        assert np.shares_memory(now, before)
            previous = batch
        assert sizes == [50] * 6 + [1]
        assert rng.calls == calls
        if spec.bernoulli is not None:
            assert len(calls) == 7 * coordinates + blocks
        assert rng.rng.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("case", ["rotation", "bernoulli three", "product three"])
def test_a_batch_that_its_buffers_cannot_hold_is_refused(case):
    """Buffers fill a batch of at most their points and exactly their
    width; a larger batch or another width is refused, not cut short."""
    spec, rng = STREAM_CASES[case], spawn_rngs(18, 1)[0]
    buffers = systems._buffers(spec, 10, 7)
    assert len(sample_batch(spec, rng, 10, range(-3, 4), buffers)) == 10
    with pytest.raises(ValueError):
        sample_batch(spec, rng, 11, range(-3, 4), buffers)
    with pytest.raises(ValueError):
        sample_batch(spec, rng, 10, range(-3, 5), buffers)


def test_a_draw_on_a_cumulative_entry_takes_the_next_symbol():
    """A law of more than 32 bits compares whole words with the cuts t_i
    << 11, the least words whose float u = (raw >> 11) 2^-53 reaches the
    cumulative entry c_i: a word on a cut counts it, the word just below
    does not, and each symbol is the count of entries <= u, as
    ``searchsorted(u, side="right")`` counts them."""
    bern = LAWS["three"]
    cuts = [t << 11 for t in exact_thresholds(bern)[:-1]]
    words = np.array([0, *cuts, *(c - 1 for c in cuts), 2**64 - 1], dtype=np.uint64)
    batch = sample_batch(SystemSpec.shift(bern), Fields(words), len(words), positions=range(1))
    assert batch.sym[:, 0].tolist() == [0, 1, 2, 0, 1, 2]
    cdf = np.cumsum(bern.probs)
    cdf /= cdf[-1]
    floats = (words >> np.uint64(11)).astype(float) * 2.0**-53
    assert np.searchsorted(cdf[:-1], floats, side="right").tolist() == [0, 1, 2, 0, 1, 2]


def test_a_field_on_a_cut_takes_the_next_symbol():
    """The raw-word twin: a field equal to a cut t_i >> (53 - W) counts
    it, and the field just below does not."""
    bern = LAWS["dyadic5"]
    cuts = [t >> (53 - 8) for t in exact_thresholds(bern)[:-1]]
    assert cuts == [128, 192, 224, 240]
    fields = np.array([0, *cuts, *(c - 1 for c in cuts), 255, *[0] * 6], dtype=np.uint8)
    batch = sample_batch(SystemSpec.shift(bern), Fields(fields), 10, positions=range(1))
    assert batch.sym[:, 0].tolist() == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4]


def test_a_law_whose_first_entry_is_one_draws_only_its_first_symbol():
    """(1 - 2^-53, 1e-300) puts every threshold at 2^53, so no field has
    a cut to compare with: the law still takes a whole word a symbol,
    and never draws its second symbol."""
    bern = BernoulliSpec((1 - 2**-53, 1e-300))
    assert systems.symbol_thresholds(bern) == (2**53, 2**53)
    buffers = systems._buffers(SystemSpec.shift(bern), 1, 1)
    assert buffers.field == np.uint64 and buffers.cuts == ()
    rng, clone = spawn_rngs(19, 1)[0], spawn_rngs(19, 1)[0]
    batch = sample_batch(SystemSpec.shift(bern), rng, 100, positions=range(10))
    assert not batch.sym.any()
    clone.bit_generator.advance(1_000)
    assert rng.bit_generator.state == clone.bit_generator.state


def test_sample_point_shapes():
    """A point is a one-row batch with the coordinates of its system."""
    rng = spawn_rngs(6, 1)[0]
    rot, skew, shift, prod = (sample_batch(s, rng, 1) for s in four_systems())
    assert len(rot) == 1 and 0 <= rot.u[0] < 1 and rot.v is None and rot.sym is None
    assert 0 <= skew.u[0] < 1 and 0 <= skew.v[0] < 1 and skew.sym is None
    assert shift.u is None and shift.sym.shape == (1, 17)
    assert 0 <= prod.u[0] < 1 and prod.v is None
    for point in (shift, prod):
        assert point.symbol_indices_at(0).shape == (1,)


# ---------------------------------------------------------------------------
# specs, labels, serialization
# ---------------------------------------------------------------------------


def test_bernoulli_spec_validation():
    with pytest.raises(ValueError):
        BernoulliSpec((0.5, 0.6), (0, 1))  # does not sum to 1
    with pytest.raises(ValueError):
        BernoulliSpec((1.0, 0.0), (0, 1))  # degenerate symbol
    for probs in [(0.0, 0.5, 0.5), (0.5, 0.0, 0.5)]:  # a symbol never drawn
        with pytest.raises(ValueError, match=r"^every probability must lie strictly in"):
            BernoulliSpec(probs, (0, 1, 2))
    with pytest.raises(ValueError):
        BernoulliSpec((0.5, 0.5), (7, 7))  # duplicate symbols
    fair = BernoulliSpec.fair_coin()
    assert fair.prob_of(fair.symbols[0]) == 0.5
    assert fair.index_of(fair.symbols[1]) == 1
    with pytest.raises(ValueError):
        fair.index_of("missing")


def test_a_law_is_read_once_as_exact_fractions():
    """A float is read by its shortest repr and a string or Fraction
    exactly; a law that misses 1 by at most 1e-12 is divided by its sum.
    A weight is written back as its float where that float reads back
    to it, and as "p/q" otherwise, in JSON and in the label alike."""
    third = BernoulliSpec(("1/3", Fraction(1, 3), "2/6"), (0, 1, 2))
    assert third.probs == (Fraction(1, 3),) * 3
    assert BernoulliSpec((1 / 3,) * 3, (0, 1, 2)) == third
    assert BernoulliSpec((0.1, "0.9")).probs == (Fraction(1, 10), Fraction(9, 10))
    assert third.to_json()["probs"] == ["1/3"] * 3
    assert BernoulliSpec.fair_coin().to_json()["probs"] == [0.5, 0.5]
    spec = SystemSpec.shift(BernoulliSpec(("1/2", 0.1, "1/5", "1/7", "2/35"), tuple(range(5))))
    assert spec.to_json()["probs"] == [0.5, 0.1, 0.2, "1/7", "2/35"]
    assert spec.label() == "bernoulli p=0.5,0.1,0.2,1/7,2/35"
    assert SystemSpec.from_json(spec.to_json()) == spec
    assert SystemSpec.shift(third).label() == "bernoulli p=1/3,1/3,1/3"
    for bad in ("abc", "1/0", float("nan"), float("inf"), None):
        with pytest.raises(ValueError, match="^a probability must be a finite number or fraction"):
            BernoulliSpec((bad, 0.5))
    with pytest.raises(ValueError, match="^probabilities sum to"):
        BernoulliSpec(("1/3", "2/3", "1e-11"), (0, 1, 2))


def test_a_law_that_misses_1_by_exactly_the_tolerance_is_admitted():
    """The tolerance is inclusive: a law that sums to exactly
    1 + Fraction(1e-12), the float 1e-12's binary value, is divided by its
    sum, and any more is refused."""
    heavy = str(Fraction(1, 2) + Fraction(1e-12))  # one "p/q" string
    law = BernoulliSpec(("1/2", heavy))
    assert sum(law.probs) == 1 and law.probs[0] == Fraction(1, 2) / (1 + Fraction(1e-12))
    with pytest.raises(ValueError, match="^probabilities sum to .*, not 1$"):
        BernoulliSpec(("1/2", heavy, Fraction(1, 10**30)), (0, 1, 2))


def test_system_spec_validation_and_labels():
    with pytest.raises(ValueError):
        SystemSpec(kind="rotation", gamma=None)
    with pytest.raises(ValueError):
        SystemSpec(kind="bernoulli", gamma=GAMMA)
    labels = {s.label() for s in four_systems()}
    assert len(labels) == 4


@pytest.mark.parametrize("spec", four_systems(), ids=lambda s: s.kind)
def test_system_spec_json_round_trip(spec):
    assert SystemSpec.from_json(spec.to_json()) == spec


# ---------------------------------------------------------------------------
# cylinder sets and their measures
# ---------------------------------------------------------------------------


def test_cylinder_measure_is_a_product():
    fair = BernoulliSpec.fair_coin()
    assert CylinderSet().measure(fair) == 1
    one = CylinderSet(((0, 1),))
    assert one.measure(fair) == Fraction(1, 2)
    two = CylinderSet(((0, 1), (3, -1)))
    assert two.measure(fair) == Fraction(1, 4)
    assert CylinderSet(((5, 2),)).measure(UNIFORM4) == Fraction(1, 4)
    # a float probability enters by its shortest repr, so 0.1 is 1/10
    biased = BernoulliSpec((0.1, 0.9), ("a", "b"))
    assert CylinderSet(((0, "a"),)).measure(biased) == Fraction(1, 10)
    cyl = CylinderSet(((0, "a"), (1, "a"), (4, "b")))
    assert cyl.measure(biased) == Fraction(1, 10) ** 2 * Fraction(9, 10)
    # the one-symbol cylinders of a law are a partition of measure 1
    law = BernoulliSpec((0.1, 0.2, 0.7), (0, 1, 2))
    assert sum(CylinderSet(((0, s),)).measure(law) for s in law.symbols) == 1


@given(st.integers(-20, 20))
def test_cylinder_measure_is_shift_invariant(offset):
    fair = BernoulliSpec.fair_coin()
    cyl = CylinderSet(((0, 1), (2, -1)))
    assert cyl.translate(offset).measure(fair) == cyl.measure(fair)


@given(
    st.dictionaries(st.integers(-50, 50), st.sampled_from([1, -1, "a"]), max_size=12),
    st.integers(-100, 100),
)
def test_translate_equals_the_validated_constructor(constraints, offset):
    """translate moves every position by the offset: it equals what the
    constructor makes of the moved constraints, field for field and by
    hash."""
    cyl = CylinderSet(tuple(constraints.items()))
    moved = cyl.translate(offset)
    built = CylinderSet(tuple((p + offset, s) for p, s in constraints.items()))
    assert moved == built and hash(moved) == hash(built)
    assert moved.constraints == built.constraints
    assert moved.positions == tuple(sorted(p + offset for p in constraints))


def test_cylinder_merge_intersects_or_reports_a_clash():
    first = CylinderSet(((0, 1), (2, -1)))
    assert first.merge(CylinderSet()) == first
    assert first.merge(CylinderSet(((2, -1), (5, 1)))) == CylinderSet(
        ((0, 1), (2, -1), (5, 1))
    )
    # a clash on position 2 makes the sets disjoint
    assert first.merge(CylinderSet(((2, 1),))) is None
    assert CylinderSet(((2, 1),)).merge(first) is None
    fair = BernoulliSpec.fair_coin()
    assert first.merge(first.translate(2)) is None
    assert first.merge(first.translate(3)).measure(fair) == Fraction(1, 16)


def test_cylinder_rejects_duplicate_positions():
    with pytest.raises(ValueError):
        CylinderSet(((0, 1), (0, -1)))
    # positions are kept sorted regardless of input order
    c = CylinderSet(((3, 1), (-1, -1)))
    assert c.positions == (-1, 3)
