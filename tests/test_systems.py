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
from ergolab.systems import skew_lag

from helpers import GAMMA, UNIFORM4, choice_symbols, four_systems


# ---------------------------------------------------------------------------
# closed-form iteration
# ---------------------------------------------------------------------------


@given(st.integers(-60, 60))
def test_skew_lag_is_exact(i):
    gi, ci = skew_lag(i, GAMMA)
    assert math.isclose(gi, float(GAMMA.frac_multiple(i)), abs_tol=1e-12)
    binom = i * (i - 1) // 2
    assert math.isclose(
        ci, float(GAMMA.frac_multiple(binom)), abs_tol=1e-12
    )


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
    gamma = spec.gamma.to_float() if spec.gamma is not None else None
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
    rng = spawn_rngs(15, 1)[0]
    chunks = list(sample_chunks(spec, rng, 125, range(-2, 3)))
    assert [len(c) for c in chunks] == [40, 40, 40, 5]
    replay = spawn_rngs(15, 1)[0]
    for chunk in chunks:
        again = sample_batch(spec, replay, len(chunk), positions=range(-2, 3))
        assert np.array_equal(chunk.u, again.u) and np.array_equal(chunk.sym, again.sym)
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


def _law_256() -> BernoulliSpec:
    weights = np.random.default_rng(256).random(256) + 0.1
    return BernoulliSpec(tuple(weights / weights.sum()), tuple(range(256)))


LAWS = {
    "fair": BernoulliSpec.fair_coin(),
    "0.1-0.9": BernoulliSpec((0.1, 0.9)),
    "three": BernoulliSpec((0.2, 0.3, 0.5), (0, 1, 2)),
    "uniform4": UNIFORM4,
    "dyadic5": BernoulliSpec((0.5, 0.25, 0.125, 0.0625, 0.0625), tuple(range(5))),
    "256": _law_256(),
}


@pytest.mark.parametrize("kind", ["bernoulli", "product"])
@pytest.mark.parametrize("law", list(LAWS))
def test_sample_batch_draws_what_choice_draws(law, kind):
    """Comparing uniform draws with the cumulative law gives the symbols
    of ``Generator.choice`` and leaves the generator in the same state;
    index 255 of a 256-symbol law still fits the uint8 array."""
    bern = LAWS[law]
    spec = SystemSpec.shift(bern) if kind == "bernoulli" else SystemSpec.product(GAMMA, bern)
    rng, oracle = spawn_rngs(16, 1)[0], spawn_rngs(16, 1)[0]
    batch = sample_batch(spec, rng, 3_000, positions=range(-3, 4))
    if kind == "product":
        assert np.array_equal(batch.u, oracle.random(3_000))
    expected = choice_symbols(bern, oracle, (3_000, 7))
    k = len(bern.probs)
    assert batch.sym.dtype == expected.dtype == np.min_scalar_type(k - 1)
    assert np.array_equal(batch.sym, expected)
    assert np.array_equal(np.unique(batch.sym), np.arange(k))
    assert rng.random() == oracle.random()


def test_a_draw_on_a_cumulative_entry_takes_the_next_symbol():
    """u equal to an entry of the cumulative law counts it, as
    ``searchsorted(u, side="right")`` does; the float just below does not."""
    bern = LAWS["three"]
    cdf = np.cumsum(bern.probs)
    cdf /= cdf[-1]
    draws = np.array([0.0, *cdf[:-1], *np.nextafter(cdf[:-1], 0), np.nextafter(1.0, 0)])

    class Replay:
        def random(self, shape):
            return draws.reshape(shape)

    batch = sample_batch(SystemSpec.shift(bern), Replay(), len(draws), positions=range(1))
    assert batch.sym[:, 0].tolist() == [0, 1, 2, 0, 1, 2]


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
    with pytest.raises(ValueError):
        BernoulliSpec((0.5, 0.5), (7, 7))  # duplicate symbols
    fair = BernoulliSpec.fair_coin()
    assert fair.prob_of(fair.symbols[0]) == 0.5
    assert fair.index_of(fair.symbols[1]) == 1
    with pytest.raises(ValueError):
        fair.index_of("missing")


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
    # probabilities enter by their exact binary values, with no rounding
    biased = BernoulliSpec((0.1, 0.9), ("a", "b"))
    cyl = CylinderSet(((0, "a"), (1, "a"), (4, "b")))
    assert cyl.measure(biased) == Fraction(0.1) ** 2 * Fraction(0.9)


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
    """translate builds its result without the constructor's sort and
    checks; it must equal what the constructor makes of the moved
    constraints, field for field and by hash."""
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
