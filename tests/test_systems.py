"""Point transformations, batch sampling, and exact set measures.

The closed-form batch iterator is checked against the step-by-step maps
it claims to reproduce, and sampling is checked for determinism under
the seed-spawning scheme.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import (
    BernoulliSpec,
    CylinderSet,
    RotationNumber,
    SampleBatch,
    SymbolWindow,
    SystemSpec,
    TorusPoint,
    WindowError,
    cylinder_measure,
    iterate_batch,
    product_step,
    rotation_step,
    sample_batch,
    sample_chunks,
    sample_point,
    shift_step,
    skew_step,
    spawn_rngs,
    step_batch,
)
from ergolab import systems
from ergolab.systems import (
    product_step_inverse,
    rotation_step_inverse,
    shift_step_inverse,
    skew_lag,
    skew_step_inverse,
)

from helpers import GAMMA, UNIFORM4, four_systems

units = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


# ---------------------------------------------------------------------------
# one-step maps and their inverses
# ---------------------------------------------------------------------------


@given(units)
def test_rotation_step_inverse(u):
    v = rotation_step(u, GAMMA)
    assert 0 <= v < 1
    assert math.isclose(
        rotation_step_inverse(v, GAMMA), u, abs_tol=1e-12
    ) or math.isclose(abs(rotation_step_inverse(v, GAMMA) - u), 1.0, abs_tol=1e-12)


@given(units, units)
def test_skew_step_and_inverse(u, v):
    p = skew_step(TorusPoint(u, v), GAMMA)
    assert math.isclose(p.v, (v + u) % 1.0, abs_tol=1e-12)
    back = skew_step_inverse(p, GAMMA)
    for got, want in ((back.u, u), (back.v, v)):
        assert math.isclose(got, want, abs_tol=1e-12) or math.isclose(
            abs(got - want), 1.0, abs_tol=1e-12
        )


def test_shift_moves_the_anchor_only():
    w = SymbolWindow(anchor=-2, symbols=(1, -1, -1, 1, 1))
    s = shift_step(w)
    assert s.symbols is w.symbols and s.anchor == w.anchor - 1
    # (Rw)_i = w_{i+1}: reading position p after the shift sees p+1 before.
    for p in range(-3, 2):
        assert s.symbol_at(p) == w.symbol_at(p + 1)
    assert shift_step_inverse(s) == w
    with pytest.raises(WindowError):
        s.symbol_at(5)


@given(units)
def test_product_step_components(u):
    w = SymbolWindow(0, (1, -1, 1))
    nu, nw = product_step((u, w), GAMMA)
    assert nu == rotation_step(u, GAMMA)
    assert nw == shift_step(w)
    bu, bw = product_step_inverse((nu, nw), GAMMA)
    assert bw == w


# ---------------------------------------------------------------------------
# closed-form iteration
# ---------------------------------------------------------------------------


@given(st.integers(-60, 60))
def test_skew_lag_is_exact(i):
    gi, ci = skew_lag(i, GAMMA)
    assert math.isclose(gi, float(GAMMA.frac_multiple(i).approx_float()), abs_tol=1e-12)
    binom = i * (i - 1) // 2
    assert math.isclose(
        ci, float(GAMMA.frac_multiple(binom).approx_float()), abs_tol=1e-12
    )


@pytest.mark.parametrize("spec", four_systems(), ids=lambda s: s.kind)
def test_iterate_batch_matches_stepping(spec):
    rng = spawn_rngs(11, 1)[0]
    batch = sample_batch(spec, rng, 64, positions=range(-8, 9))
    stepped = batch
    for i in range(1, 6):
        stepped = step_batch(stepped)
        direct = iterate_batch(batch, i)
        assert direct.anchor == stepped.anchor
        if batch.u is not None:
            # wrap-around makes the distance circle-valued
            d = np.abs(direct.u - stepped.u)
            assert np.minimum(d, 1 - d).max() < 1e-9
        if batch.v is not None:
            d = np.abs(direct.v - stepped.v)
            assert np.minimum(d, 1 - d).max() < 1e-9
        if batch.sym is not None:
            assert np.array_equal(direct.sym, stepped.sym)


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


def test_sample_point_shapes():
    rng = spawn_rngs(6, 1)[0]
    u = sample_point(SystemSpec.rotation(GAMMA), rng)
    assert 0 <= u < 1
    p = sample_point(SystemSpec.skew(GAMMA), rng)
    assert 0 <= p.u < 1 and 0 <= p.v < 1
    w = sample_point(SystemSpec.shift(BernoulliSpec.fair_coin()), rng)
    assert isinstance(w, SymbolWindow) and w.covers(0)
    u, w = sample_point(SystemSpec.product(GAMMA, BernoulliSpec.fair_coin()), rng)
    assert 0 <= u < 1 and w.covers(0)


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
    assert cylinder_measure(fair, CylinderSet()) == 1.0
    one = CylinderSet(((0, 1),))
    assert cylinder_measure(fair, one) == 0.5
    two = CylinderSet(((0, 1), (3, -1)))
    assert cylinder_measure(fair, two) == 0.25
    assert cylinder_measure(UNIFORM4, CylinderSet(((5, 2),))) == 0.25


@given(st.integers(-20, 20))
def test_cylinder_measure_is_shift_invariant(offset):
    fair = BernoulliSpec.fair_coin()
    cyl = CylinderSet(((0, 1), (2, -1)))
    assert cylinder_measure(fair, cyl.translate(offset)) == cylinder_measure(fair, cyl)


def test_cylinder_rejects_duplicate_positions():
    with pytest.raises(ValueError):
        CylinderSet(((0, 1), (0, -1)))
    # positions are kept sorted regardless of input order
    c = CylinderSet(((3, 1), (-1, -1)))
    assert c.positions == (-1, 3)
