"""Symbolic composition operators: the Koopman table, phases, bases,
spectra, pairings.

Phases are exact objects (rational turn + integer multiple of the
angle); every identity here is checked symbolically first and only then
numerically against complex exponentials.  The array-based intertwiner
is checked against the dict-based oracle in ``intertwiner_oracle.py``,
and its check is shown to fail when one entry of the table it applies
is wrong.
"""

from __future__ import annotations

import cmath
import copy
import dataclasses
import math
import tracemalloc
from collections.abc import Mapping, MutableMapping
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import (
    CHAIN_BOXES,
    KOOPMAN_TABLE,
    BernoulliSpec,
    GroupComparison,
    IncompatibleSpectraError,
    IntertwinerCheck,
    RotationNumber,
    SpectrumDescriptor,
    SystemSpec,
    build_intertwiner,
    decide_finite_orbits,
    is_one_simple,
    koopman_step,
    point_spectrum_groups_equal,
    spectrum_of,
    verify_intertwiner,
)
from ergolab import koopman
from ergolab.cli import MAX_INTERTWINER_PAIRS
from ergolab.koopman import _normalizing_exponent

from helpers import (
    BENCH_ANGLES,
    GAMMA,
    UNIFORM4,
    four_systems,
    product_index_map_injective,
    skew_index_map_injective,
)
from exact_oracle import bounded_group_relation, bounded_one_simple
from intertwiner_oracle import Phase, oracle_check, oracle_pairing

turns = st.fractions(min_value=-3, max_value=3, max_denominator=24)
gmults = st.integers(min_value=-20, max_value=20)
phases = st.builds(Phase, turns, gmults)


# ---------------------------------------------------------------------------
# the phase group
# ---------------------------------------------------------------------------


@given(phases, phases, phases)
@settings(max_examples=200)
def test_phase_group_laws(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * Phase.one() == p
    assert (p * p.inverse()).is_one
    assert Phase.one().is_one


@given(phases)
def test_phase_value_is_a_unit_complex(p):
    z = p.value(GAMMA)
    assert math.isclose(abs(z), 1.0, rel_tol=1e-12)
    want = cmath.exp(2j * math.pi * (float(p.turn) + p.gamma_mult * float(GAMMA.exact)))
    assert cmath.isclose(z, want, rel_tol=1e-9)


@given(phases, phases)
def test_phase_value_is_a_homomorphism(p, q):
    assert cmath.isclose(
        (p * q).value(GAMMA), p.value(GAMMA) * q.value(GAMMA), rel_tol=1e-9
    )


def test_phase_turn_is_reduced_mod_one():
    assert Phase.from_turn(Fraction(5, 4)) == Phase.from_turn(Fraction(1, 4))
    assert Phase.from_gamma(0).is_one


# ---------------------------------------------------------------------------
# the Koopman table on raw labels
# ---------------------------------------------------------------------------


@given(st.integers(-30, 30), st.integers(-30, 30))
def test_skew_action_and_inverse(k, m):
    """U g[k,m] = e(k gamma) g[k+m, m]; A is unimodular, so the step is
    undone by x -> A^-1 (x - b), whose phase cancels the forward one."""
    mult, image = koopman_step("skew", "lattice", (k, m))
    assert image == (k + m, m) and mult == k
    (p, q), (r, t) = KOOPMAN_TABLE["skew"]["lattice"].A
    y0, y1 = (v - w for v, w in zip(image, KOOPMAN_TABLE["skew"]["lattice"].b))
    assert p * t - q * r == 1
    back = (t * y0 - q * y1, p * y1 - r * y0)
    assert back == (k, m)
    assert mult - koopman_step("skew", "lattice", back)[0] == 0


@given(st.integers(-20, 20), st.integers(-20, 20).filter(lambda m: m != 0))
def test_normalizing_phase_recurrence(k, m):
    """a[k+m, m] = a[k, m] * e(k gamma), with k + m and e(k gamma) the
    table's image and phase: exactly the constant that makes the
    normalized basis step with phase one."""
    mult, image = koopman_step("skew", "lattice", (k, m))
    assert _normalizing_exponent(*image) == _normalizing_exponent(k, m) + mult


def test_normalizing_phase_rejects_proper_rows():
    """The proper row m = 0 has no chain representative to anchor at; the
    skew basis keeps g[k, 0] unnormalized."""
    with pytest.raises(ZeroDivisionError):
        _normalizing_exponent(3, 0)
    k = np.arange(-3, 4, dtype=np.int32)
    phase, c, j = koopman._SkewBasis(3).step_points(k)
    assert (phase.tolist(), c.tolist(), j.tolist()) == (k.tolist(), [-1] * 7, k.tolist())


@given(st.integers(-12, 12), st.integers(-12, 12))
def test_normalized_skew_action_has_unit_phase_off_axis(k, m):
    """U f[k,m] = f[k+m,m] with f = a g: the raw action's phase times
    a[k,m] / a[k+m,m] is one off the proper row."""
    mult, image = koopman_step("skew", "lattice", (k, m))
    assert image == (k + m, m)
    if m != 0:
        assert mult + _normalizing_exponent(k, m) - _normalizing_exponent(*image) == 0
    else:
        assert mult == k


def test_kernels_accept_arrays():
    """The table step and the normalizing exponent give the same numbers
    elementwise on arrays as on ints, for every kind and sector."""
    for kind, sectors in KOOPMAN_TABLE.items():
        for sector, action in sectors.items():
            d = len(action.b)
            if d == 0:
                assert koopman_step(kind, sector, ()) == (0, ())
                continue
            x = np.indices((19,) * d).reshape(d, -1) - 9
            mult, image = koopman_step(kind, sector, tuple(x))
            for i, xi in enumerate(x.T.tolist()):
                got = koopman_step(kind, sector, tuple(xi))
                assert got == (mult[i], tuple(v[i] for v in image))
    k, m = (a.ravel() for a in np.meshgrid(np.arange(-9, 10), np.arange(-9, 10)))
    off = m != 0
    exponent = _normalizing_exponent(k[off], m[off])
    for ki, mi, e in zip(k[off].tolist(), m[off].tolist(), exponent.tolist()):
        assert _normalizing_exponent(ki, mi) == e


@given(st.integers(-15, 15), st.integers(-15, 15), st.integers(-10, 10))
def test_product_action(l, k, m):
    mult, image = koopman_step("product", "support", (l, k, m))
    assert image == (l, k + 1, m) and mult == l
    # constant tails are proper functions: index fixed, phase e(l gamma)
    assert koopman_step("product", "constant", (l,)) == (l, (l,))
    # normalized chain steps, t = e(l k gamma) p, carry phase exactly one
    assert mult + l * k - image[0] * image[1] == 0


def test_index_maps_are_injective_exhaustively():
    assert skew_index_map_injective(16)
    assert product_index_map_injective(8)


# ---------------------------------------------------------------------------
# orbits and spectra
# ---------------------------------------------------------------------------


def _chains(kind: str, B: int) -> tuple[list[int], list[list[tuple]]]:
    """The proper-mode indices of a kind's basis in the box, and each
    chain as the raw labels its positions name, in operator order."""
    basis = koopman._BASES[kind](B)
    p0, p1 = basis.points
    c = np.arange(basis.chains, dtype=np.int32)
    chains = []
    for params, lo, hi in zip(basis.params(c).T.tolist(), *basis.positions(c)):
        positions = range(lo, hi + 1)
        if kind == "skew":
            m, r = params
            chains.append([(r + j * m, m) for j in positions])
        else:
            l, m = params
            chains.append([(l, j, m) for j in positions])
    return list(range(p0, p1 + 1)), chains


@pytest.mark.parametrize("kind", ["rotation", "skew", "product"])
def test_orbits_partition_the_box(kind):
    """The proper modes and chains of a basis cover the truncation box
    exactly once, and each chain member's raw image is the next member."""
    B = 5
    points, chains = _chains(kind, B)
    members = [v for chain in chains for v in chain]
    assert len(set(members)) == len(members)
    box = range(-B, B + 1)
    assert points == list(box)
    if kind == "rotation":
        assert chains == []
    if kind == "skew":
        assert set(members) == {(k, m) for k in box for m in box if m}
    if kind == "product":
        assert set(members) == {(l, k, m) for l in box for k in box for m in box}
    sector = "lattice" if kind == "skew" else "support"
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            assert koopman_step(kind, sector, a)[1] == b


def test_proper_modes_of_skew():
    """Under the raw action the skew basis's proper modes are exactly the
    (k, 0) rows, fixed with phase e(k gamma); every chain member moves."""
    B = 6
    basis = koopman._BASES["skew"](B)
    j = np.arange(-B, B + 1, dtype=np.int32)
    phase, c_next, j_next = basis.step_points(j)
    assert (c_next == -1).all() and (j_next == j).all()
    assert phase.tolist() == j.tolist()
    c = np.arange(basis.chains, dtype=np.int32)
    lo, _ = basis.positions(c)
    phase, c_next, j_next = basis.step_chains(c, np.ones_like(c), lo)
    assert ((c_next != c) | (j_next != lo)).all()
    assert not phase.any()


def test_spectrum_descriptors():
    rot, skew, shift, prod = [spectrum_of(s) for s in four_systems()]
    assert rot.tag == "pure-point" and rot.lebesgue_multiplicity == 0
    assert skew.tag == "mixed" and skew.lebesgue_multiplicity == "infinite"
    assert shift.tag == "pure-continuous" and shift.point_generators == ()
    assert prod.tag == "mixed"
    # the only proper value of the shift is 1, and it is simple
    assert shift.one_multiplicity == 1
    assert shift.point_part_simple and skew.point_part_simple


def _fixed_descriptor(spec: SystemSpec) -> SpectrumDescriptor:
    """The descriptor each kind was assigned before spectrum_of computed
    it from the table: the oracle for the computation."""
    if spec.kind == "rotation":
        return SpectrumDescriptor((spec.gamma,), 0)
    if spec.kind in ("skew", "product"):
        return SpectrumDescriptor((spec.gamma,), "infinite")
    return SpectrumDescriptor((), "infinite")


@pytest.mark.parametrize(
    "gamma",
    [GAMMA, GAMMA.one_minus(), RotationNumber(-1, 1, 5, 2)],
    ids=["sqrt2-1", "2-sqrt2", "golden"],
)
def test_computed_spectrum_equals_the_fixed_descriptors(gamma):
    coin = BernoulliSpec.fair_coin()
    for spec in [
        SystemSpec.rotation(gamma),
        SystemSpec.skew(gamma),
        SystemSpec.shift(coin),
        SystemSpec.product(gamma, coin),
    ]:
        computed, oracle = spectrum_of(spec), _fixed_descriptor(spec)
        assert computed == oracle and computed.tag == oracle.tag
        strip = lambda d: {k: v for k, v in d.to_json().items() if k != "chain_counts"}
        assert strip(computed) == strip(oracle)


CHAIN_CLOSED_FORMS = {
    "rotation": lambda B: 0,
    "skew": lambda B: B * (B + 1),
    "bernoulli": lambda B: 2 * B + 1,
    "product": lambda B: (2 * B + 1) ** 2,
}


@pytest.mark.parametrize("spec", four_systems(), ids=lambda s: s.kind)
def test_box_chain_counts_match_the_closed_forms_and_the_bases(spec):
    """Chains of moving labels that meet [-B, B]^d, counted by stepping
    the box through the table, against the closed form and the
    intertwiner basis's nonempty chains at the same B."""
    closed = CHAIN_CLOSED_FORMS[spec.kind]
    assert spectrum_of(spec).chain_counts == tuple((B, closed(B)) for B in CHAIN_BOXES)
    for B in CHAIN_BOXES:
        basis = koopman._BASES[spec.kind](B)
        lo, hi = basis.positions(np.arange(basis.chains, dtype=np.int32))
        assert np.count_nonzero(hi >= lo) == closed(B)


def test_degenerate_point_part_is_not_simple():
    """A hand-built descriptor for a non-ergodic union: the proper value 1
    appears twice, so the point part is not simple even with no other
    proper values."""
    doubled = SpectrumDescriptor(
        point_generators=(),
        lebesgue_multiplicity="infinite",
        one_multiplicity=2,
        tag="mixed",
    )
    assert not doubled.point_part_simple
    with pytest.raises(ValueError):
        SpectrumDescriptor(
            point_generators=(),
            lebesgue_multiplicity="infinite",
            one_multiplicity=0,
            tag="pure-continuous",
        )


def test_is_one_simple():
    assert is_one_simple((GAMMA,))
    assert is_one_simple(())
    # gamma + (1 - gamma) = 1: the combination collapses to an integer
    assert not is_one_simple((GAMMA, GAMMA.one_minus()))
    # 9*(sqrt(2) - 1) - (9*sqrt(2) - 12) = 3, beyond a search to |c| <= 8
    nine = RotationNumber(-12, 9, 2, 1)
    assert bounded_one_simple((GAMMA, nine), 8)
    assert not is_one_simple((GAMMA, nine))
    assert is_one_simple((GAMMA, RotationNumber(-1, 1, 3, 1)))


@st.composite
def _angles(draw, fields=(2, 3, 5)):
    """(p + q*sqrt(d))/r in (0, 1): for fixed q, d and r, exactly r
    integers p put p + q*sqrt(d) strictly between 0 and r."""
    d = draw(st.sampled_from(fields))
    q = draw(st.integers(-4, 4).filter(bool))
    r = draw(st.integers(1, 4))
    p = math.floor(-q * math.sqrt(d)) + 1 + draw(st.integers(0, r - 1))
    return RotationNumber(p, q, d, r)


@settings(max_examples=60, deadline=None)
@given(st.lists(_angles(), min_size=2, max_size=3))
def test_is_one_simple_agrees_with_the_bounded_search(gens):
    """A witness the search finds is a proof, so the exact decision must
    agree wherever the search finds one."""
    if not bounded_one_simple(gens, 3):
        assert not is_one_simple(gens)


# ---------------------------------------------------------------------------
# group comparison
# ---------------------------------------------------------------------------


def test_groups_equal_identity_and_reflection():
    same = point_spectrum_groups_equal(GAMMA, GAMMA)
    assert same.equal and same.relation == (1, 1)
    refl = point_spectrum_groups_equal(GAMMA, GAMMA.one_minus())
    assert refl.equal and refl.relation == (-1, -1)
    assert isinstance(refl, GroupComparison)


def test_groups_differ_for_doubled_angle():
    double = RotationNumber(-2, 2, 2, 1)  # 2*(sqrt(2)-1)
    cmp = point_spectrum_groups_equal(GAMMA, double)
    assert not cmp.equal and cmp.relation is None
    assert cmp.verdict == "not-equal"
    assert cmp.detail == "gamma2 is neither gamma1 nor -gamma1 (mod 1)"


@pytest.mark.parametrize("angle", BENCH_ANGLES)
def test_groups_of_an_angle_and_its_reflection_are_equal(angle):
    gamma = RotationNumber(*angle)
    assert point_spectrum_groups_equal(gamma, gamma.one_minus()).relation == (-1, -1)
    assert point_spectrum_groups_equal(gamma.one_minus(), gamma).relation == (-1, -1)


def test_groups_differ_across_fields():
    other = RotationNumber(-1, 1, 3, 1)  # sqrt(3) - 1
    assert not point_spectrum_groups_equal(GAMMA, other).equal
    for a in BENCH_ANGLES:
        for b in BENCH_ANGLES:
            if a[2] != b[2]:
                ga, gb = RotationNumber(*a), RotationNumber(*b)
                assert not point_spectrum_groups_equal(ga, gb).equal
                assert not point_spectrum_groups_equal(ga, gb.one_minus()).equal


@settings(max_examples=100, deadline=None)
@given(_angles(), st.one_of(_angles(), st.just("same"), st.just("reflected")))
def test_group_decision_agrees_with_the_bounded_search(gamma1, gamma2):
    """Equal groups force gamma2 = +/- gamma1 (mod 1), which a search to
    |a| <= 1 already finds, so the two agree on every pair."""
    if gamma2 == "same":
        gamma2 = gamma1
    elif gamma2 == "reflected":
        gamma2 = gamma1.one_minus()
    cmp = point_spectrum_groups_equal(gamma1, gamma2)
    assert cmp.relation == bounded_group_relation(gamma1, gamma2, 6)
    assert cmp.equal == (cmp.relation is not None)


# ---------------------------------------------------------------------------
# the intertwiner
# ---------------------------------------------------------------------------


def test_intertwiner_skew_vs_product():
    skew = SystemSpec.skew(GAMMA)
    prod = SystemSpec.product(GAMMA, BernoulliSpec.fair_coin())
    pairing = build_intertwiner(skew, prod, truncation=12)
    check = verify_intertwiner(pairing)
    assert check.mismatches == 0
    assert check.checked > 0


def test_intertwiner_between_the_two_shifts():
    a = SystemSpec.shift(BernoulliSpec.fair_coin())
    b = SystemSpec.shift(BernoulliSpec((0.25,) * 4, (0, 1, 2, 3)))
    check = verify_intertwiner(build_intertwiner(a, b, truncation=8))
    assert check.mismatches == 0 and check.checked > 0


def test_intertwiner_rejects_incompatible_spectra():
    rot = SystemSpec.rotation(GAMMA)
    shift = SystemSpec.shift(BernoulliSpec.fair_coin())
    with pytest.raises(IncompatibleSpectraError):
        build_intertwiner(rot, shift, truncation=8)
    skew = SystemSpec.skew(GAMMA)
    mismatched = SystemSpec.product(
        RotationNumber(-1, 1, 3, 1), BernoulliSpec.fair_coin()
    )
    with pytest.raises(IncompatibleSpectraError):
        build_intertwiner(skew, mismatched, truncation=8)


# ---------------------------------------------------------------------------
# the array pairing against the dict oracle, and its check under mutation
# ---------------------------------------------------------------------------

COIN = BernoulliSpec.fair_coin()
REFLECTED = GAMMA.one_minus()  # 2 - sqrt(2): the same group, eps = -1
PAIRING_CASES = {
    "skew-product": (SystemSpec.skew(GAMMA), SystemSpec.product(GAMMA, COIN)),
    "product-skew": (SystemSpec.product(GAMMA, COIN), SystemSpec.skew(GAMMA)),
    "skew-skew": (SystemSpec.skew(GAMMA), SystemSpec.skew(GAMMA)),
    "product-product": (SystemSpec.product(GAMMA, COIN), SystemSpec.product(GAMMA, COIN)),
    "shift2-shift4": (SystemSpec.shift(COIN), SystemSpec.shift(UNIFORM4)),
    "rotation-rotation": (SystemSpec.rotation(GAMMA), SystemSpec.rotation(GAMMA)),
    "skew-product-reflected": (
        SystemSpec.skew(GAMMA),
        SystemSpec.product(REFLECTED, COIN),
    ),
    "rotation-rotation-reflected": (
        SystemSpec.rotation(GAMMA),
        SystemSpec.rotation(REFLECTED),
    ),
}


@pytest.mark.parametrize("B", [0, 1, 2, 7, 16, 33])
@pytest.mark.parametrize("case", list(PAIRING_CASES))
def test_pairing_matches_the_dict_oracle(case, B):
    """Same pairs in the same order as the dict-based construction, and
    the raw-action check counts the same interior pairs."""
    spec_a, spec_b = PAIRING_CASES[case]
    mapping, eps = oracle_pairing(spec_a, spec_b, B)
    pairing = build_intertwiner(spec_a, spec_b, B)
    assert pairing.eps == eps
    assert len(pairing.mapping) == len(mapping)
    assert list(pairing.mapping.items()) == list(mapping.items())
    check = verify_intertwiner(pairing)
    assert check == IntertwinerCheck(0, oracle_check(mapping, eps).checked)


def test_mapping_is_a_read_only_view_of_python_ints():
    pairing = build_intertwiner(*PAIRING_CASES["skew-product"], truncation=7)
    mapping = pairing.mapping
    assert isinstance(mapping, Mapping) and not isinstance(mapping, MutableMapping)
    items = list(mapping.items())
    assert list(mapping) == [key for key, _ in items]
    for key, value in items:
        assert all(type(x) is int for x in key[1:] + value[1:])
        assert mapping[key] == value
    outside = [
        ("point", 8),
        ("chain", 8, 0, 0),  # |m| > B
        ("chain", 1, 1, 0),  # r >= |m|
        ("chain", 1, 0, 8),  # k = 8 > B
        ("chain", 1, 0),
        ("chain", 1, 0, 0.5),
        "point",
    ]
    for label in outside:
        assert label not in mapping


@pytest.mark.parametrize("B, checked", [(16, 817), (192, 111_169)])
def test_checked_count_pins(B, checked):
    check = verify_intertwiner(build_intertwiner(*PAIRING_CASES["skew-product"], B))
    assert check == IntertwinerCheck(0, checked)


def _traced_peak(B: int, checked: int) -> int:
    """Traced peak bytes of building and checking the skew-product
    pairing at B, which must check ``checked`` pairs."""
    tracemalloc.start()
    try:
        check = verify_intertwiner(build_intertwiner(*PAIRING_CASES["skew-product"], B))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check == IntertwinerCheck(0, checked)
    return peak


def test_pairing_and_check_at_b192_stay_under_a_memory_bound():
    """Traced peak of building and checking the skew-product pairing at
    B = 192: about 0.9 MB with chains enumerated on demand, against
    2.1 MB with per-chain arrays stored, 4.2 MB with the two per-pair
    int32 label arrays and 9.8 MB when the product basis held all
    (2B+1)^2 chains and every table was int64."""
    assert _traced_peak(192, 111_169) < 2**20


def test_pairing_and_check_memory_does_not_grow_with_b():
    """Nothing the pairing keeps or the check allocates grows with the
    chain or pair count: 6.8 times the pairs at B = 500 peak within 10 %
    of B = 192 (13.9 MB against 2.1 MB with per-chain arrays)."""
    assert _traced_peak(500, 751_501) <= 1.1 * _traced_peak(192, 111_169)


def _ring_order(B: int) -> list[list[int]]:
    """The product chains (l, m) of [-B, B]^2 by ring max(|l|, |m|), then
    l, then m, from a stable sort of the whole box."""
    side = 2 * B + 1
    l, m = np.divmod(np.arange(side * side), side)
    l, m = l - B, m - B
    order = np.argsort(np.maximum(np.abs(l), np.abs(m)), kind="stable")
    return np.stack([l[order], m[order]], axis=1).tolist()


@pytest.mark.parametrize("B", [0, 1, 5, 16])
@pytest.mark.parametrize("kind", ["skew", "bernoulli", "product"])
def test_capped_bases_are_prefixes_of_the_full_ones(kind, B):
    """A basis built for its first n chains holds exactly the first n
    chains of the full enumeration, and ``chain_index`` takes each back
    to its place; the full product basis is the ring order."""
    full = koopman._BASES[kind](B)
    total = full.chain_count(B)
    c = np.arange(total, dtype=np.int32)
    params, (lo, hi) = full.params(c), full.positions(c)
    assert full.chains == lo.size == hi.size == params.shape[1] == total
    assert lo.dtype == hi.dtype == params.dtype == np.int32
    if kind == "product":
        assert params.T.tolist() == _ring_order(B)
    for n in sorted({0, 1, B * (B + 1), total - 1, total} & set(range(total + 1))):
        capped = koopman._BASES[kind](B, n)
        assert capped.chains == n
        assert capped.params(c[:n]).tolist() == params[:, :n].tolist()
        assert capped.positions(c[:n])[0].tolist() == lo[:n].tolist()
        assert capped.positions(c[:n])[1].tolist() == hi[:n].tolist()
        assert capped.chain_index(*capped.params(c[:n])).tolist() == list(range(n))


def test_each_basis_holds_only_the_paired_chains():
    """Against the skew map the product basis holds the skew's B(B+1)
    chains, and a product chain past them is unpaired, like a label
    outside the box; two products pair every chain."""
    B = 6
    pairing = build_intertwiner(*PAIRING_CASES["product-skew"], B)
    assert pairing.basis_a.chains == pairing.basis_b.chains == B * (B + 1)
    l, m = _ring_order(B)[B * (B + 1)]  # the first product chain past them
    assert pairing.basis_a.parse(("chain", l, m, 0)) == (B * (B + 1), 0)
    assert ("chain", l, m, 0) not in pairing.mapping
    assert ("chain", *_ring_order(B)[B * (B + 1) - 1], 0) in pairing.mapping
    c = np.array([B * (B + 1), (2 * B + 1) ** 2 - 1, -2], dtype=np.int32)
    assert pairing.paired(c, np.zeros(3, np.int32)).tolist() == [False] * 3
    both = build_intertwiner(*PAIRING_CASES["product-product"], B)
    assert both.basis_a.chains == both.basis_b.chains == (2 * B + 1) ** 2


def test_int32_tables_have_headroom_at_the_pair_budget():
    """At the largest B the pair budget admits, skew vs product and
    product vs product, the largest chain index, pair count, normalizing
    exponent and step phase, and the intermediates that produce them,
    stay below (2B + 2)^2 and 2^31; computed in int64 and Python ints,
    without building a pairing.  The int32 pair offsets of a window of
    ``VERIFY_SLICE`` chains stay below 2^31 at every B the tables admit."""
    skew_product = (math.isqrt(MAX_INTERTWINER_PAIRS) - 1) // 2
    product_product = max(B for B in range(200) if (2 * B + 1) ** 3 <= MAX_INTERTWINER_PAIRS)
    assert (skew_product, product_product) == (1580, 107)
    for B, pairs in [
        (skew_product, (2 * skew_product + 1) ** 2),
        (product_product, (2 * product_product + 1) * (1 + (2 * product_product + 1) ** 2)),
    ]:
        bound = (2 * B + 2) ** 2
        assert pairs + 2 * B < 2**31 and bound < 2**31
        # chain indices: the skew inversion's 4c + 1 and the product ring's
        # (2s - 1)^2 + within-ring offsets
        assert 4 * (B * (B + 1) - 1) + 1 < bound
        assert (2 * B + 1) ** 2 < bound
        # product steps: mult + l k - l' k' with |l| <= B, |k| <= B + 1
        assert B + B * B + B * (B + 1) < bound
        # skew steps: members k in [-B, B] go to k + m in [-2B, 2B]
        worst = 0
        k = np.arange(-2 * B, 2 * B + 1, dtype=np.int64)
        for m in range(-B, B + 1):
            if m:
                r = k % abs(m)
                j = (k - r) // m
                worst = max(worst, int(np.abs(j * (j - 1)).max()))
                exponent = _normalizing_exponent(k, np.int64(m))
                worst = max(worst, B + 2 * int(np.abs(exponent).max()))
        assert worst < bound
    assert koopman.VERIFY_SLICE * (2 * 23_169 + 1) < 2**31
    with pytest.raises(ValueError, match="int32"):
        build_intertwiner(*PAIRING_CASES["skew-product"], 23_170)


def _doctor(kind: str, sector: str, **entry):
    """A mutant that replaces fields of one ``KOOPMAN_TABLE`` entry."""
    return lambda mp: mp.setitem(
        KOOPMAN_TABLE[kind], sector, KOOPMAN_TABLE[kind][sector]._replace(**entry)
    )


KERNEL_MUTANTS = {
    # the renormalization of the skew chains, not a table entry
    "normalizing exponent off by one": lambda mp: mp.setattr(
        koopman,
        "_normalizing_exponent",
        lambda k, m, exponent=_normalizing_exponent: exponent(k, m) + (k == 1),
    ),
    "skew action steps k + m + 1": _doctor("skew", "lattice", b=(1, 0)),
    "product phase e(2l gamma)": _doctor("product", "support", c=(2, 0, 0)),
}


@pytest.mark.parametrize("case", ["skew-product", "product-skew"])
@pytest.mark.parametrize("mutant", list(KERNEL_MUTANTS))
def test_check_fails_when_an_action_is_wrong(mutant, case, monkeypatch):
    KERNEL_MUTANTS[mutant](monkeypatch)
    check = verify_intertwiner(build_intertwiner(*PAIRING_CASES[case], truncation=8))
    assert check.mismatches > 0


@pytest.mark.parametrize(
    "entry, mismatches, checked",
    [
        ({"A": ((1, -1), (0, 1))}, 784, 817),
        ({"A": ((1, 2), (0, 1))}, 512, 545),
        ({"c": (-1, 0)}, 784, 817),
    ],
    ids=["A=((1,-1),(0,1))", "A=((1,2),(0,1))", "c=(-1,0)"],
)
def test_skew_table_mutants_break_the_check_by_pinned_counts(
    entry, mismatches, checked, monkeypatch
):
    """Exact counts at B = 16, so that a change to the gather of chain
    parameters that hides a mismatch, or adds one, shows."""
    _doctor("skew", "lattice", **entry)(monkeypatch)
    check = verify_intertwiner(build_intertwiner(*PAIRING_CASES["skew-product"], 16))
    assert (check.mismatches, check.checked) == (mismatches, checked)


@pytest.mark.parametrize("kind", ["skew", "bernoulli", "product"])
def test_chain_steps_gather_their_own_chain_parameters(kind):
    """A normalized chain steps to its next position with phase one, so a
    step that read another chain's parameters would leave the chain; the
    first and the last chain are where a gather off by one shows."""
    basis = koopman._BASES[kind](5)
    c = np.array([0, basis.chains - 1], dtype=np.int32)
    lo, hi = basis.positions(c)
    assert (hi > lo).all()
    # the first two positions of each chain
    j = np.stack([lo, lo + 1], axis=1).ravel()
    phase, c_next, j_next = basis.step_chains(c, np.array([2, 2]), j)
    assert c_next.tolist() == np.repeat(c, 2).tolist()
    assert j_next.tolist() == (j + 1).tolist()
    assert not phase.any()


@pytest.mark.parametrize(
    "case, B, mutant",
    [
        ("skew-product", 33, None),
        ("skew-product", 33, "product phase e(2l gamma)"),
        # 7-pair slices of the 300,763 pairs at B = 33 take 8 s; B = 33
        # itself runs in several default slices in the oracle test above
        ("product-product", 12, None),
    ],
)
def test_check_in_slices_equals_the_unsliced_check(case, B, mutant, monkeypatch):
    """Slices of 7 pairs, and windows of 7 chains, give the same counts,
    pairs and pair order as one slice holding every pair, with and
    without a wrong action; chains longer than 7 positions are split."""
    if mutant is not None:
        KERNEL_MUTANTS[mutant](monkeypatch)
    pairing = build_intertwiner(*PAIRING_CASES[case], truncation=B)
    monkeypatch.setattr(koopman, "VERIFY_SLICE", len(pairing.mapping))
    whole = verify_intertwiner(pairing)
    items = list(pairing.mapping.items())
    monkeypatch.setattr(koopman, "VERIFY_SLICE", 7)
    assert verify_intertwiner(pairing) == whole
    assert dataclasses.replace(pairing).pairs == len(items)
    assert list(pairing.mapping.items()) == items
    assert (whole.mismatches > 0) == (mutant is not None)


def test_check_fails_when_two_chains_of_basis_b_are_swapped():
    """W sends chain c of A to chain c of B, so swapping the parameters
    that B computes for its first and last chains sends each to the
    other's partner: every interior pair of both chains is a mismatch,
    16 on the first chain (f[j, 1], j = -8..8, against t[0, j, 0]) and 1
    on the last (two positions of f[7 - 8j, -8])."""
    pairing = build_intertwiner(*PAIRING_CASES["skew-product"], truncation=8)
    basis_b = copy.copy(pairing.basis_b)
    last, params = basis_b.chains - 1, basis_b.params
    basis_b.params = lambda c: params(np.where(c == 0, last, np.where(c == last, 0, c)))
    check = verify_intertwiner(dataclasses.replace(pairing, basis_b=basis_b))
    assert verify_intertwiner(pairing) == IntertwinerCheck(0, 217)
    assert check == IntertwinerCheck(17, 217)


def test_check_fails_when_eps_is_flipped():
    """gamma_B = -gamma_A, so W sends the proper mode k to -k; with eps
    flipped it sends k to k, whose phase e(k gamma_B) differs from
    e(k gamma_A) unless k = 0.  The check compares phases by the angles'
    own relation, so the 16 proper modes k != 0 in [-8, 8] mismatch."""
    pairing = build_intertwiner(*PAIRING_CASES["skew-product-reflected"], truncation=8)
    assert pairing.eps == -1
    check = verify_intertwiner(dataclasses.replace(pairing, eps=1))
    assert verify_intertwiner(pairing) == IntertwinerCheck(0, 217)
    assert check == IntertwinerCheck(16, 217)


def test_one_doctored_entry_flips_the_decision_and_breaks_the_check(monkeypatch):
    """The tower decision, the intertwiner check and the spectrum all read
    the same table: a skew step without its m term, (k, m) -> (k, m),
    changes every one of them at once."""
    pairing = build_intertwiner(*PAIRING_CASES["skew-product"], truncation=8)
    assert decide_finite_orbits("skew").gap
    assert verify_intertwiner(pairing).mismatches == 0
    _doctor("skew", "lattice", A=((1, 0), (0, 1)))(monkeypatch)
    assert not decide_finite_orbits("skew").gap
    assert verify_intertwiner(pairing).mismatches > 0
    with pytest.raises(ValueError, match="invariant labels"):
        spectrum_of(SystemSpec.skew(GAMMA))


def test_spectrum_refuses_a_point_group_it_cannot_name(monkeypatch):
    """Proper values e(2k gamma) generate the group of 2 gamma, which no
    single RotationNumber generator gamma describes."""
    _doctor("skew", "lattice", c=(2, 0))(monkeypatch)
    with pytest.raises(ValueError, match="generated by 2 gamma"):
        spectrum_of(SystemSpec.skew(GAMMA))
