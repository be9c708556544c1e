"""Symbolic composition operators: the Koopman table, phases, bases,
spectra, pairings.

Phases are exact objects (rational turn + integer multiple of the
angle); every identity here is checked symbolically first and only then
numerically against complex exponentials.  The intertwiner's mapping is
checked against the dict-based oracle in ``intertwiner_oracle.py``, its
certificate against that oracle's box check, and the certificate is
shown to fail when one entry of the table it applies is wrong.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import (
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
    iterate_batch,
    koopman_step,
    point_spectrum_groups_equal,
    sample_batch,
    spawn_rngs,
    spectrum_of,
    verify_intertwiner,
)
from ergolab import koopman, systems
from ergolab.cli import main
from ergolab.koopman import SectorAction
from ergolab._record import replace
from ergolab.koopman import _normalizing_exponent, _Poly

from helpers import (
    BENCH_ANGLES,
    GAMMA,
    UNIFORM4,
    four_systems,
    intertwiner,
    product_index_map_injective,
    skew_index_map_injective,
)
from exact_oracle import bounded_group_relation
from intertwiner_oracle import (
    Phase,
    chains_in_box,
    first_labels_in_box,
    oracle_check,
    oracle_pairing,
)

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


def _exponent_at(k, m):
    """The normalizing exponent at the raw label (k, m): k = r + j m with
    0 <= r < |m| (Euclid), a ZeroDivisionError on the proper row m = 0."""
    r = k % abs(m)
    return _normalizing_exponent(m, r, (k - r) // m)


@given(st.integers(-20, 20), st.integers(-20, 20).filter(lambda m: m != 0))
def test_normalizing_phase_recurrence(k, m):
    """a[k+m, m] = a[k, m] * e(k gamma), with k + m and e(k gamma) the
    table's image and phase: exactly the constant that makes the
    normalized basis step with phase one."""
    mult, image = koopman_step("skew", "lattice", (k, m))
    assert _exponent_at(*image) == _exponent_at(k, m) + mult


def test_normalizing_phase_rejects_proper_rows():
    """The proper row m = 0 has no chain representative to anchor at; the
    skew basis keeps g[k, 0] unnormalized, a fixed label with phase
    e(k gamma)."""
    with pytest.raises(ZeroDivisionError):
        _exponent_at(3, 0)
    for k in range(-3, 4):
        sector, x = koopman._proper_mode("skew", k)
        assert (sector, x) == ("lattice", (k, 0)) and koopman_step("skew", sector, x) == (k, x)


@given(st.integers(-12, 12), st.integers(-12, 12))
def test_normalized_skew_action_has_unit_phase_off_axis(k, m):
    """U f[k,m] = f[k+m,m] with f = a g: the raw action's phase times
    a[k,m] / a[k+m,m] is one off the proper row."""
    mult, image = koopman_step("skew", "lattice", (k, m))
    assert image == (k + m, m)
    if m != 0:
        assert mult + _exponent_at(k, m) - _exponent_at(*image) == 0
    else:
        assert mult == k


def test_kernels_accept_arrays():
    """The table step and the normalizing exponent give the same numbers
    elementwise on arrays as on ints, for every kind and sector, and
    (evaluated) on the certificate's polynomials."""
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
    r = k[off] % np.abs(m[off])
    exponent = _normalizing_exponent(m[off], r, (k[off] - r) // m[off])
    for ki, mi, e in zip(k[off].tolist(), m[off].tolist(), exponent.tolist()):
        assert _exponent_at(ki, mi) == e
    symbols = {name: _Poly.var(name) for name in "mrj"}
    polynomial = _normalizing_exponent(*symbols.values())
    for mi, ri, ji in [(3, 2, -4), (-5, 0, 7), (1, 0, 0)]:
        assert _evaluate(polynomial, m=mi, r=ri, j=ji) == _normalizing_exponent(mi, ri, ji)


def _evaluate(p, **values):
    """The value of a certificate polynomial at integer ``values``."""
    return sum(c * math.prod(values[name] for name in mono) for mono, c in p.terms.items())


@given(st.lists(st.tuples(st.sampled_from("+-*"), st.integers(-5, 5), st.sampled_from("xy0")),
                max_size=8),
       st.integers(-6, 6), st.integers(-6, 6))
def test_polynomials_compute_what_ints_compute(ops, x, y):
    """A chain of ``+``, ``-`` and ``*`` by ints and unknowns, run on the
    certificate's polynomials and evaluated, equals the chain run on the
    unknowns' values; a polynomial is false exactly when it is 0."""
    p, v = _Poly.var("x"), x
    for op, c, operand in ops:
        poly = {"x": _Poly.var("x"), "y": _Poly.var("y"), "0": c}[operand]
        num = {"x": x, "y": y, "0": c}[operand]
        if op == "+":
            p, v = (c + p + poly, c + v + num)
        elif op == "-":
            p, v = (c - p - poly, c - v - num)
        else:
            p, v = (c * p * poly, c * v * num)
    assert _evaluate(p, x=x, y=y) == v
    assert bool(p - p) is False and bool(p + 1 - p) is True
    assert _evaluate(p * (p - 1) // 2, x=x, y=y) == v * (v - 1) // 2


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
# the table and the point maps, both read off one map record
# ---------------------------------------------------------------------------


#: The table as it was written by hand before it was derived from
#: ``systems.MAPS``, sector order included.
HAND_TABLE = {
    "rotation": {"lattice": SectorAction(((1,),), (0,), (1,))},
    "skew": {"lattice": SectorAction(((1, 1), (0, 1)), (0, 0), (1, 0))},
    "bernoulli": {
        "constant": SectorAction((), (), ()),
        "support": SectorAction(((1, 0), (0, 1)), (1, 0), (0, 0)),
    },
    "product": {
        "constant": SectorAction(((1,),), (0,), (1,)),
        "support": SectorAction(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 1, 0), (1, 0, 0)),
    },
}


def test_the_table_derived_from_the_maps_is_the_hand_table():
    def ordered(table):
        return [(kind, list(sectors.items())) for kind, sectors in table.items()]

    assert ordered(KOOPMAN_TABLE) == ordered(koopman._koopman_table()) == ordered(HAND_TABLE)


def _basis_function(batch, sector: str, label: tuple) -> np.ndarray:
    """The basis function of ``label`` at the batch's points: the character
    e(n . x) of the torus labels n, times, on a support (n, k, m), a
    function of the symbol at position k that depends on the chain m."""
    torus = len(systems.MAPS[batch.spec.kind][1])
    x = (batch.u, batch.v)[:torus]
    value = np.exp(2j * np.pi * sum(n * xi for n, xi in zip(label, x))) * np.ones(len(batch))
    if sector == "support":
        k, m = label[torus:]
        value *= np.exp(2j * np.pi * (m + 2) * batch.symbol_indices_at(k).astype(float) / 7)
    return value


@pytest.mark.parametrize("spec", four_systems(), ids=lambda s: s.kind)
def test_each_sector_is_the_koopman_action_of_the_point_map(spec):
    """The numeric tie between the table and the point iterates: at
    sampled points x, f_n(S x) = e((c . n) gamma) f_{A n + b}(x) to 1e-12
    for every label n in [-3, 3]^d of every sector, with S from
    ``iterate_batch`` and (A, b, c) from the table."""
    batch = sample_batch(spec, spawn_rngs(21, 1)[0], 16, positions=range(-4, 5))
    moved = iterate_batch(batch, 1)
    for sector, action in KOOPMAN_TABLE[spec.kind].items():
        for label in itertools.product(range(-3, 4), repeat=len(action.b)):
            mult, image = koopman_step(spec.kind, sector, label)
            phase = cmath.exp(2j * math.pi * float(spec.gamma.frac_multiple(mult))) if mult else 1
            want = phase * _basis_function(batch, sector, image)
            assert np.abs(_basis_function(moved, sector, label) - want).max() < 1e-12


#: Slips in one map record, made consistently in the point map and the
#: table derived from it: each must cost ``reproduce-letter`` its spectral
#: verdict (exit code 0) or stop the run (exit code 1).
RECORD_MUTANTS = {
    "skew v - u": ("skew", (((1, 0), (-1, 1)), (1, 0), 0), 0),
    "skew t=(0,1)": ("skew", (((1, 0), (1, 1)), (0, 1), 0), 1),
    "product s=-1": ("product", (((1,),), (1,), -1), 0),
}


@pytest.mark.parametrize("mutant", list(RECORD_MUTANTS))
def test_map_record_mutants_cost_the_letter_its_spectral_verdict(mutant, tmp_path, monkeypatch):
    """With ``MAPS`` patched and the table re-derived: the v - u skew and
    the product shifted the other way fail one certificate identity, and
    the skew translated along v fixes every label of its proper row
    (phase e(m gamma) is one at m = 0), which the spectrum refuses."""
    kind, record, code = RECORD_MUTANTS[mutant]
    monkeypatch.setitem(systems.MAPS, kind, record)
    for name, sectors in koopman._koopman_table().items():
        monkeypatch.setitem(KOOPMAN_TABLE, name, sectors)
    out = tmp_path / "out"
    assert main(["reproduce-letter", "--out", str(out)]) == code
    if code == 0:
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["intertwiner"]["mismatches"] == 1
        assert [v["statement"] for v in report["verdicts"]] == ["not spacially isomorphic"]


# ---------------------------------------------------------------------------
# orbits and spectra
# ---------------------------------------------------------------------------


def _chains(kind: str, B: int) -> tuple[list[int], list[list[tuple]]]:
    """The proper-mode indices of a kind's pairing in the box, and each
    chain of its basis as the raw labels its positions name, in operator
    order."""
    spec = {s.kind: s for s in four_systems()}[kind]
    points = [label[1] for label in intertwiner(spec, spec, B).mapping
              if label[0] == "point"]
    basis = koopman._BASES[kind]
    chains = [[basis.chain_label(params, j) for j in js] for params, js in basis.chains(B)]
    return points, chains


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
    (k, 0) rows, fixed with phase e(k gamma); every chain member moves,
    and its renormalized step has phase one."""
    B = 6
    basis = koopman._BASES["skew"]
    for k in range(-B, B + 1):
        sector, x = koopman._proper_mode("skew", k)
        assert sector == "lattice" and koopman_step("skew", sector, x) == (k, (k, 0))
    for params, js in basis.chains(B):
        for j in js:
            x = basis.chain_label(params, j)
            phase, image = koopman_step("skew", "lattice", x)
            assert image != x and image == basis.chain_label(params, j + 1)
            assert phase + basis.exponent(params, j) - basis.exponent(params, j + 1) == 0


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
        strip = lambda d: {k: v for k, v in d.to_json().items() if k != "multiplicity_witness"}
        assert strip(computed) == strip(oracle)


def _rederived_multiplicity(descriptor_json: dict):
    """``lebesgue_multiplicity`` re-derived in integer arithmetic from the
    descriptor's JSON witness alone: per sector, no chains when N and b
    vanish, |b| on one coordinate, infinitely many otherwise; summed."""
    counts = []
    for entry in descriptor_json["multiplicity_witness"].values():
        N, b = entry["N"], entry["b"]
        if not any(map(any, N)) and not any(b):
            count = 0
        else:
            count = abs(b[0]) if len(b) == 1 else "infinite"
        assert entry["multiplicity"] == count
        counts.append(count)
    return "infinite" if "infinite" in counts else sum(counts)


@pytest.mark.parametrize("spec", four_systems(), ids=lambda s: s.kind)
def test_the_witness_rederives_the_multiplicity(spec):
    """Each sector's witness holds A - I and b of its table entry and the
    count read off them, and the counts re-derive the multiplicity."""
    desc = spectrum_of(spec)
    witness = desc.to_json()["multiplicity_witness"]
    assert list(witness) == list(KOOPMAN_TABLE[spec.kind])
    for sector, entry in witness.items():
        A, b, _ = KOOPMAN_TABLE[spec.kind][sector]
        assert entry["N"] == [[a - (i == j) for j, a in enumerate(row)] for i, row in enumerate(A)]
        assert entry["b"] == list(b)
    assert _rederived_multiplicity(desc.to_json()) == desc.lebesgue_multiplicity


CHAIN_CLOSED_FORMS = {
    "rotation": lambda B: 0,
    "skew": lambda B: B * (B + 1),
    "bernoulli": lambda B: 2 * B + 1,
    "product": lambda B: (2 * B + 1) ** 2,
}


@pytest.mark.parametrize("spec", four_systems(), ids=lambda s: s.kind)
def test_box_chain_counts_match_the_closed_forms_and_the_bases(spec):
    """Chains of moving labels that meet [-B, B]^d, counted by stepping
    the box through the table and by their first labels, against the
    closed form and the chains the intertwiner basis yields at the same
    B, each holding a position inside the box."""
    closed = CHAIN_CLOSED_FORMS[spec.kind]
    basis = koopman._BASES[spec.kind]
    for B in (4, 8, 0, 1, 11):
        counted = sum(chains_in_box(spec.kind, s, B) for s in KOOPMAN_TABLE[spec.kind])
        first_labels = sum(first_labels_in_box(spec.kind, s, B) for s in KOOPMAN_TABLE[spec.kind])
        yielded = [js for _, js in basis.chains(B)]
        assert all(yielded)
        assert counted == first_labels == len(yielded) == closed(B)


def test_a_one_coordinate_translation_has_its_step_as_multiplicity(monkeypatch):
    """A sector x -> x + 12 has 12 chains, one per residue mod 12, while
    its box count grows from 9 at B = 4 to 12 at B = 8, which an
    extrapolation between the boxes would read as infinite.  On the
    rotation, whose other sector fixes every label, the multiplicity is
    decided as exactly 12, with the sector's N, b and count as witness; a
    second sector x -> x - 5 adds its 5 chains."""
    scratch = koopman.SectorAction(((1,),), (12,), (0,))
    monkeypatch.setitem(KOOPMAN_TABLE["rotation"], "scratch", scratch)
    assert [chains_in_box("rotation", "scratch", B) for B in (4, 8)] == [9, 12]
    assert chains_in_box("rotation", "scratch", 100) == 12
    desc = spectrum_of(SystemSpec.rotation(GAMMA))
    assert desc.lebesgue_multiplicity == 12 and desc.tag == "mixed"
    assert desc.multiplicity_witness == (
        ("lattice", ((0,),), (0,), 0), ("scratch", ((0,),), (12,), 12)
    )
    monkeypatch.setitem(KOOPMAN_TABLE["rotation"], "back", scratch._replace(b=(-5,)))
    desc = spectrum_of(SystemSpec.rotation(GAMMA))
    assert desc.lebesgue_multiplicity == 17
    assert _rederived_multiplicity(desc.to_json()) == 17


def _nilpotent_sector(u, w, t, b0, b1):
    """``x -> A x + b`` with ``N = A - I = u v^T``, v orthogonal to u (so
    N^2 = 0), and b in the kernel of v^T (so N b = 0), as a
    :class:`SectorAction` on len(u) coordinates: on three, v = u x w and
    b = b0 u + b1 w, or b = t where v = 0."""
    n = len(u)
    if n == 1:
        v, b = (0,), (b0,)
    elif n == 2:
        v, b = (-u[1], u[0]), (b0 * u[0], b0 * u[1]) if any(u) else (b0, b1)
    else:
        v = (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])
        b = tuple(b0 * ui + b1 * wi for ui, wi in zip(u, w)) if any(v) else tuple(t)
    A = tuple(tuple(int(i == j) + u[i] * v[j] for j in range(n)) for i in range(n))
    return koopman.SectorAction(A, b, (0,) * n)


@given(
    st.integers(1, 3).flatmap(lambda n: st.tuples(
        *(st.tuples(*[st.integers(-2, 2)] * n) for _ in range(3)),
        st.integers(-4, 4), st.integers(-4, 4),
    ))
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_first_labels_count_the_chains_of_unipotent_sectors(drawn):
    """Random unipotent affine sectors of 1 to 3 coordinates with
    ``N^2 = 0`` and ``N b = 0``: the chains counted by their first labels
    match the oracle that steps every label of the box, at every B up to
    11, and the exact multiplicity matches the oracle's growth: constant
    at |b| on one coordinate once the box holds a period, and growing
    otherwise."""
    u, w, t, b0, b1 = drawn
    action = _nilpotent_sector(u, w, t, b0, b1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(KOOPMAN_TABLE["rotation"], "scratch", action)
        counts = [chains_in_box("rotation", "scratch", B) for B in range(12)]
        assert [first_labels_in_box("rotation", "scratch", B) for B in range(12)] == counts
        N, _ = koopman._fixed_point_rows("rotation", "scratch")
    multiplicity = koopman._sector_multiplicity(N, action.b)
    moves = any(action.b) or action.A != tuple(
        tuple(int(i == j) for j in range(len(u))) for i in range(len(u)))
    assert counts == sorted(counts)
    if not moves:
        assert multiplicity == 0 and counts == [0] * 12
    elif len(u) == 1:
        assert multiplicity == abs(action.b[0]) == counts[-1] == counts[4]
    else:
        assert multiplicity == "infinite" and counts[-1] > counts[5]


def test_degenerate_point_part_is_not_simple():
    """A hand-built descriptor for a non-ergodic union: the proper value 1
    appears twice, so the point part is not simple even with no other
    proper values."""
    doubled = SpectrumDescriptor(
        point_generators=(),
        lebesgue_multiplicity="infinite",
        one_multiplicity=2,
    )
    assert not doubled.point_part_simple
    with pytest.raises(ValueError):
        SpectrumDescriptor(
            point_generators=(),
            lebesgue_multiplicity="infinite",
            one_multiplicity=0,
        )


def test_a_point_spectrum_has_at_most_one_generator():
    """One irrational angle never makes 1 a repeated proper value, so the
    point part is simple exactly when 1 has multiplicity one; two
    generators are refused rather than decided."""
    single = SpectrumDescriptor(point_generators=(GAMMA,), lebesgue_multiplicity=0)
    assert single.point_part_simple and single.tag == "pure-point"
    with pytest.raises(ValueError, match="^a point spectrum has at most one generator, got 2$"):
        SpectrumDescriptor(point_generators=(GAMMA, GAMMA.one_minus()), lebesgue_multiplicity=0)


@st.composite
def _angles(draw, fields=(2, 3, 5)):
    """(p + q*sqrt(d))/r in (0, 1): for fixed q, d and r, exactly r
    integers p put p + q*sqrt(d) strictly between 0 and r."""
    d = draw(st.sampled_from(fields))
    q = draw(st.integers(-4, 4).filter(bool))
    r = draw(st.integers(1, 4))
    p = math.floor(-q * math.sqrt(d)) + 1 + draw(st.integers(0, r - 1))
    return RotationNumber(p, q, d, r)


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
    pairing = intertwiner(skew, prod, truncation=12)
    check = verify_intertwiner(pairing)
    assert check.mismatches == 0
    assert check.checked > 0


def test_intertwiner_between_the_two_shifts():
    a = SystemSpec.shift(BernoulliSpec.fair_coin())
    b = SystemSpec.shift(BernoulliSpec((0.25,) * 4, (0, 1, 2, 3)))
    check = verify_intertwiner(intertwiner(a, b, truncation=8))
    assert check.mismatches == 0 and check.checked > 0


def test_intertwiner_rejects_incompatible_spectra():
    rot = SystemSpec.rotation(GAMMA)
    shift = SystemSpec.shift(BernoulliSpec.fair_coin())
    with pytest.raises(IncompatibleSpectraError):
        intertwiner(rot, shift, truncation=8)
    skew = SystemSpec.skew(GAMMA)
    mismatched = SystemSpec.product(
        RotationNumber(-1, 1, 3, 1), BernoulliSpec.fair_coin()
    )
    with pytest.raises(IncompatibleSpectraError):
        intertwiner(skew, mismatched, truncation=8)


def test_intertwiner_reads_the_decisions_it_is_handed(monkeypatch):
    """build_intertwiner decides no spectrum and compares no groups: with
    both deciders patched to fail, it pairs from the descriptors and the
    comparison it is given, and refuses descriptors whose multiplicities
    or point-group ranks differ, or a comparison of unequal groups."""
    skew = SystemSpec.skew(GAMMA)
    prod = SystemSpec.product(GAMMA, BernoulliSpec.fair_coin())
    mixed = SpectrumDescriptor((GAMMA,), "infinite")
    same = point_spectrum_groups_equal(GAMMA, GAMMA)
    unequal = point_spectrum_groups_equal(GAMMA, RotationNumber(-1, 1, 3, 1))

    def decided(*args):
        raise AssertionError("build_intertwiner decided again")

    monkeypatch.setattr(koopman, "spectrum_of", decided)
    monkeypatch.setattr(koopman, "point_spectrum_groups_equal", decided)
    pairing = build_intertwiner(skew, prod, 8, (mixed, mixed), same)
    assert (pairing.eps, pairing.truncation) == (1, 8)
    refused = {
        "Lebesgue multiplicities differ": ((mixed, SpectrumDescriptor((GAMMA,), 0)), same),
        "point spectra differ in rank": ((mixed, SpectrumDescriptor((), "infinite")), same),
        "point-spectrum groups differ": ((mixed, mixed), unequal),
    }
    for message, (spectra, groups) in refused.items():
        with pytest.raises(IncompatibleSpectraError, match=message):
            build_intertwiner(skew, prod, 8, spectra, groups)


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


#: The identities the certificate decides on each pair of kinds: chain,
#: position and phase on each side with chains, fixed on each side, and
#: the proper values on both.
IDENTITIES = {
    "skew-product": 9, "product-skew": 9, "skew-skew": 9, "product-product": 9,
    "shift2-shift4": 9, "rotation-rotation": 3, "skew-product-reflected": 9,
    "rotation-rotation-reflected": 3,
}


@pytest.mark.parametrize("B", [0, 1, 2, 7, 16, 33])
@pytest.mark.parametrize("case", list(PAIRING_CASES))
def test_pairing_matches_the_dict_oracle(case, B):
    """Same pairs in the same order as the dict-based construction, and
    the certificate agrees with the oracle's box check of those pairs:
    no identity fails, and no interior pair mismatches."""
    spec_a, spec_b = PAIRING_CASES[case]
    mapping, eps = oracle_pairing(spec_a, spec_b, B)
    pairing = intertwiner(spec_a, spec_b, B)
    assert pairing.eps == eps
    assert len(pairing.mapping) == len(mapping)
    assert list(pairing.mapping.items()) == list(mapping.items())
    check = verify_intertwiner(pairing)
    assert check == IntertwinerCheck(0, IDENTITIES[case])
    assert oracle_check(spec_a, spec_b, mapping).mismatches == 0


def test_mapping_is_a_dict_of_python_ints():
    """The pairs are a plain dict of label tuples of Python ints, built
    afresh on each read, and labels outside the box are not in it."""
    pairing = intertwiner(*PAIRING_CASES["skew-product"], truncation=7)
    mapping = pairing.mapping
    assert type(mapping) is dict and pairing.mapping is not mapping
    for key, value in mapping.items():
        assert all(type(x) is int for x in key[1:] + value[1:])
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
    """The box check of the letter's pairing counts 817 and 111,169
    interior pairs at B = 16 and 192, the counts the library reported
    before the certificate; the certificate decides the same nine
    identities at every B."""
    spec_a, spec_b = PAIRING_CASES["skew-product"]
    pairing = intertwiner(spec_a, spec_b, B)
    box = oracle_check(spec_a, spec_b, dict(pairing.mapping.items()))
    assert box == IntertwinerCheck(0, checked)
    assert verify_intertwiner(pairing) == IntertwinerCheck(0, 9)


#: The pairs inside [-B, B] of each case, in closed form: the proper
#: modes, then the positions the paired chains share.  A skew chain's
#: positions lie inside those of the chain it is paired with, and the
#: skew's chains hold the 2B(2B + 1) labels off the proper row.
PAIR_COUNTS = {
    "skew-product": lambda B: (2 * B + 1) ** 2,
    "product-skew": lambda B: (2 * B + 1) ** 2,
    "skew-skew": lambda B: (2 * B + 1) ** 2,
    "product-product": lambda B: (2 * B + 1) * (1 + (2 * B + 1) ** 2),
    "shift2-shift4": lambda B: 1 + (2 * B + 1) ** 2,
    "rotation-rotation": lambda B: 2 * B + 1,
    "skew-product-reflected": lambda B: (2 * B + 1) ** 2,
    "rotation-rotation-reflected": lambda B: 2 * B + 1,
}


@pytest.mark.parametrize("case", list(PAIRING_CASES))
def test_pair_count_has_a_closed_form(case):
    """``len(mapping)`` equals the closed-form pair count at B = 0..12."""
    for B in range(13):
        pairing = intertwiner(*PAIRING_CASES[case], B)
        assert len(pairing.mapping) == PAIR_COUNTS[case](B), B


def _traced_peak(B: int) -> int:
    """Traced peak bytes of building and checking the skew-product
    pairing at B, whose nine identities must hold."""
    tracemalloc.start()
    try:
        check = verify_intertwiner(intertwiner(*PAIRING_CASES["skew-product"], B))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check == IntertwinerCheck(0, 9)
    return peak


def test_pairing_and_check_at_b192_stay_under_a_memory_bound():
    """Traced peak of building and checking the skew-product pairing at
    B = 192: about 10 KB for the certificate's polynomials, against
    0.9 MB for the box check of 111,169 pairs that it replaced."""
    assert _traced_peak(192) < 2**17


def test_pairing_and_check_memory_does_not_grow_with_b():
    """Nothing the pairing keeps or the certificate allocates depends on
    the truncation: B = 10^9 peaks within 10 % of B = 192."""
    assert _traced_peak(10**9) <= 1.1 * _traced_peak(192)


def test_the_certificate_does_not_depend_on_the_truncation():
    """The same identities, the same polynomials, at every truncation."""
    checks = [verify_intertwiner(intertwiner(*PAIRING_CASES["skew-product"], B))
              for B in (0, 16, 10**5, 10**12)]
    assert len({tuple(map(str, check.identities)) for check in checks}) == 1
    assert [str(i) for i in checks[0].identities] == [
        "a lattice chain: (m) = (m) holds",
        "a lattice position: (j*m + m + r) = (j*m + m + r) holds",
        "a lattice phase: (j*m + r) = (j*m + r) holds",
        "a lattice fixed: (k, 0) = (k, 0) holds",
        "b support chain: (l, m) = (l, m) holds",
        "b support position: (j + 1) = (j + 1) holds",
        "b support phase: (l) = (l) holds",
        "b constant fixed: (k) = (k) holds",
        "ab points proper values: (k) = (k) holds",
    ]


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
def test_smaller_boxes_hold_the_first_chains(kind, B):
    """The chains meeting [-B, B] are distinct chains of Python ints, and
    they are, in order, the first chains meeting [-B-1, B+1], so the
    pairing at B is the pairing at B + 1 cut to the box; the product's
    chains run in the ring order."""
    basis = koopman._BASES[kind]
    params = [p for p, _ in basis.chains(B)]
    assert len(set(params)) == len(params) == CHAIN_CLOSED_FORMS[kind](B)
    assert all(type(x) is int for p in params for x in p)
    assert [p for p, _ in basis.chains(B + 1)][: len(params)] == params
    if kind == "product":
        assert [list(p) for p in params] == _ring_order(B)


def _doctor(kind: str, sector: str, **entry):
    """A mutant that replaces fields of one ``KOOPMAN_TABLE`` entry."""
    return lambda mp: mp.setitem(
        KOOPMAN_TABLE[kind], sector, KOOPMAN_TABLE[kind][sector]._replace(**entry)
    )


KERNEL_MUTANTS = {
    # the renormalization of the skew chains, not a table entry: the
    # triangular number j (j + 1) / 2 for j (j - 1) / 2
    "normalizing exponent off by one": lambda mp: mp.setattr(
        koopman, "_normalizing_exponent", lambda m, r, j: j * r + m * (j * (j + 1) // 2)
    ),
    "skew action steps k + m + 1": _doctor("skew", "lattice", b=(1, 0)),
    "product phase e(2l gamma)": _doctor("product", "support", c=(2, 0, 0)),
}

#: Mutants of the renormalization alone, which the box oracle writes out
#: for itself and so does not see.
CERTIFICATE_MUTANTS = {
    "normalizing exponent sign slip": lambda mp: mp.setattr(
        koopman, "_normalizing_exponent", lambda m, r, j: j * r - m * (j * (j - 1) // 2)
    ),
    "product l j renormalization dropped": lambda mp: mp.setattr(
        koopman._ProductBasis, "exponent", lambda params, j: 0
    ),
}


@pytest.mark.parametrize("case", ["skew-product", "product-skew"])
@pytest.mark.parametrize("mutant", list(KERNEL_MUTANTS))
def test_check_fails_when_an_action_is_wrong(mutant, case, monkeypatch):
    KERNEL_MUTANTS[mutant](monkeypatch)
    check = verify_intertwiner(intertwiner(*PAIRING_CASES[case], truncation=8))
    assert check.mismatches > 0


@pytest.mark.parametrize("case", ["skew-product", "product-skew"])
@pytest.mark.parametrize("mutant", list(CERTIFICATE_MUTANTS))
def test_certificate_fails_when_a_renormalization_is_wrong(mutant, case, monkeypatch):
    """A sign slip in the skew's normalizing exponent, or the product's
    e(l k gamma) left out, breaks the phase identity of that side."""
    CERTIFICATE_MUTANTS[mutant](monkeypatch)
    check = verify_intertwiner(intertwiner(*PAIRING_CASES[case], truncation=8))
    failed = [(i.sector, i.name) for i in check.identities if not i.holds]
    sector = "lattice" if "normalizing" in mutant else "support"
    assert (check.mismatches, check.checked, failed) == (1, 9, [(sector, "phase")])


TABLE_MUTANTS = {
    "skew action steps k + m + 1": KERNEL_MUTANTS["skew action steps k + m + 1"],
    "product phase e(2l gamma)": KERNEL_MUTANTS["product phase e(2l gamma)"],
    "skew A=((1,2),(0,1))": _doctor("skew", "lattice", A=((1, 2), (0, 1))),
    "skew c=(-1,0)": _doctor("skew", "lattice", c=(-1, 0)),
}


@pytest.mark.parametrize("case", list(PAIRING_CASES)[:4])
@pytest.mark.parametrize("mutant", list(TABLE_MUTANTS))
def test_certificate_and_box_check_fail_together(mutant, case, monkeypatch):
    """On every pairing of the skew and the product, a wrong table entry
    of a kind fails the certificate, which decides each side's step on
    its own.  The box check fails with it where the kinds differ; between
    two copies of one kind W is the identity, which intertwines any step
    with itself, so there the box check passes."""
    TABLE_MUTANTS[mutant](monkeypatch)
    spec_a, spec_b = PAIRING_CASES[case]
    pairing = intertwiner(spec_a, spec_b, 8)
    box = oracle_check(spec_a, spec_b, dict(pairing.mapping.items()))
    touched = ("skew" if "skew" in mutant else "product") in (spec_a.kind, spec_b.kind)
    assert (verify_intertwiner(pairing).mismatches > 0) == touched
    assert (box.mismatches > 0) == (touched and spec_a.kind != spec_b.kind)


@pytest.mark.parametrize(
    "entry, mismatches, failed",
    [
        ({"A": ((1, -1), (0, 1))}, 1, ["position"]),
        ({"A": ((1, 2), (0, 1))}, 1, ["position"]),
        ({"c": (-1, 0)}, 2, ["phase", "proper values"]),
    ],
    ids=["A=((1,-1),(0,1))", "A=((1,2),(0,1))", "c=(-1,0)"],
)
def test_skew_table_mutants_break_the_check_by_pinned_counts(
    entry, mismatches, failed, monkeypatch
):
    """Exact counts, so that an identity that stops reading the table, or
    a new one that fails, shows: a wrong A moves the image off position
    j + 1, and a wrong c breaks the chain phase and the proper values."""
    _doctor("skew", "lattice", **entry)(monkeypatch)
    check = verify_intertwiner(intertwiner(*PAIRING_CASES["skew-product"], 16))
    assert (check.mismatches, check.checked) == (mismatches, 9)
    assert [i.name for i in check.identities if not i.holds] == failed


@pytest.mark.parametrize("kind", ["skew", "bernoulli", "product"])
def test_chain_steps_gather_their_own_chain_parameters(kind):
    """A normalized chain steps to its next position with phase one, so a
    step that read another chain's parameters would leave the chain; the
    first and the last chain are where an enumeration off by one shows."""
    basis = koopman._BASES[kind]
    sector = basis.chain_sector
    chains = list(basis.chains(5))
    for params, js in (chains[0], chains[-1]):
        assert len(js) > 1
        # the first two positions of each chain
        for j in js[:2]:
            phase, image = koopman_step(kind, sector, basis.chain_label(params, j))
            assert image == basis.chain_label(params, j + 1)
            assert phase + basis.exponent(params, j) - basis.exponent(params, j + 1) == 0


def test_a_swap_of_two_chains_of_basis_b_still_intertwines():
    """W sends chain c of A to chain c of B, so swapping the first and
    last chains that B yields gives another unitary W, which still
    intertwines: the certificate's identities do not depend on the
    order.  The swap shows in the mapping."""
    pairing = intertwiner(*PAIRING_CASES["skew-product"], truncation=8)
    chains = list(pairing.basis_b.chains(8))
    chains[0], chains[-1] = chains[-1], chains[0]
    swapped_basis = type("Swapped", (pairing.basis_b,), {"chains": staticmethod(lambda B: chains)})
    swapped = replace(pairing, basis_b=swapped_basis)
    assert verify_intertwiner(swapped) == verify_intertwiner(pairing) == IntertwinerCheck(0, 9)
    assert pairing.mapping[("chain", 1, 0, 0)] == ("chain", 0, 0, 0)
    assert swapped.mapping[("chain", 1, 0, 0)] == ("chain", 8, 8, 0)


def test_check_fails_when_eps_is_flipped():
    """gamma_B = -gamma_A, so W sends the proper mode k to -k; with eps
    flipped it sends k to k, whose phase e(k gamma_B) differs from
    e(k gamma_A) unless k = 0.  The certificate compares phases by the
    angles' own relation, so the proper values fail."""
    pairing = intertwiner(*PAIRING_CASES["skew-product-reflected"], truncation=8)
    assert pairing.eps == -1
    check = verify_intertwiner(replace(pairing, eps=1))
    assert verify_intertwiner(pairing) == IntertwinerCheck(0, 9)
    assert check == IntertwinerCheck(1, 9)
    assert [str(i) for i in check.identities if not i.holds] == [
        "ab points proper values: (k) = (-k) FAILS"
    ]


def test_one_doctored_entry_flips_the_decision_and_breaks_the_check(monkeypatch):
    """The tower decision, the intertwiner check and the spectrum all read
    the same table: a skew step without its m term, (k, m) -> (k, m),
    changes every one of them at once."""
    pairing = intertwiner(*PAIRING_CASES["skew-product"], truncation=8)
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
