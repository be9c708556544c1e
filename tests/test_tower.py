"""Proper-function towers, the exact finite-orbit decision and the
residual search that corroborates it.

The frozen residual constants below come from the structure of the
truncated minimization problem: a free chain of n basis vectors has
smallest attainable residual 2*sin(pi / (2*(n+1))), attained by the
discrete sine profile.  The independent oracle (`residual_brute_force` in
`tower_oracle.py`) solves the same minimization as a least-squares
problem over a quadrature grid, split into the blocks of its Gram matrix
as read off the matrix itself, and must agree.
"""

from __future__ import annotations

import cmath
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import (
    BernoulliSpec,
    KOOPMAN_TABLE,
    DegenerateGridError,
    InconclusiveEvidenceError,
    ModeSubgroup,
    RotationNumber,
    SystemSpec,
    UnsupportedSystemError,
    certify_product_tower,
    compute_tower,
    decide_finite_orbits,
    koopman_step,
    quasi_eigen_residual_search,
    residual_reference,
    stabilization_depth,
    tower_step,
    towers_distinguish,
)

from ergolab import tower
from ergolab.koopman import _integer_solutions
from ergolab.tower import (
    ACCEPT_TOL,
    REJECT_FACTOR,
    OrbitDecision,
    _minimal_multiple,
    _skew_quotient_character,
    _tower_gap,
)

from helpers import GAMMA, subgroup_lattice_examples, tower_is_monotone
from tower_oracle import _block_min_eigenvalue, _oracle_gram, residual_brute_force

SKEW = SystemSpec.skew(GAMMA)
PRODUCT = SystemSpec.product(GAMMA, BernoulliSpec.fair_coin())
GOLDEN = RotationNumber.quadratic(-1, 1, 5, 2)  # (sqrt(5) - 1) / 2

# smallest residuals of the truncated product problem (see module docstring):
# k = +-1 leaves a free chain of 9 constant-tail modes -> 2 sin(pi/20)
# k = +-2 leaves a free chain of 5                     -> 2 sin(pi/12)
RESIDUAL_K1 = 2 * math.sin(math.pi / 20)
RESIDUAL_K2 = 2 * math.sin(math.pi / 12)

pairs = st.tuples(st.integers(-9, 9), st.integers(-9, 9))


# ---------------------------------------------------------------------------
# character lattices
# ---------------------------------------------------------------------------


@given(st.lists(pairs, min_size=0, max_size=5))
@settings(max_examples=200)
def test_from_generators_contains_generators(gens):
    sub = ModeSubgroup.from_generators(gens)
    for g in gens:
        assert sub.contains(g)
    # closure under addition and negation on a few combinations
    for a in gens[:2]:
        for b in gens[:2]:
            assert sub.contains((a[0] + b[0], a[1] + b[1]))
            assert sub.contains((-a[0], -a[1]))


@given(st.lists(pairs, min_size=1, max_size=4), st.lists(pairs, min_size=0, max_size=3))
@settings(max_examples=150)
def test_generated_subgroup_is_monotone_in_generators(gens, extra):
    small = ModeSubgroup.from_generators(gens)
    large = ModeSubgroup.from_generators(gens + extra)
    assert large.contains_subgroup(small)


@given(st.lists(pairs, min_size=0, max_size=4))
@settings(max_examples=150)
def test_membership_window_agrees_with_contains(gens):
    sub = ModeSubgroup.from_generators(gens)
    window = set(sub.members_in_window(4))
    for k in range(-4, 5):
        for m in range(-4, 5):
            assert ((k, m) in window) == sub.contains((k, m))


def test_canonical_forms():
    # the same subgroup from different generator lists compares equal
    a = ModeSubgroup.from_generators([(2, 1), (0, 3)])
    b = ModeSubgroup.from_generators([(2, 4), (2, 1), (0, -3)])
    assert a == b
    assert ModeSubgroup.from_generators([]) == ModeSubgroup.trivial()
    assert ModeSubgroup.from_generators([(1, 0), (0, 1)]) == ModeSubgroup.full()
    assert ModeSubgroup.trivial().is_trivial()


def test_lattice_examples_are_ordered():
    triv, row, row2, mixed, full = subgroup_lattice_examples()
    assert row.contains_subgroup(triv)
    assert row.contains_subgroup(row2)
    assert not row2.contains_subgroup(row)
    assert full.contains_subgroup(mixed) and mixed.contains_subgroup(row)
    assert ModeSubgroup.from_json(mixed.to_json()) == mixed


# ---------------------------------------------------------------------------
# the skew tower (exact)
# ---------------------------------------------------------------------------


def test_skew_tower_levels():
    levels = compute_tower(SKEW, 4)
    assert [str(l.characters) for l in levels] == ["{0}", "<(1, 0)>", "Z^2", "Z^2"]
    assert levels[1].characters.generators() == [(1, 0)]
    assert levels[2].characters.contains((0, 1))
    assert stabilization_depth(levels) == 3
    assert tower_is_monotone(levels)
    assert [l.depth for l in levels] == [1, 2, 3, 4]


def test_tower_step_is_idempotent_at_the_top():
    levels = compute_tower(SKEW, 3)
    again = tower_step(levels[-1], SKEW)
    assert again.characters == levels[-1].characters


def test_tower_only_defined_for_skew():
    for spec in (SystemSpec.rotation(GAMMA), SystemSpec.shift(BernoulliSpec.fair_coin())):
        with pytest.raises(UnsupportedSystemError):
            compute_tower(spec, 3)


def _identity(mode):
    return mode


def test_minimal_multiple_when_one_exists():
    # t (1, 0) = s (2, 1) + y (0, 3) needs t = 2s and s = -3y: t = 6
    H = ModeSubgroup.from_generators([(2, 1), (0, 3)])
    assert _minimal_multiple((1, 0), _identity, H) == 6
    assert _minimal_multiple((0, 1), _identity, H) == 3
    assert _minimal_multiple((2, 1), _identity, H) == 1


def test_minimal_multiple_when_none_exists():
    assert _minimal_multiple((1, 0), _identity, ModeSubgroup.trivial()) == 0
    pure_u = ModeSubgroup.from_generators([(1, 0)])
    assert _minimal_multiple((0, 1), _identity, pure_u) == 0
    assert _minimal_multiple((3, 1), _identity, pure_u) == 0


@given(st.lists(pairs, min_size=0, max_size=3), pairs)
@settings(max_examples=150)
def test_minimal_multiple_is_the_least(gens, q):
    """Against a bounded search: if any multiple of q lies in H, one does
    by t = a * c, since a (resp. c) alone bounds it when c (resp. a) is 0."""
    H = ModeSubgroup.from_generators(gens)
    bound = max(H.a, 1) * max(H.c, 1)
    searched = next(
        (t for t in range(1, bound + 1) if H.contains((t * q[0], t * q[1]))), 0
    )
    assert _minimal_multiple((1, 0), lambda _: q, H) == searched


def test_quotient_homomorphism():
    """q(g[k,m]) = g[k,m] o S / g[k,m] is the constant e(k gamma), the
    table's phase, times the character (m, 0); q multiplies as the
    characters do."""
    mult, _ = koopman_step("skew", "lattice", (5, -2))
    assert mult == 5 and _skew_quotient_character((5, -2)) == (-2, 0)
    qa, qb = _skew_quotient_character((5, -2)), _skew_quotient_character((-3, 7))
    assert _skew_quotient_character((2, 5)) == (qa[0] + qb[0], qa[1] + qb[1])


# ---------------------------------------------------------------------------
# the exact finite-orbit decision
# ---------------------------------------------------------------------------


def test_decision_values():
    product = decide_finite_orbits("product")
    assert product.sectors == {"constant": (0, 0), "support": None}
    assert not product.gap
    assert [k for k in range(-5, 6) if product.has_finite_orbit(k)] == [0]
    skew = decide_finite_orbits("skew")
    assert skew.sectors == {"lattice": (0, 1)}
    assert skew.gap
    assert all(skew.has_finite_orbit(k) for k in range(-5, 6))
    assert skew.to_json() == {
        "gap": True, "sectors": {"lattice": {"k_base": 0, "k_step": 1}}
    }


def test_decision_rejects_unsupported_systems():
    for kind in ("rotation", "shift"):
        with pytest.raises(UnsupportedSystemError):
            decide_finite_orbits(kind)


def test_orbit_decision_cosets():
    decision = OrbitDecision({"a": (1, 3), "b": None, "c": (-2, 0)})
    assert [k for k in range(-6, 7) if decision.has_finite_orbit(k)] == [-5, -2, 1, 4]
    assert decision.gap
    assert not OrbitDecision({"a": (0, 0), "b": None}).gap


@pytest.mark.parametrize("gamma", [GAMMA, GOLDEN], ids=["sqrt2", "golden"])
@pytest.mark.parametrize("kind", ["skew", "product"])
def test_decision_agrees_with_the_search(kind, gamma):
    spec = (
        SystemSpec.skew(gamma)
        if kind == "skew"
        else SystemSpec.product(gamma, BernoulliSpec.fair_coin())
    )
    decision = decide_finite_orbits(kind)
    r0 = residual_reference(spec)
    for k in range(-3, 4):
        residual = quasi_eigen_residual_search(spec, k, 8).residual
        if decision.has_finite_orbit(k):
            assert residual <= ACCEPT_TOL, (k, residual)
        else:
            assert residual >= r0 * REJECT_FACTOR, (k, residual)


def test_doctored_p_step_flips_the_decision(monkeypatch):
    assert decide_finite_orbits("product").sectors["support"] is None
    assert decide_finite_orbits("skew").gap
    assert quasi_eigen_residual_search(SKEW, 1, 8).residual <= ACCEPT_TOL
    # a product support step that stays put fixes every support at k = 0
    support = KOOPMAN_TABLE["product"]["support"]
    monkeypatch.setitem(KOOPMAN_TABLE["product"], "support", support._replace(b=(0, 0, 0)))
    assert decide_finite_orbits("product").sectors["support"] == (0, 0)
    # a skew step without its m term, (l, m) -> (l, m), leaves only k = 0;
    # the search walks the same step and loses its k = 1 witness with it
    lattice = KOOPMAN_TABLE["skew"]["lattice"]
    monkeypatch.setitem(KOOPMAN_TABLE["skew"], "lattice", lattice._replace(A=((1, 0), (0, 1))))
    doctored = decide_finite_orbits("skew")
    assert not doctored.gap and not doctored.has_finite_orbit(1)
    assert abs(quasi_eigen_residual_search(SKEW, 1, 8).residual - RESIDUAL_K1) <= 1e-9


def test_non_unipotent_step_is_refused(monkeypatch):
    lattice = KOOPMAN_TABLE["skew"]["lattice"]
    monkeypatch.setitem(KOOPMAN_TABLE["skew"], "lattice", lattice._replace(A=((2, 1), (0, 1))))
    with pytest.raises(ValueError, match="unipotent"):
        decide_finite_orbits("skew")


def test_verdicts_raise_when_evidence_disagrees_with_the_decision(monkeypatch):
    monkeypatch.setattr(
        tower, "decide_finite_orbits", lambda kind: OrbitDecision({"x": (0, 1)})
    )
    with pytest.raises(RuntimeError, match="exact decision"):
        certify_product_tower(PRODUCT, truncation=8)
    monkeypatch.setattr(
        tower, "decide_finite_orbits", lambda kind: OrbitDecision({"x": (0, 0)})
    )
    with pytest.raises(RuntimeError, match="exact decision"):
        _tower_gap(SKEW, 8, (0, 1))


small = st.integers(-3, 3)


@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=1, max_size=2),
       st.lists(small, min_size=2, max_size=2))
@settings(max_examples=200)
def test_integer_solutions_against_a_bounded_search(rows, rhs):
    rhs = rhs[: len(rows)]
    solved = _integer_solutions(rows, rhs)

    def apply(z):
        return [sum(a * b for a, b in zip(row, z)) for row in rows]

    box = itertools.product(range(-6, 7), repeat=3)
    found = next((z for z in box if apply(z) == rhs), None)
    if solved is None:
        assert found is None
        return
    particular, kernel = solved
    assert apply(particular) == rhs
    assert all(apply(v) == [0] * len(rows) for v in kernel)
    # the kernel basis has full rank: 3 minus the rank of the rows
    rank = np.linalg.matrix_rank(np.array(rows))
    assert np.linalg.matrix_rank(np.array(kernel).reshape(-1, 3)) == len(kernel) == 3 - rank


# ---------------------------------------------------------------------------
# residual search: frozen values and oracle agreement
# ---------------------------------------------------------------------------


def test_product_residuals_frozen_values():
    r0 = quasi_eigen_residual_search(PRODUCT, 0, 8)
    assert r0.residual <= 1e-12
    assert abs(r0.delta - 1) <= 1e-9
    for k, expected in ((1, RESIDUAL_K1), (-1, RESIDUAL_K1), (2, RESIDUAL_K2), (-2, RESIDUAL_K2)):
        rep = quasi_eigen_residual_search(PRODUCT, k, 8)
        assert abs(rep.residual - expected) <= 1e-9, (k, rep.residual)
        # the quadrature cross-check solves nothing structurally; it just
        # re-measures the reported minimizer on a dense grid
        assert abs(rep.grid_residual - rep.residual) <= 1e-8


def test_product_residuals_do_not_shrink_with_truncation():
    """The u-band is fixed by design, so enlarging the truncation cannot
    push the k != 0 residuals toward zero."""
    for k, expected in ((1, RESIDUAL_K1), (2, RESIDUAL_K2)):
        at_8 = quasi_eigen_residual_search(PRODUCT, k, 8).residual
        at_16 = quasi_eigen_residual_search(PRODUCT, k, 16).residual
        assert abs(at_8 - expected) <= 1e-9
        assert abs(at_16 - expected) <= 1e-9


def test_skew_witness_is_an_exact_eigenvector():
    rep = quasi_eigen_residual_search(SKEW, 1, 8)
    assert rep.residual <= 1e-12
    assert rep.grid_residual <= 1e-8
    assert abs(rep.delta - 1) <= 1e-9


def test_search_agrees_with_dense_oracle():
    """Independent check: a least-squares minimization over all truncated
    coefficients finds the same minima.  The oracle's block structure is
    read off its Gram matrix, not taken from the search."""
    for k, expected in ((1, RESIDUAL_K1), (2, RESIDUAL_K2)):
        dense = residual_brute_force(PRODUCT, k, 4)
        structured = quasi_eigen_residual_search(PRODUCT, k, 4).residual
        assert abs(dense - structured) <= 1e-6
        assert abs(dense - expected) <= 1e-6


def test_residual_reference_value():
    ref = residual_reference(PRODUCT)
    assert abs(ref - RESIDUAL_K1) <= 1e-6


@pytest.mark.parametrize("gamma", [GAMMA, GOLDEN], ids=["sqrt2", "golden"])
@pytest.mark.parametrize("k", [1, 2])
def test_blocked_oracle_matches_dense_eigensolve(gamma, k):
    S, M = _oracle_gram(SystemSpec.product(gamma, BernoulliSpec.fair_coin()), k, 4)
    min_eigenvalue = _block_min_eigenvalue(S, M)
    for theta in (0.0, 0.7, 2.0, 4.5):
        delta = cmath.exp(1j * theta)
        dense = np.linalg.eigvalsh(S - delta * M - np.conj(delta) * M.conj().T)[0]
        assert abs(min_eigenvalue(delta) - dense) <= 1e-12, (k, theta)


def test_oracle_refuses_to_drop_mass_between_blocks():
    from scipy.sparse.csgraph import connected_components

    S, M = _oracle_gram(PRODUCT, 1, 4)
    _block_min_eigenvalue(S, M)  # splits cleanly as assembled
    # structural entries are about 1 and the rest rounding noise near 1e-16
    _, labels = connected_components(np.abs(S) + np.abs(M) > 1e-9, directed=False)
    j = int(np.flatnonzero(labels != labels[0])[0])
    S[0, j] = S[j, 0] = 1e-6
    with pytest.raises(ValueError, match="off-block mass"):
        _block_min_eigenvalue(S, M)


@pytest.mark.parametrize("gamma", [GAMMA, GOLDEN], ids=["sqrt2", "golden"])
def test_r0_is_the_nine_node_path_residual(gamma):
    spec = SystemSpec.product(gamma, BernoulliSpec.fair_coin())
    dense = min(residual_brute_force(spec, k, 4) for k in (1, 2))
    assert abs(residual_reference(spec) - dense) <= 1e-12


def test_residual_reference_ignores_the_coin():
    biased = SystemSpec.product(GAMMA, BernoulliSpec((0.3, 0.7), (1, -1)))
    assert residual_reference(PRODUCT) == residual_reference(biased)


def test_residual_reference_refuses_k_zero():
    with pytest.raises(ValueError):
        residual_reference(PRODUCT, ks=(0, 1))
    assert abs(residual_reference(PRODUCT, ks=(2, -2)) - RESIDUAL_K2) <= 1e-12


def test_user_grid_below_quadrature_floor_is_rejected():
    with pytest.raises(DegenerateGridError):
        quasi_eigen_residual_search(PRODUCT, 1, 8, grid=4)


def test_search_rejects_unsupported_systems():
    with pytest.raises(UnsupportedSystemError):
        quasi_eigen_residual_search(SystemSpec.rotation(GAMMA), 1, 8)


# ---------------------------------------------------------------------------
# certification and comparison
# ---------------------------------------------------------------------------


def test_certify_product_tower():
    cert = certify_product_tower(PRODUCT, truncation=8)
    assert not cert.new_level_found
    assert abs(cert.r0 - RESIDUAL_K1) <= 1e-6
    assert sorted(rep.k for rep in cert.reports) == [-2, -1, 0, 1, 2]
    for rep in cert.reports:
        if rep.k == 0:
            assert rep.residual <= 1e-6
        else:
            assert rep.residual >= cert.r0 / 2


def test_certification_reports_inconclusive_midzone():
    """With a rejection threshold pushed above the observed residuals the
    protocol must refuse to certify rather than guess."""
    with pytest.raises(InconclusiveEvidenceError):
        certify_product_tower(PRODUCT, truncation=8, reject_factor=10.0)


def test_towers_distinguish_skew_from_product():
    result = towers_distinguish(SKEW, PRODUCT, truncation=8)
    assert result.verdict == "distinguished"
    assert result.gap_a is True and result.gap_b is False
    assert set(result.evidence) == {"system_a", "system_b"}


def test_identical_towers_distinguish_nothing():
    result = towers_distinguish(SKEW, SystemSpec.skew(GAMMA), truncation=8)
    assert result.verdict == "not-distinguished"


def test_protocol_timing_budget():
    start = time.perf_counter()
    certify_product_tower(PRODUCT, truncation=8)
    assert time.perf_counter() - start < 60.0
