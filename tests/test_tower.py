"""Proper-function towers, the exact finite-orbit decision and the
residual search that corroborates it.

The frozen residual constants below come from the structure of the
truncated minimization problem: a free chain of n basis vectors has
smallest attainable residual 2*sin(pi / (2*(n+1))), attained by the
discrete sine profile.  Two oracles in `tower_oracle.py` must agree with
the census: `residual_by_profile` measures that profile, with its real
phases, over the coefficient lattice and by quadrature (an upper bound),
and `residual_brute_force` solves the same minimization as a least-squares
problem over a quadrature grid, split into the blocks of its Gram matrix
as read off the matrix itself.
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
    residual_census,
    residual_reference,
    stabilization_depth,
    towers_distinguish,
)

from ergolab import koopman, systems, tower
from ergolab.koopman import _integer_solutions
from ergolab.tower import (
    ACCEPT_TOL,
    CENSUS_KS,
    CENSUS_K_CHARGE,
    MAX_CENSUS_WORK,
    REJECT_FACTOR,
    OrbitDecision,
    _tower_gap,
)

from helpers import (
    GAMMA,
    full_subgroup,
    members_in_window,
    subgroup_contains,
    subgroup_from_json,
    subgroup_includes,
    subgroup_lattice_examples,
    tower_is_monotone,
)
from tower_oracle import (
    _block_min_eigenvalue,
    _oracle_gram,
    _p_step,
    _table_tails,
    census_by_walk,
    residual_brute_force,
    residual_by_profile,
)

SKEW = SystemSpec.skew(GAMMA)
PRODUCT = SystemSpec.product(GAMMA, BernoulliSpec.fair_coin())
GOLDEN = RotationNumber(-1, 1, 5, 2)  # (sqrt(5) - 1) / 2
SQRT7_MINUS_2 = RotationNumber(-2, 1, 7, 1)

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
        assert subgroup_contains(sub, g)
    # closure under addition and negation on a few combinations
    for a in gens[:2]:
        for b in gens[:2]:
            assert subgroup_contains(sub, (a[0] + b[0], a[1] + b[1]))
            assert subgroup_contains(sub, (-a[0], -a[1]))


@given(st.lists(pairs, min_size=1, max_size=4), st.lists(pairs, min_size=0, max_size=3))
@settings(max_examples=150)
def test_generated_subgroup_is_monotone_in_generators(gens, extra):
    small = ModeSubgroup.from_generators(gens)
    large = ModeSubgroup.from_generators(gens + extra)
    assert subgroup_includes(large, small)


@given(st.lists(pairs, min_size=0, max_size=4))
@settings(max_examples=150)
def test_membership_window_agrees_with_contains(gens):
    sub = ModeSubgroup.from_generators(gens)
    window = set(members_in_window(sub, 4))
    for k in range(-4, 5):
        for m in range(-4, 5):
            assert ((k, m) in window) == subgroup_contains(sub, (k, m))


def test_canonical_forms():
    # the same subgroup from different generator lists compares equal
    a = ModeSubgroup.from_generators([(2, 1), (0, 3)])
    b = ModeSubgroup.from_generators([(2, 4), (2, 1), (0, -3)])
    assert a == b
    assert ModeSubgroup.from_generators([]) == ModeSubgroup(0, 0, 0)
    assert ModeSubgroup.from_generators([(1, 0), (0, 1)]) == full_subgroup()
    assert ModeSubgroup.from_generators([]).is_trivial()


def test_lattice_examples_are_ordered():
    triv, row, row2, mixed, full = subgroup_lattice_examples()
    assert subgroup_includes(row, triv)
    assert subgroup_includes(row, row2)
    assert not subgroup_includes(row2, row)
    assert subgroup_includes(full, mixed) and subgroup_includes(mixed, row)
    assert subgroup_from_json(mixed.to_json()) == mixed


# ---------------------------------------------------------------------------
# the skew tower (exact)
# ---------------------------------------------------------------------------


def test_skew_tower_levels():
    levels = compute_tower(SKEW)
    assert [str(l.characters) for l in levels] == ["{0}", "<(1, 0)>", "Z^2", "Z^2"]
    assert levels[1].characters.generators() == [(1, 0)]
    assert subgroup_contains(levels[2].characters, (0, 1))
    assert stabilization_depth(levels) == 3
    assert tower_is_monotone(levels)
    assert [l.depth for l in levels] == [1, 2, 3, 4]


def _quotient_character(mode: tuple[int, int]) -> tuple[int, int]:
    """Character part of g[k,m](S x) / g[k,m](x): the table's image of the
    label less the label."""
    _, image = koopman_step("skew", "lattice", mode)
    return tuple(a - b for a, b in zip(image, mode))


def test_tower_levels_follow_the_quotient_recursion():
    """Level j + 1 holds exactly the characters whose quotient character
    lies in level j, on a window, and the top level stays put: the level
    the recursion would list next equals the last one listed."""
    levels = compute_tower(SKEW)
    window = list(itertools.product(range(-6, 7), repeat=2))
    for lower, upper in zip(levels, levels[1:]):
        for mode in window:
            assert subgroup_contains(upper.characters, mode) == subgroup_contains(
                lower.characters, _quotient_character(mode)
            ), (upper.depth, mode)
    top = levels[-1].characters
    for mode in window:
        assert subgroup_contains(top, _quotient_character(mode)) == subgroup_contains(top, mode)
    assert all(level.characters == full_subgroup() for level in levels[2:])


def test_tower_only_defined_for_skew():
    for spec in (SystemSpec.rotation(GAMMA), SystemSpec.shift(BernoulliSpec.fair_coin())):
        with pytest.raises(UnsupportedSystemError):
            compute_tower(spec)


def _work_begins(*args):
    raise AssertionError("the work began")


def test_compute_tower_takes_no_depth_and_ends_at_the_first_repeat(monkeypatch):
    """The tower takes no depth, so there is no budget to exceed: a depth
    is refused before any level is built.  The levels end at the first
    repeat, d + 2 = 4 kernel solves on Z^2, or 3 where the step is the
    identity; the solves that put each kernel in normal form are not
    counted.  A step that is not unipotent, whose levels need not end at
    level 4, never reaches the tower: its table is refused where it is
    derived from the map record."""
    solves = []

    def counted(rows, rhs):
        if rhs == [0, 0]:  # a kernel of N^j on Z^2
            solves.append(rows)
        return _integer_solutions(rows, rhs)

    monkeypatch.setattr(tower, "_integer_solutions", counted)
    with pytest.raises(TypeError):
        compute_tower(SKEW, 30_001)
    assert solves == []
    assert len(compute_tower(SKEW)) == len(solves) == 4
    lattice = KOOPMAN_TABLE["skew"]["lattice"]
    monkeypatch.setitem(KOOPMAN_TABLE["skew"], "lattice", lattice._replace(N=((0, 0), (0, 0))))
    levels = compute_tower(SKEW)
    assert [str(l.characters) for l in levels] == ["{0}", "Z^2", "Z^2"]
    assert len(solves) == 4 + 3 and stabilization_depth(levels) == 2
    # the step (l, m) -> (2l + m, l + m)
    monkeypatch.setitem(systems.MAPS, "skew", (((1, 1), (1, 0)), (1, 0), 0))
    with pytest.raises(ValueError, match="^the skew step is not unipotent on the lattice sector$"):
        koopman._koopman_table()


def test_residual_census_refuses_over_the_work_budget_before_a_step(monkeypatch):
    """The first ``next`` of a census over the work budget raises the
    command line's text before any table entry is read or label counted:
    one k is charged its 2N + 1 window positions and ``CENSUS_K_CHARGE``,
    so five ks fit up to N = 29,994 and six ks, read once from an
    iterator, do not."""
    monkeypatch.setattr(tower, "_line_step", _work_begins)
    census = residual_census(PRODUCT, CENSUS_KS, 29_995)
    with pytest.raises(ValueError) as caught:
        next(census)
    assert 5 * (2 * 29_995 + 1 + CENSUS_K_CHARGE) == 300_005 > MAX_CENSUS_WORK
    assert str(caught.value) == (
        "5 ks at residual truncation 29995 are charged 60001 census positions each, "
        f"300005 in all, over the budget of {MAX_CENSUS_WORK}: the census would take about 2 s"
    )
    with pytest.raises(ValueError, match=r"^6 ks at residual truncation 29994 are charged 59999 "):
        next(residual_census(PRODUCT, iter(range(6)), 29_994))
    with pytest.raises(AssertionError, match="work began"):
        next(residual_census(PRODUCT, iter(range(5)), 29_994))


def test_quotient_homomorphism():
    """q(g[k,m]) = g[k,m] o S / g[k,m] is the constant e(k gamma), the
    table's phase, times the character (m, 0) = N (k, m); q
    multiplies as the characters do."""
    mult, _ = koopman_step("skew", "lattice", (5, -2))
    assert mult == 5 and _quotient_character((5, -2)) == (-2, 0)
    qa, qb = _quotient_character((5, -2)), _quotient_character((-3, 7))
    assert _quotient_character((2, 5)) == (qa[0] + qb[0], qa[1] + qb[1])


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
    r0 = residual_reference()
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
    # ... and the census, stepping the same table, closes every node on itself
    fixed = quasi_eigen_residual_search(PRODUCT, 0, 8)
    assert fixed.cycles == fixed.dimension == 1386 and fixed.path_lengths == []
    # a skew step without its m term, (l, m) -> (l, m), leaves only k = 0;
    # the search walks the same step and loses its k = 1 witness with it
    lattice = KOOPMAN_TABLE["skew"]["lattice"]
    monkeypatch.setitem(KOOPMAN_TABLE["skew"], "lattice", lattice._replace(N=((0, 0), (0, 0))))
    doctored = decide_finite_orbits("skew")
    assert not doctored.gap and not doctored.has_finite_orbit(1)
    lost = quasi_eigen_residual_search(SKEW, 1, 8)
    assert lost.cycles == 0 and _longest_path(lost) == 9
    assert lost.residual == residual_reference()


def test_non_unipotent_step_is_refused(monkeypatch):
    """The step (l, m) -> (2l + m, m) is refused where its table is
    derived from the map record, so no decision reads it."""
    monkeypatch.setitem(systems.MAPS, "skew", (((1, 0), (1, 0)), (1, 0), 0))
    with pytest.raises(ValueError, match="^the skew step is not unipotent on the lattice sector$"):
        koopman._koopman_table()


def test_census_refuses_a_step_that_is_not_injective(monkeypatch):
    """(l, m) -> (l + m, 0) merges paths, which the walk oracle refuses
    when the step is patched into the table; the step is not unipotent,
    so its orbits are no lattice lines, and the table derived from its map
    record refuses it by name before any census counts."""
    lattice = KOOPMAN_TABLE["skew"]["lattice"]
    monkeypatch.setitem(KOOPMAN_TABLE["skew"], "lattice", lattice._replace(N=((0, 1), (0, -1))))
    with pytest.raises(ValueError, match="not injective"):
        census_by_walk(SKEW, 1, 8)
    monkeypatch.setitem(systems.MAPS, "skew", (((0, 0), (1, -1)), (1, 0), 0))
    with pytest.raises(ValueError, match="^the skew step is not unipotent on the lattice sector$"):
        koopman._koopman_table()


# (kind, sector, replaced fields): the doctored steps above; steps whose
# images land in the gaps of the tails' box, leave it, or move the tail by
# l.  A skew mutant is named by its whole step A = I + N.
CENSUS_MUTANTS = {
    "skew table as it is": ("skew", "lattice", {}),
    "skew without its m term": ("skew", "lattice", {"N": ((0, 0), (0, 0))}),
    "skew A = ((1, -1), (0, 1))": ("skew", "lattice", {"N": ((0, -1), (0, 0))}),
    "skew A = ((1, 2), (0, 1))": ("skew", "lattice", {"N": ((0, 2), (0, 0))}),
    "product table as it is": ("product", "support", {}),
    "product support stays put": ("product", "support", {"b": (0, 0, 0)}),
    "product shape grows": ("product", "support", {"b": (0, 0, 1)}),
    "product position moves by l": (
        "product", "support", {"N": ((0, 0, 0), (1, 0, 0), (0, 0, 0)), "b": (0, 1, 0)}
    ),
    "product constant moves": ("product", "constant", {"b": (3,)}),
}

#: Skew steps of order 2 and 3, whose orbits are no lattice lines, as map
#: records (N, t, s): the table derived from them refuses them.
CENSUS_RECORDS_NOT_UNIPOTENT = {
    "skew swaps l and m": (((-1, 1), (1, -1)), (1, 0), 0),
    "skew turns by a third": (((-1, 1), (-1, -2)), (1, 0), 0),
}


def _census_fields(report) -> tuple:
    return (report.k, report.cycles, report.path_lengths, report.dimension, report.residual)


def _orbits_are_lines(kind: str, k: int, truncation: int) -> bool:
    """Whether K_k steps each label as far as it steps the label's image,
    tried on every label of the truncated basis."""
    spec = SKEW if kind == "skew" else PRODUCT
    labels = [(l, *t) for l in range(-4, 5) for t in _table_tails(spec, truncation)]
    images = _p_step(kind, labels, k)
    return all(
        tuple(b - a for a, b in zip(y, z)) == tuple(b - a for a, b in zip(x, y))
        for x, y, z in zip(labels, images, _p_step(kind, images, k))
    )


@pytest.mark.parametrize("mutant", [*CENSUS_MUTANTS, *CENSUS_RECORDS_NOT_UNIPOTENT])
def test_census_matches_the_walk_oracle(mutant, monkeypatch):
    """The counted census gives the report of the label-by-label walk,
    field for field, for every k in -4..4 whose orbits are lattice lines,
    and refuses, naming the sector and k, a census over any other k.  Its
    ``dimension`` is the closed form of the basis size, 9 (1 + (N+1)(2N+1))
    on the product and 9 (2N + 1) on the skew.  A step that is not
    unipotent is refused by name where its table is derived."""
    if mutant in CENSUS_RECORDS_NOT_UNIPOTENT:
        monkeypatch.setitem(systems.MAPS, "skew", CENSUS_RECORDS_NOT_UNIPOTENT[mutant])
        with pytest.raises(ValueError, match="^the skew step is not unipotent on the lattice sector$"):
            koopman._koopman_table()
        return
    kind, sector, fields = CENSUS_MUTANTS[mutant]
    entry = KOOPMAN_TABLE[kind][sector]._replace(**fields)
    monkeypatch.setitem(KOOPMAN_TABLE[kind], sector, entry)
    spec = SKEW if kind == "skew" else PRODUCT
    lines = [k for k in range(-4, 5) if _orbits_are_lines(kind, k, 3)]
    for k in sorted(set(range(-4, 5)) - set(lines)):
        refusal = rf"^K_{k} does not move the {kind} {sector} sector along lattice lines"
        with pytest.raises(ValueError, match=refusal):
            next(residual_census(spec, (*lines, k), 3))
    for truncation in (2, 3, 4, 8, 13, 16):
        census = list(residual_census(spec, lines, truncation))
        assert [_census_fields(r) for r in census] == [
            _census_fields(census_by_walk(spec, k, truncation)) for k in lines
        ], truncation
        side = 2 * truncation + 1
        dimension = 9 * (1 + (truncation + 1) * side if kind == "product" else side)
        assert all(r.dimension == dimension for r in census)


def test_census_refuses_a_table_whose_orbits_are_no_lines(monkeypatch):
    """A support position moved by l, (l, a, s) -> (l - k, a + l + 1, s),
    steps along lines at k = 0 only: every other k is refused by name,
    before any k is counted."""
    kind, sector, fields = CENSUS_MUTANTS["product position moves by l"]
    monkeypatch.setitem(KOOPMAN_TABLE[kind], sector, KOOPMAN_TABLE[kind][sector]._replace(**fields))
    assert quasi_eigen_residual_search(PRODUCT, 0, 8) == census_by_walk(PRODUCT, 0, 8)
    census = residual_census(PRODUCT, (0, 2), 8)
    with pytest.raises(ValueError) as caught:
        next(census)
    assert str(caught.value) == (
        "K_2 does not move the product support sector along lattice lines: "
        "N (b - k e_l) is not 0"
    )


@pytest.mark.parametrize("spec", [PRODUCT, SKEW], ids=["product", "skew"])
def test_count_matches_the_walk_on_a_grid(spec):
    """The count equals the label-by-label walk at every truncation
    N = 2..11 and every k in -9..9, out to the product's band edge
    2 U_BAND + 1 = 9."""
    ks = range(-9, 10)
    for truncation in range(2, 12):
        assert list(residual_census(spec, ks, truncation)) == [
            census_by_walk(spec, k, truncation) for k in ks
        ], truncation


def test_census_takes_ks_with_repeats_in_their_order():
    ks = [1, -2, 1, 0, 0, 2, -2, 1]
    census = list(residual_census(PRODUCT, ks, 8))
    assert [r.k for r in census] == ks
    assert census == [census_by_walk(PRODUCT, k, 8) for k in ks]
    assert census == [quasi_eigen_residual_search(PRODUCT, k, 8) for k in ks]


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
        _tower_gap(SKEW, 8)


def test_integer_solutions_of_a_tall_full_rank_system():
    """Three equations in two unknowns: the pivots run out before the
    rows do, and the last row only checks consistency."""
    rows = [[1, 0], [0, 1], [1, 1]]
    assert _integer_solutions(rows, [2, 3, 5]) == ([2, 3], [])
    assert _integer_solutions(rows, [2, 3, 4]) is None


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


def _longest_path(report) -> int:
    return max((n for n, _ in report.path_lengths), default=0)


def test_product_residuals_frozen_values():
    r0 = quasi_eigen_residual_search(PRODUCT, 0, 8)
    assert r0.residual <= 1e-12
    assert r0.cycles == 9  # the proper functions e(l u), one self-loop each
    for k, expected in ((1, RESIDUAL_K1), (-1, RESIDUAL_K1), (2, RESIDUAL_K2), (-2, RESIDUAL_K2)):
        rep = quasi_eigen_residual_search(PRODUCT, k, 8)
        assert abs(rep.residual - expected) <= 1e-9, (k, rep.residual)
        assert rep.cycles == 0
        assert _longest_path(rep) == (9 if abs(k) == 1 else 5)
        assert sum(n * count for n, count in rep.path_lengths) == rep.dimension == 1386


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
    assert rep.cycles >= 1  # e(l u) e(v) is fixed by K_1


@pytest.mark.parametrize("gamma", [GAMMA, GOLDEN, SQRT7_MINUS_2], ids=["sqrt2", "golden", "sqrt7"])
@pytest.mark.parametrize("kind", ["skew", "product"])
def test_census_matches_the_profile_oracle(kind, gamma):
    """Upper half of the closed form: the sine profile (or the cycle's
    gauged vector), carrying the real phases, attains the census residual,
    and quadrature on a u-grid re-measures it."""
    spec = (
        SystemSpec.skew(gamma)
        if kind == "skew"
        else SystemSpec.product(gamma, BernoulliSpec.fair_coin())
    )
    for truncation in (4, 8, 12, 16):
        for k in range(-3, 4):
            census = quasi_eigen_residual_search(spec, k, truncation)
            oracle = residual_by_profile(spec, k, truncation)
            assert abs(census.residual - oracle.residual) <= 1e-12, (truncation, k)
            assert abs(oracle.grid_residual - oracle.residual) <= 1e-8, (truncation, k)
            if census.cycles:
                assert abs(oracle.delta - 1) <= 1e-9, (truncation, k)


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
    ref = residual_reference()
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
    assert abs(residual_reference() - dense) <= 1e-12


def test_residual_reference_refuses_k_zero():
    with pytest.raises(ValueError):
        residual_reference(ks=(0, 1))
    assert abs(residual_reference(ks=(2, -2)) - RESIDUAL_K2) <= 1e-12


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


def test_certification_reports_inconclusive_midzone(monkeypatch):
    """With a rejection threshold pushed above the observed residuals the
    protocol must refuse to certify rather than guess."""
    monkeypatch.setattr(tower, "REJECT_FACTOR", 10.0)
    with pytest.raises(InconclusiveEvidenceError) as caught:
        certify_product_tower(PRODUCT, truncation=8)
    # the evidence runs up to the failing k, one report per k searched
    assert caught.value.partial == [quasi_eigen_residual_search(PRODUCT, k, 8) for k in (0, 1)]


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
