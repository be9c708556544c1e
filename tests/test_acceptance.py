"""Acceptance run: seven go/no-go criteria at their stated tolerances.

Each test prints exactly one PASS/FAIL line (collected in the terminal
summary) carrying the measured values next to their thresholds, and
fails the run if its criterion is not met.
"""

from __future__ import annotations

import functools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from conftest import ACCEPTANCE_LINES
from helpers import (
    GAMMA,
    UNIFORM4,
    battery_of_sets,
    four_systems,
    intertwiner,
    max_preservation_sigma,
    product_index_map_injective,
    skew_index_map_injective,
    subgroup_contains,
    tower_is_monotone,
)

from ergolab import (
    BernoulliSpec,
    CylinderSet,
    ModeSubgroup,
    PartitionSpec,
    RotationNumber,
    SystemSpec,
    TestSet,
    bernoulli_entropy,
    certify_product_tower,
    compute_tower,
    entropy_classifier,
    partition_refine_entropy,
    point_spectrum_groups_equal,
    quasi_eigen_residual_search,
    residual_reference,
    spawn_rngs,
    spectral_weak_mixing_check,
    spectrum_of,
    stabilization_depth,
    verify_intertwiner,
    weak_mixing_statistic,
    weak_mixing_verdict,
)
from ergolab.cli import main

SKEW = SystemSpec.skew(GAMMA)
PRODUCT = SystemSpec.product(GAMMA, BernoulliSpec.fair_coin())
SHIFT2 = SystemSpec.shift(BernoulliSpec.fair_coin())
SHIFT4 = SystemSpec.shift(UNIFORM4)
ROT = SystemSpec.rotation(GAMMA)


def criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                passed, detail = fn(*args, **kwargs)
            except Exception as exc:
                ACCEPTANCE_LINES.append(
                    f"FAIL  {name}: raised {type(exc).__name__}: {exc}"
                )
                raise
            line = f"{'PASS' if passed else 'FAIL'}  {name}: {detail}"
            ACCEPTANCE_LINES.append(line)
            assert passed, line
        return run
    return wrap


@criterion("criterion 1, skew tower exact")
def test_criterion_1_skew_tower():
    start = time.perf_counter()
    levels = compute_tower(SKEW)
    elapsed = time.perf_counter() - start
    second = levels[1].characters
    third = levels[2].characters
    ok = (
        second == ModeSubgroup.from_generators([(1, 0)])
        and all(subgroup_contains(second, (k, 0)) for k in range(-8, 9))
        and not any(subgroup_contains(second, (k, m)) for k in range(-3, 4) for m in (-2, -1, 1, 2))
        and subgroup_contains(third, (0, 1))
        and stabilization_depth(levels) == 3
        and elapsed < 1.0
    )
    return ok, (
        f"levels={[str(l.characters) for l in levels]}, "
        f"stabilization=3 (got {stabilization_depth(levels)}), "
        f"elapsed={elapsed:.3f}s < 1s"
    )


@criterion("criterion 2, residual certification")
def test_criterion_2_residuals():
    start = time.perf_counter()
    r0 = residual_reference()
    rows = []
    ok = r0 > 0.25
    for truncation in (8, 16):
        cert = certify_product_tower(PRODUCT, truncation=truncation)
        ok &= not cert.new_level_found and abs(cert.r0 - r0) < 1e-12
        for rep in cert.reports:
            if rep.k == 0:
                ok &= rep.residual <= 1e-8
            else:
                ok &= rep.residual >= r0 / 2
        rows.append(
            f"N={truncation}: "
            + ", ".join(
                f"k={rep.k}:{rep.residual:.6f}"
                for rep in sorted(cert.reports, key=lambda r: r.k)
            )
        )
        witness = quasi_eigen_residual_search(SKEW, 1, truncation)
        ok &= witness.residual <= 1e-8
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    return ok, f"r0={r0:.6f}; {'; '.join(rows)}; skew k=1 residual 0; elapsed={elapsed:.1f}s < 60s"


@criterion("criterion 3, exact intertwiner at truncation 32")
def test_criterion_3_intertwiner():
    start = time.perf_counter()
    check = verify_intertwiner(intertwiner(SKEW, PRODUCT, truncation=32))
    elapsed = time.perf_counter() - start
    ok = (
        check.mismatches == 0
        and check.checked > 0
        and elapsed < 5.0
    )
    return ok, (
        f"checked={check.checked} identities, mismatches={check.mismatches}, "
        f"elapsed={elapsed:.2f}s < 5s"
    )


@criterion("criterion 4, entropy separates what the spectrum cannot")
def test_criterion_4_entropy():
    h2, h4 = bernoulli_entropy(BernoulliSpec.fair_coin()), bernoulli_entropy(UNIFORM4)
    exact_ok = h2 == math.log(2) and h4 == math.log(4)
    pairing = verify_intertwiner(intertwiner(SHIFT2, SHIFT4, truncation=16))
    spectral_ok = pairing.mismatches == 0 and pairing.checked > 0
    verdict = entropy_classifier(BernoulliSpec.fair_coin(), UNIFORM4)
    classifier_ok = (
        verdict.spacial == "not spacially isomorphic (entropy invariant)"
        and verdict.spectral == "spectrally isomorphic (both Lebesgue systems)"
    )
    rng2, rng4 = spawn_rngs(1, 2)
    mc_errors = []
    for shift, bern, exact in ((SHIFT2, BernoulliSpec.fair_coin(), h2), (SHIFT4, UNIFORM4, h4)):
        est = partition_refine_entropy(
            shift, PartitionSpec.time_zero(bern), 10, 1_000_000,
            rng2 if bern.symbols == BernoulliSpec.fair_coin().symbols else rng4,
        )
        mc_errors.append(abs(est.value - exact) / exact)
    mc_ok = all(err <= 0.01 for err in mc_errors)
    ok = exact_ok and spectral_ok and classifier_ok and mc_ok
    return ok, (
        f"H=ln2 exactly: {exact_ok}; chain pairing 0 mismatches: {spectral_ok}; "
        f"classifier separates: {classifier_ok}; "
        f"sampled rel. errors at 10^6 samples, n=10: "
        f"{mc_errors[0]:.2e}, {mc_errors[1]:.2e} <= 1%"
    )


@criterion("criterion 5, rotation angle groups decide isomorphism")
def test_criterion_5_rotations():
    reflected = RotationNumber(2, -1, 2, 1)  # 2 - sqrt(2) = 1 - gamma
    same = point_spectrum_groups_equal(GAMMA, reflected)
    # the group relation forces the conjugacy u -> -u; check it pointwise
    rng = spawn_rngs(1, 1)[0]
    u = rng.random(10_000)
    ga, gb = float(GAMMA.exact), float(reflected.exact)
    lhs = (-(u + ga)) % 1.0
    rhs = (((-u) % 1.0) + gb) % 1.0
    diff = np.abs(lhs - rhs)
    residual = float(np.minimum(diff, 1.0 - diff).max())
    doubled = RotationNumber(-2, 2, 2, 1)  # 2*gamma
    unequal = point_spectrum_groups_equal(GAMMA, doubled)
    ok = same.equal and residual <= 1e-12 and not unequal.equal
    return ok, (
        f"gamma vs 1-gamma equal: {same.equal} (relation {same.relation}), "
        f"conjugacy residual {residual:.2e} <= 1e-12 on 10^4 points; "
        f"gamma vs 2*gamma equal: {unequal.equal}"
    )


@criterion("criterion 6, finite-time mixing statistics")
def test_criterion_6_mixing():
    half = TestSet.u_interval(0, Fraction(1, 2))
    w0 = TestSet.from_cylinder(CylinderSet(((0, 1),)))
    t = 10_000
    bern_stat = weak_mixing_statistic(SHIFT2, w0, w0, t)
    bern_ok = bern_stat <= 0.01 and bern_stat == 1 / (4 * t)
    skew_stat = weak_mixing_statistic(SKEW, half, half, t)
    skew_ok = abs(skew_stat - 0.125) / 0.125 <= 0.10
    agreements = []
    prod_set = TestSet.product_set(0, Fraction(1, 2), CylinderSet(((0, 1),)))
    for spec, ts in ((ROT, half), (SKEW, half), (SHIFT2, w0), (PRODUCT, prod_set)):
        stat = weak_mixing_statistic(spec, ts, ts, 600)
        trend = weak_mixing_verdict(stat) == "consistent with weak mixing"
        agreements.append(trend == spectral_weak_mixing_check(spectrum_of(spec)))
    ok = bern_ok and skew_ok and all(agreements)
    return ok, (
        f"shift statistic at t=10^4: {bern_stat:.2e} == 1/(4t) <= 0.01; "
        f"skew statistic {skew_stat:.5f} within 10% of 1/8; "
        f"verdict/spectrum agreement on 4 systems: {sum(agreements)}/4"
    )


@criterion("criterion 7, property suites")
def test_criterion_7_properties(tmp_path):
    worst_sigma = 0.0
    rngs = spawn_rngs(2, 4)
    for spec, rng in zip(four_systems(), rngs):
        worst_sigma = max(
            worst_sigma,
            max_preservation_sigma(spec, battery_of_sets(spec, 20), 100_000, rng),
        )
    preservation_ok = worst_sigma <= 4.0

    monotone_ok = tower_is_monotone(compute_tower(SKEW))

    unitary_ok = skew_index_map_injective(32) and product_index_map_injective(32)

    bounds_ok = True
    batteries = [
        (0.5, 0.5), (0.25, 0.75), (0.25, 0.25, 0.25, 0.25),
        (0.1, 0.2, 0.3, 0.4), (0.05, 0.05, 0.4, 0.5),
    ]
    for probs in batteries:
        h = bernoulli_entropy(BernoulliSpec(probs, tuple(range(len(probs)))))
        bounds_ok &= -1e-15 <= h <= math.log(len(probs)) + 1e-12
        reversed_spec = BernoulliSpec(tuple(reversed(probs)), tuple(range(len(probs))))
        bounds_ok &= bernoulli_entropy(reversed_spec) == h

    determinism_ok = True
    for scenario in ("reproduce-letter", "theorem1"):
        out_a, out_b = tmp_path / scenario / "a", tmp_path / scenario / "b"
        assert main([scenario, "--seed", "1", "--out", str(out_a)]) == 0
        assert main([scenario, "--seed", "1", "--out", str(out_b)]) == 0
        for artifact in sorted(out_a.iterdir()):
            determinism_ok &= (
                artifact.read_bytes() == (out_b / artifact.name).read_bytes()
            )

    ok = preservation_ok and monotone_ok and unitary_ok and bounds_ok and determinism_ok
    return ok, (
        f"measure preservation max z={worst_sigma:.2f} <= 4 "
        f"(20 sets x 4 systems, n=10^5); tower monotone: {monotone_ok}; "
        f"index maps injective to truncation 32: {unitary_ok}; "
        f"entropy bounds/permutation: {bounds_ok}; "
        f"byte-identical reports: {determinism_ok}"
    )
