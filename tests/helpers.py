"""Reusable checks shared by the unit suites and the acceptance run.

Everything here is deterministic given the rng it is handed; nothing
depends on wall-clock state or the working directory.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ergolab import (
    BernoulliSpec,
    CylinderSet,
    ModeSubgroup,
    RotationNumber,
    SystemSpec,
    TestSet,
    TowerLevel,
    KOOPMAN_TABLE,
    koopman_step,
    iterate_batch,
    sample_batch,
)

GAMMA = RotationNumber.quadratic(-1, 1, 2, 1)  # sqrt(2) - 1
UNIFORM4 = BernoulliSpec((0.25, 0.25, 0.25, 0.25), (0, 1, 2, 3))


def four_systems() -> list[SystemSpec]:
    """The four classical systems at the default angle / fair coin."""
    return [
        SystemSpec.rotation(GAMMA),
        SystemSpec.skew(GAMMA),
        SystemSpec.shift(BernoulliSpec.fair_coin()),
        SystemSpec.product(GAMMA, BernoulliSpec.fair_coin()),
    ]


def battery_of_sets(spec: SystemSpec, count: int = 20) -> list[TestSet]:
    """A deterministic battery of test sets suited to the system kind.

    Interval endpoints are rationals with growing denominators; cylinder
    constraints walk outward from position 0.
    """
    sets: list[TestSet] = []
    bern = spec.bernoulli
    n_syms = len(bern.symbols) if bern is not None else 0
    for j in range(count):
        if spec.kind == "rotation":
            a = Fraction(j, 2 * count + 1)
            sets.append(TestSet.u_interval(a, a + Fraction(1, j + 2)))
        elif spec.kind == "skew":
            if j % 2 == 0:
                a = Fraction(j, 2 * count + 1)
                sets.append(TestSet.u_interval(a, a + Fraction(1, j + 2)))
            else:
                a = Fraction(j, 2 * count + 3)
                c = Fraction(j + 1, 2 * count + 5)
                sets.append(
                    TestSet.rectangle(a, a + Fraction(1, 3), c, c + Fraction(1, 4))
                )
        elif spec.kind == "bernoulli":
            pos = (j % 7) - 3
            sym = bern.symbols[j % n_syms]
            cons = [(pos, sym)]
            if j % 3 == 0:
                cons.append((pos + 1, bern.symbols[(j + 1) % n_syms]))
            sets.append(TestSet.from_cylinder(CylinderSet(tuple(cons))))
        else:  # product
            a = Fraction(j, 2 * count + 1)
            cyl = CylinderSet((((j % 5) - 2, bern.symbols[j % n_syms]),))
            sets.append(TestSet.product_set(a, a + Fraction(1, j + 2), cyl))
    return sets


def max_preservation_sigma(
    spec: SystemSpec,
    sets: list[TestSet],
    n: int,
    rng: np.random.Generator,
    step: int = 1,
) -> float:
    """Largest z-score of (frequency after `step` images) vs exact measure.

    Invariance of the measure makes the post-image frequency an unbiased
    estimate of the same measure, so the z-score is ~N(0,1) per set.
    """
    batch = sample_batch(spec, rng, n, positions=range(-8, 9))
    moved = iterate_batch(batch, step)
    worst = 0.0
    for ts in sets:
        mu = float(ts.exact_measure(spec))
        hits = float(np.mean(ts.contains_batch(spec, moved)))
        sigma = math.sqrt(mu * (1.0 - mu) / n)
        worst = max(worst, abs(hits - mu) / sigma)
    return worst


def tower_is_monotone(levels: list[TowerLevel]) -> bool:
    """Each character lattice contains the one before it."""
    return all(
        levels[i + 1].characters.contains_subgroup(levels[i].characters)
        for i in range(len(levels) - 1)
    )


def _index_map_injective(kind: str, truncation: int) -> bool:
    """Each sector's table step is injective on every label of the box
    [-truncation, truncation]^d (checked exhaustively); the step keeps
    each sector, so the operator permutes basis labels."""
    side = 2 * truncation + 1
    for sector, action in KOOPMAN_TABLE[kind].items():
        d = len(action.b)
        if d:
            x = np.indices((side,) * d).reshape(d, -1) - truncation
            image = np.array(koopman_step(kind, sector, tuple(x))[1])
            if np.unique(image, axis=1).shape[1] != image.shape[1]:
                return False
    return True


def skew_index_map_injective(truncation: int) -> bool:
    """The skew composition operator permutes basis indices injectively
    (checked exhaustively on the truncation box), so its matrix in that
    basis is a phased permutation, hence unitary on its range."""
    return _index_map_injective("skew", truncation)


def product_index_map_injective(truncation: int) -> bool:
    """Same exhaustive injectivity check for the product operator, on its
    constant tails (l) and its supports (l, position, chain)."""
    return _index_map_injective("product", truncation)


def subgroup_lattice_examples() -> list[ModeSubgroup]:
    """A small family of lattices ordered by inclusion where applicable."""
    return [
        ModeSubgroup.trivial(),
        ModeSubgroup.from_generators([(1, 0)]),
        ModeSubgroup.from_generators([(2, 0)]),
        ModeSubgroup.from_generators([(1, 0), (0, 2)]),
        ModeSubgroup.full(),
    ]
