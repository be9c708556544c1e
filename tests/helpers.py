"""Reusable checks shared by the unit suites and the acceptance run.

Everything here is deterministic given the rng it is handed; nothing
depends on wall-clock state or the working directory.
"""

from __future__ import annotations

import bisect
import itertools
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
    build_intertwiner,
    koopman_step,
    iterate_batch,
    point_spectrum_groups_equal,
    sample_batch,
    spectrum_of,
)

GAMMA = RotationNumber(-1, 1, 2, 1)  # sqrt(2) - 1
UNIFORM4 = BernoulliSpec((0.25, 0.25, 0.25, 0.25), (0, 1, 2, 3))
# The benchmark's nine angles (p, q, d, r) for (p + q*sqrt(d))/r.
BENCH_ANGLES = (
    (-1, 1, 2, 1), (-1, 1, 5, 2), (-1, 1, 3, 1), (2, -1, 2, 1), (-2, 1, 7, 1),
    (-3, 1, 13, 2), (3, -1, 5, 2), (-3, 1, 10, 1), (-2, 1, 6, 1),
)


def choice_symbols(
    bern: BernoulliSpec, rng: np.random.Generator, shape: tuple[int, ...]
) -> np.ndarray:
    """Symbol indices drawn as a choice by inversion: one uniform
    ``rng.random()`` = m 2^-53 a symbol, the symbol the count of exact
    cumulative sums C_i <= u, compared in exact rationals.  The oracle
    that ``sample_batch``'s comparisons of whole words must reproduce
    draw for draw."""
    D = math.lcm(*(p.denominator for p in bern.probs))
    # u = m 2^-53 >= C_i = A_i / D exactly when m D >= A_i 2^53
    sums = itertools.accumulate(bern.probs[:-1])
    cuts = [c.numerator * (D // c.denominator) << 53 for c in sums]
    m = (rng.random(math.prod(shape)) * 2**53).astype(np.uint64).tolist()
    out = [bisect.bisect_right(cuts, x * D) for x in m]
    return np.array(out, dtype=np.min_scalar_type(len(bern.probs) - 1)).reshape(shape)


def exact_thresholds(bern: BernoulliSpec) -> list[int]:
    """ceil(C_i 2^53) for the exact cumulative sums C_i of the law: a
    uniform ``rng.random()`` = m 2^-53 reaches C_i exactly when m reaches
    it, so symbol i takes t_i - t_{i-1} of the 2^53 draws."""
    return [math.ceil(c * 2**53) for c in itertools.accumulate(bern.probs)]


def field_width(bern: BernoulliSpec) -> int:
    """The narrowest W of 8, 16 and 32 with every threshold a multiple
    of 2^(53 - W), or 64 when none is."""
    return next(
        (w for w in (8, 16, 32) if all(t % 2 ** (53 - w) == 0 for t in exact_thresholds(bern))),
        64,
    )


def field_symbols(
    bern: BernoulliSpec, rng: np.random.Generator, shape: tuple[int, ...], block: int
) -> np.ndarray:
    """Symbol indices decoded in plain Python from W-bit fields of rng's
    raw words (W = :func:`field_width`): the oracle for a law of at most
    32 bits.  The window is filled in row-major order, in blocks of at
    most ``block`` symbols; a block of m symbols takes ceil(m W / 64)
    words, whose fields are read from the lowest bits up (numpy's view
    of the words on a little-endian host), and a field f is the symbol
    counting the cuts t_i >> (53 - W) <= f, a cut of 2^W never reached."""
    w = field_width(bern)
    cuts = [t >> (53 - w) for t in exact_thresholds(bern)[:-1]]
    total, out = math.prod(shape), []
    while len(out) < total:
        m = min(block, total - len(out))
        words = rng.bit_generator.random_raw(-(-m * w // 64)).tolist()
        fields = [word >> (w * j) & (2**w - 1) for word in words for j in range(64 // w)]
        out += [sum(f >= c for c in cuts) for f in fields[:m]]
    return np.array(out, dtype=np.min_scalar_type(len(bern.probs) - 1)).reshape(shape)


def drawn_symbols(
    bern: BernoulliSpec, rng: np.random.Generator, shape: tuple[int, ...], block: int
) -> np.ndarray:
    """What ``sample_batch`` draws, draw for draw: the raw-word decoding
    for a law of at most 32 bits, ``Generator.choice`` otherwise."""
    if field_width(bern) < 64:
        return field_symbols(bern, rng, shape, block)
    return choice_symbols(bern, rng, shape)


def intertwiner(spec_a: SystemSpec, spec_b: SystemSpec, truncation: int):
    """``build_intertwiner`` fed as a run feeds it: both descriptors, and
    the angles' comparison when both systems have an angle."""
    groups = None
    if spec_a.gamma is not None and spec_b.gamma is not None:
        groups = point_spectrum_groups_equal(spec_a.gamma, spec_b.gamma)
    spectra = (spectrum_of(spec_a), spectrum_of(spec_b))
    return build_intertwiner(spec_a, spec_b, truncation, spectra, groups)


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


def full_subgroup() -> ModeSubgroup:
    """All of Z^2."""
    return ModeSubgroup(1, 0, 1)


def subgroup_contains(sub: ModeSubgroup, mode: tuple[int, int]) -> bool:
    """Membership in the Hermite normal form ``{x(a,b) + y(0,c)}``."""
    k, m = mode
    if sub.a == 0:
        if k != 0:
            return False
        return m == 0 if sub.c == 0 else m % sub.c == 0
    if k % sub.a != 0:
        return False
    rem = m - (k // sub.a) * sub.b
    return rem == 0 if sub.c == 0 else rem % sub.c == 0


def subgroup_includes(sub: ModeSubgroup, other: ModeSubgroup) -> bool:
    """Does ``sub`` contain every generator of ``other``?"""
    return all(subgroup_contains(sub, g) for g in other.generators())


def members_in_window(sub: ModeSubgroup, window: int) -> list[tuple[int, int]]:
    return [
        (k, m)
        for k in range(-window, window + 1)
        for m in range(-window, window + 1)
        if subgroup_contains(sub, (k, m))
    ]


def subgroup_from_json(obj: dict) -> ModeSubgroup:
    """The inverse of ``ModeSubgroup.to_json``."""
    return ModeSubgroup.from_generators(
        [(int(k), int(m)) for k, m in obj.get("generators", [])]
    )


def tower_is_monotone(levels: list[TowerLevel]) -> bool:
    """Each character lattice contains the one before it."""
    return all(
        subgroup_includes(levels[i + 1].characters, levels[i].characters)
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
        ModeSubgroup(0, 0, 0),
        ModeSubgroup.from_generators([(1, 0)]),
        ModeSubgroup.from_generators([(2, 0)]),
        ModeSubgroup.from_generators([(1, 0), (0, 2)]),
        full_subgroup(),
    ]
