"""The dict-based intertwiner and box checks, kept as test oracles.

This is the original construction of the basis pairing: chain labels are
enumerated as tuples, and each chain's positions are found by scanning
the truncation box.  Its pair set and pair order define what the
``ergolab.koopman`` pairing's ``mapping`` dict must reproduce exactly.
:func:`oracle_check` is the finite check the library's certificate
replaced: it takes every paired label to its raw basis vector, steps it
through ``KOOPMAN_TABLE`` and renormalizes the image, on both sides,
with its own writing of the normalized bases.  :func:`chains_in_box`
counts the chains that meet a box by stepping every label of it, the
oracle for :func:`first_labels_in_box`, which counts them in closed form
with the residual census's label counts.
:class:`Phase`, the unimodular constants of a step, is kept here too;
the library compares integer multiples of gamma instead.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from ergolab import (
    KOOPMAN_TABLE,
    IncompatibleSpectraError,
    IntertwinerCheck,
    RotationNumber,
    SystemSpec,
    koopman_step,
    point_spectrum_groups_equal,
    spectrum_of,
)
from ergolab.koopman import _line_step, _region_count, _slices


@dataclass(frozen=True)
class Phase:
    """The unimodular constant ``e((turn) + (gamma_mult) * gamma)``.

    ``turn`` is an exact rational number of turns, stored reduced to
    [0, 1); ``gamma_mult`` counts copies of the (symbolic) angle gamma.
    Phases form a group under multiplication and equality is exact.
    """

    turn: Fraction = Fraction(0)
    gamma_mult: int = 0

    def __post_init__(self) -> None:
        t = Fraction(self.turn)
        object.__setattr__(self, "turn", t - (t.numerator // t.denominator))

    @classmethod
    def one(cls) -> "Phase":
        return cls()

    @classmethod
    def from_turn(cls, turn) -> "Phase":
        return cls(turn=Fraction(turn))

    @classmethod
    def from_gamma(cls, mult: int) -> "Phase":
        return cls(gamma_mult=mult)

    @property
    def is_one(self) -> bool:
        return self.turn == 0 and self.gamma_mult == 0

    def __mul__(self, other: "Phase") -> "Phase":
        if not isinstance(other, Phase):
            return NotImplemented
        return Phase(self.turn + other.turn, self.gamma_mult + other.gamma_mult)

    def inverse(self) -> "Phase":
        return Phase(-self.turn, -self.gamma_mult)

    def value(self, gamma: Optional[RotationNumber] = None) -> complex:
        """Numeric unit complex number; needs gamma when gamma_mult != 0."""
        angle = float(self.turn)
        if self.gamma_mult:
            if gamma is None:
                raise ValueError("gamma_mult != 0 requires an angle to evaluate")
            angle += float(gamma.frac_multiple(self.gamma_mult))
        return cmath.exp(2j * cmath.pi * angle)


def _signed_range(lo: int, hi: int) -> Iterator[int]:
    for a in range(lo, hi + 1):
        yield a
        yield -a


def _chain_labels(spec: SystemSpec, B: int) -> list[tuple]:
    """Canonical enumeration of Lebesgue chain labels within truncation B."""
    if spec.kind == "skew":
        return [("chain", m, r) for m in _signed_range(1, B) for r in range(abs(m))]
    if spec.kind == "product":
        labels = [("chain", l, m) for l in range(-B, B + 1) for m in range(-B, B + 1)]
        labels.sort(key=lambda c: (max(abs(c[1]), abs(c[2])), c[1], c[2]))
        return labels
    if spec.kind == "bernoulli":
        return [("chain", m) for m in [0] + list(_signed_range(1, B))]
    if spec.kind == "rotation":
        return []
    raise ValueError(spec.kind)


def _chain_positions(spec: SystemSpec, label: tuple, B: int) -> list[int]:
    """Operator-order positions of a chain that fall inside the truncation."""
    if spec.kind == "skew":
        _, m, r = label
        return sorted((k - r) // m for k in range(-B, B + 1) if k % abs(m) == r)
    return list(range(-B, B + 1))


def _point_label_range(spec: SystemSpec, B: int) -> list[int]:
    if spec.kind == "bernoulli":
        return [0]
    return list(range(-B, B + 1))


def oracle_pairing(spec_a: SystemSpec, spec_b: SystemSpec, truncation: int) -> tuple[dict, int]:
    """The pairing as an insertion-ordered dict of labels, and eps."""
    da, db = spectrum_of(spec_a), spectrum_of(spec_b)
    if da.lebesgue_multiplicity != db.lebesgue_multiplicity:
        raise IncompatibleSpectraError("Lebesgue multiplicities differ")
    if len(da.point_generators) != len(db.point_generators):
        raise IncompatibleSpectraError("point spectra differ in rank")
    eps = 1
    if da.point_generators:
        cmp = point_spectrum_groups_equal(da.point_generators[0], db.point_generators[0])
        if not cmp.equal:
            raise IncompatibleSpectraError(cmp.detail)
        eps = cmp.relation[0]

    mapping: dict = {}
    for k in _point_label_range(spec_a, truncation):
        if abs(eps * k) <= truncation:
            mapping[("point", k)] = ("point", eps * k)
    chains_a = _chain_labels(spec_a, truncation)
    chains_b = _chain_labels(spec_b, truncation)
    for ca, cb in zip(chains_a, chains_b):
        pos_b = set(_chain_positions(spec_b, cb, truncation))
        for j in _chain_positions(spec_a, ca, truncation):
            if j in pos_b:
                mapping[ca + (j,)] = cb + (j,)
    return mapping, eps


def _raw(kind: str, label: tuple) -> tuple[str, tuple, int]:
    """The sector and raw label of a normalized basis label, and the
    gamma multiplier of the constant it carries: skew chains
    ``f[k,m] = e(a gamma) g[k,m]`` with ``a = j r + m j (j - 1) / 2`` at
    ``k = r + j m``, product chains ``t[l,k,m] = e(l k gamma) p[l,k,m]``."""
    if label[0] == "point":
        k = label[1]
        return {
            "rotation": ("lattice", (k,)),
            "skew": ("lattice", (k, 0)),
            "bernoulli": ("constant", ()),
            "product": ("constant", (k,)),
        }[kind] + (0,)
    *params, j = label[1:]
    if kind == "skew":
        m, r = params
        return "lattice", (r + j * m, m), j * r + m * j * (j - 1) // 2
    if kind == "product":
        l, m = params
        return "support", (l, j, m), l * j
    (m,) = params
    return "support", (j, m), 0


def _normalized(kind: str, sector: str, x: tuple) -> tuple[tuple, int]:
    """The normalized label naming the raw label x, and its constant's
    gamma multiplier (the inverse of :func:`_raw`)."""
    if kind == "skew":
        k, m = x
        if m == 0:
            return ("point", k), 0
        r = k % abs(m)
        j = (k - r) // m
        return ("chain", m, r, j), j * r + m * j * (j - 1) // 2
    if sector in ("constant", "lattice"):  # the proper modes e(l u), or the shift's 1
        return ("point", x[0] if x else 0), 0
    if kind == "product":
        l, k, m = x
        return ("chain", l, m, k), l * k
    k, m = x
    return ("chain", m, k), 0


def _step(kind: str, label: tuple) -> tuple[int, tuple]:
    """One Koopman step of a normalized basis vector: the raw action of
    ``KOOPMAN_TABLE``, renormalized; returns the gamma multiplier and the
    image label."""
    sector, x, a = _raw(kind, label)
    mult, image = koopman_step(kind, sector, x)
    label, b = _normalized(kind, sector, image)
    return mult + a - b, label


def oracle_check(spec_a: SystemSpec, spec_b: SystemSpec, mapping: dict) -> IntertwinerCheck:
    """Step every paired label of both systems; count the interior pairs
    (A's image is paired too) and those where B's image is not the
    partner of A's image or the phases differ.  Phases agree when
    ``mult_a = s mult_b`` with gammaB = s gammaA (mod 1)."""
    ga, gb = spec_a.gamma, spec_b.gamma
    relation = (1, 1) if ga is None or gb is None else point_spectrum_groups_equal(ga, gb).relation
    sign = relation[0] if relation else 0
    mismatches = checked = 0
    for la, lb in mapping.items():
        pa, la_next = _step(spec_a.kind, la)
        if la_next not in mapping:
            continue
        checked += 1
        pb, lb_next = _step(spec_b.kind, lb)
        if mapping[la_next] != lb_next or pa != sign * pb:
            mismatches += 1
    return IntertwinerCheck(mismatches, checked)


def chains_in_box(kind: str, sector: str, B: int) -> int:
    """How many chains of moving labels meet the box [-B, B]^d of one
    sector: each has one first label in the box, a moving label that is
    not the image of a label in the box."""
    d = len(KOOPMAN_TABLE[kind][sector].b)
    if d == 0:  # the one label of a point sector is fixed
        return 0
    side = 2 * B + 1
    x = np.indices((side,) * d).reshape(d, -1) - B
    image = np.array(koopman_step(kind, sector, tuple(x))[1])
    inside = (np.abs(image) <= B).all(axis=0)
    has_preimage = np.zeros(x.shape[1], dtype=bool)
    has_preimage[np.ravel_multi_index(tuple(image[:, inside] + B), (side,) * d)] = True
    return int(np.count_nonzero((image != x).any(axis=0) & ~has_preimage))


def first_labels_in_box(kind: str, sector: str, B: int) -> int:
    """How many chains of one sector's moving labels meet [-B, B]^d,
    without stepping the box.  A chain is a lattice line (``_line_step``),
    so it meets the box in one segment and counts once, at its first
    label there: per slice, the labels in the box minus those whose
    successor ``x + d`` is in the box too, which is all of them where
    d = 0."""
    N, c = _line_step(kind, sector, 0)
    box = ([-B] * len(c), [((i,), B) for i in range(len(c))])
    return sum(_region_count(box, [0] * len(d), fixed) - _region_count(box, d, fixed)
               for fixed, d in _slices(box, N, c))
