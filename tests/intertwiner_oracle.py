"""The dict-based intertwiner, kept as a test oracle.

This is the original construction of the basis pairing: chain labels are
enumerated as tuples, each chain's positions are found by scanning the
truncation box, and the check steps abstract labels with one
``label_step`` on both sides.  It is slow (quadratic in the number of
chains) and its check passes by construction, but its pair set and
pair order define what the array-based ``ergolab.koopman`` pairing must
reproduce exactly.  :class:`Phase`, the unimodular constants of its
label steps, is kept here with it; the library compares integer
multiples of gamma instead.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from ergolab import (
    IncompatibleSpectraError,
    IntertwinerCheck,
    RotationNumber,
    SystemSpec,
    point_spectrum_groups_equal,
    spectrum_of,
)


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


def label_step(label: tuple) -> tuple[Phase, tuple]:
    """One Koopman step on a normalized basis label: proper modes stay
    with phase e(k gamma), chain positions advance with phase 1."""
    if label[0] == "point":
        return Phase.from_gamma(label[1]), label
    head, pos = label[:-1], label[-1]
    return Phase.one(), head + (pos + 1,)


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


def oracle_check(mapping: dict, eps: int) -> IntertwinerCheck:
    """Step every paired label; count checked and mismatched pairs."""
    mismatches = checked = 0
    for la, lb in mapping.items():
        pa, la_next = label_step(la)
        if la_next not in mapping:
            continue
        checked += 1
        pb, lb_next = label_step(lb)
        if mapping[la_next] != lb_next or pa.gamma_mult != eps * pb.gamma_mult:
            mismatches += 1
    return IntertwinerCheck(mismatches, checked)
