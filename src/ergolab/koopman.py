"""Koopman operators on character bases, in exact integer arithmetic.

The composition operator of each system acts on a countable basis by
permuting indices and multiplying by unimodular constants:

* skew, on ``g[k,m](u,v) = e(k u) e(m v)`` (``e(x) = exp(2 pi i x)``):
  ``U g[k,m] = e(k gamma) g[k+m, m]``
* rotation, on ``e(k u)``: multiplication by ``e(k gamma)``
* shift, on an orthonormal family ``d[k,m]`` (chain m, position k):
  ``X d[k,m] = d[k+1, m]``
* product, on ``p[l,k,m] = e(l u) d[k,m]``:
  ``V p[l,k,m] = e(l gamma) p[l, k+1, m]``

Every phase in these actions is an integer multiple of gamma, so each
action is an integer kernel returning that multiplier; the kernels take
Python ints or integer numpy arrays, and the public functions wrap them
in exact :class:`Phase` objects.  The angle's numeric value is only
needed for reporting.  Renormalizing the chain bases (``f[k,m]`` on the
skew side, ``t[l,k,m]`` on the product side) makes every chain step
phase-free; the intertwiner between two systems pairs those bases as
integer label arrays, and its check applies the raw actions above to
both sides of every pair.
"""

from __future__ import annotations

import cmath
from collections.abc import ItemsView, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .quadratic import ExactnessError, RotationNumber, integral_combination
from .systems import SystemSpec

__all__ = [
    "FourierMode",
    "GroupComparison",
    "IncompatibleSpectraError",
    "IntertwinerCheck",
    "IntertwinerPairing",
    "Phase",
    "PhasedMode",
    "ProductBasisIndex",
    "SpectrumDescriptor",
    "build_intertwiner",
    "is_one_simple",
    "koopman_apply_product",
    "koopman_apply_skew",
    "koopman_apply_skew_inverse",
    "normalizing_phase",
    "point_spectrum_groups_equal",
    "spectrum_of",
    "verify_intertwiner",
]

INFINITE = "infinite"
#: Pairs :func:`verify_intertwiner` checks at a time.  Each pair of a
#: slice costs about 150 bytes of integer temporaries, so checking needs
#: about 10 MB however many pairs the pairing holds.
VERIFY_SLICE = 2**16


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
            if gamma.is_exact:
                angle += float(gamma.frac_multiple(self.gamma_mult))
            else:
                angle += self.gamma_mult * gamma.to_float()
        return cmath.exp(2j * cmath.pi * angle)

    def to_json(self) -> dict:
        return {
            "turn": [self.turn.numerator, self.turn.denominator],
            "gamma_mult": self.gamma_mult,
        }

    def __str__(self) -> str:
        if self.is_one:
            return "1"
        bits = []
        if self.turn:
            bits.append(f"{self.turn}")
        if self.gamma_mult:
            bits.append(f"{self.gamma_mult}g")
        return "e(" + "+".join(bits) + ")"


class FourierMode(NamedTuple):
    """Index of the torus character e(k u + m v)."""

    k: int
    m: int


class PhasedMode(NamedTuple):
    phase: Phase
    mode: FourierMode


class ProductBasisIndex(NamedTuple):
    """Index of ``e(l u)`` (tail None) or ``e(l u) d[k,m]`` (tail (k, m))."""

    l: int
    tail: Optional[tuple[int, int]] = None

    @property
    def is_constant_tail(self) -> bool:
        return self.tail is None


# ---------------------------------------------------------------------------
# operator actions: integer kernels and their Phase wrappers
# ---------------------------------------------------------------------------


def _skew_action(k, m):
    """U g[k,m] = e(k gamma) g[k+m, m], as (gamma multiplier, k', m')."""
    return k, k + m, m


def _normalizing_exponent(k, m):
    """Gamma multiplier of ``a[k,m]`` for m != 0 (see :func:`normalizing_phase`)."""
    r = k % abs(m)
    j = (k - r) // m
    return j * r + m * (j * (j - 1) // 2)


def _product_action(l, k):
    """V p[l,k,m] = e(l gamma) p[l,k+1,m], as (gamma multiplier, k').

    The constant tail ``e(l u)`` takes the same phase and stays fixed.
    """
    return l, k + 1


def koopman_apply_skew(mode: FourierMode) -> PhasedMode:
    """U g[k,m] = e(k gamma) g[k+m, m]; symbolic in gamma."""
    phase, k, m = _skew_action(*mode)
    return PhasedMode(Phase.from_gamma(phase), FourierMode(k, m))


def koopman_apply_skew_inverse(mode: FourierMode) -> PhasedMode:
    k, m = mode
    return PhasedMode(Phase.from_gamma(-(k - m)), FourierMode(k - m, m))


def normalizing_phase(k: int, m: int) -> Phase:
    """The constant ``a[k,m]`` with ``f[k,m] = a[k,m] g[k,m]`` and
    ``U f[k,m] = f[k+m,m]``.

    The functional equation ``a[k+m,m] = e(k gamma) a[k,m]`` pins the
    whole chain once one member is fixed; we anchor ``a[r,m] = 1`` at the
    chain representative ``r = k mod |m|``.  Walking j steps from the
    anchor multiplies the phases ``e((r + t m) gamma)`` for t < j, giving
    the exponent ``j r + m j (j - 1) / 2`` (an integer for every j).
    """
    if m == 0:
        raise ValueError("m = 0 rows are proper modes; no normalization applies")
    return Phase.from_gamma(_normalizing_exponent(k, m))


def koopman_apply_product(
    index: ProductBasisIndex, normalized: bool = False
) -> tuple[Phase, ProductBasisIndex]:
    """V on the product basis.

    Raw: ``V p[l,k,m] = e(l gamma) p[l,k+1,m]``.  With ``normalized``
    the t-basis ``t[l,k,m] = e(l k gamma) p[l,k,m]`` is used instead, so
    the raw phase is multiplied by ``e(l k gamma) / e(l (k+1) gamma)``
    and chain steps come out with phase 1.  Constant tails are proper
    functions either way: phase ``e(l gamma)``, index unchanged.
    """
    l, tail = index
    if tail is None:
        phase, _ = _product_action(l, 0)
        return Phase.from_gamma(phase), index
    k, m = tail
    phase, k_next = _product_action(l, k)
    if normalized:
        phase += l * k - l * k_next
    return Phase.from_gamma(phase), ProductBasisIndex(l, (k_next, m))


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumDescriptor:
    """Point part (group generators, simplicity) plus Lebesgue multiplicity.

    The tag is forced by the parts: no Lebesgue part means pure-point,
    a trivial simple point part means pure-continuous, anything else is
    mixed.
    """

    point_generators: tuple[RotationNumber, ...]
    lebesgue_multiplicity: object  # 0, a positive int, or INFINITE
    one_multiplicity: int = 1
    tag: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        mult = self.lebesgue_multiplicity
        if mult != INFINITE and (not isinstance(mult, int) or mult < 0):
            raise ValueError(f"bad Lebesgue multiplicity {mult!r}")
        if not isinstance(self.one_multiplicity, int) or self.one_multiplicity < 1:
            raise ValueError("the proper value 1 has multiplicity >= 1")
        expected = self._expected_tag()
        if self.tag and self.tag != expected:
            raise ValueError(
                f"tag {self.tag!r} inconsistent with parts (expected {expected!r})"
            )
        object.__setattr__(self, "tag", expected)

    def _expected_tag(self) -> str:
        if self.lebesgue_multiplicity == 0:
            return "pure-point"
        if not self.point_generators and self.point_part_simple:
            return "pure-continuous"
        return "mixed"

    @property
    def point_part_simple(self) -> bool:
        """Is the proper value 1 simple?  Requires both declared
        multiplicity one and no integer combination of generators
        collapsing onto an integer."""
        return self.one_multiplicity == 1 and is_one_simple(self.point_generators)

    def point_values(self, bound: int) -> list[Phase]:
        """Proper values of the generated group with multiples in
        [-bound, bound] (single-generator descriptors only)."""
        if not self.point_generators:
            return [Phase.one()]
        if len(self.point_generators) > 1:
            raise NotImplementedError("enumeration for multi-generator groups")
        return [Phase.from_gamma(k) for k in range(-bound, bound + 1)]

    def to_json(self) -> dict:
        return {
            "point_generators": [g.to_json() for g in self.point_generators],
            "point_part_simple": self.point_part_simple,
            "one_multiplicity": self.one_multiplicity,
            "lebesgue_multiplicity": self.lebesgue_multiplicity,
            "tag": self.tag,
        }


def is_one_simple(generators: Sequence[RotationNumber], bound: int = 8) -> bool:
    """Is the proper value 1 simple for the given point-spectrum generators?

    1 fails to be simple iff some nontrivial integer combination of the
    generators is an integer; searched exactly for coefficients up to
    ``bound``.  A single irrational generator never produces one, so the
    search is skipped (this also covers decimal angles, which are
    irrational by contract).
    """
    gens = list(generators)
    if len(gens) <= 1:
        return True
    if any(not g.is_exact for g in gens):
        raise ExactnessError("simplicity search needs exact generators")

    def combos(i: int, coeffs: list[int]) -> Iterator[list[int]]:
        if i == len(gens):
            if any(coeffs):
                yield coeffs
            return
        for c in range(-bound, bound + 1):
            yield from combos(i + 1, coeffs + [c])

    for coeffs in combos(0, []):
        if integral_combination(list(zip(gens, coeffs))):
            return False
    return True


def spectrum_of(spec: SystemSpec) -> SpectrumDescriptor:
    """The Koopman spectral invariants of a system.

    rotation: pure point, group generated by gamma, all values simple.
    skew/product: the same point part plus countable Lebesgue spectrum.
    bernoulli: only the constant, plus countable Lebesgue spectrum.
    """
    if spec.kind == "rotation":
        return SpectrumDescriptor((spec.gamma,), 0)
    if spec.kind in ("skew", "product"):
        return SpectrumDescriptor((spec.gamma,), INFINITE)
    if spec.kind == "bernoulli":
        return SpectrumDescriptor((), INFINITE)
    raise ValueError(f"unknown system kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# point-spectrum group comparison (exact)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupComparison:
    equal: bool
    relation: Optional[tuple[int, int]]  # (a, b): g2 = a g1, g1 = b g2 (mod 1)
    detail: str

    @property
    def verdict(self) -> str:
        return "equal" if self.equal else "not-equal-within-bound"


def point_spectrum_groups_equal(
    gamma1: RotationNumber, gamma2: RotationNumber, bound: int = 64
) -> GroupComparison:
    """Do gamma1 and gamma2 generate the same subgroup of R/Z?

    Searches exactly for integers |a|, |b| <= bound with
    ``gamma2 = a*gamma1 (mod 1)`` and ``gamma1 = b*gamma2 (mod 1)``;
    both must exist for equality (and then a*b = 1 since the angles are
    irrational, i.e. gamma2 = +/- gamma1 mod 1).  Refuses inexact angles.
    """
    if not (gamma1.is_exact and gamma2.is_exact):
        raise ExactnessError("group comparison requires exact angles")
    if bound < 1:
        raise ValueError("bound must be positive")

    def member(target: RotationNumber, gen: RotationNumber) -> Optional[int]:
        for a in range(1, bound + 1):
            for s in (a, -a):
                if integral_combination([(gen, s), (target, -1)]):
                    return s
        return None

    a = member(gamma2, gamma1)
    b = member(gamma1, gamma2) if a is not None else None
    if a is not None and b is not None:
        return GroupComparison(True, (a, b), f"gamma2 = {a}*gamma1 (mod 1)")
    return GroupComparison(
        False, None, f"no multiplier within |a| <= {bound} in one direction or both"
    )


# ---------------------------------------------------------------------------
# the intertwiner
# ---------------------------------------------------------------------------


class IncompatibleSpectraError(ValueError):
    """The two systems' spectral invariants do not match."""


class _Basis:
    """The normalized basis of one system inside the box [-B, B], as integers.

    A label is an integer pair (c, j).  c = -1 names the proper mode j,
    shown as ``("point", j)``, and ``points`` bounds those j.  c >= 0
    names position j of chain c of the canonical chain enumeration,
    shown as ``("chain", *params[c], j)``; chain c holds the positions
    ``lo[c]..hi[c]``.  ``chain_index`` maps chain parameters back to c
    arithmetically (-2 outside the box).  ``step`` applies the raw
    Koopman action to the basis vectors that label arrays name and
    returns each phase's gamma multiplier and the image labels.
    """

    points: tuple[int, int]
    params: np.ndarray  # one row of chain parameters per chain
    lo: np.ndarray
    hi: np.ndarray

    def __init__(self, B: int) -> None:
        self.B = B

    def chain_index(self, *params):
        return -2

    def step(self, c: np.ndarray, j: np.ndarray):
        raise NotImplementedError

    def _chain_params(self, c: np.ndarray) -> np.ndarray:
        """Chain parameters of each label, one row per parameter (0 for
        proper modes)."""
        out = np.zeros((c.size, self.params.shape[1]), dtype=np.int64)
        chain = c >= 0
        out[chain] = self.params[c[chain]]
        return out.T

    def label(self, c: int, j: int) -> tuple:
        return ("point", j) if c < 0 else ("chain", *self.params[c].tolist(), j)

    def labels(self, cj: np.ndarray) -> Iterator[tuple]:
        params = self.params.tolist()
        for c, j in zip(*cj.tolist()):
            yield ("point", j) if c < 0 else ("chain", *params[c], j)

    def parse(self, label) -> tuple[int, int]:
        """The integer label (c, j) of a label tuple; KeyError if the
        tuple names no basis vector of this kind."""
        if isinstance(label, tuple) and all(isinstance(x, int) for x in label[1:]):
            if label[:1] == ("point",) and len(label) == 2:
                return -1, label[1]
            if label[:1] == ("chain",) and len(label) == self.params.shape[1] + 2:
                c = int(self.chain_index(*label[1:-1]))
                if c >= 0:
                    return c, label[-1]
        raise KeyError(label)


class _RotationBasis(_Basis):
    """The characters e(k u), all proper: no chains."""

    def __init__(self, B: int) -> None:
        super().__init__(B)
        self.points = (-B, B)
        self.params = np.zeros((0, 0), dtype=np.int64)
        self.lo = self.hi = np.zeros(0, dtype=np.int64)

    def step(self, c, j):
        return j, c, j  # e(k u) -> e(k gamma) e(k u)


class _ShiftBasis(_Basis):
    """Chains m = 0, 1, -1, ..., B, -B of ``d[k,m]``, positions k in
    [-B, B]; the constant is the only proper mode."""

    def __init__(self, B: int) -> None:
        super().__init__(B)
        a = np.arange(1, B + 1)
        self.points = (0, 0)
        self.params = np.concatenate([[0], np.stack([a, -a], axis=1).ravel()])[:, None]
        self.lo = np.full(2 * B + 1, -B)
        self.hi = np.full(2 * B + 1, B)

    def chain_index(self, m):
        return np.where(abs(m) > self.B, -2, np.where(m > 0, 2 * m - 1, -2 * m))

    def step(self, c, j):
        (m,) = self._chain_params(c)
        chain = c >= 0
        # X d[k,m] = d[k+1,m] with phase 1; the constant stays fixed
        return (
            np.zeros_like(j),
            np.where(chain, self.chain_index(m), -1),
            np.where(chain, j + 1, j),
        )


class _SkewBasis(_Basis):
    """Chains (m, r) for m = 1, -1, ..., B, -B and r = 0..|m|-1, whose
    position j is ``f[r + j m, m]``; the proper modes are ``g[k, 0]``."""

    def __init__(self, B: int) -> None:
        super().__init__(B)
        a = np.arange(1, B + 1)
        signed = np.stack([a, -a], axis=1).ravel()
        count = np.abs(signed)  # one chain per residue r mod |m|
        m = np.repeat(signed, count)
        r = np.arange(m.size) - np.repeat(np.cumsum(count) - count, count)
        a = np.abs(m)
        self.points = (-B, B)
        self.params = np.stack([m, r], axis=1)
        # the positions j with r + j m in [-B, B]
        self.lo = np.where(m > 0, -((B + r) // a), -((B - r) // a))
        self.hi = np.where(m > 0, (B - r) // a, (B + r) // a)

    def chain_index(self, m, r):
        a = abs(m)
        inside = (a >= 1) & (a <= self.B) & (r >= 0) & (r < a)
        return np.where(inside, a * (a - 1) + (m < 0) * a + r, -2)

    @staticmethod
    def _exponent(k, m):
        """Gamma multiplier of a[k,m]; the proper row m = 0 keeps g."""
        chain = m != 0
        return np.where(chain, _normalizing_exponent(k, np.where(chain, m, 1)), 0)

    def step(self, c, j):
        m, r = self._chain_params(c)
        k = np.where(c >= 0, r + j * m, j)  # proper mode g[j, 0]: m = 0
        phase, k_next, m_next = _skew_action(k, m)
        # f = a g, so U f[k,m] = a[k,m] e(phase gamma) / a[k',m'] f[k',m']
        phase = phase + self._exponent(k, m) - self._exponent(k_next, m_next)
        chain = m_next != 0
        m_safe = np.where(chain, m_next, 1)
        r_next = k_next % abs(m_safe)
        return (
            phase,
            np.where(chain, self.chain_index(m_next, r_next), -1),
            np.where(chain, (k_next - r_next) // m_safe, k_next),
        )


class _ProductBasis(_Basis):
    """Chains (l, m) with |l|, |m| <= B, ordered by the ring
    max(|l|, |m|), then l, then m, whose position k is
    ``t[l,k,m] = e(l k gamma) p[l,k,m]``, k in [-B, B]; the proper modes
    are ``e(l u)``."""

    def __init__(self, B: int) -> None:
        super().__init__(B)
        side = 2 * B + 1
        l, m = np.divmod(np.arange(side * side), side)
        l, m = l - B, m - B
        # a stable sort keeps (l, m) lexicographic within each ring
        order = np.argsort(np.maximum(np.abs(l), np.abs(m)), kind="stable")
        self.points = (-B, B)
        self.params = np.stack([l[order], m[order]], axis=1)
        self.lo = np.full(side * side, -B)
        self.hi = np.full(side * side, B)

    def chain_index(self, l, m):
        s = np.maximum(abs(l), abs(m))
        inner = np.where(s > 0, (2 * s - 1) ** 2, 0)  # chains of rings < s
        # within ring s: the 2s+1 chains with l = -s, then two (m = -s, s)
        # per l strictly inside, then the 2s+1 chains with l = s
        within = np.where(
            l == -s,
            m + s,
            np.where(
                l == s,
                (2 * s + 1) + 2 * (2 * s - 1) + m + s,
                (2 * s + 1) + 2 * (l + s - 1) + (m == s),
            ),
        )
        return np.where(s <= self.B, inner + within, -2)

    def step(self, c, j):
        l, m = self._chain_params(c)
        chain = c >= 0
        l = np.where(chain, l, j)  # the proper mode e(j u) has l = j
        k = np.where(chain, j, 0)
        phase, k_next = _product_action(l, k)
        # t = e(l k gamma) p on chains; the constant tail keeps e(l u)
        phase = phase + np.where(chain, l * k - l * k_next, 0)
        return (
            phase,
            np.where(chain, self.chain_index(l, m), -1),
            np.where(chain, k_next, l),
        )


_BASES = {
    "rotation": _RotationBasis,
    "skew": _SkewBasis,
    "bernoulli": _ShiftBasis,
    "product": _ProductBasis,
}


@dataclass(frozen=True, eq=False)
class _PairLayout:
    """Where each side-A label sits among the pairs: the proper modes
    ``points[0]..points[1]`` first, then the positions ``lo[c]..hi[c]``
    of paired chain c from index ``start[c]`` on.  The last chain entry
    is an empty sentinel."""

    points: tuple[int, int]
    lo: np.ndarray
    hi: np.ndarray
    start: np.ndarray

    def index(self, c, j):
        """Pair index of side-A labels (c, j); -1 where unpaired."""
        sentinel = self.lo.size - 1
        cc = np.where((c >= 0) & (c < sentinel), c, sentinel)
        lo = self.lo[cc]
        on_chain = (lo <= j) & (j <= self.hi[cc])
        p0, p1 = self.points
        on_point = (c == -1) & (p0 <= j) & (j <= p1)
        return np.where(
            on_point, j - p0, np.where(on_chain, self.start[cc] + j - lo, -1)
        )


@dataclass(frozen=True, eq=False)
class IntertwinerPairing:
    """A basis pairing realizing a unitary W with U = W* V W on a truncation.

    Labels name the *normalized* bases: ``("point", k)`` for proper
    modes and ``("chain", *chain_label, position)`` for Lebesgue chains
    (f-basis on the skew side, t-basis on the product side, d-basis for
    a shift).  Pair i joins the side-A label ``labels_a[:, i]`` to the
    side-B label ``labels_b[:, i]``, each stored as integers (chain
    index, -1 for proper modes; position); ``mapping`` shows the pairs
    as label tuples.  ``eps`` is the sign relating the two angles
    (gammaB = eps * gammaA mod 1).  The chain enumeration orders are
    recorded so the arbitrary relabeling choice is reproducible.
    """

    spec_a: SystemSpec
    spec_b: SystemSpec
    truncation: int
    eps: int
    labels_a: np.ndarray = field(repr=False)
    labels_b: np.ndarray = field(repr=False)
    basis_a: _Basis = field(repr=False)
    basis_b: _Basis = field(repr=False)
    layout: _PairLayout = field(repr=False)

    @property
    def mapping(self) -> Mapping:
        """Read-only ``{side-A label: side-B label}`` in pair order."""
        return _PairMapping(self)

    @property
    def chain_order_a(self) -> tuple:
        return tuple(("chain", *p) for p in self.basis_a.params.tolist())

    @property
    def chain_order_b(self) -> tuple:
        return tuple(("chain", *p) for p in self.basis_b.params.tolist())

    def to_json(self) -> dict:
        return {
            "system_a": self.spec_a.to_json(),
            "system_b": self.spec_b.to_json(),
            "truncation": self.truncation,
            "eps": self.eps,
            "pairs": [[list(k), list(v)] for k, v in sorted(self.mapping.items())],
            "chain_order_a": [list(c) for c in self.chain_order_a],
            "chain_order_b": [list(c) for c in self.chain_order_b],
        }


class _PairMapping(Mapping):
    """The label arrays of a pairing seen as a mapping of label tuples;
    lookups resolve a label to its pair index arithmetically."""

    def __init__(self, pairing: IntertwinerPairing) -> None:
        self._pairing = pairing

    def __len__(self) -> int:
        return self._pairing.labels_a.shape[1]

    def __iter__(self) -> Iterator[tuple]:
        return self._pairing.basis_a.labels(self._pairing.labels_a)

    def __getitem__(self, label) -> tuple:
        pairing = self._pairing
        c, j = pairing.basis_a.parse(label)
        i = int(pairing.layout.index(np.array(c), np.array(j)))
        if i < 0:
            raise KeyError(label)
        return pairing.basis_b.label(*pairing.labels_b[:, i].tolist())

    def items(self) -> ItemsView:
        return _PairItems(self)


class _PairItems(ItemsView):
    def __iter__(self) -> Iterator[tuple[tuple, tuple]]:
        pairing = self._mapping._pairing
        return zip(
            pairing.basis_a.labels(pairing.labels_a),
            pairing.basis_b.labels(pairing.labels_b),
        )


@dataclass(frozen=True)
class IntertwinerCheck:
    mismatches: int
    max_phase_residual: float
    checked: int


def build_intertwiner(
    spec_a: SystemSpec, spec_b: SystemSpec, truncation: int
) -> IntertwinerPairing:
    """Pair the normalized bases of two spectrally compatible systems.

    Point modes are matched by proper value (k maps to eps*k); chains
    are matched in canonical enumeration order, position to position,
    over the positions both chains hold inside the truncation.  Each
    chain's positions form one interval, so the pairs are generated
    arithmetically, in time linear in their number.  Raises
    :class:`IncompatibleSpectraError` when the descriptors differ
    structurally (different point groups or Lebesgue multiplicities).
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    da, db = spectrum_of(spec_a), spectrum_of(spec_b)
    if da.lebesgue_multiplicity != db.lebesgue_multiplicity:
        raise IncompatibleSpectraError(
            f"Lebesgue multiplicities differ: {da.lebesgue_multiplicity} "
            f"vs {db.lebesgue_multiplicity}"
        )
    eps = 1
    if len(da.point_generators) != len(db.point_generators):
        raise IncompatibleSpectraError("point spectra differ in rank")
    if da.point_generators:
        ga, gb = da.point_generators[0], db.point_generators[0]
        cmp = point_spectrum_groups_equal(ga, gb, bound=max(64, truncation))
        if not cmp.equal:
            raise IncompatibleSpectraError(
                f"point-spectrum groups differ within bound: {cmp.detail}"
            )
        eps = cmp.relation[0]
        if abs(eps) != 1:  # irrational angles force a*b = 1
            raise AssertionError("group equality with |a| != 1 is impossible")

    basis_a = _BASES[spec_a.kind](truncation)
    basis_b = _BASES[spec_b.kind](truncation)
    p0, p1 = basis_a.points
    n_points = p1 - p0 + 1
    n_chains = min(basis_a.lo.size, basis_b.lo.size)
    lo = np.maximum(basis_a.lo[:n_chains], basis_b.lo[:n_chains])
    hi = np.minimum(basis_a.hi[:n_chains], basis_b.hi[:n_chains])
    count = np.maximum(hi - lo + 1, 0)
    start = n_points + np.cumsum(count) - count
    chain = np.repeat(np.arange(n_chains), count)
    pos = lo[chain] + np.arange(n_points, n_points + chain.size) - start[chain]
    k = np.arange(p0, p1 + 1)
    c = np.concatenate([np.full(n_points, -1), chain])
    return IntertwinerPairing(
        spec_a=spec_a,
        spec_b=spec_b,
        truncation=truncation,
        eps=eps,
        labels_a=np.stack([c, np.concatenate([k, pos])]),
        labels_b=np.stack([c, np.concatenate([eps * k, pos])]),
        basis_a=basis_a,
        basis_b=basis_b,
        layout=_PairLayout(
            (p0, p1), np.append(lo, 0), np.append(hi, -1), np.append(start, 0)
        ),
    )


def verify_intertwiner(pairing: IntertwinerPairing) -> IntertwinerCheck:
    """Check W U = V W on every interior pair, exactly, with the raw actions.

    Each side-A label is taken to its raw basis vector (skew chains
    ``f[k,m] = a[k,m] g[k,m]`` with ``a`` from the normalizing exponent,
    product chains ``t[l,k,m] = e(l k gamma) p[l,k,m]``, shift chains
    ``d[k,m]``, proper modes as they are), system A's raw action is
    applied through the kernels behind :func:`koopman_apply_skew` and
    :func:`koopman_apply_product`, and the image is renormalized and
    resolved back to a pair index arithmetically.  A pair is interior
    when that image is paired; chain ends at the truncation boundary are
    skipped.  For interior pairs system B's raw action is applied to the
    paired side-B label the same way; the pair matches when B's image is
    the label paired with A's image and the phases agree.  Phases are
    integer multiples of each system's angle and gammaB = eps * gammaA
    (mod 1), so they agree iff ``phase_a == eps * phase_b``.

    The pairs are checked in slices of ``VERIFY_SLICE``, so the
    temporaries stay bounded however many pairs there are; targets still
    index the whole pairing.  Returns the number of mismatched pairs, the
    largest numeric phase discrepancy among them, and how many pairs
    were checked.
    """
    labels_a, labels_b = pairing.labels_a, pairing.labels_b
    mismatches = checked = 0
    max_residual = 0.0
    for start in range(0, labels_a.shape[1], VERIFY_SLICE):
        part = slice(start, start + VERIFY_SLICE)
        phase_a, c_next, j_next = pairing.basis_a.step(*labels_a[:, part])
        target = pairing.layout.index(c_next, j_next)
        interior = target >= 0
        target = target[interior]
        phase_a = phase_a[interior]
        phase_b, cb_next, jb_next = pairing.basis_b.step(
            *labels_b[:, part][:, interior]
        )
        match = (
            (labels_a[0, target] == c_next[interior])
            & (labels_a[1, target] == j_next[interior])
            & (labels_b[0, target] == cb_next)
            & (labels_b[1, target] == jb_next)
            & (phase_a == pairing.eps * phase_b)
        )
        for pa, pb in zip(phase_a[~match].tolist(), phase_b[~match].tolist()):
            try:
                va = Phase.from_gamma(pa).value(pairing.spec_a.gamma)
                vb = Phase.from_gamma(pb).value(pairing.spec_b.gamma)
                max_residual = max(max_residual, abs(va - vb))
            except ValueError:
                max_residual = 2.0
        checked += int(match.size)
        mismatches += int(match.size - np.count_nonzero(match))
    return IntertwinerCheck(mismatches, max_residual, checked)
