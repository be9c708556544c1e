"""Koopman operators on character bases, in exact integer arithmetic.

The composition operator of each system permutes the labels of a
countable basis and multiplies by unimodular constants.  ``KOOPMAN_TABLE``
writes that action down once per system kind, per label sector, as an
affine integer map ``x -> A x + b`` with the phase ``e((c . x) gamma)``
(``e(x) = exp(2 pi i x)``):

* rotation, on ``e(l u)``, sector ``(l)``: ``e(l gamma) e(l u)``
* skew, on ``g[k,m](u,v) = e(k u) e(m v)``, sector ``(k, m)``:
  ``U g[k,m] = e(k gamma) g[k+m, m]``
* shift, on the constant and an orthonormal family ``d[k,m]`` (chain m,
  position k), sector ``(k, m)``: ``X d[k,m] = d[k+1, m]``
* product, on ``e(l u)`` (the constant tail, sector ``(l)``) and
  ``p[l,k,m] = e(l u) d[k,m]``, sector ``(l, k, m)``:
  ``V p[l,k,m] = e(l gamma) p[l, k+1, m]``

A sequence character moves one position with its shape fixed, so a
support is such a ``(position, chain)`` pair.  :func:`koopman_step`
applies the table to ints or integer arrays alike, and every consumer
reads it: :func:`spectrum_of`, the intertwiner's check, and the tower's
exact decision and residual search.  Phases are integer multiples of
gamma, so the angle's value is only needed for reporting.  The
intertwiner pairs renormalized chain bases (``f[k,m]`` on the skew side,
``t[l,k,m]`` on the product side), whose chain steps are phase-free.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import ItemsView, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .quadratic import ExactnessError, RotationNumber, integral_combination
from .systems import SystemSpec

__all__ = [
    "CHAIN_BOXES",
    "GroupComparison",
    "IncompatibleSpectraError",
    "IntertwinerCheck",
    "IntertwinerPairing",
    "KOOPMAN_TABLE",
    "Phase",
    "SectorAction",
    "SpectrumDescriptor",
    "build_intertwiner",
    "is_one_simple",
    "koopman_step",
    "point_spectrum_groups_equal",
    "spectrum_of",
    "verify_intertwiner",
]

INFINITE = "infinite"
#: Pairs :func:`verify_intertwiner` checks at a time.  Each pair of a
#: slice costs about 150 bytes of integer temporaries, so checking needs
#: about 10 MB however many pairs the pairing holds.
VERIFY_SLICE = 2**16
#: Half-widths B of the label boxes [-B, B]^d in which :func:`spectrum_of`
#: counts the chains of moving labels.
CHAIN_BOXES = (4, 8)


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


# ---------------------------------------------------------------------------
# the Koopman action on raw labels
# ---------------------------------------------------------------------------


class SectorAction(NamedTuple):
    """The Koopman action on one label sector: the label x goes to
    ``A x + b`` with the phase ``e((c . x) gamma)``."""

    A: tuple[tuple[int, ...], ...]
    b: tuple[int, ...]
    c: tuple[int, ...]


#: Each system kind's Koopman action on its raw integer labels, by sector.
KOOPMAN_TABLE: dict[str, dict[str, SectorAction]] = {
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


def koopman_step(kind: str, sector: str, x: Sequence) -> tuple:
    """The action of ``KOOPMAN_TABLE[kind][sector]`` on the labels ``x``,
    one coordinate per sector dimension, each an int or an integer array;
    returns the gamma multiplier ``c . x`` and the image ``A x + b``."""
    A, b, c = KOOPMAN_TABLE[kind][sector]
    mult = sum((ci * xi for ci, xi in zip(c, x)), 0)
    return mult, tuple(sum((a * xi for a, xi in zip(row, x)), bi) for row, bi in zip(A, b))


def _normalizing_exponent(k, m):
    """Gamma multiplier of the constant ``a[k,m]`` (m != 0) with
    ``f[k,m] = a[k,m] g[k,m]`` and ``U f[k,m] = f[k+m,m]``.

    The functional equation ``a[k+m,m] = e(k gamma) a[k,m]`` pins the
    whole chain once one member is fixed; we anchor ``a[r,m] = 1`` at the
    chain representative ``r = k mod |m|``.  Walking j steps from the
    anchor multiplies the phases ``e((r + t m) gamma)`` for t < j, giving
    the exponent ``j r + m j (j - 1) / 2`` (an integer for every j).
    """
    r = k % abs(m)
    j = (k - r) // m
    return j * r + m * (j * (j - 1) // 2)


def _bezout(a: int, b: int) -> tuple[int, int]:
    """x, y with x*a + y*b = math.gcd(a, b) (the nonnegative gcd)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -x0, -y0
    return x0, y0


def _integer_solutions(
    rows: list[list[int]], rhs: list[int]
) -> Optional[tuple[list[int], list[list[int]]]]:
    """Integer solutions of ``rows z = rhs`` as (one solution, kernel basis),
    or None if there is none.

    Unimodular column operations, tracked in U, bring the matrix to column
    echelon form E = rows U.  ``E w = rhs`` is solved pivot by pivot with a
    divisibility test, z = U w, and the zero columns of E give the kernel.
    """
    n = len(rows[0])
    E, U = [list(r) for r in rows], [[int(i == j) for j in range(n)] for i in range(n)]
    w, col = [0] * n, 0
    for i, row in enumerate(E):
        for j in range(col + 1, n):
            p, q = row[col], row[j]
            if q:
                g, (x, y) = math.gcd(p, q), _bezout(p, q)
                # columns (col, j) <- (x col + y j, (q/g) col - (p/g) j): determinant -1
                for r in E + U:
                    r[col], r[j] = x * r[col] + y * r[j], (q // g) * r[col] - (p // g) * r[j]
        rest = rhs[i] - sum(e * v for e, v in zip(row, w))
        if col < n and row[col]:
            if rest % row[col]:
                return None
            w[col] = rest // row[col]
            col += 1
        elif rest:
            return None
    return [sum(u * v for u, v in zip(r, w)) for r in U], [[r[j] for r in U] for j in range(col, n)]


def _fixed_point_rows(kind: str, sector: str) -> tuple[list[list[int]], list[int]]:
    """``A - I`` and ``-b`` of one sector: the fixed labels solve
    ``(A - I) x = -b``.  A must be unipotent (checked: ``(A - I)^2 = 0``),
    so that a label that moves never returns and a finite orbit of the
    sector's affine map is a fixed point."""
    A, b, _ = KOOPMAN_TABLE[kind][sector]
    n = len(b)
    N = [[A[i][j] - (i == j) for j in range(n)] for i in range(n)]
    if any(sum(r[t] * N[t][j] for t in range(n)) for r in N for j in range(n)):
        raise ValueError(f"the {kind} step is not unipotent on the {sector} sector")
    return N, [-v for v in b]


def _last_unknown_coset(rows, rhs) -> Optional[tuple[int, int, int]]:
    """The values of the last unknown over the integer solutions of
    ``rows z = rhs``: ``(base, step, rank)`` for ``base + step Z`` (step
    0: base only), with rank the rank of the solution lattice; None if
    there is no solution."""
    solved = _integer_solutions(rows, rhs)
    if solved is None:
        return None
    particular, kernel = solved
    step = math.gcd(*(v[-1] for v in kernel))
    return (particular[-1] % step if step else particular[-1]), step, len(kernel)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumDescriptor:
    """Point part (group generators, simplicity) plus Lebesgue multiplicity.

    The tag is forced by the parts: no Lebesgue part means pure-point,
    a trivial simple point part means pure-continuous, anything else is
    mixed.  ``chain_counts`` holds the evidence for the multiplicity as
    (box half-width B, chains meeting [-B, B]^d) pairs.
    """

    point_generators: tuple[RotationNumber, ...]
    lebesgue_multiplicity: object  # 0, a positive int, or INFINITE
    one_multiplicity: int = 1
    tag: str = field(default="", compare=False)
    chain_counts: tuple[tuple[int, int], ...] = field(default=(), compare=False)

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

    def to_json(self) -> dict:
        return {
            "point_generators": [g.to_json() for g in self.point_generators],
            "point_part_simple": self.point_part_simple,
            "one_multiplicity": self.one_multiplicity,
            "lebesgue_multiplicity": self.lebesgue_multiplicity,
            "chain_counts": [list(p) for p in self.chain_counts],
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


def _chains_in_box(kind: str, sector: str, B: int) -> int:
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


def spectrum_of(spec: SystemSpec) -> SpectrumDescriptor:
    """The Koopman spectral invariants of a system, computed from its row
    of ``KOOPMAN_TABLE`` (Halmos, Lectures on Ergodic Theory, 1956).

    On each sector the fixed labels solve ``(A - I) x = -b`` over the
    integers, with their gamma multiplier ``n = c . x`` as one more
    unknown.  The multipliers generate the point spectrum; the fixed
    labels with ``n = 0`` are the invariant functions, so they count the
    proper value 1.  Every other label moves and, A being unipotent,
    never returns: it lies on a two-sided chain that carries one copy of
    Lebesgue spectrum.  The chains meeting the boxes of ``CHAIN_BOXES``
    are counted; the multiplicity is reported ``"infinite"`` only when
    that count grows with the box, and is the count otherwise.
    """
    generator = ones = 0
    for sector, action in KOOPMAN_TABLE[spec.kind].items():
        N, rhs = _fixed_point_rows(spec.kind, sector)
        coset = _last_unknown_coset(
            [r + [0] for r in N] + [list(action.c) + [-1]], rhs + [0]
        )
        if coset is None:
            continue
        base, step, rank = coset
        generator = math.gcd(generator, base, step)
        if (base % step if step else base) == 0:  # some fixed label has n = 0
            if rank > (step != 0):
                raise ValueError(f"the {spec.kind} system has infinitely many invariant labels")
            ones += 1
    if generator > 1:
        raise ValueError(f"the {spec.kind} point spectrum is generated by {generator} gamma")
    counts = tuple(
        (B, sum(_chains_in_box(spec.kind, s, B) for s in KOOPMAN_TABLE[spec.kind]))
        for B in CHAIN_BOXES
    )
    grows = counts[-1][1] > counts[0][1]
    return SpectrumDescriptor(
        (spec.gamma,) if generator else (),
        INFINITE if grows else counts[-1][1],
        one_multiplicity=ones,
        chain_counts=counts,
    )


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
    arithmetically (-2 outside the box).  ``step`` takes the basis
    vectors that label arrays name to their raw labels, applies
    ``KOOPMAN_TABLE`` and renormalizes; it returns each phase's gamma
    multiplier and the image labels.
    """

    points: tuple[int, int]
    params: np.ndarray  # one row of chain parameters per chain
    lo: np.ndarray
    hi: np.ndarray

    def __init__(self, B: int) -> None:
        self.B = B

    def chain_index(self, *params):
        return -2

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
        mult, (l,) = koopman_step("rotation", "lattice", (j,))
        return mult, c, l


class _ShiftBasis(_Basis):
    """Chains m = 0, 1, -1, ..., B, -B of ``d[k,m]``, positions k in
    [-B, B]; the constant is the only proper mode."""

    def __init__(self, B: int) -> None:
        super().__init__(B)
        a = np.arange(1, B + 1)
        self.points = (0, 0)
        self.params = np.concatenate([[0], np.stack([a, -a], axis=1).ravel()])[:, None]
        self.lo = np.broadcast_to(-B, 2 * B + 1)
        self.hi = np.broadcast_to(B, 2 * B + 1)

    def chain_index(self, m):
        return np.where(abs(m) > self.B, -2, np.where(m > 0, 2 * m - 1, -2 * m))

    def step(self, c, j):
        (m,) = self._chain_params(c)
        chain = c >= 0
        mult, (k_next, m_next) = koopman_step("bernoulli", "support", (j, m))
        constant_mult, _ = koopman_step("bernoulli", "constant", ())
        return (
            np.where(chain, mult, constant_mult),
            np.where(chain, self.chain_index(m_next), -1),
            np.where(chain, k_next, j),
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
        phase, (k_next, m_next) = koopman_step("skew", "lattice", (k, m))
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
        l, m = np.divmod(np.arange(side * side, dtype=np.int32), side)
        l, m = l - B, m - B
        # a stable sort keeps (l, m) lexicographic within each ring
        order = np.argsort(np.maximum(np.abs(l), np.abs(m)), kind="stable")
        self.points = (-B, B)
        self.params = np.stack([l[order], m[order]], axis=1)
        # every chain holds the positions -B..B: read-only views, no storage
        self.lo = np.broadcast_to(-B, side * side)
        self.hi = np.broadcast_to(B, side * side)

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
        mult, (l_next, k_next, m_next) = koopman_step("product", "support", (l, j, m))
        constant_mult, (l_constant,) = koopman_step("product", "constant", (j,))
        # t = e(l k gamma) p on chains; the constant tail e(j u) keeps its label
        phase = mult + l * j - l_next * k_next
        return (
            np.where(chain, phase, constant_mult),
            np.where(chain, self.chain_index(l_next, m_next), -1),
            np.where(chain, k_next, l_constant),
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
    (gammaB = eps * gammaA mod 1).  Each basis's ``params`` records its
    chain enumeration order, so the arbitrary relabeling is reproducible.
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
    # pair i of chain c holds position lo[c] + i - start[c]; int32 labels
    # written in place keep the build near 20 bytes per pair
    labels_a = np.empty((2, n_points + int(count.sum())), dtype=np.int32)
    labels_a[0, :n_points] = -1
    labels_a[1, :n_points] = np.arange(p0, p1 + 1)
    labels_a[0, n_points:] = np.repeat(np.arange(n_chains, dtype=np.int32), count)
    labels_a[1, n_points:] = np.arange(n_points, labels_a.shape[1], dtype=np.int32)
    labels_a[1, n_points:] += np.repeat((lo - start).astype(np.int32), count)
    labels_b = labels_a.copy()
    labels_b[1, :n_points] *= eps
    return IntertwinerPairing(
        spec_a=spec_a,
        spec_b=spec_b,
        truncation=truncation,
        eps=eps,
        labels_a=labels_a,
        labels_b=labels_b,
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
    applied through ``KOOPMAN_TABLE``, and the image is renormalized and
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
