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

import math
from collections.abc import ItemsView, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .quadratic import RotationNumber, integral_combination
from .systems import SystemSpec

__all__ = [
    "CHAIN_BOXES",
    "GroupComparison",
    "IncompatibleSpectraError",
    "IntertwinerCheck",
    "IntertwinerPairing",
    "KOOPMAN_TABLE",
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
#: Pairs :func:`verify_intertwiner` checks at a time, and chains a pairing
#: enumerates at a time.  The temporaries of one block of pairs and one
#: window of chains peak near 0.9 MB traced, however many there are.
VERIFY_SLICE = 2**13
#: Half-widths B of the label boxes [-B, B]^d in which :func:`spectrum_of`
#: counts the chains of moving labels.
CHAIN_BOXES = (4, 8)


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
    one coordinate per sector dimension, all ints or integer arrays of one
    shape; returns the gamma multiplier ``c . x`` and the image ``A x + b``."""
    A, b, c = KOOPMAN_TABLE[kind][sector]
    return _affine(c, x, 0), tuple(_affine(row, x, bi) for row, bi in zip(A, b))


def _affine(coeffs: Sequence[int], x: Sequence, const: int):
    """``const + coeffs . x``, a new array when x holds arrays; zero
    coefficients are skipped and unit ones add x as it is."""
    terms = [xi if ci == 1 else ci * xi for ci, xi in zip(coeffs, x) if ci]
    if not terms:
        return const + 0 * x[0] if len(x) else const
    return sum(terms[1:], const + terms[0])


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


def is_one_simple(generators: Sequence[RotationNumber]) -> bool:
    """Is the proper value 1 simple for the given point-spectrum generators?

    1 fails to be simple iff some nonzero integer vector c makes
    ``z = sum(c_i gamma_i)`` an integer.  With ``gamma_i = a_i + b_i sqrt(d_i)``
    and quadratic fields independent over the rationals together with 1,
    that is an integer kernel vector (c, z) of one row
    ``sum(c_i b_i) = 0`` per field plus the row ``sum(c_i a_i) - z = 0``,
    each scaled to integers; the kernel is decided exactly.  A single
    generator never produces one, as every angle is irrational.
    """
    gens = list(generators)
    if len(gens) <= 1:
        return True
    xs = [g.exact for g in gens]
    rows = [[x.b if x.d == d else 0 for x in xs] + [0] for d in {x.d for x in xs}]
    rows.append([x.a for x in xs] + [-1])
    scaled = []
    for row in rows:
        m = math.lcm(*(Fraction(v).denominator for v in row))
        scaled.append([int(v * m) for v in row])
    return not _integer_solutions(scaled, [0] * len(scaled))[1]


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
        return "equal" if self.equal else "not-equal"


def point_spectrum_groups_equal(
    gamma1: RotationNumber, gamma2: RotationNumber
) -> GroupComparison:
    """Do gamma1 and gamma2 generate the same subgroup of R/Z?  Decided
    exactly.

    Equal groups need integers a, b with ``gamma2 = a*gamma1`` and
    ``gamma1 = b*gamma2 (mod 1)``; then ``(ab - 1)*gamma1`` is an
    integer, so ab = 1 since the angles are irrational.  The groups are
    therefore equal iff ``gamma2 = +/- gamma1 (mod 1)``, two
    :func:`integral_combination` tests.
    """
    for a in (1, -1):
        if integral_combination([(gamma1, a), (gamma2, -1)]):
            return GroupComparison(True, (a, a), f"gamma2 = {a}*gamma1 (mod 1)")
    return GroupComparison(False, None, "gamma2 is neither gamma1 nor -gamma1 (mod 1)")


# ---------------------------------------------------------------------------
# the intertwiner
# ---------------------------------------------------------------------------


class IncompatibleSpectraError(ValueError):
    """The two systems' spectral invariants do not match."""


def _isqrt(x: np.ndarray) -> np.ndarray:
    """floor(sqrt(x)) of a nonnegative int32 array: a float64 root of an
    integer below 2^52 never rounds up to the next integer."""
    return np.sqrt(x, dtype=np.float64).astype(np.int32)


class _Basis:
    """The normalized basis of one system inside the box [-B, B], as integers.

    A label is an integer pair (c, j).  c = -1 names the proper mode j,
    shown as ``("point", j)``, and ``points`` bounds those j.  c >= 0
    names position j of chain c of the canonical chain enumeration,
    shown as ``("chain", *params, j)``.  ``chain_index`` maps chain
    parameters to c arithmetically (-2 outside the box), and its inverse
    gives :meth:`params` and :meth:`positions` (the range [lo, hi] of
    positions inside the box) of any array of chain indices, so nothing
    is stored per chain.  The basis holds the first ``chains`` chains,
    by default all ``chain_count(B)`` that meet the box; an index past
    them names a chain it does not hold.  ``step_points(j)`` and
    ``step_chains(c, runs, j)`` (positions j on the chains c, runs[k]
    of them on chain c[k]) take the proper modes and the chain positions
    to their raw labels, apply ``KOOPMAN_TABLE`` and renormalize; each
    returns the phases' gamma multipliers and the image labels.  Labels
    are int32 (see :func:`build_intertwiner`).
    """

    def __init__(self, B: int, chains: Optional[int] = None) -> None:
        self.B = B
        self.chains = self.chain_count(B) if chains is None else chains

    @property
    def points(self) -> tuple[int, int]:
        return -self.B, self.B

    @staticmethod
    def chain_count(B: int) -> int:
        return 0

    def params(self, c: np.ndarray) -> np.ndarray:
        """The parameters of chains c, one row per parameter."""
        return np.zeros((0, *c.shape), dtype=np.int32)

    def positions(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """lo, hi: chains c hold the positions lo..hi, by default all of
        [-B, B] (read-only views, no storage)."""
        B = np.int32(self.B)
        return np.broadcast_to(-B, c.shape), np.broadcast_to(B, c.shape)

    def chain_index(self, *params):
        return -2

    def labels(self, c: np.ndarray, j: np.ndarray) -> Iterator[tuple]:
        params = self.params(np.maximum(c, 0)).T.tolist()
        for c, j, p in zip(c.tolist(), j.tolist(), params):
            yield ("point", j) if c < 0 else ("chain", *p, j)

    def parse(self, label) -> tuple[int, int]:
        """The integer label (c, j) of a label tuple; KeyError if the
        tuple names no basis vector of this kind."""
        if isinstance(label, tuple) and all(isinstance(x, int) for x in label[1:]):
            if label[:1] == ("point",) and len(label) == 2:
                return -1, label[1]
            arity = len(self.params(np.zeros(0, dtype=np.int32)))
            if label[:1] == ("chain",) and len(label) == arity + 2:
                c = int(self.chain_index(*label[1:-1]))
                if c >= 0:
                    return c, label[-1]
        raise KeyError(label)


class _RotationBasis(_Basis):
    """The characters e(k u), all proper: no chains."""

    def step_points(self, j):
        mult, (l,) = koopman_step("rotation", "lattice", (j,))
        return mult, np.full_like(j, -1), l


class _ShiftBasis(_Basis):
    """Chains m = 0, 1, -1, ..., B, -B of ``d[k,m]``, positions k in
    [-B, B]; the constant is the only proper mode."""

    points = (0, 0)

    @staticmethod
    def chain_count(B: int) -> int:
        return 2 * B + 1

    def params(self, c):
        return np.where(c % 2, (c + 1) // 2, -(c // 2))[None]

    def chain_index(self, m):
        return np.where(abs(m) > self.B, -2, np.where(m > 0, 2 * m - 1, -2 * m))

    def step_points(self, j):
        mult, _ = koopman_step("bernoulli", "constant", ())
        return np.full_like(j, mult), np.full_like(j, -1), j

    def step_chains(self, c, runs, j):
        (m,) = np.repeat(self.params(c), runs, axis=1)
        mult, (k_next, m_next) = koopman_step("bernoulli", "support", (j, m))
        return mult, self.chain_index(m_next), k_next


class _SkewBasis(_Basis):
    """Chains (m, r) for m = 1, -1, ..., B, -B and r = 0..|m|-1, whose
    position j is ``f[r + j m, m]``; the proper modes are ``g[k, 0]``."""

    @staticmethod
    def chain_count(B: int) -> int:
        return B * (B + 1)

    @staticmethod
    def _ring(c):
        """|m|, the sign of m and r of chains c."""
        # a (a - 1) chains have |m| < a, so chain c has |m| = a for the a
        # with a (a - 1) <= c < a (a + 1)
        a = (_isqrt(4 * c + 1) + 1) // 2
        rest = c - a * (a - 1)
        negative = rest >= a
        return a, negative, rest - negative * a

    def params(self, c):
        a, negative, r = self._ring(c)
        return np.stack([np.where(negative, -a, a), r])

    def positions(self, c):
        # the positions j with r + j m in [-B, B]
        a, negative, r = self._ring(c)
        r = np.where(negative, -r, r)
        return -((self.B + r) // a), (self.B - r) // a

    def chain_index(self, m, r):
        a = abs(m)
        inside = (a >= 1) & (a <= self.B) & (r >= 0) & (r < a)
        return np.where(inside, a * (a - 1) + (m < 0) * a + r, -2)

    def step_points(self, j):
        """The proper modes g[j, 0], which are not renormalized."""
        phase, image = koopman_step("skew", "lattice", (j, np.zeros_like(j)))
        return self._renormalized(phase, *image)

    def step_chains(self, c, runs, j):
        m, r = np.repeat(self.params(c), runs, axis=1)
        k = r + j * m
        phase, image = koopman_step("skew", "lattice", (k, m))
        # f = a g, so U f[k,m] = a[k,m] e(phase gamma) / a[k',m'] f[k',m']
        return self._renormalized(phase + _normalizing_exponent(k, m), *image)

    def _renormalized(self, phase, k, m):
        """The phase and label of the image g[k,m] in this basis: f[k,m]
        = a[k,m] g[k,m] off the proper row m = 0, g[k,0] on it."""
        chain = m != 0
        m_safe = np.where(chain, m, 1)
        r = k % abs(m_safe)
        return (
            phase - np.where(chain, _normalizing_exponent(k, m_safe), 0),
            np.where(chain, self.chain_index(m, r), -1),
            np.where(chain, (k - r) // m_safe, k),
        )


class _ProductBasis(_Basis):
    """Chains (l, m) with |l|, |m| <= B, ordered by the ring
    max(|l|, |m|), then l, then m, whose position k is
    ``t[l,k,m] = e(l k gamma) p[l,k,m]``, k in [-B, B]; the proper modes
    are ``e(l u)``."""

    @staticmethod
    def chain_count(B: int) -> int:
        return (2 * B + 1) ** 2

    def params(self, c):
        # ring s holds the chains (2s-1)^2 .. (2s+1)^2 - 1, in the order
        # ``chain_index`` counts
        s = (_isqrt(c) + 1) // 2
        w = c - np.where(s > 0, (2 * s - 1) ** 2, 0)
        t, inner = w - (2 * s + 1), 2 * (2 * s - 1)
        l = np.where(t < 0, -s, np.where(t < inner, t // 2 - s + 1, s))
        m = np.where(t < 0, w - s, np.where(t < inner, t % 2 * 2 * s - s, t - inner - s))
        return np.stack([l, m])

    def chain_index(self, l, m):
        s = np.maximum(abs(l), abs(m))
        # rings < s hold (2s-1)^2 chains; ring s holds the 2s+1 chains with
        # l = -s, then two (m = -s, s) per l strictly inside, then the 2s+1
        # chains with l = s
        before = np.where(s > 0, (2 * s - 1) ** 2, 0) + np.where(l > -s, 2 * l + 4 * s - 1, 0)
        return np.where(s <= self.B, before + np.where(abs(l) == s, m + s, m == s), -2)

    def step_points(self, j):
        """The constant tails e(j u), which keep their labels."""
        mult, (l,) = koopman_step("product", "constant", (j,))
        return mult, np.full_like(j, -1), l

    def step_chains(self, c, runs, j):
        l, m = np.repeat(self.params(c), runs, axis=1)
        mult, (l_next, k_next, m_next) = koopman_step("product", "support", (l, j, m))
        # t = e(l k gamma) p
        return mult + l * j - l_next * k_next, self.chain_index(l_next, m_next), k_next


_BASES = {
    "rotation": _RotationBasis,
    "skew": _SkewBasis,
    "bernoulli": _ShiftBasis,
    "product": _ProductBasis,
}


@dataclass(frozen=True, eq=False)
class IntertwinerPairing:
    """A basis pairing realizing a unitary W with U = W* V W on a truncation.

    Labels name the *normalized* bases: ``("point", k)`` for proper
    modes and ``("chain", *chain_label, position)`` for Lebesgue chains
    (f-basis on the skew side, t-basis on the product side, d-basis for
    a shift).  W is fixed by the two bases' chain enumerations and
    ``eps``, the sign relating the angles (gammaB = eps * gammaA mod 1):
    chain c of A goes to chain c of B position by position, over the
    positions both hold (:meth:`positions`), and the proper mode k of A
    to the proper mode eps * k of B.  Pairs are ordered with the proper
    modes first, then chain by chain.  Nothing is stored per chain or
    per pair: :meth:`blocks` enumerates the pairs on demand, ``pairs``
    counts them, and ``mapping`` shows them as label tuples.
    """

    spec_a: SystemSpec
    spec_b: SystemSpec
    truncation: int
    eps: int
    basis_a: _Basis = field(repr=False)
    basis_b: _Basis = field(repr=False)
    pairs: int = field(init=False)

    def __post_init__(self) -> None:
        p0, p1 = self.basis_a.points
        chains = sum(int(ends[-1]) for _, ends, _ in self._windows())
        object.__setattr__(self, "pairs", p1 - p0 + 1 + chains)

    def positions(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """lo, hi: the positions of chains c that both bases hold."""
        lo_a, hi_a = self.basis_a.positions(c)
        lo_b, hi_b = self.basis_b.positions(c)
        return np.maximum(lo_a, lo_b), np.minimum(hi_a, hi_b)

    def paired(self, c: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Which side-A labels (c, j) are paired: a position both bases
        hold on one of the paired chains, or a proper mode in ``points``."""
        chain = (c >= 0) & (c < self.basis_a.chains)
        lo, hi = self.positions(np.where(chain, c, 0))
        p0, p1 = self.basis_a.points
        return np.where(chain, (lo <= j) & (j <= hi), (c == -1) & (p0 <= j) & (j <= p1))

    def _windows(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The paired chains, ``VERIFY_SLICE`` at a time, as (c, ends,
        offset): chain c[k] holds the window's pairs ends[k-1]..ends[k]-1,
        the pair i at position i + offset[k] (read only where it holds
        one).  int32 is exact: a window holds at most VERIFY_SLICE (2B + 1)
        pairs."""
        n = self.basis_a.chains
        for first in range(0, n, VERIFY_SLICE):
            c = np.arange(first, min(first + VERIFY_SLICE, n), dtype=np.int32)
            lo, hi = self.positions(c)
            ends = np.cumsum(np.maximum(hi - lo + 1, 0), dtype=np.int32)
            yield c, ends, hi + 1 - ends

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The pairs in order, at most ``VERIFY_SLICE`` at a time: the
        proper modes, then the chains.  A block is (c, runs, j): its
        chains c (-1: the proper modes), how many of its pairs each one
        holds, and their side-A positions j; B's labels are A's with
        j -> eps j on the proper modes.  A block holds whole chains,
        except that it may start or end inside one."""
        p0, p1 = self.basis_a.points
        for first in range(p0, p1 + 1, VERIFY_SLICE):
            j = np.arange(first, min(first + VERIFY_SLICE, p1 + 1), dtype=np.int32)
            yield np.array([-1], dtype=np.int32), np.array([j.size]), j
        for c, ends, offset in self._windows():
            for first in range(0, int(ends[-1]), VERIFY_SLICE):
                stop = min(first + VERIFY_SLICE, int(ends[-1]))
                k0, k1 = ends.searchsorted((first, stop - 1), side="right")
                runs = np.diff(np.minimum(ends[k0 : k1 + 1], stop), prepend=first)
                j = np.arange(first, stop, dtype=np.int32) + np.repeat(offset[k0 : k1 + 1], runs)
                yield c[k0 : k1 + 1], runs, j

    @property
    def mapping(self) -> Mapping:
        """Read-only ``{side-A label: side-B label}`` in pair order."""
        return _PairMapping(self)


class _PairMapping(Mapping):
    """A pairing seen as a mapping of label tuples, derived block by block."""

    def __init__(self, pairing: IntertwinerPairing) -> None:
        self._pairing = pairing

    def __len__(self) -> int:
        return self._pairing.pairs

    def __iter__(self) -> Iterator[tuple]:
        for c, runs, j in self._pairing.blocks():
            yield from self._pairing.basis_a.labels(np.repeat(c, runs), j)

    def __getitem__(self, label) -> tuple:
        pairing = self._pairing
        c, j = map(np.array, pairing.basis_a.parse(label))
        if not pairing.paired(c, j):
            raise KeyError(label)
        return next(pairing.basis_b.labels(c[None], np.where(c < 0, pairing.eps * j, j)[None]))

    def items(self) -> ItemsView:
        return _PairItems(self)


class _PairItems(ItemsView):
    def __iter__(self) -> Iterator[tuple[tuple, tuple]]:
        pairing = self._mapping._pairing
        for c, runs, j in pairing.blocks():
            c = np.repeat(c, runs)
            jb = np.where(c < 0, pairing.eps * j, j)
            yield from zip(pairing.basis_a.labels(c, j), pairing.basis_b.labels(c, jb))


@dataclass(frozen=True)
class IntertwinerCheck:
    mismatches: int
    checked: int


def build_intertwiner(
    spec_a: SystemSpec, spec_b: SystemSpec, truncation: int
) -> IntertwinerPairing:
    """Pair the normalized bases of two spectrally compatible systems.

    Point modes are matched by proper value (k maps to eps*k); chains
    are matched in canonical enumeration order, position to position,
    over the positions both chains hold inside the truncation.  Each
    basis computes a chain's parameters and positions from its index,
    so the pairing keeps only the two bases and the pair count, summed
    ``VERIFY_SLICE`` chains at a time: its memory does not grow with B.
    Raises :class:`IncompatibleSpectraError` when the descriptors differ
    structurally (different point groups or Lebesgue multiplicities).
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    # Labels are int32.  Chain indices, exponents, phases and their
    # intermediates stay below (2B + 2)^2 in absolute value, so int32 is
    # exact up to B = 23,169; ``cli.MAX_INTERTWINER_PAIRS`` caps B at
    # 1,580 (107 between two products).
    if (2 * truncation + 2) ** 2 >= 2**31:
        raise ValueError(f"truncation {truncation} overflows the int32 tables")
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
        cmp = point_spectrum_groups_equal(ga, gb)
        if not cmp.equal:
            raise IncompatibleSpectraError(f"point-spectrum groups differ: {cmp.detail}")
        eps = cmp.relation[0]

    # each basis holds only the chains that get paired
    cls_a, cls_b = _BASES[spec_a.kind], _BASES[spec_b.kind]
    n_chains = min(cls_a.chain_count(truncation), cls_b.chain_count(truncation))
    basis_a, basis_b = cls_a(truncation, n_chains), cls_b(truncation, n_chains)
    return IntertwinerPairing(spec_a, spec_b, truncation, eps, basis_a, basis_b)


def verify_intertwiner(pairing: IntertwinerPairing) -> IntertwinerCheck:
    """Check W U = V W on every interior pair, exactly, with the raw actions.

    The pairs are walked in order (:meth:`IntertwinerPairing.blocks`):
    the proper modes, then the chains, at most ``VERIFY_SLICE`` pairs at
    a time, a chain longer than that split across blocks.  The side-A
    label is taken to its raw basis vector (skew chains
    ``f[k,m] = a[k,m] g[k,m]`` with ``a`` from the normalizing exponent,
    product chains ``t[l,k,m] = e(l k gamma) p[l,k,m]``, shift chains
    ``d[k,m]``, proper modes as they are), system A's raw action is
    applied through ``KOOPMAN_TABLE``, and the image (c', j') is
    renormalized.  A pair is interior when that image is paired
    (:meth:`IntertwinerPairing.paired`: c' a paired chain and j' in both
    bases' closed-form positions of c', or c' = -1 and j' in ``points``);
    chain ends at the truncation boundary are skipped.  System B's raw
    action is applied to the side-B label the same way; an interior pair
    matches when B's image is the side-B label of A's image, (c', j') on
    a chain or (-1, eps j') on a proper mode, and the phases agree.
    Phases are integer multiples of each system's angle, and the sign s
    with gammaB = s * gammaA (mod 1) is decided exactly from the angles,
    so they agree iff ``phase_a == s * phase_b``.  s is not read off
    ``eps``, so a pairing with the wrong eps fails on its proper modes.

    Nothing grows with the pair count: the temporaries are those of one
    block and one window of ``VERIFY_SLICE`` chains.  Returns the number
    of mismatched pairs and how many pairs were checked.
    """
    basis_a, basis_b, eps = pairing.basis_a, pairing.basis_b, pairing.eps
    # the angles' own sign, not the pairing's eps, which also relabels B
    ga, gb = pairing.spec_a.gamma, pairing.spec_b.gamma
    relation = (1, 1) if ga is None or gb is None else point_spectrum_groups_equal(ga, gb).relation
    sign = relation[0] if relation else 0
    mismatches = checked = 0
    for c, runs, j in pairing.blocks():
        if c[0] < 0:
            phase_a, c_next, j_next = basis_a.step_points(j)
            phase_b, cb_next, jb_next = basis_b.step_points(eps * j)
        else:
            phase_a, c_next, j_next = basis_a.step_chains(c, runs, j)
            phase_b, cb_next, jb_next = basis_b.step_chains(c, runs, j)
        interior = pairing.paired(c_next, j_next)
        # B's image must be the side-B label of A's image
        match = (
            interior
            & (cb_next == c_next)
            & (jb_next == np.where(c_next < 0, eps * j_next, j_next))
            & (phase_a == sign * phase_b)
        )
        n_interior = int(np.count_nonzero(interior))
        checked += n_interior
        mismatches += n_interior - int(np.count_nonzero(match))
    return IntertwinerCheck(mismatches, checked)
