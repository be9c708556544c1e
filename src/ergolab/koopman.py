"""Koopman operators on character bases, in exact integer arithmetic.

The composition operator U f = f o S of each system permutes the labels
of a countable basis and multiplies by unimodular constants.
``KOOPMAN_TABLE`` holds that action per system kind and label sector, as
an affine integer map ``x -> A x + b`` with the phase ``e((c . x)
gamma)`` (``e(x) = exp(2 pi i x)``), derived at import from the kind's
map ``systems.MAPS[kind] = (M, t, s)``.  A torus character ``e(n . x)``
goes to ``e((t . n) gamma) e((M^T n) . x)``: one ``lattice`` sector for
a kind without a shift (rotation ``e(l u)``, skew ``g[k,m] = e(k u)
e(m v)``, ``U g[k,m] = e(k gamma) g[k+m, m]``).  A kind with a shift has
a ``constant`` sector (torus characters times the constant) and a
``support`` sector ``(torus label, position k, chain m)``: an orthonormal
family ``d[k,m]`` of sequence characters moves s positions with its
shape fixed, so the product's ``p[l,k,m] = e(l u) d[k,m]`` goes to
``e(l gamma) p[l, k+1, m]``.  :func:`koopman_step`
applies the table to anything with integer ``+`` and ``*``: ints, integer
arrays, or the polynomials of the intertwiner's certificate.  Every
consumer reads it: :func:`spectrum_of`, the intertwiner's certificate,
and the tower's exact decision and residual census.  Phases are integer
multiples of gamma, so the angle's value is only needed for reporting.
The intertwiner pairs renormalized chain bases (``f[k,m]`` on the skew
side, ``t[l,k,m]`` on the product side), whose chain steps are
phase-free.  Each basis is a class that describes its chains; its proper
modes are read off ``MAPS`` and the table (:func:`_proper_mode`).  A
pairing's list of label pairs inside a box is a dict, built only when
asked.  Nothing here imports numpy.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from fractions import Fraction
from typing import NamedTuple, Optional

from ._record import field, record
from .quadratic import RotationNumber, integral_combination
from .systems import MAPS, SystemSpec

__all__ = [
    "GroupComparison",
    "IncompatibleSpectraError",
    "IntertwinerCheck",
    "IntertwinerIdentity",
    "IntertwinerPairing",
    "KOOPMAN_TABLE",
    "SectorAction",
    "SpectrumDescriptor",
    "build_intertwiner",
    "koopman_step",
    "point_spectrum_groups_equal",
    "spectral_weak_mixing_check",
    "spectrum_of",
    "verify_intertwiner",
]

INFINITE = "infinite"


# ---------------------------------------------------------------------------
# the Koopman action on raw labels
# ---------------------------------------------------------------------------


class SectorAction(NamedTuple):
    """The Koopman action on one label sector: the label x goes to
    ``A x + b`` with the phase ``e((c . x) gamma)``."""

    A: tuple[tuple[int, ...], ...]
    b: tuple[int, ...]
    c: tuple[int, ...]


def _koopman_table() -> dict[str, dict[str, SectorAction]]:
    """Each kind's sectors read off its ``MAPS`` record (M, t, s): A =
    M^T, b = 0, c = t on torus labels, and on supports I on (position,
    chain) beside it, the position moving by s."""
    table = {}
    for kind, (M, t, s) in MAPS.items():
        pad = (0,) * len(t)
        torus = SectorAction(tuple(zip(*M)), pad, t)
        A = tuple(row + (0, 0) for row in torus.A) + (pad + (1, 0), pad + (0, 1))
        support = SectorAction(A, pad + (s, 0), t + (0, 0))
        table[kind] = {"constant": torus, "support": support} if s else {"lattice": torus}
    return table


#: Each system kind's Koopman action on its raw integer labels, by sector.
KOOPMAN_TABLE: dict[str, dict[str, SectorAction]] = _koopman_table()


def koopman_step(kind: str, sector: str, x: Sequence) -> tuple:
    """The action of ``KOOPMAN_TABLE[kind][sector]`` on the labels ``x``,
    one coordinate per sector dimension: ints, integer arrays of one
    shape, or polynomials; returns the gamma multiplier ``c . x`` and the
    image ``A x + b``."""
    A, b, c = KOOPMAN_TABLE[kind][sector]
    return _affine(c, x, 0), tuple(_affine(row, x, bi) for row, bi in zip(A, b))


def _affine(coeffs: Sequence[int], x: Sequence, const: int):
    """``const + coeffs . x``, a new array or polynomial when x holds
    them; zero coefficients are skipped and unit ones add x as it is."""
    terms = [xi if ci == 1 else ci * xi for ci, xi in zip(coeffs, x) if ci]
    if not terms:
        return const + 0 * x[0] if len(x) else const
    return sum(terms[1:], const + terms[0])


def _normalizing_exponent(m, r, j):
    """Gamma multiplier of the constant ``a[k,m]`` (m != 0) with
    ``f[k,m] = a[k,m] g[k,m]`` and ``U f[k,m] = f[k+m,m]``, at the label
    ``k = r + j m`` of the chain (m, r), ``0 <= r < |m|``.

    The functional equation ``a[k+m,m] = e(k gamma) a[k,m]`` pins the
    whole chain once one member is fixed; we anchor ``a[r,m] = 1`` at the
    chain representative r.  Walking j steps from the anchor multiplies
    the phases ``e((r + t m) gamma)`` for t < j, giving the exponent
    ``j r + m j (j - 1) / 2`` (an integer for every j).
    """
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


def _line_step(kind: str, sector: str, k: int) -> tuple[list[list[int]], list[int]]:
    """``N = A - I`` and ``c = b - k e_l`` of ``K_k x = A x + b - k e_l`` on
    one sector of ``KOOPMAN_TABLE`` (k = 0: the step itself), refused by
    name unless every orbit is a lattice line: with ``N^2 = 0``
    (:func:`_fixed_point_rows`) and ``N c = 0`` the step ``N x + c`` is the
    same at ``K_k x``."""
    N, minus_b = _fixed_point_rows(kind, sector)
    c = [-v - k * (i == 0) for i, v in enumerate(minus_b)]
    if any(sum(a * v for a, v in zip(row, c)) for row in N):
        raise ValueError(
            f"K_{k} does not move the {kind} {sector} sector along lattice lines: "
            f"(A - I)(b - k e_l) is not 0"
        )
    return N, c


def _region_count(region: tuple[list, list], shift: Sequence[int], fixed: dict[int, int]) -> int:
    """How many labels x of ``region = (lows, [(group, high), ...])``
    (each coordinate at least its low, each group's sum at most its high)
    have ``x + shift`` in it too and ``x[j] = v`` for each ``j: v`` of
    ``fixed``.  That set keeps the region's form, each low raised by
    ``max(0, -shift)`` and each high lowered by ``max(0, its group's
    shift)``; a group of ``free`` unfixed coordinates with ``room`` above
    their lows holds C(room + free, free)."""
    lows, groups = region
    lows = [low + max(0, -v) for low, v in zip(lows, shift)]
    count = 1
    for group, high in groups:
        room, free = high - max(0, sum(shift[i] for i in group)), 0
        for i in group:
            if i in fixed and fixed[i] < lows[i]:
                return 0
            room -= fixed.get(i, lows[i])
            free += i not in fixed
        if room < 0:
            return 0
        count *= math.comb(room + free, free)
    return count


def _slices(region: tuple[list, list], N, c) -> Iterator[tuple[dict[int, int], list[int]]]:
    """The slices of ``region`` at each value of the coordinates N reads,
    as ``(fixed, d)``: those coordinates' values, and the step
    ``d = N x + c``, the same at every label of the slice."""
    lows, groups = region
    top = {i: high - sum(lows[t] for t in group if t != i) for group, high in groups for i in group}
    read = [j for j in range(len(c)) if any(r[j] for r in N)]
    for values in itertools.product(*(range(lows[j], top[j] + 1) for j in read)):
        fixed = dict(zip(read, values))
        yield fixed, [sum(r[j] * v for j, v in fixed.items()) + ci for r, ci in zip(N, c)]


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


@record(frozen=True)
class SpectrumDescriptor:
    """Point part (group generators, simplicity) plus Lebesgue multiplicity.

    The point spectrum is generated by at most one irrational angle,
    which never makes the proper value 1 a repeated one, so 1 is simple
    exactly when it has multiplicity one.  The multiplicity is decided
    exactly, sector by sector; ``multiplicity_witness`` holds what each
    decision read, as ``(sector, N, b, multiplicity)`` with ``N = A - I``,
    so a reader of the JSON can re-derive it (:func:`_sector_multiplicity`).
    """

    point_generators: tuple[RotationNumber, ...]
    lebesgue_multiplicity: object  # 0, a positive int, or INFINITE
    one_multiplicity: int = 1
    multiplicity_witness: tuple = field(default=(), compare=False)

    def __post_init__(self) -> None:
        mult = self.lebesgue_multiplicity
        if mult != INFINITE and (not isinstance(mult, int) or mult < 0):
            raise ValueError(f"bad Lebesgue multiplicity {mult!r}")
        if not isinstance(self.one_multiplicity, int) or self.one_multiplicity < 1:
            raise ValueError("the proper value 1 has multiplicity >= 1")
        if len(self.point_generators) > 1:
            raise ValueError(
                f"a point spectrum has at most one generator, got {len(self.point_generators)}"
            )

    @property
    def tag(self) -> str:
        """Forced by the parts: no Lebesgue part means pure-point, a
        trivial simple point part means pure-continuous, anything else is
        mixed."""
        if self.lebesgue_multiplicity == 0:
            return "pure-point"
        if not self.point_generators and self.point_part_simple:
            return "pure-continuous"
        return "mixed"

    @property
    def point_part_simple(self) -> bool:
        """Is the proper value 1 simple?"""
        return self.one_multiplicity == 1

    def to_json(self) -> dict:
        return {
            "point_generators": [g.to_json() for g in self.point_generators],
            "point_part_simple": self.point_part_simple,
            "one_multiplicity": self.one_multiplicity,
            "lebesgue_multiplicity": self.lebesgue_multiplicity,
            "multiplicity_witness": {
                sector: {"N": [list(row) for row in N], "b": list(b), "multiplicity": m}
                for sector, N, b, m in self.multiplicity_witness
            },
            "tag": self.tag,
        }


def spectral_weak_mixing_check(descriptor: SpectrumDescriptor) -> bool:
    """True iff the point part is exactly {1} and 1 is simple."""
    return len(descriptor.point_generators) == 0 and descriptor.point_part_simple


def _sector_multiplicity(N: Sequence[Sequence[int]], b: Sequence[int]):
    """How many chains the moving labels of a sector ``x -> A x + b``
    with ``N = A - I``, ``N^2 = 0``, form: none if N = 0 and b = 0;
    ``|b|`` on one coordinate, one per residue mod b; else infinitely
    many, as ``d(x) = N x + b``, constant on a chain, takes infinitely
    many values if N != 0, and Z^d / Z b is infinite for d >= 2."""
    if not any(map(any, N)) and not any(b):
        return 0
    if len(b) == 1:  # N^2 = 0 makes a 1 x 1 N zero
        return abs(b[0])
    return INFINITE


def spectrum_of(spec: SystemSpec) -> SpectrumDescriptor:
    """The Koopman spectral invariants of a system, computed from its row
    of ``KOOPMAN_TABLE`` (Halmos, Lectures on Ergodic Theory, 1956).

    On each sector the fixed labels solve ``(A - I) x = -b`` over the
    integers, with their gamma multiplier ``n = c . x`` as one more
    unknown.  The multipliers generate the point spectrum; the fixed
    labels with ``n = 0`` are the invariant functions, so they count the
    proper value 1.  Every other label moves and, A being unipotent,
    never returns: it lies on a two-sided chain that carries one copy of
    Lebesgue spectrum.  Each sector's count of chains is decided from its
    N = A - I and b (:func:`_sector_multiplicity`), and the multiplicity
    is their sum, ``"infinite"`` if one is; the descriptor's
    ``multiplicity_witness`` keeps each sector's N, b and count.
    """
    kind, witness = spec.kind, []
    generator = ones = 0
    for sector, action in KOOPMAN_TABLE[kind].items():
        N, rhs = _fixed_point_rows(kind, sector)
        witness.append((sector, tuple(map(tuple, N)), action.b,
                        _sector_multiplicity(N, action.b)))
        coset = _last_unknown_coset(
            [r + [0] for r in N] + [list(action.c) + [-1]], rhs + [0]
        )
        if coset is None:
            continue
        base, step, rank = coset
        generator = math.gcd(generator, base, step)
        if (base % step if step else base) == 0:  # some fixed label has n = 0
            if rank > (step != 0):
                raise ValueError(f"the {kind} system has infinitely many invariant labels")
            ones += 1
    if generator > 1:
        raise ValueError(f"the {kind} point spectrum is generated by {generator} gamma")
    multiplicities = [m for *_, m in witness]
    return SpectrumDescriptor(
        (spec.gamma,) if generator else (),
        INFINITE if INFINITE in multiplicities else sum(multiplicities),
        one_multiplicity=ones,
        multiplicity_witness=tuple(witness),
    )


# ---------------------------------------------------------------------------
# point-spectrum group comparison (exact)
# ---------------------------------------------------------------------------


@record(frozen=True)
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


class _Poly:
    """A polynomial with rational coefficients in named integer unknowns:
    ``{monomial: coefficient}``, a monomial being the sorted tuple of its
    unknowns' names, with repeats.

    It has the ``+``, ``-`` and ``*`` that :func:`koopman_step` and
    :func:`_affine` use, and ``//`` by an int, which divides over Q: it
    is met only in the binomial ``j (j - 1) // 2``, an integer for every
    integer j.  A polynomial is true when it is not identically 0.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict) -> None:
        self.terms = {mono: c for mono, c in terms.items() if c}

    @classmethod
    def var(cls, name: str) -> "_Poly":
        return cls({(name,): 1})

    @staticmethod
    def _terms(x) -> dict:
        return x.terms if isinstance(x, _Poly) else {(): x}

    def __add__(self, other) -> "_Poly":
        terms = dict(self.terms)
        for mono, c in self._terms(other).items():
            terms[mono] = terms.get(mono, 0) + c
        return _Poly(terms)

    __radd__ = __add__

    def __neg__(self) -> "_Poly":
        return self * -1

    def __sub__(self, other) -> "_Poly":
        return self + -other

    def __rsub__(self, other) -> "_Poly":
        return -self + other

    def __mul__(self, other) -> "_Poly":
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in self._terms(other).items():
                mono = tuple(sorted(m1 + m2))
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return _Poly(terms)

    __rmul__ = __mul__

    def __floordiv__(self, n: int) -> "_Poly":
        return _Poly({mono: Fraction(c, n) for mono, c in self.terms.items()})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        text = ""
        for mono, c in sorted(self.terms.items(), key=lambda t: (-len(t[0]), t[0])):
            factors = list(mono) if abs(c) == 1 and mono else [str(abs(c)), *mono]
            text += (" - " if c < 0 else " + ") + "*".join(factors)
        return text.removeprefix(" + ").replace(" - ", "-", text.startswith(" - ")) or "0"


def _proper_mode(kind: str, k) -> tuple[str, tuple]:
    """The sector and raw label of proper mode k, read off ``MAPS`` and
    the table: ``(k, 0, ...)`` on the torus sector, the kind's first, or
    the constant alone when the kind has no torus."""
    torus = len(MAPS[kind][1])
    return next(iter(KOOPMAN_TABLE[kind])), ((k,) + (0,) * (torus - 1) if torus else ())


class _Basis:
    """The normalized basis of one system kind, described chain by chain;
    as it is, the rotation's, which has none.

    Its proper modes are raw labels (:func:`_proper_mode`), shown as
    ``("point", k)``, k in [-B, B] when the kind has a torus and 0
    otherwise.  Position j of the chain with parameters ``params`` is the
    raw label ``chain_label(params, j)`` of ``chain_sector``, times the
    phase ``e(exponent(params, j) gamma)``, shown as ``("chain", *params,
    j)``; ``chain_params`` names the parameters.  Raw labels and exponents
    are ints, or polynomials when the parameters and position are.
    ``chains(B)`` yields each chain meeting the box in the canonical
    order, as its parameters and its positions inside the box.
    """

    chain_sector: Optional[str] = None
    chain_params: tuple[str, ...] = ()

    @staticmethod
    def chains(B: int) -> Iterator[tuple[tuple, range]]:
        return iter(())

    @staticmethod
    def exponent(params: tuple, j):
        return 0


class _ShiftBasis(_Basis):
    """Chains m = 0, 1, -1, ..., B, -B of ``d[k,m]``, positions k in
    [-B, B]; the constant is the only proper mode."""

    chain_sector = "support"
    chain_params = ("m",)

    @staticmethod
    def chains(B):
        yield (0,), range(-B, B + 1)
        for a in range(1, B + 1):
            for m in (a, -a):
                yield (m,), range(-B, B + 1)

    @staticmethod
    def chain_label(params, j):
        (m,) = params
        return j, m


class _SkewBasis(_Basis):
    """Chains (m, r) for m = 1, -1, ..., B, -B and r = 0..|m|-1, whose
    position j is ``f[r + j m, m]``; the proper modes are ``g[k, 0]``,
    which are not renormalized."""

    chain_sector = "lattice"
    chain_params = ("m", "r")

    @staticmethod
    def chains(B):
        for a in range(1, B + 1):
            for m in (a, -a):
                for r in range(a):
                    # the positions j with r + j m in [-B, B]
                    s = r if m > 0 else -r
                    yield (m, r), range(-((B + s) // a), (B - s) // a + 1)

    @staticmethod
    def chain_label(params, j):
        m, r = params
        return r + j * m, m

    @staticmethod
    def exponent(params, j):
        return _normalizing_exponent(*params, j)


class _ProductBasis(_Basis):
    """Chains (l, m) with |l|, |m| <= B, ordered by the ring
    max(|l|, |m|), then l, then m, whose position k is
    ``t[l,k,m] = e(l k gamma) p[l,k,m]``, k in [-B, B]; the proper modes
    are ``e(l u)``."""

    chain_sector = "support"
    chain_params = ("l", "m")

    @staticmethod
    def chains(B):
        for s in range(B + 1):
            for l in range(-s, s + 1):
                # the ring's edges l = -s, s hold every m, the rows inside it m = -s, s
                for m in range(-s, s + 1) if abs(l) == s else (-s, s):
                    yield (l, m), range(-B, B + 1)

    @staticmethod
    def chain_label(params, j):
        l, m = params
        return l, j, m

    @staticmethod
    def exponent(params, j):
        # t = e(l k gamma) p
        return params[0] * j


_BASES = {
    "rotation": _Basis,
    "skew": _SkewBasis,
    "bernoulli": _ShiftBasis,
    "product": _ProductBasis,
}


@record(frozen=True, eq=False)
class IntertwinerPairing:
    """A basis pairing realizing a unitary W with U = W* V W.

    Labels name the *normalized* bases: ``("point", k)`` for proper
    modes and ``("chain", *chain_label, position)`` for Lebesgue chains
    (f-basis on the skew side, t-basis on the product side, d-basis for
    a shift).  W is fixed by the two basis classes' chain orders and
    ``eps``, the sign relating the angles (gammaB = eps * gammaA mod 1):
    the c-th chain of A goes to the c-th chain of B position by
    position, and the proper mode k of A to the proper mode eps * k of
    B.  ``truncation`` only bounds what ``mapping`` lists; nothing is
    stored per chain or per pair.
    """

    spec_a: SystemSpec
    spec_b: SystemSpec
    truncation: int
    eps: int
    basis_a: type[_Basis] = field(repr=False)
    basis_b: type[_Basis] = field(repr=False)

    @property
    def mapping(self) -> dict:
        """``{side-A label: side-B label}`` for the labels both bases hold
        inside [-B, B], B the truncation: the proper modes, then chain by
        chain.  Built on each read, one entry a pair: the 148,225 pairs
        at B = 192 take about 0.08 s on a 2-core x86-64 host, and B = 10^5
        would need 4 * 10^10.  No CLI run reads it."""
        B, eps = self.truncation, self.eps
        points = range(-B, B + 1) if MAPS[self.spec_a.kind][1] else range(1)
        pairs = {("point", k): ("point", eps * k) for k in points}
        chains = zip(self.basis_a.chains(B), self.basis_b.chains(B))
        for (params_a, js_a), (params_b, js_b) in chains:
            for j in range(max(js_a.start, js_b.start), min(js_a.stop, js_b.stop)):
                pairs[("chain", *params_a, j)] = ("chain", *params_b, j)
        return pairs


class IntertwinerIdentity(NamedTuple):
    """One identity of the certificate: on ``side`` ("a", "b", or "ab"
    for both), in ``sector``, the polynomials ``lhs`` and ``rhs`` agree
    coordinate by coordinate, identically in their unknowns."""

    side: str
    sector: str
    name: str
    lhs: tuple
    rhs: tuple

    @property
    def holds(self) -> bool:
        return not any(a - b for a, b in zip(self.lhs, self.rhs, strict=True))

    def __str__(self) -> str:
        show = lambda v: "(" + ", ".join(map(str, v)) + ")"
        verdict = "holds" if self.holds else "FAILS"
        equation = f"{show(self.lhs)} = {show(self.rhs)}"
        return f"{self.side} {self.sector} {self.name}: {equation} {verdict}"


@record(frozen=True)
class IntertwinerCheck:
    """How many identities of the certificate failed, of how many
    decided; ``identities`` lists them."""

    mismatches: int
    checked: int
    identities: tuple[IntertwinerIdentity, ...] = field(default=(), compare=False, repr=False)


def build_intertwiner(
    spec_a: SystemSpec,
    spec_b: SystemSpec,
    truncation: int,
    spectra: tuple[SpectrumDescriptor, SpectrumDescriptor],
    groups: Optional[GroupComparison],
) -> IntertwinerPairing:
    """Pair the normalized bases of two spectrally compatible systems,
    from their descriptors ``spectra`` (:func:`spectrum_of`) and the
    comparison ``groups`` of their angles (None when they have none),
    which the caller decides once.

    Point modes are matched by proper value (k maps to eps*k, eps the
    comparison's sign); chains are matched in canonical order, position
    to position.  The pairing keeps eps and the two kinds' basis
    classes, which describe every chain, so nothing is built per chain;
    ``truncation`` only bounds what its ``mapping`` lists.  Raises
    :class:`IncompatibleSpectraError` when the descriptors differ
    structurally (different point groups or Lebesgue multiplicities).
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    da, db = spectra
    if da.lebesgue_multiplicity != db.lebesgue_multiplicity:
        raise IncompatibleSpectraError(
            f"Lebesgue multiplicities differ: {da.lebesgue_multiplicity} "
            f"vs {db.lebesgue_multiplicity}"
        )
    eps = 1
    if len(da.point_generators) != len(db.point_generators):
        raise IncompatibleSpectraError("point spectra differ in rank")
    if da.point_generators:
        if not groups.equal:
            raise IncompatibleSpectraError(f"point-spectrum groups differ: {groups.detail}")
        eps = groups.relation[0]
    return IntertwinerPairing(
        spec_a, spec_b, truncation, eps, _BASES[spec_a.kind], _BASES[spec_b.kind]
    )


def _basis_identities(side: str, kind: str, basis: type[_Basis]) -> Iterator[IntertwinerIdentity]:
    """The chain step and the proper modes of one kind's basis, stepped
    through ``KOOPMAN_TABLE`` at a symbolic chain (parameters named as in
    ``chain_params``) and position j, or proper index k."""
    if basis.chain_sector is not None:
        params = tuple(_Poly.var(name) for name in basis.chain_params)
        j = _Poly.var("j")
        mult, image = koopman_step(kind, basis.chain_sector, basis.chain_label(params, j))
        target = basis.chain_label(params, j + 1)
        # the coordinates free of j name the chain, the others the position
        named = [i for i, v in enumerate(target) if not any("j" in m for m in v.terms)]
        rest = [i for i in range(len(target)) if i not in named]
        for name, lhs, rhs in (
            ("chain", [image[i] for i in named], [target[i] for i in named]),
            ("position", [image[i] for i in rest], [target[i] for i in rest]),
            ("phase", [mult], [basis.exponent(params, j + 1) - basis.exponent(params, j)]),
        ):
            yield IntertwinerIdentity(side, basis.chain_sector, name, tuple(lhs), tuple(rhs))
    sector, x = _proper_mode(kind, _Poly.var("k"))
    yield IntertwinerIdentity(side, sector, "fixed", koopman_step(kind, sector, x)[1], x)


def verify_intertwiner(pairing: IntertwinerPairing) -> IntertwinerCheck:
    """Decide W U = V W on the whole space, with the raw actions, by
    expanding integer-polynomial identities; nothing depends on the
    truncation.

    W sends chain c of A to chain c of B position by position and the
    proper mode k to eps k, so W U = V W holds when, on each side:

    * ``chain`` and ``position``: the table's image of position j of a
      symbolic chain is the raw label of position j + 1 of the same
      chain.  Its coordinates free of j, which name the chain, are
      unchanged, and the others are those of j + 1; on the skew,
      ``k' = r + (j + 1) m`` with ``0 <= r < |m|`` also keeps r, by
      Euclid's uniqueness;
    * ``phase``: the step's gamma multiplier ``c . x`` is
      ``a(j + 1) - a(j)``, with a the normalizing exponent, so the
      renormalized step is the phase-free shift (c, j) -> (c, j + 1);
    * ``fixed``: the table fixes the raw label of a symbolic proper mode;

    and, on both sides at once, ``proper values``: the multiplier of the
    proper mode k of A equals s times that of the proper mode eps k of B,
    with s the sign of gammaB = s gammaA (mod 1), decided exactly from
    the angles (1 when either system has none).  s is not read off
    ``eps``, so a pairing with the wrong eps fails here.  Each side is
    decided on its own, so a wrong step fails even where W, between two
    copies of one kind, would carry it onto itself.  Returns how many
    identities fail, of how many decided, and the identities.
    """
    kind_a, kind_b, eps = pairing.spec_a.kind, pairing.spec_b.kind, pairing.eps
    # the angles' own sign, not the pairing's eps, which also relabels B
    ga, gb = pairing.spec_a.gamma, pairing.spec_b.gamma
    relation = (1, 1) if ga is None or gb is None else point_spectrum_groups_equal(ga, gb).relation
    sign = relation[0] if relation else 0
    k = _Poly.var("k")
    mult_a, _ = koopman_step(kind_a, *_proper_mode(kind_a, k))
    mult_b, _ = koopman_step(kind_b, *_proper_mode(kind_b, eps * k))
    identities = (
        *_basis_identities("a", kind_a, pairing.basis_a),
        *_basis_identities("b", kind_b, pairing.basis_b),
        IntertwinerIdentity("ab", "points", "proper values", (mult_a,), (sign * mult_b,)),
    )
    failed = sum(not identity.holds for identity in identities)
    return IntertwinerCheck(failed, len(identities), identities)
