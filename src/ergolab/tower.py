"""Generalized proper-function towers, decided exactly from one index map.

A generalized proper function of level n+1 satisfies ``g(T x) = f(x) g(x)``
with f of level n; level 1 is the constants.  For the skew product the
whole question lives in the character lattice Z^2: the dynamical quotient
of ``g[k,m]`` is the constant ``e(k gamma)`` times the character ``(m, 0)``,
so each tower level is a subgroup of Z^2 and the tower is computed exactly.
The skew tower strictly grows for one extra step (constants, then the
pure-u characters, then everything), while the rotation-times-shift
product stops one level earlier.

Both halves of that claim are decided by one integer computation.  Expand
g in the character basis of either system.  The equation
``g(T x) = delta e(k u) g(x)`` carries each coefficient to the next one
along the index map ``K_k = Q* P`` (P the Koopman action on basis labels,
read from ``koopman.KOOPMAN_TABLE``, Q* the shift ``l -> l - k`` of the
u-frequency), times a unimodular phase.
So |c| is constant along every K_k orbit: an L^2 solution lives on finite
orbits, and every finite orbit, being a cycle, carries one for a suitable
delta.  A level-3 function with multiplier e(k u) therefore exists iff K_k
has a finite orbit on the whole, untruncated lattice (Abramov's theory of
quasi-discrete spectrum: L. M. Abramov, 1962; F. Hahn and W. Parry,
1965).  :func:`decide_finite_orbits` settles that for every k at once,
from the affine maps ``x -> x + N x + b`` the table gives per label
sector, N^2 = 0 (checked where the table is built).

The residual search corroborates the decision on a truncated basis, a
fixed u-band (``U_BAND``) times a sequence window that grows with the
truncation N.  There the operator is a phased partial permutation of basis
labels whose phases can be gauged away, so the least-squares minimum of
``|| g o T - delta e(k u) g ||`` is a closed form of the orbit census: 0
if K_k closes a cycle on the basis, and otherwise
``sqrt(2 - 2 cos(pi/(L+1)))`` at the longest free path L.  Each orbit of
K_k is a fixed label or a lattice line (checked), so the census is a
closed-form count of segments and of the labels it covers.  It reads
``KOOPMAN_TABLE`` as the decision does, so it corroborates the
decision's linear algebra, not the table;
the table's numeric tie to ``systems.iterate_batch`` ties it to the maps.
:func:`certify_product_tower` reads the residuals against 1e-6 and r0/2;
its margin measures the band, falling like ``pi / (2 U_BAND + 2)``.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Optional, Sequence

from ._record import asdict, field, record
from .koopman import KOOPMAN_TABLE, _integer_solutions, _last_unknown_coset
from .systems import InconclusiveEvidenceError, SystemSpec

__all__ = [
    "DistinguishResult",
    "InconclusiveEvidenceError",
    "ModeSubgroup",
    "OrbitDecision",
    "ProductTowerCertificate",
    "ResidualReport",
    "TowerLevel",
    "UnsupportedSystemError",
    "U_BAND",
    "ACCEPT_TOL",
    "CENSUS_KS",
    "CENSUS_K_CHARGE",
    "MAX_CENSUS_WORK",
    "REJECT_FACTOR",
    "certify_product_tower",
    "compute_tower",
    "decide_finite_orbits",
    "quasi_eigen_residual_search",
    "residual_census",
    "residual_reference",
    "stabilization_depth",
    "towers_distinguish",
]

#: Fixed u-frequency half-band of the residual search space.
U_BAND = 4

ACCEPT_TOL = 1e-6
REJECT_FACTOR = 0.5
#: The ks a census covers unless told otherwise: the proper functions and
#: the two nearest multipliers on each side.
CENSUS_KS = (0, 1, -1, 2, -2)
#: Most work one residual census may do, in window positions: at
#: truncation N a k counts at most 2N + 1 slices or path lengths, plus
#: ``CENSUS_K_CHARGE`` for its checks and report.  A position takes at most
#: about 8 microseconds on a 2-core x86-64 host, so the budget caps a census
#: near 2.4 s: 20,000 ks at N = 2, five up to N = 29,994, one to 149,994.
MAX_CENSUS_WORK = 300_000
CENSUS_K_CHARGE = 10


class UnsupportedSystemError(ValueError):
    """The operation is not defined for this system kind."""


# ---------------------------------------------------------------------------
# subgroups of the character lattice Z^2
# ---------------------------------------------------------------------------


@record(frozen=True)
class ModeSubgroup:
    """A subgroup of Z^2 in Hermite normal form ``{x(a,b) + y(0,c)}``,
    which ``from_generators`` reads off the integer solver
    :func:`koopman._integer_solutions`.  It is unique, so equality is exact.
    """

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        a, b, c = self.a, self.b, self.c
        if a < 0:
            a, b = -a, -b
        if c < 0:
            c = -c
        if a == 0 and b != 0:
            c, b = math.gcd(b, c), 0
        if c:
            b %= c
        if a == 0:
            b = 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @classmethod
    def from_generators(cls, generators: Iterable[tuple[int, int]]) -> "ModeSubgroup":
        """a is the gcd of the first coordinates, b the second coordinate
        of a combination with first coordinate a, and c the gcd of those
        of a basis of the combinations with first coordinate 0."""
        gens = list(generators)
        ps, qs = [p for p, _ in gens], [q for _, q in gens]
        a = math.gcd(*ps)
        z, kernel = _integer_solutions([ps], [a])
        c = math.gcd(*(sum(x * q for x, q in zip(v, qs)) for v in kernel))
        return cls(a, sum(x * q for x, q in zip(z, qs)), c)

    def generators(self) -> list[tuple[int, int]]:
        gens = []
        if self.a:
            gens.append((self.a, self.b))
        if self.c:
            gens.append((0, self.c))
        return gens

    def is_trivial(self) -> bool:
        return self.a == 0 and self.c == 0

    def to_json(self) -> dict:
        return {"generators": [list(g) for g in self.generators()]}

    def __str__(self) -> str:
        if self.is_trivial():
            return "{0}"
        if (self.a, self.b, self.c) == (1, 0, 1):
            return "Z^2"
        return "<" + ", ".join(str(g) for g in self.generators()) + ">"


@record(frozen=True)
class TowerLevel:
    """One tower level: a character subgroup, together with the constants."""

    characters: ModeSubgroup
    depth: int = field(compare=False)  # levels compare as character sets

    def to_json(self) -> dict:
        return {"depth": self.depth, "characters": self.characters.to_json()}


# ---------------------------------------------------------------------------
# exact tower for the skew system
# ---------------------------------------------------------------------------


def compute_tower(system: SystemSpec) -> list[TowerLevel]:
    """Levels 1', 1'', ... of the skew tower, up to and including the
    first level equal to the one before it.

    Level one is the constants (the system is ergodic).  A character n has
    as quotient a constant, which levels absorb, times ``N n``, N the
    table's step less the identity, so level j is ``ker N^(j-1)`` in Z^2,
    in Hermite normal form.  ``N^2 = 0`` (checked where the table is
    built), so level 3 is Z^2 and the list ends by level 4: d + 2 levels
    on Z^d."""
    if system.kind != "skew":
        raise UnsupportedSystemError(
            f"character-lattice towers are defined for the skew system, "
            f"not {system.kind!r}"
        )
    N = KOOPMAN_TABLE["skew"]["lattice"].N
    power = [[int(i == j) for j in range(2)] for i in range(2)]  # N^0
    levels = []
    while len(levels) < 2 or levels[-1] != levels[-2]:
        _, kernel = _integer_solutions(power, [0, 0])
        levels.append(TowerLevel(ModeSubgroup.from_generators(map(tuple, kernel)), len(levels) + 1))
        power = [[sum(N[i][t] * power[t][j] for t in range(2)) for j in range(2)] for i in range(2)]
    return levels


def stabilization_depth(levels: Sequence[TowerLevel]) -> int:
    """Least n with level n equal to level n+1 (1-based): on the levels
    of :func:`compute_tower`, which end at the first repeat, the last
    depth but one.  Raises ValueError for a list with no repeat."""
    for i in range(len(levels) - 1):
        if levels[i] == levels[i + 1]:
            return i + 1
    raise ValueError("the levels end before the tower stabilizes")


# ---------------------------------------------------------------------------
# the index map K_k and the exact decision
# ---------------------------------------------------------------------------

@record
class OrbitDecision:
    """Per label sector, the k whose K_k has a finite orbit there:
    ``(base, step)`` for k in base + step Z (step 0: k = base only), or
    None for no k."""

    sectors: dict[str, Optional[tuple[int, int]]]

    def has_finite_orbit(self, k: int) -> bool:
        """Whether a function with multiplier e(k u) exists one level up."""
        return any(
            ks is not None and ((k - ks[0]) % ks[1] == 0 if ks[1] else k == ks[0])
            for ks in self.sectors.values()
        )

    @property
    def gap(self) -> bool:
        """Whether some k != 0 has a finite orbit: the tower grows past the
        proper functions."""
        return any(ks not in (None, (0, 0)) for ks in self.sectors.values())

    def to_json(self) -> dict:
        return {
            "gap": self.gap,
            "sectors": {
                name: None if ks is None else {"k_base": ks[0], "k_step": ks[1]}
                for name, ks in self.sectors.items()
            },
        }


def decide_finite_orbits(kind: str) -> OrbitDecision:
    """Decide, for every k at once, whether K_k has a finite orbit.

    On each sector ``KOOPMAN_TABLE`` gives the P step as an affine map
    ``P x = x + N x + b``, so ``K_k x = x + N x + b - k e_l``.  N^2 = 0
    (checked where the table is built), so a finite orbit is a fixed
    point: if ``K^p x = x``, the augmented matrix V of K gives
    ``0 = (V^p - I) x = (V^(p-1) + ... + I)(V - I) x``, and the first
    factor, p I plus a nilpotent, is invertible over Q.  Since k enters
    the fixed-point equation only through ``k e_l``, it joins the
    unknowns: ``[N | -e_l] (x, k) = -b`` is solved over the integers,
    and the k of its solutions form a coset ``base + step Z`` or nothing.
    The result: product, k = 0 only, in the constant sector (the proper
    functions e(l u)); skew, every k, at the labels (l, k) (the witnesses
    e(l u) e(k v)).
    """
    if kind not in ("skew", "product"):  # the kinds whose labels start with l
        raise UnsupportedSystemError(
            f"tower comparison supports skew and product systems, not {kind!r}"
        )
    sectors: dict[str, Optional[tuple[int, int]]] = {}
    for name, (N, b, _) in KOOPMAN_TABLE[kind].items():
        coset = _last_unknown_coset([[*r, -int(i == 0)] for i, r in enumerate(N)], [-v for v in b])
        sectors[name] = None if coset is None else coset[:2]
    return OrbitDecision(sectors)


# ---------------------------------------------------------------------------
# residual search machinery
# ---------------------------------------------------------------------------


@record
class ResidualReport:
    """Outcome of one quasi-proper-function search: the orbit census of
    the truncated K_k and the least-squares minimum it fixes."""

    system_kind: str
    k: int
    truncation: int
    residual: float
    u_band: int
    dimension: int
    cycles: int
    path_lengths: list[list[int]]

    def to_json(self) -> dict:
        return asdict(self)


def _line_step(kind: str, sector: str, k: int) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """N and ``c = b - k e_l`` of ``K_k x = x + N x + b - k e_l`` on one
    sector of ``KOOPMAN_TABLE`` (k = 0: the step itself), refused by name
    unless every orbit is a lattice line: with ``N^2 = 0`` (checked where
    the table is built) and ``N c = 0`` the step ``N x + c`` is the same
    at ``K_k x``."""
    N, b, _ = KOOPMAN_TABLE[kind][sector]
    c = [v - k * (i == 0) for i, v in enumerate(b)]
    if any(sum(a * v for a, v in zip(row, c)) for row in N):
        raise ValueError(
            f"K_{k} does not move the {kind} {sector} sector along lattice lines: "
            f"N (b - k e_l) is not 0"
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


def _sector_regions(kind: str, truncation: int) -> dict[str, tuple[list[int], list[tuple]]]:
    """Each sector's labels in the truncated basis, in table coordinates,
    as a region of :func:`_region_count`.  l lies in [-U_BAND,
    U_BAND]; the product's tails are its constant and the supports
    {a, a + s} in [-N, N] of size at most 2, labelled (l, a, s); the
    skew's are |m| <= N."""
    if kind == "product":
        return {
            "constant": ([-U_BAND], [((0,), U_BAND)]),
            "support": ([-U_BAND, -truncation, 0], [((0,), U_BAND), ((1, 2), truncation)]),
        }
    if kind == "skew":
        return {"lattice": ([-U_BAND, -truncation], [((0,), U_BAND), ((1,), truncation)])}
    raise UnsupportedSystemError(f"the residual search runs on product or skew systems, not {kind!r}")


def _segment_census(regions: dict, steps: list) -> tuple[int, int, list[list[int]]]:
    """The label count of the truncated K_k, its cycle count and its free
    paths' ``[length, count]``, ascending, from each sector's region and
    step ``(N, c)``.

    ``d = N x + c`` is the same along an orbit: d = 0 is a cycle, else the
    line meets its convex region in one free path.  d reads only what N
    reads, so a sector is counted per slice at those coordinates' values
    (:func:`_slices`).  There ``f(t)``, the labels x with ``x + t d`` in
    the region too, counts runs of t + 1 labels on the paths: f(0) labels
    in all, and ``f(L-1) - 2 f(L) + f(L+1)`` paths of exactly L labels."""
    labels, cycles, lengths = 0, 0, {}
    for region, (N, c) in zip(regions.values(), steps):
        for fixed, d in _slices(region, N, c):
            f = [_region_count(region, [0] * len(d), fixed)]
            labels += f[0]
            if not any(d):
                cycles += f[0]
                continue
            while f[-1]:
                f.append(_region_count(region, [len(f) * x for x in d], fixed))
            f.append(0)
            for L in range(1, len(f) - 1):
                lengths[L] = lengths.get(L, 0) + f[L - 1] - 2 * f[L] + f[L + 1]
    return labels, cycles, [[length, n] for length, n in sorted(lengths.items()) if n]


def _path_residual(n: int) -> float:
    """The least-squares minimum on a free path of n nodes,
    ``sqrt(2 - 2 cos(pi / (n + 1)))``."""
    return math.sqrt(2 - 2 * math.cos(math.pi / (n + 1)))


def residual_census(spec: SystemSpec, ks: Iterable[int], truncation: int) -> Iterator[ResidualReport]:
    """:func:`quasi_eigen_residual_search` for each k of ``ks`` in turn,
    counted by :func:`_segment_census`.  The ks are read once; no ks, ks
    over ``MAX_CENSUS_WORK``, then a K_k whose orbits are no lattice lines
    (:func:`_line_step`), are refused before anything is counted."""
    if truncation < 2:
        raise ValueError("truncation must be >= 2")
    ks = tuple(ks)
    if not ks:
        raise ValueError("the residual census needs at least one k: ks is empty")
    charge = 2 * truncation + 1 + CENSUS_K_CHARGE
    if charge * len(ks) > MAX_CENSUS_WORK:
        raise ValueError(
            f"{len(ks)} ks at residual truncation {truncation} are charged {charge} "
            f"census positions each, {charge * len(ks)} in all, over the budget of "
            f"{MAX_CENSUS_WORK}: the census would take about {8e-6 * charge * len(ks):.0f} s"
        )
    regions = _sector_regions(spec.kind, truncation)
    steps = [[_line_step(spec.kind, sector, k) for sector in regions] for k in ks]
    for k, k_steps in zip(ks, steps):
        dimension, cycles, path_lengths = _segment_census(regions, k_steps)
        yield ResidualReport(
            system_kind=spec.kind, k=k, truncation=truncation,
            residual=0.0 if cycles else _path_residual(path_lengths[-1][0]),
            u_band=U_BAND, dimension=dimension, cycles=cycles, path_lengths=path_lengths,
        )


def quasi_eigen_residual_search(spec: SystemSpec, k: int, truncation: int) -> ResidualReport:
    """The minimum of ``|| g o T - delta e(k u) g ||`` over unit g in the
    truncated basis and unimodular delta, read off the orbit census of K_k:
    the one-k case of :func:`residual_census`.

    The basis is ``e(l u)`` times a tail character, |l| <= ``U_BAND``,
    tails from the truncation N.  K_k fixes each label or moves it along a
    lattice line (else ``ValueError``), leaving a partial permutation of
    cycles and free paths, orthogonal since the norm counts the
    coefficients pushed out of the truncation too.  Gauged, a cycle (a self-loop
    included) carries an exact solution and a free path of n nodes leaves
    ``sqrt(2 - 2 cos(pi/(n+1)))``, the discrete sine profile's: the
    residual is 0 if ``cycles`` is nonzero, else the longest path's.
    ``path_lengths`` lists ``[length, count]`` in ascending length.  k = 0
    recovers the proper functions; on the skew control with k = 1 the
    mode e(v) is a self-loop.
    """
    [report] = residual_census(spec, (k,), truncation)
    return report


def residual_reference(ks: tuple[int, ...] = (1, 2)) -> float:
    """The reference residual r0: the smallest truncated minimum over ``ks``.

    For k != 0, K_k moves the u-frequency by -k inside the band
    [-U_BAND, U_BAND], so its longest free path has
    ``L = ceil((2 U_BAND + 1) / |k|)`` nodes.  The constant sector attains
    that length and the band bounds every other sector's paths as well, so
    the minimum over ``ks`` is the path residual
    ``sqrt(2 - 2 cos(pi / (L + 1)))`` at the largest L.  It is a property
    of the band, the same for every angle, coin and truncation, so it
    takes no system.  Raises ``ValueError`` for k = 0, where proper
    functions give residual 0.
    """
    if not ks or 0 in ks:
        raise ValueError(f"r0 is defined for nonzero k, not {tuple(ks)}")
    return _path_residual(max(-(-(2 * U_BAND + 1) // abs(k)) for k in ks))


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@record
class ProductTowerCertificate:
    """Residual corroboration of the exact decision that the product
    tower adds no level beyond the proper functions (1'' = 1'''), with
    the decision it was checked against."""

    spec: SystemSpec
    truncation: int
    r0: float
    reports: list[ResidualReport]
    decision: OrbitDecision

    @property
    def new_level_found(self) -> bool:
        return self.decision.gap

    def to_json(self) -> dict:
        return {
            "system": self.spec.to_json(),
            "truncation": self.truncation,
            "r0": self.r0,
            "reports": [r.to_json() for r in self.reports],
            "new_level_found": self.new_level_found,
        }


def certify_product_tower(spec: SystemSpec, truncation: int = 8) -> ProductTowerCertificate:
    """Corroborate the exact product-tower decision with the residual search,
    one P step for all of ``CENSUS_KS`` (:func:`residual_census`).

    Each k's search accepts a finite orbit at residual <= ``ACCEPT_TOL``
    and rejects one at residual >= ``r0 * REJECT_FACTOR``; a residual in
    between raises :class:`InconclusiveEvidenceError` with the partial
    evidence attached.  An accept or reject that disagrees with
    :func:`decide_finite_orbits` raises ``RuntimeError``.  r0 is the
    band's closed form (:func:`residual_reference`), so the reject margin
    is a property of the search space, not a bound uniform in the
    truncation.  The certificate keeps the decision it read;
    ``new_level_found`` is its gap.
    """
    if spec.kind != "product":
        raise UnsupportedSystemError("certificate applies to the product system")
    decision = decide_finite_orbits(spec.kind)
    r0 = residual_reference()
    reject_at = r0 * REJECT_FACTOR
    reports = []
    for report in residual_census(spec, CENSUS_KS, truncation):
        reports.append(report)
        k = report.k
        if report.residual <= ACCEPT_TOL:
            found = True
        elif report.residual >= reject_at:
            found = False
        else:
            raise InconclusiveEvidenceError(
                f"residual {report.residual:.3e} for k={k} sits between the "
                f"accept tolerance {ACCEPT_TOL:.1e} and the reject threshold "
                f"{reject_at:.3e}",
                partial=reports,
            )
        if found != decision.has_finite_orbit(k):
            raise RuntimeError(
                f"the residual search {'finds' if found else 'rules out'} a "
                f"finite orbit for k={k} (residual {report.residual:.3e}), "
                f"against the exact decision"
            )
    return ProductTowerCertificate(
        spec=spec,
        truncation=truncation,
        r0=r0,
        reports=reports,
        decision=decision,
    )


@record
class DistinguishResult:
    verdict: str
    gap_a: bool
    gap_b: bool
    evidence: dict

    @property
    def distinguished(self) -> bool:
        return self.verdict == "distinguished"


def _tower_gap(spec: SystemSpec, truncation: int) -> tuple[bool, dict]:
    """Does 1'' != 1''' hold?  Decided exactly for both kinds by
    :func:`decide_finite_orbits`, once: the product's is the decision its
    certificate read.

    The evidence carries the decision and what corroborates it: the skew
    tower's levels from :func:`compute_tower`, or the product's residual
    certificate.  Either one disagreeing with the decision raises
    ``RuntimeError``.  Like the census, :func:`compute_tower` reads the
    same N of ``KOOPMAN_TABLE`` as the decision does, so the skew check
    confirms the decision's linear algebra, not the table: a wrong table
    entry moves both sides alike.  The table's numeric tie to
    ``systems.iterate_batch`` is what ties it to the maps.
    """
    if spec.kind == "product":
        cert = certify_product_tower(spec, truncation=truncation)
        decision = cert.decision
        corroboration = {
            "certificate": cert.to_json(),
            "stabilization_depth": None if decision.gap else 2,
        }
    else:
        decision = decide_finite_orbits(spec.kind)  # refuses all but the skew
        levels = compute_tower(spec)
        if (levels[1] != levels[2]) != decision.gap:
            raise RuntimeError("the skew tower's levels disagree with the exact decision")
        corroboration = {
            "levels": [lvl.to_json() for lvl in levels],
            "stabilization_depth": stabilization_depth(levels),
        }
    return decision.gap, {"method": "exact", "decision": decision.to_json(), **corroboration}


def towers_distinguish(
    spec_a: SystemSpec, spec_b: SystemSpec, truncation: int = 8
) -> DistinguishResult:
    """Compare the tower invariant (does the tower grow past the proper
    functions?) between two systems.

    "distinguished" means the invariant differs, which rules out any
    spacial isomorphism; sameness of the invariant distinguishes nothing.
    """
    gap_a, ev_a = _tower_gap(spec_a, truncation)
    gap_b, ev_b = _tower_gap(spec_b, truncation)
    verdict = "distinguished" if gap_a != gap_b else "not-distinguished"
    return DistinguishResult(
        verdict=verdict,
        gap_a=gap_a,
        gap_b=gap_b,
        evidence={"system_a": ev_a, "system_b": ev_b},
    )
