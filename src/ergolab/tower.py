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
from the affine maps (A, b) the table gives per label sector.

The residual search corroborates the decision on a truncated basis, a
fixed u-band (``U_BAND``) times a sequence window that grows with the
truncation N.  There the operator is a phased partial permutation of basis
labels whose phases can be gauged away, so the least-squares minimum of
``|| g o T - delta e(k u) g ||`` is a closed form of the orbit census: 0
if K_k closes a cycle on the basis, and otherwise
``sqrt(2 - 2 cos(pi/(L+1)))`` at the longest free path L.  The search
takes the P step once per tail for every k, then one walk per k over
compact integer arrays: it counts the cycles and free paths of each K_k
and reads the residual off that form.  Nothing here imports numpy.
The certificate accepts a finite orbit below 1e-6 and rejects one above
``r0/2``, with r0 the closed-form residual of the band's longest free
path; a residual in between raises :class:`InconclusiveEvidenceError`,
and a verdict that disagrees with the exact decision raises
``RuntimeError``.  The reject margin measures the band, not the system:
it falls like ``pi / (2 U_BAND + 2)`` as the band grows.
"""

from __future__ import annotations

import math
from array import array
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ._record import asdict, field, record
from .koopman import (
    KOOPMAN_TABLE,
    _bezout,
    _fixed_point_rows,
    _last_unknown_coset,
    koopman_step,
)
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
    "MAX_CENSUS_NODES",
    "MAX_TOWER_DEPTH",
    "MIN_CENSUS_CHARGE",
    "REJECT_FACTOR",
    "certify_product_tower",
    "compute_tower",
    "decide_finite_orbits",
    "quasi_eigen_residual_search",
    "residual_census",
    "residual_reference",
    "stabilization_depth",
    "tower_step",
    "towers_distinguish",
]

#: Fixed u-frequency half-band of the residual search space.
U_BAND = 4

ACCEPT_TOL = 1e-6
REJECT_FACTOR = 0.5
#: The ks a census covers unless told otherwise: the proper functions and
#: the two nearest multipliers on each side.
CENSUS_KS = (0, 1, -1, 2, -2)
#: Most basis labels one residual census may step (:func:`census_nodes`:
#: 9 (1 + (N+1)(2N+1)) on the product at truncation N).  The census runs
#: on Python ints in ``array`` storage: the five-k census of
#: ``reproduce-letter`` takes about 1.7 microseconds and 41 traced bytes
#: per label on a 2-core x86-64 host (1.72 s and 39 MB at N = 234), so the
#: budget caps it near 2 s; N = 234 is the largest product truncation it
#: admits.  That is a base census of about 0.5 microseconds per label and
#: one more walk per k, about 0.24, so a residual search may also take at
#: most five ks' worth of censuses at the budget: labels x ks <= 5 x
#: ``MAX_CENSUS_NODES``.  A k also costs about 40 microseconds beyond its
#: walk, its report entry included, which the estimate adds; the budget
#: charges each k at least ``MIN_CENSUS_CHARGE`` labels, so at N = 2 (144
#: labels, 74 microseconds a k) it admits 20,000 ks, about 1.5 s.
MAX_CENSUS_NODES = 10**6
MIN_CENSUS_CHARGE = 250
#: Most levels :func:`compute_tower` may build.  A level and its report
#: entry take about 65 microseconds and 4 KB on a 2-core x86-64 host (6.4 s
#: and 433 MB peak RSS at 10^5 levels), so the budget caps a run near 2 s.
MAX_TOWER_DEPTH = 30_000


class UnsupportedSystemError(ValueError):
    """The operation is not defined for this system kind."""


# ---------------------------------------------------------------------------
# subgroups of the character lattice Z^2
# ---------------------------------------------------------------------------


@record(frozen=True)
class ModeSubgroup:
    """A subgroup of Z^2 in Hermite normal form ``{x(a,b) + y(0,c)}``.

    The normal form is unique, so equality is exact.
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
        a = b = c = 0
        for p, q in generators:
            if p == 0:
                c = math.gcd(c, q)
                continue
            if a == 0:
                a, b = p, q
                continue
            g = math.gcd(a, p)
            # extended gcd: g = x*a + y*p
            x, y = _bezout(a, p)
            combo_b = x * b + y * q
            c = math.gcd(c, (a // g) * q - (p // g) * b)
            a, b = g, combo_b
        return cls(a, b, c)

    @classmethod
    def trivial(cls) -> "ModeSubgroup":
        return cls(0, 0, 0)

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


def _skew_quotient_character(mode: tuple[int, int]) -> tuple[int, int]:
    """Character part of g[k,m](S x) / g[k,m](x): the image label of the
    skew step less the label, which is (m, 0)."""
    _, image = koopman_step("skew", "lattice", mode)
    return tuple(a - b for a, b in zip(image, mode))


def tower_step(level: TowerLevel, system: SystemSpec) -> TowerLevel:
    """The next tower level over ``level`` for the skew system.

    A character (k, m) joins the next level iff its dynamical quotient
    character (m, 0) lies in ``level`` (the accompanying constant is
    absorbed, since levels carry all constants).  So every (k, 0) joins,
    and (0, m) joins for the multiples m of the least t > 0 with (t, 0) in
    the level, if there is one.  The input level is kept inside the
    output, so canonical towers are nested by construction.
    """
    if system.kind != "skew":
        raise UnsupportedSystemError(
            f"character-lattice towers are defined for the skew system, "
            f"not {system.kind!r}"
        )
    H = level.characters
    step = _minimal_multiple((0, 1), _skew_quotient_character, H)
    new = ModeSubgroup.from_generators([(1, 0), (0, step)] + H.generators())
    return TowerLevel(new, depth=level.depth + 1)


def _minimal_multiple(
    basis: tuple[int, int],
    quot: Callable[[tuple[int, int]], tuple[int, int]],
    H: ModeSubgroup,
) -> int:
    """Least t > 0 with ``t * quot(basis)`` in H, or 0 if no multiple is.

    Read off the Hermite normal form ``{x(a, b) + y(0, c)}`` of H: the
    first coordinate t*qx must be a multiple of a, so t is a multiple of
    t1 = a / gcd(a, qx) (none exists when a = 0 and qx != 0); what is
    left of the second coordinate at t1 must then vanish modulo c.
    """
    qx, qy = quot(basis)
    if H.a == 0:
        if qx != 0:
            return 0
        t1, rem = 1, qy
    else:
        t1 = H.a // math.gcd(H.a, qx)
        rem = t1 * qy - (t1 * qx // H.a) * H.b
    if H.c == 0:
        return t1 if rem == 0 else 0
    return t1 * (H.c // math.gcd(H.c, rem))


def compute_tower(system: SystemSpec, max_depth: int) -> list[TowerLevel]:
    """Levels 1', 1'', ... up to ``max_depth`` primes, starting from the
    constants (the system is ergodic, so level one is exactly the
    constants).  A ``max_depth`` over ``MAX_TOWER_DEPTH`` is refused,
    with its estimated time, before any level is built."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if max_depth > MAX_TOWER_DEPTH:
        raise ValueError(
            f"tower max_depth {max_depth} is over the budget of {MAX_TOWER_DEPTH} "
            f"levels: the levels would take about {6.5e-5 * max_depth:.0f} s"
        )
    levels = [TowerLevel(ModeSubgroup.trivial(), depth=1)]
    while len(levels) < max_depth:
        levels.append(tower_step(levels[-1], system))
    return levels


def stabilization_depth(levels: Sequence[TowerLevel]) -> Optional[int]:
    """Least n with level n equal to level n+1 (1-based), if visible."""
    for i in range(len(levels) - 1):
        if levels[i] == levels[i + 1]:
            return i + 1
    return None


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
    ``P x = A x + b``, so ``K_k x = A x + b - k e_l``.  A is unipotent
    (checked: (A - I)^2 = 0), so a finite orbit is a fixed point: if
    ``K^p x = x``, the augmented matrix V of K gives
    ``0 = (V^p - I) x = (V^(p-1) + ... + I)(V - I) x``, and the first
    factor, p I plus a nilpotent, is invertible over Q.  Since k enters
    the fixed-point equation only through ``k e_l``, it joins the
    unknowns: ``[A - I | -e_l] (x, k) = -b`` is solved over the integers,
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
    for name in KOOPMAN_TABLE[kind]:
        N, rhs = _fixed_point_rows(kind, name)
        coset = _last_unknown_coset([r + [-int(i == 0)] for i, r in enumerate(N)], rhs)
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


def _sector_tails(
    spec: SystemSpec, truncation: int
) -> dict[str, tuple[list[range], list[array]]]:
    """Tail-factor characters enumerated exactly, as table coordinates:
    per label sector, the box of its tails, one range per coordinate,
    and the tails themselves, one column per coordinate.

    For the product system: sequence characters with support in
    [-N, N] of size at most 2.  The empty support is the constant
    sector; a support {a} is (a, 0) and {a, b} with a < b is
    (a, b - a), its first position and its shape.  For the skew control:
    the v-frequencies m in [-N, N], as (m,).
    """
    window = range(-truncation, truncation + 1)
    if spec.kind == "product":
        first = array("q", (a for a in window for _ in range(truncation + 1 - a)))
        shape = array("q", (s for a in window for s in range(truncation + 1 - a)))
        return {"constant": ([], []), "support": ([window, range(len(window))], [first, shape])}
    if spec.kind == "skew":
        return {"lattice": ([window], [array("q", window)])}
    raise UnsupportedSystemError(
        f"the residual search runs on product or skew systems, not {spec.kind!r}"
    )


def _box_positions(box: list[range], columns: list, count: int) -> list[int]:
    """The row-major position in ``box`` of each of ``count`` tails given
    by ``columns``, or -1 for a tail outside it."""
    at = [0] * count
    for r, column in zip(box, columns):
        at = [p * len(r) + x - r.start if p >= 0 and x in r else -1 for p, x in zip(at, column)]
    return at


def census_nodes(kind: str, truncation: int) -> int:
    """The labels a census at truncation N steps: the u-band's frequencies
    times the ``1 + (N+1)(2N+1)`` product tails or the ``2N+1`` skew ones."""
    side = 2 * truncation + 1
    return (2 * U_BAND + 1) * (1 + (truncation + 1) * side if kind == "product" else side)


def _check_census_cost(kind: str, truncation: int, ks: int) -> None:
    """Refuse a census over the node budget, and ``ks`` censuses stepping
    more labels than five at it, each k charged at least ``MIN_CENSUS_CHARGE``
    labels; the time estimate adds each k's fixed cost to its walk."""
    nodes = census_nodes(kind, truncation)
    if nodes > MAX_CENSUS_NODES:
        raise ValueError(
            f"residual truncation {truncation} needs {nodes} census nodes, over "
            f"the budget of {MAX_CENSUS_NODES} nodes"
        )
    budget = 5 * MAX_CENSUS_NODES
    charge = max(nodes, MIN_CENSUS_CHARGE)
    if charge * ks > budget:
        fixed = f" (charged {charge} for a k's fixed cost)" if charge > nodes else ""
        raise ValueError(
            f"{ks} ks at residual truncation {truncation} step {nodes} census "
            f"nodes each{fixed}, {charge * ks} in all, over the budget of {budget} "
            f"(five ks at {MAX_CENSUS_NODES} nodes): the censuses would take about "
            f"{5e-7 * nodes + ks * (4e-5 + 2.4e-7 * nodes):.0f} s"
        )


def _path_residual(n: int) -> float:
    """The least-squares minimum on a free path of n nodes,
    ``sqrt(2 - 2 cos(pi / (n + 1)))``."""
    return math.sqrt(2 - 2 * math.cos(math.pi / (n + 1)))


def _orbit_census(succ: Sequence[int], k: int) -> tuple[int, list[list[int]]]:
    """The cycle count of the partial map ``succ`` (-1: no successor), and
    its free paths' ``[length, count]`` in ascending length.

    One linear walk: a path is walked from each label without a
    predecessor until it leaves the basis; a label it meets twice has
    two predecessors, so K_k is not injective.  The labels left form a
    permutation, and each of its cycles is walked once.
    """
    n = len(succ)
    has_pred = bytearray(n)
    for j in succ:
        if j >= 0:
            has_pred[j] = 1
    seen = bytearray(n)
    lengths: dict[int, int] = {}
    i = has_pred.find(0)
    while i >= 0:
        j, length = i, 0
        while j >= 0:
            if seen[j]:  # paths merge, or one runs into a cycle
                raise ValueError(f"K_{k} is not injective on the truncated basis")
            seen[j] = 1
            j, length = succ[j], length + 1
        lengths[length] = lengths.get(length, 0) + 1
        i = has_pred.find(0, i + 1)
    cycles = 0
    i = seen.find(0)
    while i >= 0:
        cycles += 1
        while not seen[i]:
            seen[i] = 1
            i = succ[i]
        i = seen.find(0, i + 1)
    return cycles, [[length, lengths[length]] for length in sorted(lengths)]


def residual_census(
    spec: SystemSpec, ks: Iterable[int], truncation: int
) -> Iterator[ResidualReport]:
    """:func:`quasi_eigen_residual_search` for each k of ``ks`` in turn.

    Node ``(l + U_BAND) T + t`` is e(l u) times tail t of the T tails.
    Each tail goes through the table's P step once, at l = 0: the step
    is affine, so its image at l is that image plus l times the table's
    l-column.  An image tail is resolved to its index through a dense
    grid over its sector's box (-1 where it names no tail), once per
    tail, or once per label where the l-column moves the tail.  Two
    compact integer arrays remain, each image's row ``l' + U_BAND`` and
    tail index.  Only the shift ``l -> l - k`` of K_k = Q* P depends on
    k: node i goes to ``(row[i] - k) T + t[i]``, or to none where the
    image leaves the basis.  Then :func:`_orbit_census` walks the nodes
    once per k.

    The ks are read once, and a census over the node budget, or ks over
    five censuses' worth of labels (:func:`_check_census_cost`), is
    refused with its estimated time before any label is stepped.
    """
    if truncation < 2:
        raise ValueError("truncation must be >= 2")
    ks = tuple(ks)
    _check_census_cost(spec.kind, truncation, len(ks))
    width = 2 * U_BAND + 1
    sectors, tails_seen = [], 0
    for sector, (box, tails) in _sector_tails(spec, truncation).items():
        count = len(tails[0]) if tails else 1
        grid = array("q", [-1]) * math.prod(map(len, box))
        for t, at in enumerate(_box_positions(box, tails, count), tails_seen):
            grid[at] = t
        tails_seen += count
        # P is affine: its image at l is the image at l = 0 plus l times
        # P(e_l) - P(0), the l-column
        step = lambda x: koopman_step(spec.kind, sector, x)[1]
        l_zero, *images = zip(*(step((0, *tail)) for tail in (zip(*tails) if tails else [()])))
        origin = (0,) * (len(box) + 1)
        l_step, *t_step = (y - y0 for y, y0 in zip(step((1, *origin[1:])), step(origin)))

        def resolve(l: int, box=box, grid=grid, count=count, images=images, t_step=t_step):
            """The tail index of each tail's image at l, -1 for none."""
            moved = [[y + l * c for y in image] for image, c in zip(images, t_step)]
            at = _box_positions(box, moved, count)
            return array("q", [-1 if i < 0 else grid[i] for i in at])

        fixed = None if any(t_step) else resolve(0)
        sectors.append((array("q", l_zero), l_step, fixed, resolve))
    row_image, t_image = array("q"), array("q")
    for row in range(width):
        l = row - U_BAND
        for l_zero, l_step, fixed, resolve in sectors:
            row_image.extend(r + l * l_step + U_BAND for r in l_zero)
            t_image.extend(fixed if fixed is not None else resolve(l))
    del sectors  # the tails' images, no longer needed
    for k in ks:
        cycles, path_lengths = _orbit_census(array("q", (
            (r - k) * tails_seen + t if t >= 0 and 0 <= r - k < width else -1
            for r, t in zip(row_image, t_image)
        )), k)
        yield ResidualReport(
            system_kind=spec.kind, k=k, truncation=truncation,
            residual=0.0 if cycles else _path_residual(path_lengths[-1][0]),
            u_band=U_BAND, dimension=len(row_image), cycles=cycles,
            path_lengths=path_lengths,
        )


def quasi_eigen_residual_search(
    spec: SystemSpec,
    k: int,
    truncation: int,
) -> ResidualReport:
    """The minimum of ``|| g o T - delta e(k u) g ||`` over unit g in the
    truncated basis and unimodular delta, read off the orbit census of K_k:
    the one-k case of :func:`residual_census`, which takes the P step
    once per tail for every k and walks the orbits once per k.

    The basis is ``e(l u)`` times a tail character, |l| <= ``U_BAND``,
    tails from the truncation N.  The images of K_k that stay in it leave
    a partial permutation (K_k is injective, or ``ValueError``) of cycles
    and free paths, orthogonal since the norm counts the coefficients
    pushed out of the truncation too.  Gauged, a cycle (a self-loop
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
    tower adds no level beyond the proper functions (1'' = 1''')."""

    spec: SystemSpec
    truncation: int
    r0: float
    reports: list[ResidualReport]
    new_level_found: bool

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
    truncation; ``new_level_found`` is the exact decision.
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
        new_level_found=decision.gap,
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
    :func:`decide_finite_orbits`.

    The evidence carries the decision and what corroborates it: the skew
    tower's levels from :func:`compute_tower`, or the product's residual
    certificate.  Either one disagreeing with the decision
    raises ``RuntimeError``.
    """
    decision = decide_finite_orbits(spec.kind)
    evidence = {"method": "exact", "decision": decision.to_json()}
    if spec.kind == "skew":
        levels = compute_tower(spec, 4)
        if (levels[1] != levels[2]) != decision.gap:
            raise RuntimeError("the skew tower's levels disagree with the exact decision")
        evidence["levels"] = [lvl.to_json() for lvl in levels]
        evidence["stabilization_depth"] = stabilization_depth(levels)
    else:
        cert = certify_product_tower(spec, truncation=truncation)
        evidence["certificate"] = cert.to_json()
        evidence["stabilization_depth"] = None if decision.gap else 2
    return decision.gap, evidence


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
