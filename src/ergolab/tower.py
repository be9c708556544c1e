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

The residual search corroborates the decision on a truncated basis: it
minimizes ``|| g o T - delta e(k u) g ||`` over a fixed u-band
(``U_BAND``) and a sequence window that grows with the truncation N.  The
truncated operator is a phased partial permutation of basis labels, so
the least-squares minimum has a closed form per orbit component (a
self-loop or cycle gives an exact solution; a free path of n nodes gives
residual ``sqrt(2 - 2 cos(pi/(n+1)))``), with the unimodular constant
delta eliminated analytically.  The returned minimizer is re-evaluated
by quadrature on a uniform u-grid as an independent check.  The search
accepts a finite orbit below 1e-6 and rejects one above ``r0/2``, with r0
the closed-form residual of the band's longest free path; a residual in
between raises :class:`InconclusiveEvidenceError`, and a verdict that
disagrees with the exact decision raises ``RuntimeError``.  The reject
margin measures the band, not the system: it falls like
``pi / (2 U_BAND + 2)`` as the band grows.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

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
    "SUPPORT_CAP",
    "ACCEPT_TOL",
    "REJECT_FACTOR",
    "certify_product_tower",
    "compute_tower",
    "decide_finite_orbits",
    "quasi_eigen_residual_search",
    "residual_reference",
    "stabilization_depth",
    "tower_step",
    "towers_distinguish",
]

#: Fixed u-frequency half-band of the residual search space.
U_BAND = 4

#: Largest sequence-character support size enumerated in the search space.
SUPPORT_CAP = 2

ACCEPT_TOL = 1e-6
REJECT_FACTOR = 0.5


class UnsupportedSystemError(ValueError):
    """The operation is not defined for this system kind."""


# ---------------------------------------------------------------------------
# subgroups of the character lattice Z^2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeSubgroup:
    """A subgroup of Z^2 in Hermite normal form ``{x(a,b) + y(0,c)}``.

    Membership, equality and inclusion are exact integer computations.
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

    @classmethod
    def full(cls) -> "ModeSubgroup":
        return cls(1, 0, 1)

    def contains(self, mode: tuple[int, int]) -> bool:
        k, m = mode
        if self.a == 0:
            if k != 0:
                return False
            return m == 0 if self.c == 0 else m % self.c == 0
        if k % self.a != 0:
            return False
        rem = m - (k // self.a) * self.b
        return rem == 0 if self.c == 0 else rem % self.c == 0

    def contains_subgroup(self, other: "ModeSubgroup") -> bool:
        return all(self.contains(g) for g in other.generators())

    def generators(self) -> list[tuple[int, int]]:
        gens = []
        if self.a:
            gens.append((self.a, self.b))
        if self.c:
            gens.append((0, self.c))
        return gens

    def members_in_window(self, window: int) -> list[tuple[int, int]]:
        return [
            (k, m)
            for k in range(-window, window + 1)
            for m in range(-window, window + 1)
            if self.contains((k, m))
        ]

    def is_trivial(self) -> bool:
        return self.a == 0 and self.c == 0

    def to_json(self) -> dict:
        return {"generators": [list(g) for g in self.generators()]}

    @classmethod
    def from_json(cls, obj: dict) -> "ModeSubgroup":
        return cls.from_generators(
            [(int(k), int(m)) for k, m in obj.get("generators", [])]
        )

    def __str__(self) -> str:
        if self.is_trivial():
            return "{0}"
        if (self.a, self.b, self.c) == (1, 0, 1):
            return "Z^2"
        return "<" + ", ".join(str(g) for g in self.generators()) + ">"


@dataclass(frozen=True)
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
    constants)."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
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

#: A basis label as the raw table label (l, ...): the u-frequency l, then
#: the tail's coordinates, whose number names the label's sector.
Node = tuple[int, ...]


def _p_step(kind: str, nodes: Sequence[Node], k: int = 0) -> tuple[list[int], list[Node]]:
    """K_k on a list of labels: the table's P step followed by l -> l - k.

    All labels of one sector go through ``koopman_step`` as one array, so
    a whole search costs one array step per sector.  Returns the gamma
    multipliers and the images, in the order of ``nodes``.
    """
    mults: list[int] = [0] * len(nodes)
    images: list[Node] = [()] * len(nodes)
    for sector, action in KOOPMAN_TABLE[kind].items():
        at = [i for i, node in enumerate(nodes) if len(node) == len(action.b)]
        if not at:
            continue
        x = np.array([nodes[i] for i in at], dtype=np.int64).T
        mult, (l, *tail) = koopman_step(kind, sector, tuple(x))
        image = np.array([l - k, *tail])
        for i, m, y in zip(at, mult.tolist(), image.T.tolist()):
            mults[i], images[i] = m, tuple(y)
    return mults, images


@dataclass
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


@dataclass
class ResidualReport:
    """Outcome of one quasi-proper-function search."""

    system_kind: str
    k: int
    truncation: int
    residual: float
    delta: complex
    u_band: int
    grid: int
    grid_residual: float
    dimension: int
    profile: dict

    def to_json(self) -> dict:
        return {**asdict(self), "delta": [self.delta.real, self.delta.imag]}


def _tail_labels(spec: SystemSpec, truncation: int) -> list:
    """Tail-factor characters enumerated exactly, as table coordinates.

    For the product system: sequence characters with support in
    [-N, N] of size at most ``SUPPORT_CAP`` = 2.  The empty support is
    the constant sector; a support {a} is (a, 0) and {a, b} with a < b is
    (a, b - a), its first position and its shape.  For the skew control:
    the v-frequencies m in [-N, N], as (m,).
    """
    window = range(-truncation, truncation + 1)
    if spec.kind == "product":
        return [()] + [(a, b - a) for a in window for b in window if b >= a]
    if spec.kind == "skew":
        return [(m,) for m in window]
    raise UnsupportedSystemError(
        f"the residual search runs on product or skew systems, not {spec.kind!r}"
    )


def _phase_function(spec: SystemSpec) -> Callable[[int], complex]:
    """``l -> e(l gamma)``, memoised by the returned function: a search
    asks for the 2 * U_BAND + 1 frequencies of its band many times each."""
    gamma = spec.gamma

    @lru_cache(maxsize=None)
    def phase_of(l: int) -> complex:
        if gamma.is_exact:
            return cmath.exp(2j * cmath.pi * float(gamma.frac_multiple(l)))
        return cmath.exp(2j * cmath.pi * ((l * gamma.to_float()) % 1.0))

    return phase_of


def quasi_eigen_residual_search(
    spec: SystemSpec,
    k: int,
    truncation: int,
) -> ResidualReport:
    """Minimize ``|| g o T - delta e(k u) g ||`` over unit g in the
    truncated basis and unimodular delta.

    The basis is ``e(l u)`` times a tail character, with |l| <= ``U_BAND``
    and tails from the truncation N.  The search walks the same index map
    K_k as :func:`decide_finite_orbits`, restricted to that basis.

    The norm counts all coefficients, including those the dynamics pushes
    outside the truncation, so enlarging the basis can only reveal
    smaller minima, never hide leakage.  The truncated operator is a
    phased partial permutation, so after eliminating delta analytically
    the minimum is exact per orbit component: any closed component gives
    an exact solution (residual 0), and a free path of n nodes gives
    ``sqrt(2 - 2 cos(pi/(n+1)))`` with the sine-profile minimizer.

    The winning minimizer is re-evaluated on a uniform u-grid of
    max(4N, band limit) points, fine enough for exact quadrature, and the
    report carries both numbers; they agree to 1e-9.  k = 0 recovers
    proper functions (residual ~ 0); on the skew control with k = 1 the
    mode e(v) is an exact witness.
    """
    if truncation < 2:
        raise ValueError("truncation must be >= 2")
    # the band limit that makes the quadrature check exact
    grid = max(4 * truncation, 2 * (U_BAND + truncation + abs(k)) + 2)
    tails = _tail_labels(spec, truncation)
    nodes: list[Node] = [(l, *t) for l in range(-U_BAND, U_BAND + 1) for t in tails]
    node_set = set(nodes)
    phase_of = _phase_function(spec)

    succ: dict[Node, tuple[Node, complex]] = {}
    preds: set[Node] = set()
    for node, mult, target in zip(nodes, *_p_step(spec.kind, nodes, k)):
        if target in node_set:
            succ[node] = (target, phase_of(mult))
            preds.add(target)

    # orbit components of the partial permutation: free paths, then cycles
    best: tuple[float, dict[Node, complex]] = (-1.0, {})  # (score, c)
    visited: set[Node] = set()
    order = sorted(nodes, key=_node_sort_key)
    for on_cycles in (False, True):
        # once the paths are walked, every node left lies on a cycle
        for start in order:
            if start in visited or (start in preds) != on_cycles:
                continue
            orbit, weights = [start], []
            while orbit[-1] in succ:
                nxt, w = succ[orbit[-1]]
                weights.append(w)
                if nxt == start:
                    break
                orbit.append(nxt)
            visited.update(orbit)
            n = len(orbit)
            c: dict[Node, complex] = {}
            if on_cycles:
                score, x, prod = 1.0, 1.0 + 0j, 1.0 + 0j
                for w in weights:
                    prod *= w
                delta = prod ** (1.0 / n)
                for node, w in zip(orbit, weights):
                    c[node] = x / math.sqrt(n)
                    x *= w / delta
            else:
                score, u = math.cos(math.pi / (n + 1)), 1.0 + 0j
                norm = math.sqrt(sum(math.sin((j + 1) * math.pi / (n + 1)) ** 2 for j in range(n)))
                for j, node in enumerate(orbit):
                    c[node] = math.sin((j + 1) * math.pi / (n + 1)) / norm * u
                    if j < n - 1:
                        u *= weights[j]
            if score > best[0] + 1e-15:
                best = (score, c)

    c_best = best[1]
    delta = _optimal_delta(spec, k, c_best, phase_of)
    residual = _coefficient_residual(spec, k, c_best, delta, phase_of)
    grid_residual = _grid_residual(spec, k, c_best, delta, grid)
    return ResidualReport(
        system_kind=spec.kind,
        k=k,
        truncation=truncation,
        residual=residual,
        delta=delta,
        u_band=U_BAND,
        grid=grid,
        grid_residual=grid_residual,
        dimension=len(nodes),
        profile=_profile(spec, c_best),
    )


def _node_sort_key(node: Node):
    """|l|, the sign of l, then the tail: a v-frequency m by (|m|, m), a
    product support by its size, then its first position and its shape."""
    l, *tail = node
    if len(tail) == 1:
        tail = [abs(tail[0]), *tail]
    elif tail:
        tail = [1 + (tail[1] != 0), *tail]
    return (abs(l), l < 0, tail)


def _optimal_delta(spec, k, c, phase_of) -> complex:
    """delta maximizing Re(conj(delta) <Pc, Qc>), in closed form."""
    inner = 0j
    pc = _apply_p(spec, c, phase_of)
    qc = _apply_q(spec, k, c)
    for key, val in pc.items():
        if key in qc:
            inner += val * qc[key].conjugate()
    if abs(inner) < 1e-300:
        return 1.0 + 0j
    return inner / abs(inner)


def _apply_p(spec, c, phase_of) -> dict[Node, complex]:
    out: dict[Node, complex] = {}
    for val, mult, key in zip(c.values(), *_p_step(spec.kind, list(c))):
        out[key] = out.get(key, 0j) + phase_of(mult) * val
    return out


def _apply_q(spec, k, c) -> dict[Node, complex]:
    out: dict[Node, complex] = {}
    for (l, *tail), val in c.items():
        key = (l + k, *tail)
        out[key] = out.get(key, 0j) + val
    return out


def _coefficient_residual(spec, k, c, delta, phase_of) -> float:
    """|| P c - delta Q c || over the full lattice (leakage included)."""
    diff = _apply_p(spec, c, phase_of)
    for key, val in _apply_q(spec, k, c).items():
        diff[key] = diff.get(key, 0j) - delta * val
    return math.sqrt(sum(abs(v) ** 2 for v in diff.values()))


def _grid_residual(spec, k, c, delta, grid: int) -> float:
    """The same residual by quadrature on a uniform u-grid.

    Band-limited integrands make the quadrature exact once the grid
    exceeds twice the output band; this is the independent numerical
    check that the closed-form minimizer actually solves the advertised
    least-squares problem.
    """
    u = np.arange(grid) / grid
    gamma = spec.gamma.to_float()
    q_wave = np.exp(2j * np.pi * k * u)
    by_out: dict[object, np.ndarray] = {}

    def add(tail_label, values) -> None:
        cur = by_out.get(tail_label)
        by_out[tail_label] = values if cur is None else cur + values

    for ((l, *tail), val), mult, (l_p, *tail_p) in zip(c.items(), *_p_step(spec.kind, list(c))):
        add(tuple(tail_p), val * np.exp(2j * np.pi * mult * gamma) * np.exp(2j * np.pi * l_p * u))
        add(tuple(tail), -delta * val * q_wave * np.exp(2j * np.pi * l * u))
    total = 0.0
    for values in by_out.values():
        total += float(np.mean(np.abs(values) ** 2))
    return math.sqrt(total)


def _profile(spec, c) -> dict:
    """l2 mass of the minimizer by u-frequency and by tail sector."""
    by_l: dict[int, float] = {}
    by_tail: dict[str, float] = {}
    for (l, *tail), val in c.items():
        mass = abs(val) ** 2
        by_l[l] = by_l.get(l, 0.0) + mass
        if spec.kind == "product":
            sector = "constant" if not tail else f"support_{1 + (tail[1] != 0)}"
        else:
            sector = "v_constant" if tail[0] == 0 else f"v_frequency_{tail[0]}"
        by_tail[sector] = by_tail.get(sector, 0.0) + mass
    return {
        "u_frequency": {str(l): round(m, 12) for l, m in sorted(by_l.items())},
        "tail": {s: round(m, 12) for s, m in sorted(by_tail.items())},
    }


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
    longest = max(-(-(2 * U_BAND + 1) // abs(k)) for k in ks)
    return math.sqrt(2 - 2 * math.cos(math.pi / (longest + 1)))


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass
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


def certify_product_tower(
    spec: SystemSpec,
    truncation: int = 8,
    ks: Sequence[int] = (0, 1, -1, 2, -2),
) -> ProductTowerCertificate:
    """Corroborate the exact product-tower decision with the residual search.

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
    for k in ks:
        report = quasi_eigen_residual_search(spec, k, truncation)
        reports.append(report)
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


@dataclass
class DistinguishResult:
    verdict: str
    gap_a: bool
    gap_b: bool
    evidence: dict

    @property
    def distinguished(self) -> bool:
        return self.verdict == "distinguished"


def _tower_gap(spec: SystemSpec, truncation: int, ks: Sequence[int]) -> tuple[bool, dict]:
    """Does 1'' != 1''' hold?  Decided exactly for both kinds by
    :func:`decide_finite_orbits`.

    The evidence carries the decision and what corroborates it: the skew
    tower's levels from :func:`compute_tower`, or the product's residual
    certificate over ``ks``.  Either one disagreeing with the decision
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
        cert = certify_product_tower(spec, truncation=truncation, ks=ks)
        evidence["certificate"] = cert.to_json()
        evidence["stabilization_depth"] = None if decision.gap else 2
    return decision.gap, evidence


def towers_distinguish(
    spec_a: SystemSpec,
    spec_b: SystemSpec,
    truncation: int = 8,
    ks: Sequence[int] = (0, 1, -1, 2, -2),
) -> DistinguishResult:
    """Compare the tower invariant (does the tower grow past the proper
    functions?) between two systems.

    "distinguished" means the invariant differs, which rules out any
    spacial isomorphism; sameness of the invariant distinguishes nothing.
    """
    gap_a, ev_a = _tower_gap(spec_a, truncation, ks)
    gap_b, ev_b = _tower_gap(spec_b, truncation, ks)
    verdict = "distinguished" if gap_a != gap_b else "not-distinguished"
    return DistinguishResult(
        verdict=verdict,
        gap_a=gap_a,
        gap_b=gap_b,
        evidence={"system_a": ev_a, "system_b": ev_b},
    )
