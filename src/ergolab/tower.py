"""Generalized proper-function towers and their desk-scale certificates.

A generalized proper function of level n+1 satisfies ``g(T x) = f(x) g(x)``
with f of level n; level 1 is the constants.  For the skew product the
whole question lives in the character lattice Z^2: the dynamical quotient
of ``g[k,m]`` is the constant ``e(k gamma)`` times the character ``(m, 0)``,
so each tower level is a subgroup of Z^2 and the tower is computed exactly.
The skew tower strictly grows for one extra step (constants, then the
pure-u characters, then everything), while the rotation-times-shift
product stops one level earlier.

For the product system the "no new level" claim is certified numerically:
a least-squares search for ``g`` with ``g(T x) = delta e(k u) g(x)`` over a
truncated basis.  Two honesty rules shape the protocol:

* the u-frequency band of the search space is a fixed protocol constant
  (``U_BAND``), not the growing truncation N.  The rotation factor has
  quasi-eigenvectors spread over many u-frequencies (Weyl sequences), so
  a search whose u-band grows with N sees its minimum decay to 0 for
  *every* k and certifies nothing.  With the band pinned, N grows the
  sequence-space window, where the product and skew systems actually
  differ, and the k != 0 minimum stays bounded away from 0 uniformly in N.
* thresholds are calibrated, not assumed: an independent least-squares
  oracle at N = 4 computes the reference residual r0, searches reject
  existence only above ``r0/2``, accept only below 1e-6, and anything in
  between raises an explicit inconclusive error rather than a silent
  verdict.  The oracle assembles the dense Gram matrix of the truncated
  problem and solves it per connected component of its nonzero pattern,
  read off the matrix itself; the Frobenius norm of the entries the
  split discards must stay below 1e-12, which by Weyl's inequality
  bounds how far any eigenvalue can move.

The truncated operator is a phased partial permutation of basis indices,
so the least-squares minimum has a closed form per orbit component (a
self-loop or cycle gives an exact solution; a free path of n nodes gives
residual ``sqrt(2 - 2 cos(pi/(n+1)))``), with the unimodular constant
delta eliminated analytically.  The returned minimizer is re-evaluated
by quadrature on a uniform u-grid as an independent check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .koopman import Phase, FourierMode
from .systems import SystemSpec

__all__ = [
    "DegenerateGridError",
    "DistinguishResult",
    "InconclusiveEvidenceError",
    "ModeSubgroup",
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
    "quasi_eigen_residual_search",
    "quotient_homomorphism",
    "residual_brute_force",
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


class DegenerateGridError(ValueError):
    """The sample grid is too coarse for the requested truncation."""


class InconclusiveEvidenceError(RuntimeError):
    """Residual evidence fell between the accept and reject thresholds."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


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


@dataclass(frozen=True)
class TowerLevel:
    """One tower level: a character subgroup, always including constants."""

    characters: ModeSubgroup
    depth: int
    with_constants: bool = True

    def __eq__(self, other: object) -> bool:
        # levels are compared as character sets; depth is bookkeeping
        if not isinstance(other, TowerLevel):
            return NotImplemented
        return self.characters == other.characters

    def __hash__(self) -> int:
        return hash(self.characters)

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "characters": self.characters.to_json(),
            "with_constants": self.with_constants,
        }


# ---------------------------------------------------------------------------
# exact tower for the skew system
# ---------------------------------------------------------------------------


def _skew_quotient_character(mode: tuple[int, int]) -> tuple[int, int]:
    """Character part of g[k,m](S x) / g[k,m](x): the mode (m, 0)."""
    _, m = mode
    return (m, 0)


def tower_step(
    level: TowerLevel,
    system: SystemSpec,
    quotient: Optional[Callable[[tuple[int, int]], tuple[int, int]]] = None,
) -> TowerLevel:
    """The next tower level over ``level`` for the skew system.

    A character (k, m) joins the next level iff its dynamical quotient
    character lies in ``level`` (the accompanying constant is absorbed,
    since levels carry all constants).  The input level is kept inside
    the output, so canonical towers are nested by construction.

    ``quotient`` overrides the character quotient map, which is how a
    coordinate-conjugated copy of the skew map can be fed through the
    same computation.
    """
    if system.kind != "skew":
        raise UnsupportedSystemError(
            f"character-lattice towers are defined for the skew system, "
            f"not {system.kind!r}"
        )
    quot = quotient or _skew_quotient_character
    H = level.characters
    # the quotient character of (k, m) is quot applied per generator of the
    # input: membership set {(k, m): quot((k, m)) in H} is itself a subgroup
    # since quot is linear; generate it explicitly from the lattice basis.
    gens: list[tuple[int, int]] = []
    for basis in ((1, 0), (0, 1)):
        q = quot(basis)
        if H.contains(q):
            gens.append(basis)
    if len(gens) < 2:
        # membership is periodic in the missing directions: find minimal
        # positive multiples whose quotient lands in H
        for basis in ((1, 0), (0, 1)):
            if basis in gens:
                continue
            step = _minimal_multiple(basis, quot, H)
            if step:
                gens.append((basis[0] * step, basis[1] * step))
    new = ModeSubgroup.from_generators(gens + H.generators())
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


def quotient_homomorphism(
    mode: FourierMode, level: Optional[TowerLevel] = None
) -> tuple[Phase, FourierMode]:
    """The quotient q(g) = g o S / g of a skew character, as
    (constant phase, character).

    q is a homomorphism: quotients multiply as the characters do.  If a
    level is supplied, the mode must belong to it.
    """
    k, m = mode
    if level is not None and not level.characters.contains((k, m)):
        raise ValueError(f"mode {mode} is not in the level at depth {level.depth}")
    return Phase.from_gamma(k), FourierMode(m, 0)


# ---------------------------------------------------------------------------
# residual search machinery
# ---------------------------------------------------------------------------

Node = tuple[int, object]  # (u-frequency, tail label)


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
        return {
            "system_kind": self.system_kind,
            "k": self.k,
            "truncation": self.truncation,
            "residual": self.residual,
            "delta": [self.delta.real, self.delta.imag],
            "u_band": self.u_band,
            "grid": self.grid,
            "grid_residual": self.grid_residual,
            "dimension": self.dimension,
            "profile": self.profile,
        }


def _tail_labels(spec: SystemSpec, truncation: int, support_cap: int) -> list:
    """Tail-factor characters enumerated exactly.

    For the product system: sequence characters with support in
    [-N, N] of size at most ``support_cap`` (the empty support is the
    constant).  For the skew control: v-frequencies in [-N, N].
    """
    N = truncation
    if spec.kind == "product":
        labels: list[tuple] = [()]
        window = list(range(-N, N + 1))
        if support_cap >= 1:
            labels.extend((a,) for a in window)
        if support_cap >= 2:
            labels.extend(
                (a, b) for i, a in enumerate(window) for b in window[i + 1 :]
            )
        if support_cap >= 3:
            raise NotImplementedError("support sizes above 2 are not enumerated")
        return labels
    if spec.kind == "skew":
        return list(range(-N, N + 1))
    raise UnsupportedSystemError(
        f"the residual search runs on product or skew systems, not {spec.kind!r}"
    )


def _phase_function(spec: SystemSpec) -> Callable[[int], complex]:
    """``l -> e(l gamma)``, memoised by the returned function: a search
    asks for the 2 * u_band + 1 frequencies of its band many times each."""
    gamma = spec.gamma

    @lru_cache(maxsize=None)
    def phase_of(l: int) -> complex:
        if gamma.is_exact:
            return cmath.exp(2j * cmath.pi * float(gamma.frac_multiple(l)))
        return cmath.exp(2j * cmath.pi * ((l * gamma.to_float()) % 1.0))

    return phase_of


def _k_successor(spec: SystemSpec, k: int, node: Node, phase_of) -> tuple[Node, complex]:
    """K = Q* P: the index map whose numerical radius controls the minimum."""
    l, tail = node
    if spec.kind == "product":
        return (l - k, tuple(a + 1 for a in tail)), phase_of(l)
    m = tail
    return (l + m - k, m), phase_of(l)


def quasi_eigen_residual_search(
    spec: SystemSpec,
    k: int,
    truncation: int,
    grid: Optional[int] = None,
    u_band: int = U_BAND,
    support_cap: int = SUPPORT_CAP,
) -> ResidualReport:
    """Minimize ``|| g o T - delta e(k u) g ||`` over unit g in the
    truncated basis and unimodular delta.

    The norm counts all coefficients, including those the dynamics pushes
    outside the truncation, so enlarging the basis can only reveal
    smaller minima, never hide leakage.  The truncated operator is a
    phased partial permutation, so after eliminating delta analytically
    the minimum is exact per orbit component: any closed component gives
    an exact solution (residual 0), and a free path of n nodes gives
    ``sqrt(2 - 2 cos(pi/(n+1)))`` with the sine-profile minimizer.

    The winning minimizer is re-evaluated on a uniform u-grid of size
    ``grid`` (default max(4N, fine enough for exact quadrature)) and the
    report carries both numbers; they agree to 1e-9 when the grid is
    exact.  k = 0 recovers proper functions (residual ~ 0); on the skew
    control with k = 1 the mode e(v) is an exact witness.
    """
    if truncation < 2:
        raise ValueError("truncation must be >= 2")
    needed = 2 * (u_band + truncation + abs(k)) + 2
    if grid is not None and grid < 4 * truncation:
        raise DegenerateGridError(
            f"grid {grid} is below 4 * truncation = {4 * truncation}"
        )
    # bump to the band limit that makes the quadrature check exact
    grid = max(grid or 0, 4 * truncation, needed)
    tails = _tail_labels(spec, truncation, support_cap)
    nodes: list[Node] = [
        (l, t) for l in range(-u_band, u_band + 1) for t in tails
    ]
    node_set = set(nodes)
    phase_of = _phase_function(spec)

    succ: dict[Node, tuple[Node, complex]] = {}
    preds: set[Node] = set()
    for node in nodes:
        target, w = _k_successor(spec, k, node, phase_of)
        if target in node_set:
            succ[node] = (target, w)
            preds.add(target)

    # orbit components of the partial permutation: free paths and cycles
    best: tuple[float, dict[Node, complex], complex] | None = None  # (w, c, delta)
    visited: set[Node] = set()

    def consider(candidate: tuple[float, dict[Node, complex], complex]) -> None:
        nonlocal best
        if best is None or candidate[0] > best[0] + 1e-15:
            best = candidate

    for start in sorted(nodes, key=_node_sort_key):
        if start in visited or start in preds:
            continue
        path = [start]
        weights = []
        cur = start
        while cur in succ:
            nxt, w = succ[cur]
            if nxt in visited or nxt == start:
                break
            path.append(nxt)
            weights.append(w)
            cur = nxt
        visited.update(path)
        n = len(path)
        w_num = math.cos(math.pi / (n + 1))
        c: dict[Node, complex] = {}
        u = 1.0 + 0j
        norm = math.sqrt(sum(math.sin((j + 1) * math.pi / (n + 1)) ** 2 for j in range(n)))
        for j, node in enumerate(path):
            c[node] = math.sin((j + 1) * math.pi / (n + 1)) / norm * u
            if j < n - 1:
                u *= weights[j]
        consider((w_num, c, 1.0 + 0j))

    for start in sorted(node_set - visited, key=_node_sort_key):
        if start in visited:
            continue
        # remaining nodes lie on cycles (every node has a predecessor)
        cycle = [start]
        weights = []
        cur = start
        while True:
            nxt, w = succ[cur]
            weights.append(w)
            if nxt == start:
                break
            cycle.append(nxt)
            cur = nxt
        visited.update(cycle)
        prod = 1.0 + 0j
        for w in weights:
            prod *= w
        delta = prod ** (1.0 / len(cycle))
        c = {}
        x = 1.0 + 0j
        for node, w in zip(cycle, weights):
            c[node] = x / math.sqrt(len(cycle))
            x *= w / delta
        consider((1.0, c, delta))

    assert best is not None
    _, c_best, _ = best
    delta = _optimal_delta(spec, k, c_best, phase_of)
    residual = _coefficient_residual(spec, k, c_best, delta, phase_of)
    grid_residual = _grid_residual(spec, k, c_best, delta, grid)
    return ResidualReport(
        system_kind=spec.kind,
        k=k,
        truncation=truncation,
        residual=residual,
        delta=delta,
        u_band=u_band,
        grid=grid,
        grid_residual=grid_residual,
        dimension=len(nodes),
        profile=_profile(spec, c_best),
    )


def _node_sort_key(node: Node):
    l, tail = node
    t = (len(tail),) + tail if isinstance(tail, tuple) else (abs(tail), tail)
    return (abs(l), l < 0, t)


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
    for (l, tail), val in c.items():
        if spec.kind == "product":
            key = (l, tuple(a + 1 for a in tail))
        else:
            key = (l + tail, tail)
        out[key] = out.get(key, 0j) + phase_of(l) * val
    return out


def _apply_q(spec, k, c) -> dict[Node, complex]:
    out: dict[Node, complex] = {}
    for (l, tail), val in c.items():
        key = (l + k, tail)
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
    by_out: dict[object, np.ndarray] = {}

    def add(tail_label, values) -> None:
        cur = by_out.get(tail_label)
        by_out[tail_label] = values if cur is None else cur + values

    for (l, tail), val in c.items():
        wave = np.exp(2j * np.pi * l * u)
        if spec.kind == "product":
            shifted = tuple(a + 1 for a in tail)
            add(shifted, val * np.exp(2j * np.pi * l * gamma) * wave)
            add(tail, -delta * val * np.exp(2j * np.pi * k * u) * wave)
        else:
            add(tail, val * np.exp(2j * np.pi * l * gamma) * np.exp(2j * np.pi * (l + tail) * u))
            add(tail, -delta * val * np.exp(2j * np.pi * (k + l) * u))
    total = 0.0
    for values in by_out.values():
        total += float(np.mean(np.abs(values) ** 2))
    return math.sqrt(total)


def _profile(spec, c) -> dict:
    """l2 mass of the minimizer by u-frequency and by tail sector."""
    by_l: dict[int, float] = {}
    by_tail: dict[str, float] = {}
    for (l, tail), val in c.items():
        mass = abs(val) ** 2
        by_l[l] = by_l.get(l, 0.0) + mass
        if spec.kind == "product":
            sector = "constant" if len(tail) == 0 else f"support_{len(tail)}"
        else:
            sector = "v_constant" if tail == 0 else f"v_frequency_{tail}"
        by_tail[sector] = by_tail.get(sector, 0.0) + mass
    return {
        "u_frequency": {str(l): round(m, 12) for l, m in sorted(by_l.items())},
        "tail": {s: round(m, 12) for s, m in sorted(by_tail.items())},
    }


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

#: An entry of the oracle's Gram matrices couples two coefficients when it
#: exceeds this fraction of the largest entry.  Structural entries have
#: magnitude about 1 and the rest is rounding noise near 1e-16, so any cut
#: in between finds the same blocks; whatever the cut discards is bounded
#: by ``OFF_BLOCK_TOL``.
COUPLING_CUT = 1e-3

#: Largest Frobenius mass the oracle may discard between blocks.
OFF_BLOCK_TOL = 1e-12


def residual_brute_force(
    spec: SystemSpec,
    k: int,
    truncation: int,
    grid: Optional[int] = None,
    u_band: int = U_BAND,
    support_cap: int = SUPPORT_CAP,
    delta_steps: int = 36,
) -> float:
    """Least-squares minimization over the full truncated coefficient
    space, scanning the unimodular constant.

    Assembles the residual matrix ``P - delta Q`` on a uniform u-grid
    times the exact tail-character coordinates.  Its smallest singular
    value is the square root of the smallest eigenvalue of
    ``gram(delta) = (P*P + Q*Q) - delta M - conj(delta) M*`` with
    ``M = P*Q``, minimized over ``delta_steps`` angles of delta with
    bounded local refinement.

    The eigenproblem is split once into the connected components of the
    nonzero pattern of ``P*P + Q*Q`` and ``M``, which does not depend on
    delta.  The split is read off the assembled matrices, not taken from
    the structured search, and the Frobenius norm of the entries it
    discards bounds, by Weyl's inequality, how far any eigenvalue can
    move; above ``OFF_BLOCK_TOL`` the oracle raises ``ValueError`` (see
    :func:`_block_min_eigenvalue`).  Independent of the closed-form
    search path; used to pre-compute the reference residual r0 and to
    cross-check.
    """
    from scipy.optimize import minimize_scalar

    min_eigenvalue = _block_min_eigenvalue(
        *_oracle_gram(spec, k, truncation, grid, u_band, support_cap)
    )

    def sigma_min(theta: float) -> float:
        return math.sqrt(max(min_eigenvalue(cmath.exp(1j * theta)), 0.0))

    thetas = np.linspace(0.0, 2.0 * math.pi, delta_steps, endpoint=False)
    values = [sigma_min(t) for t in thetas]
    i = int(np.argmin(values))
    span = 2.0 * math.pi / delta_steps
    res = minimize_scalar(
        sigma_min,
        bounds=(thetas[i] - span, thetas[i] + span),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(min(min(values), res.fun))


def _oracle_gram(
    spec: SystemSpec,
    k: int,
    truncation: int,
    grid: Optional[int] = None,
    u_band: int = U_BAND,
    support_cap: int = SUPPORT_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """``P*P + Q*Q`` and ``M = P*Q`` for the dense residual matrix
    ``P - delta Q`` of :func:`residual_brute_force`."""
    if truncation < 2:
        raise ValueError("truncation must be >= 2")
    needed = 2 * (u_band + truncation + abs(k)) + 2
    G = max(grid or 0, 4 * truncation, needed)
    tails = _tail_labels(spec, truncation, support_cap)
    cols: list[Node] = [(l, t) for l in range(-u_band, u_band + 1) for t in tails]
    gamma = spec.gamma.to_float()

    out_labels: dict[object, int] = {}

    def out_index(label) -> int:
        if label not in out_labels:
            out_labels[label] = len(out_labels)
        return out_labels[label]

    u = np.arange(G) / G
    entries = []  # (out_label_index, column, vector over grid)
    for col, (l, tail) in enumerate(cols):
        wave = np.exp(2j * np.pi * l * u) / math.sqrt(G)
        if spec.kind == "product":
            p_label, p_vec = tuple(a + 1 for a in tail), np.exp(2j * np.pi * l * gamma) * wave
            q_label, q_vec = tail, np.exp(2j * np.pi * k * u) * wave
        else:
            p_label = q_label = tail
            p_vec = np.exp(2j * np.pi * l * gamma) * np.exp(2j * np.pi * (l + tail) * u) / math.sqrt(G)
            q_vec = np.exp(2j * np.pi * (k + l) * u) / math.sqrt(G)
        entries.append((out_index(p_label), col, p_vec, out_index(q_label), q_vec))

    n_cols = len(cols)
    G_rows = len(out_labels) * G
    P = np.zeros((G_rows, n_cols), dtype=complex)
    Q = np.zeros_like(P)
    for p_idx, col, p_vec, q_idx, q_vec in entries:
        P[p_idx * G : (p_idx + 1) * G, col] += p_vec
        Q[q_idx * G : (q_idx + 1) * G, col] += q_vec

    # ||(P - delta Q) c||^2 = <c, (P*P + Q*Q - delta P*Q - conj(delta) Q*P) c>
    return P.conj().T @ P + Q.conj().T @ Q, P.conj().T @ Q


def _block_min_eigenvalue(S: np.ndarray, M: np.ndarray) -> Callable[[complex], float]:
    """The smallest eigenvalue of ``S - delta M - conj(delta) M*`` as a
    function of delta, solved per connected component.

    Two coefficients are coupled when their entry in ``S`` or ``M``
    exceeds ``COUPLING_CUT`` of the largest entry; the components of
    that pattern are found once.  The entries left between components
    form ``E(delta)`` with ``||E(delta)||_F <= ||E_S||_F + 2 ||E_M||_F``
    for every unimodular delta, and by Weyl's inequality no eigenvalue
    moves further than that.  If the bound exceeds ``OFF_BLOCK_TOL``
    this raises ``ValueError``: there is no dense fallback.  Each call
    takes the minimum over blocks with one stacked ``eigvalsh`` per
    block size.
    """
    from scipy.sparse.csgraph import connected_components

    scale = max(np.abs(S).max(), np.abs(M).max())
    coupled = (np.abs(S) > COUPLING_CUT * scale) | (np.abs(M) > COUPLING_CUT * scale)
    n_blocks, labels = connected_components(coupled, directed=False)
    outside = labels[:, None] != labels[None, :]
    mass = float(np.linalg.norm(S[outside]) + 2 * np.linalg.norm(M[outside]))
    if mass > OFF_BLOCK_TOL:
        raise ValueError(
            f"the oracle's Gram matrix does not split into blocks: the "
            f"off-block mass {mass:.3e} exceeds {OFF_BLOCK_TOL:.0e}"
        )
    by_size: dict[int, list[np.ndarray]] = {}
    for block in range(n_blocks):
        members = np.flatnonzero(labels == block)
        by_size.setdefault(len(members), []).append(members)
    stacks = []
    for members in by_size.values():
        idx = np.array(members)
        rows, cols = idx[:, :, None], idx[:, None, :]
        m = M[rows, cols]
        stacks.append((S[rows, cols], m, m.conj().swapaxes(1, 2)))

    def min_eigenvalue(delta: complex) -> float:
        return min(
            float(np.linalg.eigvalsh(s - delta * m - np.conj(delta) * mh)[:, 0].min())
            for s, m, mh in stacks
        )

    return min_eigenvalue


_REFERENCES: dict[tuple, float] = {}


def residual_reference(
    spec: SystemSpec, ks: tuple[int, ...] = (1, 2), truncation: int = 4
) -> float:
    """The calibration residual r0: the oracle's minimum over the quoted
    k values at the calibration truncation.

    Cached on what the oracle reads: the system kind, the angle, ``ks``
    and the truncation.
    """
    key = (spec.kind, spec.gamma, tuple(ks), truncation)
    if key not in _REFERENCES:
        _REFERENCES[key] = min(residual_brute_force(spec, k, truncation) for k in ks)
    return _REFERENCES[key]


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass
class ProductTowerCertificate:
    """Residual evidence that the product tower adds no level beyond the
    proper functions (1'' = 1''')."""

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
    accept_tol: float = ACCEPT_TOL,
    reject_factor: float = REJECT_FACTOR,
) -> ProductTowerCertificate:
    """Run the residual protocol for the product system.

    k = 0 must accept (proper functions exist); every k != 0 must reject
    at ``r0 * reject_factor`` for the tower to stop.  A residual between
    the thresholds raises :class:`InconclusiveEvidenceError` with the
    partial evidence attached.
    """
    if spec.kind != "product":
        raise UnsupportedSystemError("certificate applies to the product system")
    r0 = residual_reference(spec)
    reports = []
    found_new = False
    for k in ks:
        report = quasi_eigen_residual_search(spec, k, truncation)
        reports.append(report)
        if k == 0:
            if report.residual > accept_tol:
                raise InconclusiveEvidenceError(
                    f"k=0 search should recover a proper function but the "
                    f"residual is {report.residual:.3e}",
                    partial=reports,
                )
            continue
        if report.residual <= accept_tol:
            found_new = True
        elif report.residual < r0 * reject_factor:
            raise InconclusiveEvidenceError(
                f"residual {report.residual:.3e} for k={k} sits between the "
                f"accept tolerance {accept_tol:.1e} and the reject threshold "
                f"{r0 * reject_factor:.3e}",
                partial=reports,
            )
    return ProductTowerCertificate(
        spec=spec,
        truncation=truncation,
        r0=r0,
        reports=reports,
        new_level_found=found_new,
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
    """Does 1'' != 1''' hold?  Exact for skew, residual-certified for product."""
    if spec.kind == "skew":
        levels = compute_tower(spec, 4)
        gap = levels[1] != levels[2]
        return gap, {
            "method": "exact",
            "levels": [lvl.to_json() for lvl in levels],
            "stabilization_depth": stabilization_depth(levels),
        }
    if spec.kind == "product":
        cert = certify_product_tower(spec, truncation=truncation, ks=ks)
        return cert.new_level_found, {
            "method": "residual-certified",
            "certificate": cert.to_json(),
            "stabilization_depth": 2 if not cert.new_level_found else None,
        }
    raise UnsupportedSystemError(
        f"tower comparison supports skew and product systems, not {spec.kind!r}"
    )


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
