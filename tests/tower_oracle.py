"""Oracles for the residual census and for r0.

``census_by_walk`` is the census as a walk over label tuples, one K_k at
a time: the table's P step on a list of labels, images looked up in a
dict, every free path walked from its first node and every cycle from
its least label.  The array census in ``ergolab.tower`` must give the
same report for every k.

Two float oracles bound the census's residual from both sides.

``residual_by_profile`` builds a concrete unit vector, the best one on
each orbit component of the truncated index map K_k with its real phases,
and measures ``|| P c - delta Q c ||`` over the coefficient lattice and by
quadrature.  A concrete vector bounds the least-squares minimum from
above, so this is the upper half of the census's closed form.

``residual_brute_force`` minimizes ``|| g o T - delta e(k u) g ||`` over
every truncated coefficient vector by assembling the residual matrix on a
quadrature grid and scanning the unimodular constant delta.  It shares no
code path with ``ergolab.tower.quasi_eigen_residual_search``: its tail
labels are enumerated here, its operator is built from grid samples, and
its block structure is read off the assembled Gram matrix.  The tests use
it as the reference for the census's minima and for the closed form of
``ergolab.tower.residual_reference``: the lower half.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from ergolab.koopman import KOOPMAN_TABLE, koopman_step
from ergolab.systems import RotationNumber, SystemSpec
from ergolab.tower import (
    U_BAND,
    ResidualReport,
    UnsupportedSystemError,
    _path_residual,
)

Node = tuple[int, object]  # (u-frequency, tail label)

#: Largest sequence-character support size the oracle enumerates by
#: default: the size ``tower._sector_tails`` enumerates.
SUPPORT_CAP = 2


def _table_tails(spec: SystemSpec, truncation: int) -> list[tuple]:
    """Tail-factor characters as table coordinates: for the product, ()
    for the constant, (a, 0) for the support {a} and (a, b - a) for
    {a, b} with a < b in [-N, N]; for the skew, (m,) for m in [-N, N]."""
    window = range(-truncation, truncation + 1)
    if spec.kind == "product":
        return [()] + [(a, b - a) for a in window for b in window if b >= a]
    if spec.kind == "skew":
        return [(m,) for m in window]
    raise UnsupportedSystemError(
        f"the residual search runs on product or skew systems, not {spec.kind!r}"
    )


def _p_step(kind: str, nodes: list[tuple], k: int) -> list[tuple]:
    """K_k on a list of labels: the table's P step followed by l -> l - k,
    one label at a time."""
    images = []
    for node in nodes:
        sector = next(n for n, a in KOOPMAN_TABLE[kind].items() if len(a.b) == len(node))
        _, (l, *tail) = koopman_step(kind, sector, node)
        images.append((l - k, *tail))
    return images


def census_by_walk(spec: SystemSpec, k: int, truncation: int) -> ResidualReport:
    """The orbit census of the truncated K_k, walked label by label."""
    if truncation < 2:
        raise ValueError("truncation must be >= 2")
    tails = _table_tails(spec, truncation)
    nodes = [(l, *t) for l in range(-U_BAND, U_BAND + 1) for t in tails]
    index = {node: i for i, node in enumerate(nodes)}
    succ = [index.get(image, -1) for image in _p_step(spec.kind, nodes, k)]
    targets = [j for j in succ if j >= 0]
    if len(set(targets)) < len(targets):
        raise ValueError(f"K_{k} is not injective on the truncated basis")
    # a node with a predecessor lies on a cycle unless a free path,
    # walked from a node without one, reaches it
    on_cycle = [False] * len(nodes)
    for j in targets:
        on_cycle[j] = True
    lengths: Counter[int] = Counter()
    for i in [i for i, flag in enumerate(on_cycle) if not flag]:
        n = 0
        while i >= 0:
            on_cycle[i] = False
            n, i = n + 1, succ[i]
        lengths[n] += 1
    cycles = 0
    for i in range(len(nodes)):
        if on_cycle[i]:
            cycles += 1
            while on_cycle[i]:
                on_cycle[i] = False
                i = succ[i]
    return ResidualReport(
        system_kind=spec.kind,
        k=k,
        truncation=truncation,
        residual=0.0 if cycles else _path_residual(max(lengths)),
        u_band=U_BAND,
        dimension=len(nodes),
        cycles=cycles,
        path_lengths=[[n, lengths[n]] for n in sorted(lengths)],
    )


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
    search path; the reference for r0's closed form and for the search.
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
    gamma = float(spec.gamma.exact)

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


# ---------------------------------------------------------------------------
# the sine-profile minimizer, measured with its real phases
# ---------------------------------------------------------------------------

Label = tuple[int, ...]  # (l, *tail) in table coordinates


@dataclass
class ProfileResidual:
    """One concrete unit vector's residual, measured two ways."""

    residual: float  # || P c - delta Q c || over the whole lattice
    delta: complex
    grid: int
    grid_residual: float  # the same norm by quadrature on ``grid`` points


def _p(kind: str, label: Label) -> tuple[int, Label]:
    """The table's P step on one label: its gamma multiplier and image."""
    sector = next(
        name for name, action in KOOPMAN_TABLE[kind].items() if len(action.b) == len(label)
    )
    mult, image = koopman_step(kind, sector, label)
    return mult, tuple(image)


@lru_cache(maxsize=None)
def _phase(gamma: RotationNumber, mult: int) -> complex:
    """``e(mult gamma)``, from the exact fractional part; a walk asks for
    the few multipliers of its band many times each."""
    return cmath.exp(2j * cmath.pi * float(gamma.frac_multiple(mult)))


def residual_by_profile(spec: SystemSpec, k: int, truncation: int) -> ProfileResidual:
    """Walk the orbit components of the truncated K_k with their phases,
    build the best unit vector on the best component, and measure it.

    On a cycle of n nodes the vector has modulus 1/sqrt(n) and carries the
    phases, with delta the n-th root of their product (residual 0); on a
    free path of n nodes it is the discrete sine profile, whose residual is
    ``sqrt(2 - 2 cos(pi/(n+1)))``.  Cycles beat every path and longer paths
    beat shorter ones.  delta is then re-chosen in closed form and the
    vector measured over the coefficient lattice, leakage included, and by
    quadrature on a uniform u-grid of ``max(4N, 2(U_BAND + N + |k|) + 2)``
    points, fine enough to be exact for these band-limited integrands.
    """
    if truncation < 2:
        raise ValueError("truncation must be >= 2")
    # |l| first, so that among equal components the l = 0 ones, whose
    # phases are 1, win: a cycle there is a fixed point with delta = 1
    band = sorted(range(-U_BAND, U_BAND + 1), key=abs)
    nodes = [(l, *t) for l in band for t in _table_tails(spec, truncation)]
    node_set = set(nodes)
    succ: dict[Label, tuple[Label, complex]] = {}
    preds: set[Label] = set()
    for node in nodes:
        mult, (l, *tail) = _p(spec.kind, node)
        target = (l - k, *tail)
        if target in node_set:
            succ[node] = (target, _phase(spec.gamma, mult))
            preds.add(target)

    best: tuple[float, dict[Label, complex]] = (-1.0, {})  # (score, c)
    visited: set[Label] = set()
    for on_cycles in (False, True):
        # once the paths are walked, every node left lies on a cycle
        for start in nodes:
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
            c: dict[Label, complex] = {}
            if on_cycles:
                score, x = 1.0, 1.0 + 0j
                delta = math.prod(weights) ** (1.0 / n)
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

    c = best[1]
    pc, qc = _apply_p(spec, c), _apply_q(k, c)
    delta = _optimal_delta(pc, qc)
    grid = max(4 * truncation, 2 * (U_BAND + truncation + abs(k)) + 2)
    return ProfileResidual(
        residual=_coefficient_residual(pc, qc, delta),
        delta=delta,
        grid=grid,
        grid_residual=_grid_residual(spec, k, c, delta, grid),
    )


def _apply_p(spec: SystemSpec, c: dict) -> dict[Label, complex]:
    out: dict[Label, complex] = {}
    for label, val in c.items():
        mult, image = _p(spec.kind, label)
        out[image] = out.get(image, 0j) + _phase(spec.gamma, mult) * val
    return out


def _apply_q(k: int, c: dict) -> dict[Label, complex]:
    out: dict[Label, complex] = {}
    for (l, *tail), val in c.items():
        key = (l + k, *tail)
        out[key] = out.get(key, 0j) + val
    return out


def _optimal_delta(pc: dict, qc: dict) -> complex:
    """delta maximizing Re(conj(delta) <Pc, Qc>), in closed form."""
    inner = sum((val * qc[key].conjugate() for key, val in pc.items() if key in qc), 0j)
    if abs(inner) < 1e-300:
        return 1.0 + 0j
    return inner / abs(inner)


def _coefficient_residual(pc: dict, qc: dict, delta: complex) -> float:
    """|| P c - delta Q c || over the full lattice (leakage included)."""
    diff = dict(pc)
    for key, val in qc.items():
        diff[key] = diff.get(key, 0j) - delta * val
    return math.sqrt(sum(abs(v) ** 2 for v in diff.values()))


def _grid_residual(spec: SystemSpec, k: int, c: dict, delta: complex, grid: int) -> float:
    """The same residual by quadrature on a uniform u-grid.

    Band-limited integrands make the quadrature exact once the grid
    exceeds twice the output band, so this re-measures the vector without
    the coefficient bookkeeping.
    """
    u = np.arange(grid) / grid
    gamma = float(spec.gamma.exact)
    q_wave = np.exp(2j * np.pi * k * u)
    by_out: dict[Label, np.ndarray] = {}

    def add(tail_label, values) -> None:
        cur = by_out.get(tail_label)
        by_out[tail_label] = values if cur is None else cur + values

    for (l, *tail), val in c.items():
        mult, (l_p, *tail_p) = _p(spec.kind, (l, *tail))
        add(tuple(tail_p), val * np.exp(2j * np.pi * mult * gamma) * np.exp(2j * np.pi * l_p * u))
        add(tuple(tail), -delta * val * q_wave * np.exp(2j * np.pi * l * u))
    return math.sqrt(sum(float(np.mean(np.abs(values) ** 2)) for values in by_out.values()))
