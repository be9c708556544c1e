"""The dense least-squares oracle for the residual search and for r0.

``residual_brute_force`` minimizes ``|| g o T - delta e(k u) g ||`` over
every truncated coefficient vector by assembling the residual matrix on a
quadrature grid and scanning the unimodular constant delta.  It shares no
code path with ``ergolab.tower.quasi_eigen_residual_search``: its tail
labels are enumerated here, its operator is built from grid samples, and
its block structure is read off the assembled Gram matrix.  The tests use
it as the reference for the search's minima and for the closed form of
``ergolab.tower.residual_reference``.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Optional

import numpy as np

from ergolab.systems import SystemSpec
from ergolab.tower import SUPPORT_CAP, U_BAND, UnsupportedSystemError

Node = tuple[int, object]  # (u-frequency, tail label)


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
