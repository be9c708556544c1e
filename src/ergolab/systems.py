"""The four concrete measure-preserving systems and their phase spaces.

* circle rotation ``u -> u + gamma  (mod 1)`` on [0,1)
* torus skew product ``(u, v) -> (u + gamma, v + u)`` on [0,1)^2
* Bernoulli shift on bi-infinite symbol sequences
* product of the rotation with a Bernoulli shift

Map functions are numpy-polymorphic: coordinates may be floats or
arrays of floats.  Sequence points are finite windows of a sampled
bi-infinite sequence; operations that need symbols declare the
positions they read up front, and shifting just moves the anchor.

Monte-Carlo estimates stream their sample: ``sample_chunks`` draws it
from one generator as consecutive batches of at most ``SAMPLE_CHUNK``
points, and each batch (``sample_batch``) stores sequence symbols as
uint8 indices for only the positions its consumer reads, so no array
spans the whole sample.  A run's generators are sub-streams spawned
from its single seed (``spawn_rngs``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from .quadratic import RotationNumber

__all__ = [
    "BernoulliSpec",
    "CylinderSet",
    "SAMPLE_CHUNK",
    "SampleBatch",
    "SymbolWindow",
    "SystemSpec",
    "TorusPoint",
    "WindowError",
    "cylinder_measure",
    "iterate_batch",
    "product_step",
    "product_step_inverse",
    "rotation_step",
    "rotation_step_inverse",
    "sample_batch",
    "sample_chunks",
    "sample_point",
    "shift_step",
    "shift_step_inverse",
    "skew_step",
    "skew_step_inverse",
    "spawn_rngs",
    "step_batch",
]

FloatLike = Union[float, np.ndarray]

#: Default two-symbol alphabet; index 0 carries probs[0].
DEFAULT_SYMBOLS = (1, -1)

SYSTEM_KINDS = ("rotation", "skew", "bernoulli", "product")

#: Most points one batch of a streamed Monte-Carlo sample holds
#: (:func:`sample_chunks`): 2^16 points of ten uint8 symbols and their
#: per-point temporary arrays stay within a few megabytes.
SAMPLE_CHUNK = 2**16


class WindowError(IndexError):
    """A symbol outside the sampled window was requested."""


def _gamma_float(gamma: "RotationNumber | float") -> float:
    if isinstance(gamma, RotationNumber):
        return gamma.to_float()
    return float(gamma)


class TorusPoint(NamedTuple):
    u: FloatLike
    v: FloatLike


@dataclass(frozen=True)
class BernoulliSpec:
    """Finite probability vector with symbol labels.

    probs[i] is the weight of symbols[i]; weights are strictly positive
    and sum to 1 within 1e-12.
    """

    probs: tuple[float, ...]
    symbols: tuple = DEFAULT_SYMBOLS

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        symbols = tuple(self.symbols)
        if len(symbols) != len(probs):
            raise ValueError("probs and symbols must have equal length")
        if len(probs) < 2:
            raise ValueError("need at least two symbols")
        if len(set(symbols)) != len(symbols):
            raise ValueError("symbols must be distinct")
        if any(not (0.0 < p < 1.0) for p in probs):
            raise ValueError("every probability must lie strictly in (0, 1)")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {sum(probs)}, not 1")
        object.__setattr__(self, "symbols", symbols)

    @classmethod
    def fair_coin(cls) -> "BernoulliSpec":
        return cls((0.5, 0.5))

    def index_of(self, symbol) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ValueError(f"unknown symbol {symbol!r}") from None

    def prob_of(self, symbol) -> float:
        return self.probs[self.index_of(symbol)]

    def to_json(self) -> dict:
        return {"probs": list(self.probs), "symbols": list(self.symbols)}

    @classmethod
    def from_json(cls, obj: dict) -> "BernoulliSpec":
        return cls(tuple(obj["probs"]), tuple(obj.get("symbols", DEFAULT_SYMBOLS)))


@dataclass(frozen=True)
class CylinderSet:
    """Finitely many coordinate constraints ``position -> symbol``.

    Constraints are stored sorted by position; positions are distinct.
    An empty constraint list is the whole space.
    """

    constraints: tuple[tuple[int, object], ...] = ()

    def __post_init__(self) -> None:
        cons = tuple(sorted(((int(p), s) for p, s in self.constraints)))
        positions = [p for p, _ in cons]
        if len(set(positions)) != len(positions):
            raise ValueError(f"duplicate constraint positions in {positions}")
        object.__setattr__(self, "constraints", cons)

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.constraints)

    def translate(self, offset: int) -> "CylinderSet":
        return CylinderSet(tuple((p + offset, s) for p, s in self.constraints))

    def to_json(self) -> list:
        return [[p, s] for p, s in self.constraints]

    @classmethod
    def from_json(cls, obj: Iterable) -> "CylinderSet":
        return cls(tuple((int(p), s) for p, s in obj))


@dataclass(frozen=True)
class SymbolWindow:
    """A finite window of a bi-infinite sequence.

    ``symbols[i]`` is the symbol at position ``anchor + i``.  The shift
    moves the sequence one step left, which here just decrements the
    anchor; the stored symbols never move.
    """

    anchor: int
    symbols: tuple

    def __len__(self) -> int:
        return len(self.symbols)

    def covers(self, position: int) -> bool:
        return self.anchor <= position < self.anchor + len(self.symbols)

    def symbol_at(self, position: int):
        if not self.covers(position):
            raise WindowError(
                f"position {position} outside window [{self.anchor}, "
                f"{self.anchor + len(self.symbols)})"
            )
        return self.symbols[position - self.anchor]


@dataclass(frozen=True)
class SystemSpec:
    """Which system, with its defining data.

    kind      gamma      bernoulli
    rotation  required   -
    skew      required   -
    bernoulli -          required
    product   required   required
    """

    kind: str
    gamma: RotationNumber | None = None
    bernoulli: BernoulliSpec | None = None

    def __post_init__(self) -> None:
        if self.kind not in SYSTEM_KINDS:
            raise ValueError(f"unknown system kind {self.kind!r}")
        needs_gamma = self.kind in ("rotation", "skew", "product")
        needs_probs = self.kind in ("bernoulli", "product")
        if needs_gamma and self.gamma is None:
            raise ValueError(f"{self.kind} system requires a rotation number")
        if not needs_gamma and self.gamma is not None:
            raise ValueError(f"{self.kind} system takes no rotation number")
        if needs_probs and self.bernoulli is None:
            raise ValueError(f"{self.kind} system requires a Bernoulli spec")
        if not needs_probs and self.bernoulli is not None:
            raise ValueError(f"{self.kind} system takes no Bernoulli spec")

    @classmethod
    def rotation(cls, gamma: RotationNumber) -> "SystemSpec":
        return cls("rotation", gamma=gamma)

    @classmethod
    def skew(cls, gamma: RotationNumber) -> "SystemSpec":
        return cls("skew", gamma=gamma)

    @classmethod
    def shift(cls, bernoulli: BernoulliSpec) -> "SystemSpec":
        return cls("bernoulli", bernoulli=bernoulli)

    @classmethod
    def product(cls, gamma: RotationNumber, bernoulli: BernoulliSpec) -> "SystemSpec":
        return cls("product", gamma=gamma, bernoulli=bernoulli)

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind}
        if self.gamma is not None:
            obj["gamma"] = self.gamma.to_json()
        if self.bernoulli is not None:
            obj.update(self.bernoulli.to_json())
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "SystemSpec":
        kind = obj["kind"]
        gamma = RotationNumber.from_json(obj["gamma"]) if "gamma" in obj else None
        bern = BernoulliSpec.from_json(obj) if "probs" in obj else None
        return cls(kind, gamma=gamma, bernoulli=bern)

    def label(self) -> str:
        parts = [self.kind]
        if self.gamma is not None:
            parts.append(str(self.gamma))
        if self.bernoulli is not None:
            parts.append("p=" + ",".join(f"{p:g}" for p in self.bernoulli.probs))
        return " ".join(parts)


# ---------------------------------------------------------------------------
# forward / inverse maps
# ---------------------------------------------------------------------------


def rotation_step(u: FloatLike, gamma: "RotationNumber | float") -> FloatLike:
    return (u + _gamma_float(gamma)) % 1.0


def rotation_step_inverse(u: FloatLike, gamma: "RotationNumber | float") -> FloatLike:
    return (u - _gamma_float(gamma)) % 1.0


def skew_step(point: TorusPoint, gamma: "RotationNumber | float") -> TorusPoint:
    u, v = point
    return TorusPoint((u + _gamma_float(gamma)) % 1.0, (v + u) % 1.0)


def skew_step_inverse(point: TorusPoint, gamma: "RotationNumber | float") -> TorusPoint:
    u, v = point
    u0 = (u - _gamma_float(gamma)) % 1.0
    return TorusPoint(u0, (v - u0) % 1.0)


def shift_step(window: SymbolWindow) -> SymbolWindow:
    return SymbolWindow(window.anchor - 1, window.symbols)


def shift_step_inverse(window: SymbolWindow) -> SymbolWindow:
    return SymbolWindow(window.anchor + 1, window.symbols)


def product_step(
    point: tuple[FloatLike, SymbolWindow], gamma: "RotationNumber | float"
) -> tuple[FloatLike, SymbolWindow]:
    u, w = point
    return rotation_step(u, gamma), shift_step(w)


def product_step_inverse(
    point: tuple[FloatLike, SymbolWindow], gamma: "RotationNumber | float"
) -> tuple[FloatLike, SymbolWindow]:
    u, w = point
    return rotation_step_inverse(u, gamma), shift_step_inverse(w)


def skew_lag(i: int, gamma: RotationNumber) -> tuple[float, float]:
    """Angle offsets in the closed form of the i-th skew iterate.

    S^i(u, v) = (u + i*gamma, v + i*u + C(i,2)*gamma), both mod 1.
    Returns (frac(i*gamma), frac(C(i,2)*gamma)) evaluated exactly first.
    """
    if gamma.is_exact:
        return (
            float(gamma.frac_multiple(i)),
            float(gamma.frac_multiple(i * (i - 1) // 2)),
        )
    g = gamma.to_float()
    return (i * g) % 1.0, (i * (i - 1) // 2 * g) % 1.0


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """n independent generators derived from one seed.

    The command line hands generator i to the i-th system of a run, so the
    generator a system draws from depends only on the seed and the
    system's position, not on how many systems follow it.  A streamed
    estimate draws all its chunks from its one generator in turn, so its
    result depends on the seed and ``SAMPLE_CHUNK`` alone.
    """
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def sample_point(
    spec: SystemSpec, rng: np.random.Generator, window_half_width: int = 8
):
    """One point of the invariant measure.

    Sequence components come as a window covering
    ``[-window_half_width, window_half_width]``.
    """
    if spec.kind == "rotation":
        return float(rng.random())
    if spec.kind == "skew":
        return TorusPoint(float(rng.random()), float(rng.random()))
    if spec.kind == "bernoulli":
        return _sample_window(spec.bernoulli, rng, window_half_width)
    if spec.kind == "product":
        return (
            float(rng.random()),
            _sample_window(spec.bernoulli, rng, window_half_width),
        )
    raise AssertionError(spec.kind)


def _sample_window(
    bern: BernoulliSpec, rng: np.random.Generator, half_width: int
) -> SymbolWindow:
    size = 2 * half_width + 1
    idx = rng.choice(len(bern.probs), size=size, p=bern.probs)
    return SymbolWindow(-half_width, tuple(bern.symbols[i] for i in idx))


@dataclass
class SampleBatch:
    """Struct-of-arrays batch of points (the Monte-Carlo fast path).

    ``sym`` holds symbol *indices* into ``spec.bernoulli.symbols`` as
    unsigned bytes (wider only for alphabets above 256 symbols); row i
    column j is the symbol at position ``anchor + j`` of sample i, and
    reading any position outside the stored columns raises
    :class:`WindowError`.
    """

    spec: SystemSpec
    u: np.ndarray | None = None
    v: np.ndarray | None = None
    sym: np.ndarray | None = None
    anchor: int = 0

    def __len__(self) -> int:
        if self.u is not None:
            return len(self.u)
        return 0 if self.sym is None else self.sym.shape[0]

    def symbol_indices_at(self, position: int) -> np.ndarray:
        j = position - self.anchor
        if self.sym is None or not (0 <= j < self.sym.shape[1]):
            raise WindowError(f"batch window does not cover position {position}")
        return self.sym[:, j]


def sample_batch(
    spec: SystemSpec,
    rng: np.random.Generator,
    n: int,
    positions: range = range(-8, 9),
) -> SampleBatch:
    """n points of the invariant measure, drawn from rng in one batch.

    Sequence components store the symbols at ``positions``, a contiguous
    range of sequence positions; a consumer passes the positions it
    reads, so no column is drawn that nothing reads.  Symbol indices are
    unsigned bytes for alphabets of up to 256 symbols.
    """
    if positions.step != 1:
        raise ValueError("sampled positions must be a contiguous range")
    u = v = sym = None
    if spec.kind in ("rotation", "skew", "product"):
        u = rng.random(n)
    if spec.kind == "skew":
        v = rng.random(n)
    if spec.kind in ("bernoulli", "product"):
        k = len(spec.bernoulli.probs)
        sym = rng.choice(k, size=(n, len(positions)), p=spec.bernoulli.probs)
        sym = sym.astype(np.min_scalar_type(k - 1))
    return SampleBatch(spec=spec, u=u, v=v, sym=sym, anchor=positions.start)


def sample_chunks(
    spec: SystemSpec, rng: np.random.Generator, n: int, positions: range
) -> Iterator[SampleBatch]:
    """n points of the invariant measure as consecutive batches of at
    most ``SAMPLE_CHUNK`` points, each drawn from rng after the last.

    Every Monte-Carlo estimate streams its sample through here and
    reduces each batch before the next is drawn, so the drawn sample
    never takes more than one batch of memory, whatever n is.
    ``positions`` is passed on to :func:`sample_batch`.
    """
    for start in range(0, n, SAMPLE_CHUNK):
        yield sample_batch(spec, rng, min(SAMPLE_CHUNK, n - start), positions)


def step_batch(batch: SampleBatch) -> SampleBatch:
    return iterate_batch(batch, 1)


def iterate_batch(batch: SampleBatch, i: int) -> SampleBatch:
    """The i-th forward image of every point, via closed forms.

    Rotation angles are multiplied out exactly before any float touches
    them, so there is no accumulated drift; the sequence component only
    moves its anchor.
    """
    spec = batch.spec
    u, v, sym, anchor = batch.u, batch.v, batch.sym, batch.anchor
    if spec.kind in ("rotation", "skew", "product"):
        gi, ci = skew_lag(i, spec.gamma)
        new_u = (u + gi) % 1.0
    else:
        new_u = None
    new_v = None
    if spec.kind == "skew":
        new_v = (v + i * u + ci) % 1.0
    if spec.kind in ("bernoulli", "product"):
        anchor = anchor - i
    return SampleBatch(spec=spec, u=new_u, v=new_v, sym=sym, anchor=anchor)


# ---------------------------------------------------------------------------
# exact measures
# ---------------------------------------------------------------------------


def cylinder_measure(bern: BernoulliSpec, cylinder: CylinderSet) -> float:
    """Product measure of a cylinder set; the empty cylinder has measure 1.

    Positions do not matter (the shift preserves the measure), only the
    multiset of constrained symbols.
    """
    out = 1.0
    for _, symbol in cylinder.constraints:
        out *= bern.prob_of(symbol)
    return out
