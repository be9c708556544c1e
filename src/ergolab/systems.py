"""The four concrete measure-preserving systems and their phase spaces.

* circle rotation ``u -> u + gamma  (mod 1)`` on [0,1)
* torus skew product ``(u, v) -> (u + gamma, v + u)`` on [0,1)^2
* Bernoulli shift on bi-infinite symbol sequences
* product of the rotation with a Bernoulli shift

Points live in one representation, the struct-of-arrays
:class:`SampleBatch`: a single point is a one-row batch.  Sequence
points are finite windows of a sampled bi-infinite sequence; operations
that need symbols declare the positions they read up front, and shifting
just moves the anchor.  :func:`iterate_batch` applies S^i by closed
forms for every integer i, so a negative lag inverts.  Cylinder sets
carry their own algebra: translation, intersection (``merge``) and the
exact product measure.

Monte-Carlo estimates stream their sample: ``sample_chunks`` draws it
from one generator as consecutive batches of at most ``SAMPLE_CHUNK``
points and ``CHUNK_SYMBOLS`` symbols, and each batch (``sample_batch``)
stores sequence symbols as uint8 indices for only the positions its
consumer reads, so no array spans the whole sample.  A stream allocates its arrays once and refills
them for every batch, so a streamed batch is valid only until the next
one is drawn; a one-shot ``sample_batch`` gets arrays of its own.  A
run's generators are sub-streams spawned from its single seed
(``spawn_rngs``).  The specs and the cylinder
algebra are pure Python: only the functions that draw samples import
numpy, so a run that never samples never loads it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Optional

from .quadratic import RotationNumber

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BernoulliSpec",
    "CHUNK_SYMBOLS",
    "CylinderSet",
    "InconclusiveEvidenceError",
    "SAMPLE_CHUNK",
    "SampleBatch",
    "SystemSpec",
    "WindowError",
    "cumulative_law",
    "iterate_batch",
    "sample_batch",
    "sample_chunks",
    "spawn_rngs",
]

#: Default two-symbol alphabet; index 0 carries probs[0].
DEFAULT_SYMBOLS = (1, -1)

SYSTEM_KINDS = ("rotation", "skew", "bernoulli", "product")

#: Most points one batch of a streamed Monte-Carlo sample holds
#: (:func:`sample_chunks`), and most uniforms one draw of symbols takes
#: (:func:`sample_batch`).
SAMPLE_CHUNK = 2**16
#: Most sequence symbols one batch holds (one point when a window is
#: wider): a window wider than ten positions gets fewer than
#: ``SAMPLE_CHUNK`` points.  A stream keeps one batch's arrays and
#: refills them for every batch, so up to windows of ``SAMPLE_CHUNK``
#: positions its memory does not grow with the window: the window takes
#: at most 0.64 MB of uint8 symbols, the float block of draws 0.5 MB and
#: its bool scratch 64 KB, and the entropy scorer's column copy and flags
#: 1.3 MB and its per-point arrays 1 MB.  A wider window draws one row
#: per block, and the stream and the scorer take about 12 bytes per
#: position.
CHUNK_SYMBOLS = 10 * SAMPLE_CHUNK


class WindowError(IndexError):
    """A symbol outside the sampled window was requested."""


class InconclusiveEvidenceError(RuntimeError):
    """Evidence fell between the accept and reject thresholds (exit code
    2 on the command line).  It lives here, beside the system specs every
    scenario loads, so the command line can catch it without importing
    the tower toolkit."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


def _json_symbol(symbol):
    """A JSON symbol: a string, or an integer (an integral float too)."""
    return symbol if isinstance(symbol, str) else int(symbol)


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
        """Read a law the config schema has validated,
        ``{"probs": [numbers], "symbols": [ints or strings]}`` with
        symbols optional; the constructor checks the probabilities."""
        symbols = obj.get("symbols", DEFAULT_SYMBOLS)
        return cls(tuple(obj.get("probs", ())), tuple(map(_json_symbol, symbols)))


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
        # a translation keeps the positions sorted and distinct, so the
        # result skips the constructor's sort and checks
        moved = object.__new__(CylinderSet)
        moved_constraints = tuple((p + offset, s) for p, s in self.constraints)
        object.__setattr__(moved, "constraints", moved_constraints)
        return moved

    def merge(self, *others: "CylinderSet") -> Optional["CylinderSet"]:
        """The intersection with every set in ``others``: all their
        constraints together, or None where two clash on a position (the
        sets are disjoint).  One pass, so merging m sets costs time
        linear in their total constraint count."""
        merged = dict(self.constraints)
        for other in others:
            for pos, sym in other.constraints:
                if merged.setdefault(pos, sym) != sym:
                    return None
        return CylinderSet(tuple(merged.items()))

    def measure(self, bern: BernoulliSpec) -> Fraction:
        """The product measure, exactly (probabilities enter by their
        exact binary-float values); the empty cylinder has measure 1.
        Positions do not matter, since the shift preserves the measure,
        so each symbol's probability is raised to its count."""
        out = Fraction(1)
        for symbol, count in Counter(s for _, s in self.constraints).items():
            out *= Fraction(bern.prob_of(symbol)) ** count
        return out

    def to_json(self) -> list:
        return [[p, s] for p, s in self.constraints]

    @classmethod
    def from_json(cls, obj: list) -> "CylinderSet":
        """Read a list of ``[position, symbol]`` pairs the config schema
        has validated."""
        return cls(tuple((int(p), _json_symbol(s)) for p, s in obj))


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
        """Read ``{"kind": ..., "gamma": ..., "probs": ..., "symbols": ...}``,
        which the config schema has validated; the constructor refuses a
        field the kind does not take."""
        gamma = RotationNumber.from_json(obj["gamma"]) if "gamma" in obj else None
        if "symbols" in obj and "probs" not in obj:
            # a kind that takes no law is refused as such; one that does lacks probs
            cls(obj["kind"], gamma=gamma, bernoulli=BernoulliSpec.fair_coin())
            raise ValueError("'probs' is required with 'symbols'")
        bern = BernoulliSpec.from_json(obj) if "probs" in obj else None
        return cls(obj["kind"], gamma=gamma, bernoulli=bern)

    def label(self) -> str:
        parts = [self.kind]
        if self.gamma is not None:
            parts.append(str(self.gamma))
        if self.bernoulli is not None:
            parts.append("p=" + ",".join(f"{p:g}" for p in self.bernoulli.probs))
        return " ".join(parts)


# ---------------------------------------------------------------------------
# closed-form iteration and sampling
# ---------------------------------------------------------------------------


def skew_lag(i: int, gamma: RotationNumber) -> tuple[float, float]:
    """Angle offsets in the closed form of the i-th skew iterate.

    S^i(u, v) = (u + i*gamma, v + i*u + C(i,2)*gamma), both mod 1.
    Returns (frac(i*gamma), frac(C(i,2)*gamma)) evaluated exactly first.
    """
    return float(gamma.frac_multiple(i)), float(gamma.frac_multiple(i * (i - 1) // 2))


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """n independent generators derived from one seed.

    The command line hands generator i to the i-th system of a run, so the
    generator a system draws from depends only on the seed and the
    system's position, not on how many systems follow it.  The streams
    share no state, so systems can draw from them concurrently, each in
    its own thread, with the result the same as drawing one after
    another.  A streamed estimate draws all its chunks from its one
    generator in turn, so its result depends on the seed and the chunk
    size (``SAMPLE_CHUNK``, ``CHUNK_SYMBOLS``) alone.
    """
    import numpy as np

    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


@dataclass
class SampleBatch:
    """Struct-of-arrays batch of points, the one point representation:
    a Monte-Carlo sample, an orbit (row j the j-th image) or, with one
    row, a single point.

    ``u`` and ``v`` are float arrays (None for a coordinate the system
    lacks); ``sym`` holds symbol *indices* into ``spec.bernoulli.symbols`` as
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


def cumulative_law(bern: BernoulliSpec) -> np.ndarray:
    """The cumulative law, ending at 1, that :func:`sample_batch` compares
    its draws with: a symbol whose step in it is 0 is never drawn."""
    import numpy as np

    cdf = np.cumsum(bern.probs)
    return cdf / cdf[-1]


@dataclass
class _Buffers:
    """The arrays a stream's batches are drawn into: ``u``, ``v`` and the
    symbol window ``sym``, with a row for each of ``points`` points and a
    column for each of ``width`` positions; ``draws``, the float block of
    uniforms that symbols are counted from; and ``scratch``, a bool array
    of the block's shape.  An array the system has no use for is None."""

    points: int
    width: int
    u: np.ndarray | None
    v: np.ndarray | None
    sym: np.ndarray | None
    draws: np.ndarray | None
    scratch: np.ndarray | None


def _buffers(spec: SystemSpec, points: int, width: int) -> _Buffers:
    """Empty buffers for batches of up to ``points`` points whose windows
    hold ``width`` positions.  The block holds whole rows, at most
    ``SAMPLE_CHUNK`` uniforms of them (one row when a row is wider)."""
    import numpy as np

    u = np.empty(points) if spec.kind in ("rotation", "skew", "product") else None
    v = np.empty(points) if spec.kind == "skew" else None
    sym = draws = scratch = None
    if spec.kind in ("bernoulli", "product"):
        dtype = np.min_scalar_type(len(spec.bernoulli.probs) - 1)
        sym = np.empty((points, width), dtype=dtype)
        rows = max(1, min(points, SAMPLE_CHUNK // max(width, 1)))
        draws = np.empty((rows, width))
        scratch = np.empty((rows, width), dtype=bool)
    return _Buffers(points, width, u, v, sym, draws, scratch)


def sample_batch(
    spec: SystemSpec,
    rng: np.random.Generator,
    n: int,
    positions: range = range(-8, 9),
    buffers: Optional[_Buffers] = None,
) -> SampleBatch:
    """n points of the invariant measure, drawn from rng in one batch.

    Sequence components store the symbols at ``positions``, a contiguous
    range of sequence positions; a consumer passes the positions it
    reads, so no column is drawn that nothing reads.  Symbol indices are
    unsigned bytes for alphabets of up to 256 symbols.

    Each symbol is one uniform draw u from ``rng.random``, and its index
    is the number of entries of the cumulative law (normalised to end at
    1) that are <= u, counted by one comparison pass per symbol but the
    last.  That is the ``searchsorted(u, side="right")`` of
    ``Generator.choice(k, p=probs)``, so the symbols and the generator's
    state afterwards equal that call's, at no int64 temporary.  The
    uniforms are drawn into one float block of whole rows, at most
    ``SAMPLE_CHUNK`` of them per draw (one row when a row is wider), and
    ``rng.random`` fills row-major, so the blocks draw what one call
    would.  The first comparison writes its 0s and 1s straight into the
    window, and each later one adds a reused bool scratch in place.

    The batch's arrays are views of ``buffers``: fresh ones sized to the
    batch by default, or the stream's own, which :func:`sample_chunks`
    passes and refills for every batch.  Buffers with fewer than ``n``
    points, or windows of another width, raise ValueError.
    """
    import numpy as np

    if positions.step != 1:
        raise ValueError("sampled positions must be a contiguous range")
    if buffers is None:
        buffers = _buffers(spec, n, len(positions))
    elif n > buffers.points or len(positions) != buffers.width:
        raise ValueError(
            f"buffers of {buffers.points} points {buffers.width} positions wide"
            f" cannot hold {n} points {len(positions)} positions wide"
        )
    u = None if buffers.u is None else rng.random(out=buffers.u[:n])
    v = None if buffers.v is None else rng.random(out=buffers.v[:n])
    sym = None
    if buffers.sym is not None:
        cdf = cumulative_law(spec.bernoulli)
        sym = buffers.sym[:n]
        for start in range(0, n, len(buffers.draws)):
            draws = rng.random(out=buffers.draws[: n - start])
            block = sym[start : start + len(draws)]
            scratch = buffers.scratch[: len(draws)]
            np.greater_equal(draws, cdf[0], out=block)
            for c in cdf[1:-1]:
                block += np.greater_equal(draws, c, out=scratch)
    return SampleBatch(spec=spec, u=u, v=v, sym=sym, anchor=positions.start)


def sample_chunks(
    spec: SystemSpec, rng: np.random.Generator, n: int, positions: range
) -> Iterator[SampleBatch]:
    """n points of the invariant measure as consecutive batches of at
    most ``SAMPLE_CHUNK`` points, each drawn from rng after the last.  A
    batch also holds at most ``CHUNK_SYMBOLS`` symbols (at least one
    point), so a wider window gets fewer points per batch.

    The stream allocates one set of buffers, sized to its first batch,
    and :func:`sample_batch` refills it for every batch, so a yielded
    batch is valid only until the next one is drawn.  The sampled
    entropy estimate (:func:`entropy.partition_refine_entropy`) streams
    its sample through here and reduces each batch before the next is
    drawn, so the drawn sample never takes more than one batch of
    memory, whatever n is, and the stream allocates nothing after its
    first batch.  ``positions`` is passed on to :func:`sample_batch`.
    """
    chunk = min(SAMPLE_CHUNK, max(1, CHUNK_SYMBOLS // max(len(positions), 1)))
    buffers = _buffers(spec, min(chunk, n), len(positions))
    for start in range(0, n, chunk):
        yield sample_batch(spec, rng, min(chunk, n - start), positions, buffers)


def iterate_batch(batch: SampleBatch, i: int) -> SampleBatch:
    """The i-th image S^i of every point, via closed forms, for any
    integer i (a negative lag inverts).

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
