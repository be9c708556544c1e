"""The four concrete measure-preserving systems and their phase spaces.

* circle rotation ``u -> u + gamma  (mod 1)`` on [0,1)
* torus skew product ``(u, v) -> (u + gamma, v + u)`` on [0,1)^2
* Bernoulli shift on bi-infinite symbol sequences
* product of the rotation with a Bernoulli shift

``MAPS`` writes each kind's map down once, as a record ``(M, t, s)``;
which data a kind takes, the coordinates its points carry, the point
iterates here and the Koopman table (``koopman.KOOPMAN_TABLE``) are all
read off it.  Points live in one representation, the struct-of-arrays
:class:`SampleBatch`: a single point is a one-row batch.  Sequence
points are finite windows of a sampled bi-infinite sequence; operations
that need symbols declare the positions they read up front, and shifting
just moves the anchor.  :func:`iterate_batch` applies S^i by one closed
form for every kind and integer i, so a negative lag inverts.  Cylinder sets
carry their own algebra: translation, intersection (``merge``), the
exact product measure and membership of a batch's points
(``contains_batch``).

Monte-Carlo estimates stream their sample: ``sample_chunks`` draws it
from one generator as batches of at most ``SAMPLE_CHUNK`` points and
``CHUNK_SYMBOLS`` symbols into arrays it allocates once, so a streamed
batch is valid only until the next one is drawn.  A batch
(``sample_batch``) stores uint8 symbol indices for only the positions
its consumer reads, each drawn from a field of a generator word just
wide enough for its law: 8, 16 or 32 bits, or the whole 64-bit word.
A law is one tuple of exact fractions (:func:`read_fraction`), which
its cylinder measures, its entropy and its sampler all read.
A run's generators are spawned from its one seed (``spawn_rngs``).
The specs and the cylinder algebra are pure Python: only the functions
that draw samples import numpy, so a run that never samples never loads
it.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator, Optional

from ._record import record
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
    "iterate_batch",
    "read_fraction",
    "sample_batch",
    "sample_chunks",
    "spawn_rngs",
    "symbol_thresholds",
]

#: Default two-symbol alphabet; index 0 carries probs[0].
DEFAULT_SYMBOLS = (1, -1)

#: Each kind's map as ``(M, t, s)``: the torus part x -> M x + t gamma
#: (mod 1) on ``(u,)`` or ``(u, v)``, M integer and unipotent, and the
#: shift part (R w)_p = w_{p+s}; s = 0 means no sequence factor.
MAPS = {
    "rotation": (((1,),), (1,), 0),
    "skew": (((1, 0), (1, 1)), (1, 0), 0),
    "bernoulli": ((), (), 1),
    "product": (((1,),), (1,), 1),
}
SYSTEM_KINDS = tuple(MAPS)

#: Most points one batch of a streamed Monte-Carlo sample holds
#: (:func:`sample_chunks`), and most symbols one block of draws fills
#: (:func:`sample_batch`).
SAMPLE_CHUNK = 2**16
#: Most sequence symbols one batch holds (one point when a window is
#: wider).  A stream refills one batch's arrays: at most 0.64 MB of uint8
#: window, a 64 KB bool scratch, and the entropy scorer's column copy and
#: flags (1.3 MB) and per-point arrays (1 MB).  A wider window takes about
#: 3 bytes per position: the window, the column copy and its flags.
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


def read_fraction(x, what: str) -> Fraction:
    """x exactly, the one reading of a probability or a test-set end: a
    float by its shortest repr (0.1 is 1/10), a string ("1/3", "0.25"),
    an int or a Fraction as written; ValueError naming ``what`` otherwise."""
    try:
        return Fraction(repr(float(x)) if isinstance(x, float) else x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        message = f"{what} must be a finite number or fraction string, got {x!r:.60}"
        raise ValueError(message) from None


def _json_fraction(x: Fraction):
    """x as JSON: the float whose repr reads back to x (0.5, 0.1), or
    the string "p/q" where none does (1/3)."""
    return float(x) if read_fraction(float(x), "a probability") == x else str(x)


def _json_symbol(symbol):
    """A JSON symbol: a string, or an integer (an integral float too)."""
    return symbol if isinstance(symbol, str) else int(symbol)


@record(frozen=True)
class BernoulliSpec:
    """Finite probability vector with symbol labels.

    probs[i] is the weight of symbols[i], an exact fraction
    (:func:`read_fraction`).  Weights are strictly positive and sum to 1
    within 1e-12; a law that misses 1 is divided by its sum once, here,
    so three floats 1/3 become exactly 1/3 each.
    """

    probs: tuple[Fraction, ...]
    symbols: tuple = DEFAULT_SYMBOLS

    def __post_init__(self) -> None:
        probs = tuple(read_fraction(p, "a probability") for p in self.probs)
        symbols = tuple(self.symbols)
        if len(symbols) != len(probs):
            raise ValueError("probs and symbols must have equal length")
        if len(probs) < 2:
            raise ValueError("need at least two symbols")
        if len(set(symbols)) != len(symbols):
            raise ValueError("symbols must be distinct")
        if any(not (0 < p < 1) for p in probs):
            raise ValueError("every probability must lie strictly in (0, 1)")
        total = sum(probs)
        if abs(total - 1) > 1e-12:
            raise ValueError(f"probabilities sum to {float(total)}, not 1")
        object.__setattr__(self, "probs", tuple(p / total for p in probs))
        object.__setattr__(self, "symbols", symbols)

    @classmethod
    def fair_coin(cls) -> "BernoulliSpec":
        return cls((0.5, 0.5))

    def index_of(self, symbol) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ValueError(f"unknown symbol {symbol!r}") from None

    def prob_of(self, symbol) -> Fraction:
        return self.probs[self.index_of(symbol)]

    def to_json(self) -> dict:
        return {"probs": list(map(_json_fraction, self.probs)), "symbols": list(self.symbols)}

    @classmethod
    def from_json(cls, obj: dict) -> "BernoulliSpec":
        """Read a law the config schema has validated, ``{"probs": [numbers
        or "p/q" strings], "symbols": [ints or strings]}`` with symbols
        optional; the constructor reads and checks the probabilities."""
        symbols = obj.get("symbols", DEFAULT_SYMBOLS)
        return cls(tuple(obj.get("probs", ())), tuple(map(_json_symbol, symbols)))


@record(frozen=True)
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
        """The product measure of the law's exact probabilities; the empty
        cylinder has measure 1.  Positions do not matter, since the shift
        preserves the measure, so each probability is raised to its count."""
        out = Fraction(1)
        for symbol, count in Counter(s for _, s in self.constraints).items():
            out *= bern.prob_of(symbol) ** count
        return out

    def contains_batch(self, bern: BernoulliSpec, batch: SampleBatch) -> np.ndarray:
        """Boolean membership array for a sample batch drawn from ``bern``:
        a point is inside when every constrained position holds its symbol."""
        import numpy as np

        inside = np.ones(len(batch), dtype=bool)
        for pos, sym in self.constraints:
            inside &= batch.symbol_indices_at(pos) == bern.index_of(sym)
        return inside

    def to_json(self) -> list:
        return [[p, s] for p, s in self.constraints]

    @classmethod
    def from_json(cls, obj: list) -> "CylinderSet":
        """Read a list of ``[position, symbol]`` pairs the config schema
        has validated."""
        return cls(tuple((int(p), _json_symbol(s)) for p, s in obj))


@record(frozen=True)
class SystemSpec:
    """Which system, with its defining data: a rotation number exactly
    when the kind's map (``MAPS``) has a torus part, a Bernoulli law
    exactly when it has a shift part."""

    kind: str
    gamma: RotationNumber | None = None
    bernoulli: BernoulliSpec | None = None

    def __post_init__(self) -> None:
        if self.kind not in SYSTEM_KINDS:
            raise ValueError(f"unknown system kind {self.kind!r}")
        _, t, s = MAPS[self.kind]
        needs_gamma, needs_probs = bool(t), bool(s)
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
            parts.append("p=" + ",".join(str(_json_fraction(p)) for p in self.bernoulli.probs))
        return " ".join(parts)


# ---------------------------------------------------------------------------
# closed-form iteration and sampling
# ---------------------------------------------------------------------------


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """n independent generators derived from one seed.

    The command line hands generator i to the i-th system of a run, so the
    generator a system draws from depends only on the seed and the
    system's position, not on how many systems follow it or how much
    the systems before it drew.  A streamed estimate draws all its chunks
    from its one generator in turn, so its result depends on the seed and
    the chunk size (``SAMPLE_CHUNK``, ``CHUNK_SYMBOLS``) alone.
    """
    import numpy as np

    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


@record
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


def symbol_thresholds(bern: BernoulliSpec) -> tuple[int, ...]:
    """The exact cumulative sums C_i of the law as t_i = ceil(C_i 2^53),
    the last 2^53 (after Knuth and Yao 1976).  A uniform u = ``rng.random()``
    is (raw >> 11) 2^-53 for a generator word raw, so u >= C_i exactly when
    raw >> 11 >= t_i: symbol i is drawn with probability (t_i - t_{i-1})
    2^-53, within 2^-53 of its own, and never when t_i = t_{i-1}."""
    return tuple(math.ceil(c * 2**53) for c in accumulate(bern.probs))


def _draw_law(bern: BernoulliSpec) -> tuple[int, tuple[int, ...]]:
    """The width W of the field a symbol of ``bern`` is drawn from and the
    cuts it is compared with, read off the law's thresholds t_i
    (:func:`symbol_thresholds`).  If every t_i is a multiple of
    2^(53-W), the symbol depends only on the top W bits of raw >> 11, so
    any W-bit field of a generator word draws it exactly by the cuts t_i
    >> (53 - W), W the narrowest of 8, 16 and 32 that serves.  Otherwise W
    is 64: a symbol takes a whole word raw, and raw >> 11 >= t_i exactly
    when raw >= t_i << 11.  A threshold of 2^53 is never reached and has
    no cut; a law with no cut left takes a word a symbol too."""
    thresholds = symbol_thresholds(bern)
    common = math.gcd(*thresholds)  # its lowest set bit is the t_i's largest common power of 2
    bits = 54 - (common & -common).bit_length()
    width = next((w for w in (8, 16, 32) if bits <= w), 64) if common < 2**53 else 64
    return width, tuple(t << width >> 53 for t in thresholds if t < 2**53)


def _buffers(spec: SystemSpec, points: int, width: int) -> SimpleNamespace:
    """Empty buffers for batches of up to ``points`` points of ``width``
    positions: ``u``, ``v``, the window ``sym``, the law's ``field`` dtype
    and ``cuts`` of that type (:func:`_draw_law`; typed, a 64-bit
    comparison stays in integers under numpy 1.x), and a bool ``scratch``
    block of at most ``SAMPLE_CHUNK`` symbols.  What the system lacks is
    None."""
    import numpy as np

    _, t, s = MAPS[spec.kind]
    u = np.empty(points) if t else None
    v = np.empty(points) if len(t) > 1 else None
    if not s:
        return SimpleNamespace(points=points, width=width, u=u, v=v, sym=None)
    bits, cuts = _draw_law(spec.bernoulli)
    field = np.dtype(f"u{bits // 8}")
    return SimpleNamespace(
        points=points, width=width, u=u, v=v, field=field, cuts=tuple(map(field.type, cuts)),
        sym=np.empty((points, width), dtype=np.min_scalar_type(len(spec.bernoulli.probs) - 1)),
        scratch=np.empty(max(1, min(points * width, SAMPLE_CHUNK)), dtype=bool),
    )


def sample_batch(
    spec: SystemSpec,
    rng: np.random.Generator,
    n: int,
    positions: range = range(-8, 9),
    buffers: Optional[SimpleNamespace] = None,
) -> SampleBatch:
    """n points of the invariant measure, drawn from rng in one batch.

    Sequence components store the symbols at ``positions``, a contiguous
    range of sequence positions; a consumer passes the positions it
    reads, so no column is drawn that nothing reads.  Symbol indices are
    unsigned bytes for alphabets of up to 256 symbols.

    The window is drawn in row-major order, in blocks of at most
    ``SAMPLE_CHUNK`` symbols; a block of m symbols reads ceil(m W / 64)
    raw words (``bit_generator.random_raw``) as W-bit fields, W from
    :func:`_draw_law`, and a symbol's index is the number of the law's
    cuts its field reaches, one comparison pass per cut written into the
    window or added from the scratch.  A dyadic law of at most 32 bits is
    drawn exactly: a fair coin takes a byte a symbol.  Any other law takes
    a word a symbol: with u = ``rng.random()`` = (raw >> 11) 2^-53, the
    count of exact cumulative sums <= u, so each symbol is drawn within
    2^-53 of its probability and the generator ends where it would.

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
        sym, field, cuts, step = buffers.sym[:n], buffers.field, buffers.cuts, len(buffers.scratch)
        window = sym.reshape(-1)
        for start in range(0, window.size, step):
            block = window[start : start + step]
            m = len(block)
            draws = rng.bit_generator.random_raw(-(-m * field.itemsize // 8)).view(field)[:m]
            if not cuts:  # every threshold is 2^53: only the first symbol is drawn
                block.fill(0)
                continue
            np.greater_equal(draws, cuts[0], out=block)
            for c in cuts[1:]:
                block += np.greater_equal(draws, c, out=buffers.scratch[:m])
    return SampleBatch(spec=spec, u=u, v=v, sym=sym, anchor=positions.start)


def sample_chunks(
    spec: SystemSpec, rng: np.random.Generator, n: int, positions: range
) -> Iterator[SampleBatch]:
    """n points of the invariant measure as consecutive batches of at
    most ``SAMPLE_CHUNK`` points and ``CHUNK_SYMBOLS`` symbols (at least
    one point), each drawn from rng after the last by :func:`sample_batch`
    into one set of buffers sized to the first batch, so a yielded batch
    is valid only until the next one is drawn, and a consumer that
    reduces each batch holds one batch of memory whatever n is.  After
    its first batch the stream allocates only each block's raw words."""
    chunk = min(SAMPLE_CHUNK, max(1, CHUNK_SYMBOLS // max(len(positions), 1)))
    buffers = _buffers(spec, min(chunk, n), len(positions))
    for start in range(0, n, chunk):
        yield sample_batch(spec, rng, min(chunk, n - start), positions, buffers)


def iterate_batch(batch: SampleBatch, i: int) -> SampleBatch:
    """The i-th image S^i of every point, for any integer i (a negative
    lag inverts), by one closed form read off the kind's ``MAPS`` record.

    M is unipotent, so N = M - I has N^2 = 0 and S^i x = x + i N x +
    (i t + C(i,2) N t) gamma (mod 1) on the torus coordinates.  Each
    gamma-multiple is reduced exactly (``frac_multiple``) before any
    float touches it, so there is no accumulated drift; the sequence
    window only moves its anchor, by -i s.
    """
    spec = batch.spec
    M, t, s = MAPS[spec.kind]
    x = (batch.u, batch.v)[: len(t)]
    image = []
    for j, row in enumerate(M):
        n = [m - (k == j) for k, m in enumerate(row)]
        coordinate = sum((i * nk * xk for nk, xk in zip(n, x) if nk), x[j])
        multiple = i * t[j] + i * (i - 1) // 2 * sum(nk * tk for nk, tk in zip(n, t))
        image.append((coordinate + float(spec.gamma.frac_multiple(multiple))) % 1.0)
    u, v = (*image, None, None)[:2]
    return SampleBatch(spec=spec, u=u, v=v, sym=batch.sym, anchor=batch.anchor - i * s)
