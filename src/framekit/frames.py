"""Frames on the represented spaces and every frame-level computation.

A frame is a rank-indexed family of pairs (a_n, b_n): a vector in the space
and a represented functional on it.  A frame is given by its four coordinate
operators -- the analysis x -> (b_n(x)), the evaluation x* -> (x*(a_n)) and
the two syntheses c -> sum c_n a_n and c -> sum c_n b_n -- and everything
here is built from those and the norms the space descriptors provide, so the
same code runs the sequence-space, dyadic-grid and amalgam families.

Conventions used throughout:

* Every operation takes an explicit truncation N; nothing pretends to sum an
  infinite series.
* Every stochastic operation takes a seed.  Sample k of a unit ball is a
  fixed slice of one counter-based stream keyed by (seed, purpose, ball),
  so results do not depend on evaluation order, on how many samples are
  drawn at once, or on how many workers ran the loop.
* Unit-ball sample streams are keyed by the *ball* they live in, not by the
  role (primal/dual) they play.  A frame and its dual frame therefore consume
  mirrored streams, and since the besselian sum is symmetric under that
  mirror, one sweep gives both sides' constants (see duality_constant_check).
* Sums of nonnegative terms are exactly rounded (``math.fsum``, or in the
  sweep a certified array route with the same bits), so monotonicity in N
  and in sample count holds as stated, not just up to rounding luck.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterator, Optional

import numpy as np

from . import sums
from .spaces import (
    AmalgamFunction,
    DualSeq,
    GridFunction,
    SeqVector,
    amalgam_norm,
    amalgam_values_norm,
    conjugate_exponent,
    dyadic_step_coefficients,
    grid_lp_norm,
    grid_values_norm,
    l1_values_norm,
    linf_norm,
    lp_norm,
    sup_values_norm,
)

__all__ = [
    "DualRepresentationError",
    "SequenceSpace",
    "DualSequenceSpace",
    "GridSpace",
    "AmalgamSpace",
    "Frame",
    "UnconditionalResult",
    "derive_rng",
    "seeded_ball_point",
    "seeded_ball_points",
    "ball_pair_sweep",
    "frame_pair",
    "analysis_coefficient",
    "synthesis_partial",
    "coefficient_sequence",
    "coefficient_products",
    "besselian_sum",
    "check_schedule",
    "sweep_arrays",
    "estimate_frame_constant",
    "dual_frame",
    "unconditional_probe",
    "unconditional_sweep",
    "unconditional_deviation",
    "shrinking_tail",
    "boundedly_complete_tail",
    "clamped_tail",
    "duality_constant_check",
    "worst_tails",
    "covering_truncation",
    "frame_has_zero_elements",
]


class DualRepresentationError(ValueError):
    """Raised when a dual or bidual object has no finite representation."""


# ---------------------------------------------------------------------------
# seeded randomness
# ---------------------------------------------------------------------------


def _entropy(seed: int, *keys) -> int:
    """128 bits hashed from (seed, keys): distinct keys never collide."""
    import hashlib

    h = hashlib.sha256()
    h.update(str(int(seed)).encode())
    for k in keys:
        h.update(b"\x1f")
        h.update(str(k).encode())
    return int.from_bytes(h.digest()[:16], "little")


def derive_rng(seed: int, *keys) -> np.random.Generator:
    """Independent random stream derived from (seed, keys).

    The key material is hashed, so streams for different purposes or sample
    indices never collide and never depend on how many draws other streams
    made.  This is what keeps reports identical under parallel execution.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_entropy(seed, *keys))))


def _ball_blocks(space, seed: int, purpose: str, bounds: list) -> Iterator[np.ndarray]:
    """Coordinates of the seeded unit-ball points k0..k1-1, one block of
    rows per range (k0, k1) of bounds, which must follow each other
    (each k0 is the k1 before it).

    Each (seed, purpose, ball) has one counter-based Philox stream, and its
    sample k is the fixed-width slice of words [k w, (k+1) w), w =
    space.draw_width.  Philox yields four 64-bit words per counter value, so
    the first slice is reached by setting the counter, not by drawing up to
    it; the key is hashed and the counter set once, and each later block
    continues the stream (the generator buffers a counter that a block
    boundary splits).  No block's words are kept past its points.
    """
    if not bounds:
        return
    width = space.draw_width
    start = bounds[0][0] * width
    bits = np.random.Philox(key=_entropy(seed, purpose, *space.ball_key), counter=start // 4)
    if start % 4:
        bits.random_raw(start % 4)
    for k0, k1 in bounds:
        yield space.ball_points(bits.random_raw((k1 - k0) * width).reshape(k1 - k0, width))


def _uniforms(words: np.ndarray) -> np.ndarray:
    """One uniform per word, in the open interval (0, 1): never 0, 1/2 or 1.

    The value is (k + 1/2) 2^-52 for k = word >> 12, formed in place from
    the exponent bits: k | (1023 << 52) read as a double is 1 + k 2^-52, and
    subtracting the double 1 - 2^-53 from it is exact, since the difference
    (2k + 1) 2^-53 has 2k + 1 < 2^53."""
    u = words >> 12
    u |= np.uint64(0x3FF0000000000000)
    u = u.view(np.float64)
    u -= 1.0 - 2.0**-53
    return u


def _integers(words: np.ndarray, m: int) -> np.ndarray:
    """One integer in 0..m-1 per word, by an exact multiply-shift."""
    return ((words >> 32) * m) >> 32


def _normals(words: np.ndarray) -> np.ndarray:
    """Standard normals by Box-Muller, two per pair of words on the last
    axis (which must have even length); none is 0.

    The angle 2 pi u is rounded to float32 once and its cosine and sine are
    taken in float32, by numpy's vectorized kernels; the radius
    sqrt(-2 ln u) and the products stay float64 (float32 promotes exactly),
    so a direction is resolved to about 2^-24."""
    u = _uniforms(words)
    radius = np.sqrt(-2.0 * np.log(u[..., 0::2]))
    angle = ((2.0 * math.pi) * u[..., 1::2]).astype(np.float32)
    out = np.empty(u.shape)
    np.multiply(radius, np.cos(angle), out=out[..., 0::2])
    np.multiply(radius, np.sin(angle), out=out[..., 1::2])
    return out


# ---------------------------------------------------------------------------
# space descriptors
# ---------------------------------------------------------------------------

_SEQ_SAMPLE_MAX_INDEX = 24
_SEQ_SAMPLE_MAX_SUPPORT = 8
_SEQ_EXTREME_INDICES = 6
_SEQ_SIGN_PREFIX = 4
# The grid's extreme points are the dyadic steps of this level and coarser.
_GRID_EXTREME_LEVEL = 5
_AMALGAM_EXTREME_ATOMS_PER_CELL = 8
# Cap on an amalgam ball's extreme points, (cells x atoms) rows of cells x
# 2^J values, checked before anything is allocated: 2^23 values (64 MiB).
_AMALGAM_EXTREME_VALUES = 1 << 23
# The sup-norm sampler stays strictly inside the ball so random draws can
# never beat the exact extreme-point value 1 by a rounding ulp.
_SUP_BALL_RADIUS = 0.99


def _memo(build: Callable) -> property:
    """A read-only property built on first use and kept in the instance's
    __dict__.  Unlike functools.cached_property it takes no lock (on Python
    3.11 one lock per property serializes every instance's cold build), so
    threads build different instances' values side by side.  Threads racing
    on one instance may each build it; all of them get the first value
    stored (dict.setdefault)."""
    key = "_" + build.__name__

    def get(self):
        try:
            return self.__dict__[key]
        except KeyError:
            return self.__dict__.setdefault(key, build(self))

    return property(get, doc=build.__doc__)


class _Space:
    """What every space descriptor shares.

    A descriptor describes one normed space and its unit ball on coordinate
    arrays; ``coordinates`` / ``from_coordinates`` convert from and to its
    typed elements, of type ``element``, which ``element_norm`` measures.
    ``norm`` acts on the last axis, so an (S x d) matrix of coordinates gives
    S norms.  ``dual`` is the descriptor of the functionals the space
    represents, built once; ``dual_is_whole`` says whether they are the
    whole dual space.

    ``ball_points(words)`` turns an (S x draw_width) matrix of stream words
    into S unit-ball points, one per row, each from its own row's words only.
    The default draws a Gaussian direction and scales it onto the sphere.
    """

    element: ClassVar[type]
    dual_is_whole: ClassVar[bool] = True

    def _unit(self, values: np.ndarray) -> np.ndarray:
        """Each row of values scaled onto the unit sphere, in place: every
        caller passes an array it has just built and returns the result."""
        values /= self.norm(values)[..., None]
        return values

    @property
    def draw_width(self) -> int:
        size = self.zero().size
        return size + size % 2

    def ball_points(self, words: np.ndarray) -> np.ndarray:
        return self._unit(_normals(words)[:, : self.zero().size])

    @_memo
    def extremes(self) -> tuple[np.ndarray, np.ndarray]:
        """(extreme_ball_points(), their norms), both read-only: built on
        first use, once per descriptor, and set in one assignment."""
        points = self._extreme_points()
        norms = self.norm(points)
        points.flags.writeable = norms.flags.writeable = False
        return points, norms

    def extreme_ball_points(self) -> np.ndarray:
        """The deterministic unit-ball points the sweeps try first, one per
        row; the same read-only array on every call."""
        return self.extremes[0]

    @property
    def bidual_representable(self) -> bool:
        """Whether biduals are represented by the space's own elements: the
        links X -> X* and X* -> X** both reach the whole dual."""
        return self.dual_is_whole and self.dual.dual_is_whole


@dataclass(frozen=True)
class SequenceSpace(_Space):
    """The summable-sequence space: SeqVector elements, DualSeq functionals.
    Coordinates: x_1, ..., x_k of any length k, all later values 0."""

    element = SeqVector

    def describe(self) -> str:
        return "l1 sequence space"

    norm = staticmethod(l1_values_norm)

    def element_norm(self, x: SeqVector) -> float:
        return lp_norm(x, 1.0)

    def zero(self) -> np.ndarray:
        return np.zeros(0)

    def coordinates(self, x: SeqVector) -> np.ndarray:
        out = np.zeros(x.max_index)
        for i, v in x.entries:
            out[i - 1] = v
        return out

    def from_coordinates(self, values: np.ndarray) -> SeqVector:
        return SeqVector.from_dense(values)

    @staticmethod
    def values(coords: np.ndarray, N: int) -> np.ndarray:
        """x_1, ..., x_N of the sequences with these coordinates."""
        out = np.zeros(np.shape(coords)[:-1] + (N,))
        k = min(N, np.shape(coords)[-1])
        out[..., :k] = coords[..., :k]
        return out

    @_memo
    def dual(self) -> "DualSequenceSpace":
        return DualSequenceSpace()

    @property
    def ball_key(self) -> tuple:
        return ("seq-l1",)

    # Words per sample: the support size, one uniform per index (their
    # argsort is a random ordering of the indices), one normal per value.
    draw_width = 1 + _SEQ_SAMPLE_MAX_INDEX + _SEQ_SAMPLE_MAX_SUPPORT

    def ball_points(self, words: np.ndarray) -> np.ndarray:
        """Up to 8 Gaussian values on distinct random indices in 1..24."""
        size = 1 + _integers(words[:, 0], _SEQ_SAMPLE_MAX_SUPPORT)
        order = np.argsort(_uniforms(words[:, 1 : 1 + _SEQ_SAMPLE_MAX_INDEX]), kind="stable")
        vals = _normals(words[:, 1 + _SEQ_SAMPLE_MAX_INDEX :])
        vals[np.arange(_SEQ_SAMPLE_MAX_SUPPORT) >= size[:, None]] = 0.0
        out = np.zeros((len(words), _SEQ_SAMPLE_MAX_INDEX))
        np.put_along_axis(out, order[:, :_SEQ_SAMPLE_MAX_SUPPORT], vals, axis=1)
        return self._unit(out)

    def _extreme_points(self) -> np.ndarray:
        """The signed unit vectors +-e_1, ..., +-e_6, one per row."""
        signed = itertools.product(range(_SEQ_EXTREME_INDICES), (1.0, -1.0))
        out = np.zeros((2 * _SEQ_EXTREME_INDICES, _SEQ_EXTREME_INDICES))
        for row, (k, sign) in enumerate(signed):
            out[row, k] = sign
        return out


@dataclass(frozen=True)
class DualSequenceSpace(_Space):
    """Bounded sequences with sup norm; functionals represented by SeqVector.

    This is where the dual of the canonical sequence frame lives.  Only the
    summable part of its dual is representable, which is all the dual frame
    needs; the full dual has no finite description, so ``dual`` is only part
    of it and ``dual_frame`` refuses frames on this space.  Coordinates:
    mu_1, ..., mu_k, k >= 1, the last value repeating forever, so
    DualSeq(prefix, tail) has the coordinates prefix + (tail,).
    """

    element = DualSeq
    dual_is_whole = False

    def describe(self) -> str:
        return "bounded sequence space (sup norm)"

    norm = staticmethod(sup_values_norm)
    element_norm = staticmethod(linf_norm)

    def zero(self) -> np.ndarray:
        return np.zeros(1)

    def coordinates(self, x: DualSeq) -> np.ndarray:
        return np.array(x.prefix + (x.tail,))

    def from_coordinates(self, values: np.ndarray) -> DualSeq:
        return DualSeq(tuple(values[:-1]), values[-1])

    @staticmethod
    def values(coords: np.ndarray, N: int) -> np.ndarray:
        """mu_1, ..., mu_N of the sequences with these coordinates: the first
        ones copied, then the last one repeated by broadcast."""
        out = np.empty(np.shape(coords)[:-1] + (N,))
        k = min(N, np.shape(coords)[-1])
        out[..., :k] = coords[..., :k]
        out[..., k:] = coords[..., -1:]
        return out

    @staticmethod
    def finite(values: np.ndarray) -> np.ndarray:
        """Coordinates of the sequences with these values, then zeros."""
        values = np.asarray(values, dtype=float)
        return np.concatenate((values, np.zeros(values.shape[:-1] + (1,))), axis=-1)

    @_memo
    def dual(self) -> SequenceSpace:
        return SequenceSpace()

    @property
    def ball_key(self) -> tuple:
        return ("seq-linf",)

    # Words per sample: the prefix width, one uniform per prefix value and
    # one for the tail.
    draw_width = 2 + _SEQ_SAMPLE_MAX_INDEX

    def ball_points(self, words: np.ndarray) -> np.ndarray:
        """A prefix of 1..24 uniform values and a uniform tail, scaled to sup
        norm 0.99.  Rows have 25 coordinates: past the prefix, the tail."""
        width = 1 + _integers(words[:, 0], _SEQ_SAMPLE_MAX_INDEX)
        vals = 2.0 * _uniforms(words[:, 1:]) - 1.0
        past = np.arange(_SEQ_SAMPLE_MAX_INDEX + 1) >= width[:, None]
        vals = np.where(past, vals[:, -1:], vals)
        return _SUP_BALL_RADIUS * self._unit(vals)

    def _extreme_points(self) -> np.ndarray:
        """One sign pattern per row, with a constant +-1 tail after 4 terms."""
        # The constant-tail all-ones pattern goes first: it is the canonical
        # witness the shrinking probe wants to see checked before anything else.
        # Then the sign prefixes, sign j set by bit j of the pattern's index.
        signs = itertools.product((-1.0, 1.0), repeat=_SEQ_SIGN_PREFIX)
        prefixes = [bits[::-1] for bits in signs]
        rows = [(1.0,) * (_SEQ_SIGN_PREFIX + 1)]
        rows += [p + (t,) for t in (1.0, -1.0) for p in prefixes]
        return np.array(rows)


@dataclass(frozen=True)
class GridSpace(_Space):
    """L_p[0,1] modeled on the level-J dyadic grid; dual elements act by
    integration and carry the conjugate exponent's norm.  Coordinates: the
    2^J cell values; finer functions convert to their level-J cell averages."""

    p: float
    level: int
    element = GridFunction

    def __post_init__(self) -> None:
        if not 1.0 < self.p < math.inf:
            raise ValueError(f"grid space requires p in (1, inf), got {self.p}")
        if self.level < 0:
            raise ValueError(f"grid level must be >= 0, got {self.level}")

    def describe(self) -> str:
        return f"L_p[0,1] on the level-{self.level} dyadic grid (p={self.p:g})"

    def norm(self, values: np.ndarray):
        return grid_values_norm(values, self.p, self.level)

    def element_norm(self, x: GridFunction) -> float:
        return grid_lp_norm(x, self.p)

    def zero(self) -> np.ndarray:
        return np.zeros(2**self.level)

    def coordinates(self, x: GridFunction) -> np.ndarray:
        if x.level == self.level:
            return x.coefficients  # read-only, like every GridFunction's
        if x.level < self.level:
            return np.repeat(x.coefficients, 2 ** (self.level - x.level))
        sums = x.coefficients.reshape(2**self.level, -1).sum(axis=1)
        return sums * 2.0 ** (self.level - x.level)

    def from_coordinates(self, values: np.ndarray) -> GridFunction:
        return GridFunction(self.level, values)

    @_memo
    def dual(self) -> "GridSpace":
        return GridSpace(conjugate_exponent(self.p), self.level)

    @property
    def ball_key(self) -> tuple:
        return ("grid", self.level, self.p)

    def _extreme_points(self) -> np.ndarray:
        """The normalised dyadic step directions, coarsest first, one per row."""
        return self._unit(np.array([
            dyadic_step_coefficients(self.level, n)
            for n in range(1, 2 ** min(self.level, _GRID_EXTREME_LEVEL) + 1)
        ]))


@dataclass(frozen=True)
class AmalgamSpace(_Space):
    """The amalgam space on a finite window of unit cells at a fixed level.
    Coordinates: the window's cells as on GridSpace, left to right, in one
    flat array; mass outside the window is dropped."""

    p: float
    q: float
    window: tuple[int, int]
    level: int
    element = AmalgamFunction

    def __post_init__(self) -> None:
        for name, v in (("p", self.p), ("q", self.q)):
            if not 1.0 < v < math.inf:
                raise ValueError(f"amalgam space requires {name} in (1, inf), got {v}")
        lo, hi = self.window
        if int(lo) > int(hi):
            raise ValueError(f"window must satisfy m_lo <= m_hi, got {self.window}")
        object.__setattr__(self, "window", (int(lo), int(hi)))
        if self.level < 0:
            raise ValueError(f"grid level must be >= 0, got {self.level}")
        cells = int(hi) - int(lo) + 1
        atoms = min(_AMALGAM_EXTREME_ATOMS_PER_CELL, 2 ** min(self.level, _GRID_EXTREME_LEVEL))
        rows, width = cells * atoms, cells * 2**self.level
        if rows * width > _AMALGAM_EXTREME_VALUES:
            raise ValueError(
                f"amalgam extreme points hold at most {_AMALGAM_EXTREME_VALUES} values, "
                f"got {rows} x {width} (window {self.window}, J={self.level})"
            )

    def describe(self) -> str:
        lo, hi = self.window
        return (
            f"amalgam (L_p, l_q) on cells [{lo}, {hi}] at level {self.level} "
            f"(p={self.p:g}, q={self.q:g})"
        )

    def cells(self, values: np.ndarray) -> np.ndarray:
        """values with the last axis split into (cells, 2^J)."""
        cell = 2**self.level
        return np.reshape(values, np.shape(values)[:-1] + (np.shape(values)[-1] // cell, cell))

    def norm(self, values: np.ndarray):
        return amalgam_values_norm(self.cells(values), self.p, self.q, self.level)

    def element_norm(self, x: AmalgamFunction) -> float:
        return amalgam_norm(x, self.p, self.q)

    def zero(self) -> np.ndarray:
        lo, hi = self.window
        return np.zeros((hi - lo + 1) * 2**self.level)

    def coordinates(self, x: AmalgamFunction) -> np.ndarray:
        grid, (lo, hi) = GridSpace(self.p, self.level), self.window
        return np.concatenate([
            grid.coordinates(x.cells[m]) if m in x.cells else grid.zero()
            for m in range(lo, hi + 1)
        ])

    def from_coordinates(self, values: np.ndarray) -> AmalgamFunction:
        cells = enumerate(self.cells(values), start=self.window[0])
        return AmalgamFunction(self.window, {m: GridFunction(self.level, c) for m, c in cells})

    @_memo
    def dual(self) -> "AmalgamSpace":
        return AmalgamSpace(
            conjugate_exponent(self.p), conjugate_exponent(self.q), self.window, self.level
        )

    @property
    def ball_key(self) -> tuple:
        return ("amalgam", self.level, self.window, self.p, self.q)

    def _extreme_points(self) -> np.ndarray:
        """Each cell's first grid extreme points, placed in that cell."""
        steps = GridSpace(self.p, self.level).extreme_ball_points()
        steps = steps[:_AMALGAM_EXTREME_ATOMS_PER_CELL]
        width = len(self.cells(self.zero()))
        out = np.zeros((width, len(steps), width, steps.shape[1]))
        for cell in range(width):
            out[cell, :, cell] = steps
        return out.reshape(width * len(steps), -1)


def _ball_block(space, seed: int, purpose: str, k0: int, k1: int) -> np.ndarray:
    """Coordinates of the seeded unit-ball points k0..k1-1, one per row."""
    return next(_ball_blocks(space, seed, purpose, [(k0, k1)]))


def _ball_point(space, seed: int, purpose: str, k: int) -> np.ndarray:
    """Coordinates of seeded_ball_point(space, seed, purpose, k)."""
    return _ball_block(space, seed, purpose, k, k + 1)[0]


def seeded_ball_point(space, seed: int, purpose: str, k: int):
    """The k-th seeded random point of space's unit ball for one purpose.

    It is row k of every block draw that holds sample k.  The stream is
    keyed by (seed, purpose, the ball's identity), not by the role the point
    plays, so a frame and its dual frame draw mirrored points, and no draw
    depends on how many other draws were made.
    """
    return space.from_coordinates(_ball_point(space, seed, purpose, k))


def seeded_ball_points(space, seed: int, purpose: str, count: int) -> list:
    """seeded_ball_point(space, seed, purpose, k) for k = 0..count-1, drawn
    as one block."""
    return [space.from_coordinates(row) for row in _ball_block(space, seed, purpose, 0, count)]


# ---------------------------------------------------------------------------
# the frame itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Frame:
    """A rank-indexed family of (vector, functional) pairs on one space,
    given by its four coordinate operators.

    They act on the last axis of coordinate arrays of ``space`` and
    ``space.dual``, so an (S x d) matrix is S points at once:
    ``coeff_batch(x, N)`` returns the array of b_n(x) and
    ``eval_batch(xstar, N)`` the array of xstar(a_n), n = 1..N;
    ``synth_batch(c)`` returns sum c_n a_n and ``dual_synth_batch(c)`` returns
    sum c_n b_n, n = 1..len(c).  They must be deterministic and linear, so the
    rank-n pair is the synthesis of the n-th unit coefficient vector.
    ``eval_batch is coeff_batch`` states that a_n = b_n.
    ``max_rank`` bounds the representable ranks (None = every rank is valid).
    ``full_truncation`` is the rank horizon after which every representable
    element of the space is reconstructed exactly, when such a horizon exists.
    ``covering`` maps an element to its smallest exact truncation, or None.
    """

    space: object
    label: str
    coeff_batch: Callable  # (x, N) -> ndarray of b_n(x)
    eval_batch: Callable  # (xstar, N) -> ndarray of xstar(a_n)
    synth_batch: Callable  # ndarray c -> sum c_n a_n
    dual_synth_batch: Callable  # ndarray c -> sum c_n b_n
    max_rank: Optional[int] = None
    full_truncation: Optional[int] = None
    covering: Callable = lambda x: None  # typed element -> truncation or None
    # Per-frame records of work that depends only on the frame and a
    # truncation, never on a seed or a budget.  Each tuple is replaced
    # whole, never edited, and its arrays are read-only, so threads sharing
    # the frame see one consistent record.
    # What the zero-pair scan has found so far: (ranks scanned, the first
    # rank with a zero vector or functional, the first rank whose pair is
    # not zero in both slots), inf where no scanned rank has it.
    _zero_ranks: tuple = field(default=(0, math.inf, math.inf), init=False, repr=False)
    # The extreme pairs' sums at the last schedule swept: (schedule, the
    # flat indices i m + j of the pairs _extreme_rows sums, their sums).
    _extreme_sums: Optional[tuple] = field(default=None, init=False, repr=False)
    # The atoms' nonzero entries at the last largest truncation probed:
    # (top, ranks, values), sums.nonzero_columns of the unit syntheses.
    _atoms: Optional[tuple] = field(default=None, init=False, repr=False)


def _integer(name: str, value) -> int:
    """value as an int: a Python or numpy integer, never a bool or a float
    (a float count would fail deep inside a suite, a float seed would hash
    as its truncation, and a sweep summed to truncation 1.5 as to 2)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_schedule(schedule) -> tuple[int, ...]:
    """schedule as a tuple of ints; ValueError unless it is a non-empty,
    strictly increasing sequence of positive integer truncations."""
    schedule = tuple(_integer("schedule entry", n) for n in schedule)
    if not schedule or any(n < 1 for n in schedule):
        raise ValueError(f"schedule must hold positive truncations, got {schedule}")
    if any(a >= b for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"schedule must be strictly increasing, got {schedule}")
    return schedule


def _check_rank(F: Frame, n: int) -> None:
    if n < 1:
        raise ValueError(f"frame ranks start at 1, got {n}")
    if F.max_rank is not None and n > F.max_rank:
        raise ValueError(f"frame {F.label!r} defines ranks 1..{F.max_rank}, got {n}")


def frame_pair(F: Frame, n: int) -> tuple:
    """The rank-n pair (a_n, b_n): both syntheses of the n-th unit vector."""
    _check_rank(F, n)
    unit = np.zeros(n)
    unit[-1] = 1.0
    return (
        F.space.from_coordinates(F.synth_batch(unit)),
        F.space.dual.from_coordinates(F.dual_synth_batch(unit)),
    )


# Unit coefficient vectors are synthesized this many ranks at a time.
_UNIT_BLOCK = 64


def _unit_rows(n0: int, n1: int, width: int) -> np.ndarray:
    """The unit coefficient vectors of the 0-based ranks n0..n1-1, as rows
    of length width."""
    units = np.zeros((n1 - n0, width))
    units[np.arange(n1 - n0), np.arange(n0, n1)] = 1.0
    return units


def _coordinates(space, x) -> np.ndarray:
    """x's coordinates in space; ValueError unless x is an element of it."""
    if not isinstance(x, space.element):
        raise ValueError(f"{type(x).__name__} is not an element of {space.describe()}")
    return space.coordinates(x)


def analysis_coefficient(F: Frame, n: int, x) -> float:
    """The n-th coefficient b_n(x)."""
    values = _coordinates(F.space, x)
    _check_rank(F, n)
    return float(F.coeff_batch(values, n)[n - 1])


def synthesis_partial(F: Frame, x, N: int):
    """The partial expansion S_N x = sum_{n<=N} b_n(x) a_n."""
    values = _coordinates(F.space, x)
    if N < 0:
        raise ValueError(f"truncation must be >= 0, got {N}")
    partial = F.synth_batch(F.coeff_batch(values, N)) if N else F.space.zero()
    return F.space.from_coordinates(partial)


def coefficient_products(F: Frame, x, xstar, N: int) -> np.ndarray:
    """Array of the N products b_n(x) * xstar(a_n), n = 1..N."""
    values = _coordinates(F.space, x)
    dual_values = _coordinates(F.space.dual, xstar)
    _check_rank(F, N)
    return F.coeff_batch(values, N) * F.eval_batch(dual_values, N)


def coefficient_sequence(F: Frame, x, xstar, N: int) -> SeqVector:
    """The first N coefficient products as a finitely supported sequence."""
    return SeqVector.from_dense(coefficient_products(F, x, xstar, N))


def besselian_sum(F: Frame, x, xstar, N: int) -> float:
    """sum_{n<=N} |b_n(x)| |xstar(a_n)|, exactly rounded; nondecreasing in N."""
    return float(l1_values_norm(coefficient_products(F, x, xstar, N)))


# Sample blocks and probe chunks hold about this many values at a time.
_BLOCK_VALUES = 1 << 15


def _block_rows(*widths: int) -> int:
    """Rows per block when a row is as wide as the widest of widths: as many
    as fit in _BLOCK_VALUES values, and at least one."""
    return max(1, _BLOCK_VALUES // max(widths))


def _sample_blocks(samples: int, *widths: int) -> list[tuple[int, int]]:
    """The sample ranges k0..k1-1, _block_rows(*widths) samples at a time."""
    if samples < 0:
        raise ValueError(f"sample count must be >= 0, got {samples}")
    rows = _block_rows(*widths)
    return [(k, min(samples, k + rows)) for k in range(0, samples, rows)]


def ball_pair_sweep(space, samples: int, seed: int) -> Iterator[tuple]:
    """Deterministic sweep of unit-ball pairs: extreme points, then samples.

    This single sweep is shared by the constant estimate and by the bound
    checks run against it, so the estimate's budget is always a superset of
    the checked pairs.  Random draws are keyed by the ball's identity, which
    mirrors the streams between a frame and its dual frame.  x and xstar
    never share a buffer.
    """
    dual = space.dual
    extremes = itertools.product(space.extreme_ball_points(), dual.extreme_ball_points())
    bounds = _sample_blocks(samples, space.draw_width, dual.draw_width)
    x_blocks = _ball_blocks(space, seed, "ball", bounds)
    xstar_blocks = _ball_blocks(dual, seed, "ball", bounds)
    draws = itertools.chain.from_iterable(map(zip, x_blocks, xstar_blocks))
    for x, xstar in itertools.chain(extremes, draws):
        yield space.from_coordinates(x), dual.from_coordinates(xstar)


# The sweep's prefix sums take at most this many terms at a time.
_PREFIX_CHUNK = 1 << 14


def _live_columns(schedule: tuple[int, ...], *factors: np.ndarray) -> tuple[list, tuple]:
    """(factors, cut): the factors cut to column 0 and every column where
    some row of each factor is nonzero (NaN and inf count as nonzero), and
    each truncation N of the schedule as the number of those columns
    before rank N (never 0, since column 0 is kept)."""
    live = (factors[0] != 0.0).any(axis=0)
    for f in factors[1:]:
        live &= (f != 0.0).any(axis=0)
    live[0] = True
    columns = np.flatnonzero(live)
    cut = tuple(np.searchsorted(columns, schedule).tolist())
    if columns[-1] == len(columns) - 1:  # a leading run: views, no copies
        return [f[:, : len(columns)] for f in factors], cut
    return [f[:, columns] for f in factors], cut


def _prefix_rows(products: np.ndarray, schedule: tuple[int, ...], out: np.ndarray) -> None:
    """Exactly rounded prefix sums of |products| per row, written to out (a
    rows x len(schedule) array), at most _PREFIX_CHUNK terms per call;
    products is overwritten.

    Only the live columns are summed (_live_columns): the others hold +0.0
    in every row, and a +0.0 term changes no exactly rounded sum.
    """
    (terms,), cut = _live_columns(schedule, np.abs(products, out=products))
    step = max(1, _PREFIX_CHUNK // terms.shape[-1])
    for i in range(0, len(terms), step):
        out[i : i + step] = sums.prefix_sums(terms[i : i + step], cut)


def _evaluate(F: Frame, x: np.ndarray, xstar: np.ndarray, N: int) -> tuple:
    """(b_n(x), xstar(a_n)) to rank N, one row per point; a family with
    a_n = b_n analyses a point that serves both roles once."""
    coeffs = F.coeff_batch(x, N)
    if xstar is x and F.eval_batch is F.coeff_batch:
        return coeffs, coeffs
    return coeffs, F.eval_batch(xstar, N)


def _extreme_rows(F: Frame, schedule: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(index, sums) of the extreme pairs that can have a nonzero sum: their
    flat indices i m + j, x-major as ball_pair_sweep yields them (m
    evaluation rows), and their _prefix_rows of |b_n(x) xstar(a_n)|, at most
    _PREFIX_CHUNK terms (at least one pair) at a time.  Every other pair's
    sums are +0.0.

    They depend on the frame and the schedule only, so they are F's record
    (F._extreme_sums), computed when it holds another schedule.  Finite
    factors are cut first to their live columns (_live_columns), and only
    the pairs sharing one are summed (counted by a product of 0/1 masks,
    exact): every other pair's terms are +0.0.  A non-finite factor can
    make a product NaN (inf * 0), so then every pair is summed, its whole
    product formed.
    """
    record = F._extreme_sums
    if record is not None and record[0] == schedule:
        return record[1], record[2]
    space, dual = F.space, F.space.dual
    xs = space.extremes[0]
    xstars = xs if dual == space else dual.extremes[0]
    coeffs, evals = _evaluate(F, xs, xstars, schedule[-1])
    m, cut = len(evals), schedule
    if np.isfinite(coeffs).all() and np.isfinite(evals).all():
        (coeffs, evals), cut = _live_columns(schedule, coeffs, evals)
        i, j = np.nonzero((coeffs != 0.0).astype(float) @ (evals != 0.0).astype(float).T)
    else:
        i, j = np.divmod(np.arange(len(coeffs) * m), m)
    found = np.empty((len(i), len(schedule)))
    step = max(1, _PREFIX_CHUNK // evals.shape[-1])
    for k in range(0, len(i), step):
        pairs = slice(k, k + step)
        _prefix_rows(coeffs[i[pairs]] * evals[j[pairs]], cut, found[pairs])
    index = i * m + j
    index.flags.writeable = found.flags.writeable = False
    object.__setattr__(F, "_extreme_sums", (schedule, index, found))
    return index, found


def sweep_arrays(
    F: Frame, schedule: tuple[int, ...], samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(||x||, ||xstar||, sums) over the unit-ball pair sweep, in
    ball_pair_sweep's order: sums is a pairs x len(schedule) array of the
    besselian sums at each truncation of the schedule, which must pass
    check_schedule.

    The extreme pairs' rows are F's record at this schedule (_extreme_rows),
    scattered into zeros, and their norms the ones each descriptor keeps
    beside its extreme points (``space.extremes``); neither depends on the
    seed or the sample count.  The random pairs go through the operators
    and norms as matrices, a block at a time, with N and both draw widths
    setting the block's rows and each ball's blocks continuing one keyed
    stream (_ball_blocks).  The sums are exactly rounded (bit for bit
    ``math.fsum``, see sums.prefix_sums), so monotone in N with no rounding
    caveats.  A self-dual ball is drawn and measured once for x and xstar,
    and a family with a_n = b_n analysed once for both roles; neither moves
    a bit.
    """
    schedule = check_schedule(schedule)
    N = schedule[-1]
    space, dual = F.space, F.space.dual
    bounds = _sample_blocks(samples, N, space.draw_width, dual.draw_width)
    _check_rank(F, N)
    self_dual = dual == space

    x_norms = space.extremes[1]
    xstar_norms = x_norms if self_dual else dual.extremes[1]
    m = len(x_norms) * len(xstar_norms)
    nx, nxs = np.empty(m + samples), np.empty(m + samples)
    S = np.empty((m + samples, len(schedule)))
    grid = (len(x_norms), len(xstar_norms))
    nx[:m].reshape(grid)[:] = x_norms[:, None]
    nxs[:m].reshape(grid)[:] = xstar_norms
    index, found = _extreme_rows(F, schedule)
    S[:m] = 0.0
    S[index] = found
    x_blocks = _ball_blocks(space, seed, "ball", bounds)
    xstar_blocks = None if self_dual else _ball_blocks(dual, seed, "ball", bounds)
    for (k0, k1), x in zip(bounds, x_blocks):
        rows = slice(m + k0, m + k1)
        xstar = x if self_dual else next(xstar_blocks)
        nx[rows] = space.norm(x)
        nxs[rows] = nx[rows] if xstar is x else dual.norm(xstar)
        coeffs, evals = _evaluate(F, x, xstar, N)
        _prefix_rows(coeffs * evals, schedule, S[rows])
    return nx, nxs, S


def estimate_frame_constant(F: Frame, N: int, samples: int, seed: int) -> float:
    """Max of besselian_sum over the deterministic unit-ball pair sweep.

    A lower bound for the frame constant at truncation N, nondecreasing in
    both N and the sample count (per-sample seeding keeps earlier samples
    fixed as the budget grows); NaN when some swept sum is NaN.
    """
    if samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
    return float(sweep_arrays(F, (N,), samples, seed)[2].max())


def dual_frame(F: Frame) -> Frame:
    """The frame ((b_n, a_n)) on the dual space.

    Vectors and functionals swap roles, and so do the operator pairs; on
    reflexive spaces the bidual element attached to a_n is represented by a_n
    itself.  Raises DualRepresentationError when the functionals the space
    represents are only part of its dual: the dual frame would then need a
    space with no finite representation.
    """
    if not F.space.dual_is_whole:
        raise DualRepresentationError(
            f"the dual of the {F.space.describe()} has no finite representation"
        )
    return Frame(
        space=F.space.dual,
        label=F.label + "*",
        coeff_batch=F.eval_batch,
        eval_batch=F.coeff_batch,
        synth_batch=F.dual_synth_batch,
        dual_synth_batch=F.synth_batch,
        max_rank=F.max_rank,
        full_truncation=F.full_truncation,
    )


# ---------------------------------------------------------------------------
# unconditionality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnconditionalResult:
    """Outcome of the permutation/sign probe at one truncation."""

    truncation: int
    trials: int
    deviation: float  # max over trials of ||S_{pi,N} x - S_N x||
    sign_flip_norm: float  # max over trials of ||sum eps_n b_n(x) a_n||


def unconditional_sweep(
    F: Frame, elements, schedule: tuple[int, ...], trials: int, seed: int,
    draws: Optional[dict] = None,
) -> list[list[UnconditionalResult]]:
    """unconditional_probe for every element at every truncation of the
    schedule: one list of results per truncation, in the elements' order.

    The atoms' nonzero entries, coordinate by coordinate, are F's record at
    the schedule's largest truncation (_atom_table), cut down for the
    smaller ones; they depend on the frame only.  Each element is analysed
    once at the schedule's largest truncation: its analysis at rank N is the
    first N columns of that.  A truncation where no coordinate has two live
    atoms is order-free: no permutation or sign pattern can change its
    norms, so none is drawn.  Where order can matter, the trials' draws at
    truncation N come from draws, a table mapping (seed, trials, N) to
    read-only (position, signs) arrays (_trial_draws), which verify.run_all
    shares between a run's specs.  For the truncations missing from it, each
    trial's stream is derived once and rewound for each, and the draws are
    added.  One permutation and sign pattern per (trial, truncation) serve
    every element.
    """
    elements = [_coordinates(F.space, x) for x in elements]
    for N in schedule:
        if N < 1:
            raise ValueError(f"truncation must be >= 1, got {N}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not schedule:
        return []
    top = max(schedule)
    ranks, values = _atom_table(F, top)
    cuts = [sums.columns_upto(ranks, values, N) for N in schedule]
    draws = {} if draws is None else draws
    missing = {
        N for N, (r, _) in zip(schedule, cuts) if len(r) > 1 and (seed, trials, N) not in draws
    }
    if missing:
        rngs = [derive_rng(seed, "unconditional", t) for t in range(trials)]
        starts = [rng.bit_generator.state for rng in rngs]
        for N in missing:
            # Another task of the run may have added the same key meanwhile:
            # an entry is a function of its key, and setdefault keeps the
            # first, so the race needs no lock.
            draws.setdefault((seed, trials, N), _trial_draws(rngs, starts, N))
    coeffs = np.reshape([F.coeff_batch(x, top) for x in elements], (len(elements), top))
    return [
        _ordering_probe(F, coeffs[:, :N], trials, draws.get((seed, trials, N)), *cut)
        for N, cut in zip(schedule, cuts)
    ]


def _atom_table(F: Frame, top: int) -> tuple[np.ndarray, np.ndarray]:
    """(ranks, values): sums.nonzero_columns of the syntheses of the unit
    vectors of ranks 1..top, a block of ranks at a time.  They depend on the
    frame only, so they are F's record (F._atoms), built anew when it holds
    another top.  A table kept from a larger top would serve a smaller one
    too, but on a family whose coordinates grow with N (l1) it is wider,
    and every later probe would work across the extra columns."""
    record = F._atoms
    if record is None or record[0] != top:
        ranks, values = sums.nonzero_columns(
            (n0, F.synth_batch(_unit_rows(n0, min(top, n0 + _UNIT_BLOCK), top)))
            for n0 in range(0, top, _UNIT_BLOCK)
        )
        ranks.flags.writeable = values.flags.writeable = False
        record = (top, ranks, values)
        object.__setattr__(F, "_atoms", record)
    return record[1], record[2]


def _trial_draws(rngs: list, starts: list, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(position, signs), two read-only trials x N arrays: trial t draws its
    permutation perm and then its signs from the start of its stream, and
    position[t, perm[i]] = i is the place it draws each rank at."""
    perms, signs = np.empty((len(rngs), N), dtype=np.intp), np.empty((len(rngs), N))
    for t, (rng, start) in enumerate(zip(rngs, starts)):
        rng.bit_generator.state = start
        perms[t] = rng.permutation(N)
        signs[t] = rng.integers(0, 2, size=N) * 2 - 1
    position = np.empty_like(perms)
    np.put_along_axis(position, perms, np.arange(N), axis=-1)
    position.flags.writeable = signs.flags.writeable = False
    return position, signs


def _ordering_probe(
    F: Frame, coeffs: np.ndarray, trials: int, trial_draws: Optional[tuple],
    ranks: np.ndarray, values: np.ndarray,
) -> list[UnconditionalResult]:
    # coeffs holds each element's analysis to the truncation N, one per row.
    # Each sum adds only the atoms' nonzero entries, in the trial's order;
    # the zero terms left out could change only the sign of a zero sum.
    count, N = coeffs.shape
    # The terms of every sum; a sign flip scales them by +-1, exactly.
    products = coeffs[:, ranks] * values
    bases = sums.in_order(products)
    if len(ranks) <= 1:
        # At most one live atom per coordinate: every order adds each
        # coordinate's one term alike, so permuted - bases is bases - bases
        # bit for bit, NaN and inf included.  Every descriptor's norm is a
        # lattice norm, a function of |values| (each takes np.abs first),
        # so every sign pattern has the norm of bases.
        deviations, flip_norms = F.space.norm(bases - bases), F.space.norm(bases)
    else:
        position, signs = trial_draws
        flat = products.reshape(count, ranks.size)
        live, width = values != 0.0, values.shape[-1]
        deviations = flip_norms = np.zeros(count)
        step = max(1, _BLOCK_VALUES // max(1, count * values.size))
        for t0 in range(0, trials, step):
            chunk = slice(t0, t0 + step)
            # Each column's entries in the order the trial draws their ranks.
            drawn_at = np.take(position[chunk], ranks, axis=1)
            drawn = np.argsort(np.where(live, drawn_at, N), axis=-2, kind="stable")
            permuted = sums.in_order(np.take(flat, drawn * width + np.arange(width), axis=1))
            flipped = sums.in_order(np.take(signs[chunk], ranks, axis=1)[:, None] * products)
            deviations = np.maximum(
                deviations, F.space.norm(permuted - bases[:, None]).max(axis=1)
            )
            flip_norms = np.maximum(flip_norms, F.space.norm(flipped).max(axis=0))
    return [
        UnconditionalResult(
            truncation=N, trials=trials, deviation=float(dev), sign_flip_norm=float(flip)
        )
        for dev, flip in zip(deviations, flip_norms)
    ]


def unconditional_probe(
    F: Frame, x, N: int, trials: int, seed: int
) -> UnconditionalResult:
    """Rearrangement sensitivity of the N-term expansion of x.

    Each trial draws a permutation of {1..N} and a sign pattern.  The
    deviation compares the permuted accumulation against the identity-order
    accumulation computed the same way, so it isolates the effect of the
    ordering alone.  The sign-flipped partial-sum norm is recorded as the
    companion boundedness figure.
    """
    return unconditional_sweep(F, (x,), (N,), trials, seed)[0][0]


def unconditional_deviation(F: Frame, x, N: int, trials: int, seed: int) -> float:
    """Max over trials of ||S_{pi,N} x - S_N x||; see unconditional_probe."""
    return unconditional_probe(F, x, N, trials, seed).deviation


# ---------------------------------------------------------------------------
# shrinking / boundedly complete tails
# ---------------------------------------------------------------------------


def _tail_norms(coeffs: np.ndarray, synthesis, norm, N: int, M: int):
    """Norm of the synthesis of ranks N+1..M of each row of coefficients
    (the last axis, at least M long); every operator acts row by row, so a
    row's value does not depend on the other rows."""
    tail = coeffs[..., :M].copy()
    tail[..., :N] = 0.0
    return norm(synthesis(tail))


def _check_horizon(N: int, M: int) -> None:
    if not 0 <= N < M:
        raise ValueError(f"need horizon M > truncation N >= 0, got N={N}, M={M}")


def shrinking_tail(F: Frame, xstar, N: int, M: int) -> float:
    """Dual-space norm of sum_{N<n<=M} xstar(a_n) b_n."""
    values = _coordinates(F.space.dual, xstar)
    _check_horizon(N, M)
    coeffs = F.eval_batch(values, M)
    return float(_tail_norms(coeffs, F.dual_synth_batch, F.space.dual.norm, N, M))


def boundedly_complete_tail(F: Frame, xss, N: int, M: int) -> float:
    """Primal norm of sum_{N<n<=M} xss(b_n) a_n, for xss given through the
    primal (reflexive identification).  Rejected when biduals have no finite
    representation on F's space."""
    if not F.space.bidual_representable:
        raise DualRepresentationError(
            f"bidual elements of {F.space.describe()} have no finite representation"
        )
    values = _coordinates(F.space, xss)
    _check_horizon(N, M)
    coeffs = F.coeff_batch(values, M)
    return float(_tail_norms(coeffs, F.synth_batch, F.space.norm, N, M))


def duality_constant_check(
    F: Frame, N: int, samples: int, seed: int
) -> tuple[float, float]:
    """(constant estimate of F, constant estimate of the dual frame).

    The besselian sum is symmetric under the mirror: swapping every pair
    (a_n, b_n) and the pair (x, xstar) leaves sum |b_n(x)| |xstar(a_n)|
    unchanged, term by term.  So the dual frame's sums over F's sweep
    mirrored are F's sums, and one sweep gives both sides' constants at the
    same truncation and budget.  (The dual frame's own sweep draws those
    mirrored pairs, since draws are keyed by ball identity, whenever its
    second ball is F's first exactly.)  A frame whose dual has no finite
    representation still raises DualRepresentationError, from dual_frame.
    """
    if not F.space.dual_is_whole:
        dual_frame(F)
    lhat = estimate_frame_constant(F, N, samples, seed)
    return lhat, lhat


# ---------------------------------------------------------------------------
# the reflexivity probe's tails
# ---------------------------------------------------------------------------

# Each tail runs from the truncation N to the horizon M = 2N.
_HORIZON_FACTOR = 2
# Deterministic extreme points tried ahead of each leg's random candidates.
_EXTREME_CANDIDATES = 4
# A leg's tail arrays hold at most this many values (128 KiB): past that,
# glibc's allocator maps fresh pages for every truncation's temporaries,
# which cost more than the calls that larger arrays save.
_TAIL_VALUES = 1 << 14
# Zero-pair scans stop at this rank: they synthesize the pairs a block of
# ranks at a time, and the catalog's zero pairs show up within the first
# few ranks.
_ZERO_SCAN_CAP = 512


def covering_truncation(F: Frame, x) -> Optional[int]:
    """Smallest truncation after which the expansion of x is exact, if the
    frame knows one for this element; None when no finite horizon applies."""
    _coordinates(F.space, x)  # rejects x outside F's space
    return F.covering(x)


def _zero_pair_scan(F: Frame, upto: int) -> tuple[bool, bool]:
    """(some pair has a zero vector or functional, every pair is zero in both
    slots) over the ranks up to h = min(upto, max_rank, _ZERO_SCAN_CAP).

    Both answers follow from F's record of its first zero and first live
    rank.  The record grows only when h lies past the ranks scanned while
    one of the two is still unknown: the next ranks are synthesized a block
    at a time, each rank once per frame, and the scan stops at h or at the
    end of the block where both are known.  A self-dual family
    (``dual_synth_batch is synth_batch``) is synthesized once per block.
    """
    h = min(upto, _ZERO_SCAN_CAP, F.max_rank or upto)
    scanned, first_zero, first_live = F._zero_ranks
    if h > scanned and math.inf in (first_zero, first_live):
        for n0 in range(scanned, h, _UNIT_BLOCK):
            scanned = min(h, n0 + _UNIT_BLOCK)
            units = _unit_rows(n0, scanned, scanned)
            live_a = F.synth_batch(units).any(axis=-1)
            live_b = live_a
            if F.dual_synth_batch is not F.synth_batch:
                live_b = F.dual_synth_batch(units).any(axis=-1)
            zero, live = np.flatnonzero(~(live_a & live_b)), np.flatnonzero(live_a | live_b)
            if first_zero == math.inf and zero.size:
                first_zero = n0 + int(zero[0]) + 1
            if first_live == math.inf and live.size:
                first_live = n0 + int(live[0]) + 1
            if math.inf not in (first_zero, first_live):
                break
        object.__setattr__(F, "_zero_ranks", (scanned, first_zero, first_live))
    return first_zero <= h, h >= 1 and first_live > h


def frame_has_zero_elements(F: Frame, upto: int) -> bool:
    """True when some pair at rank <= upto has a zero vector or functional;
    at most the first 512 ranks are scanned, each once per frame."""
    return _zero_pair_scan(F, upto)[0]


def clamped_tail(tail_fn, F: Frame, candidate, N: int, M: int) -> float:
    """tail_fn(F, candidate, N, M) with M clamped to F's max rank; 0.0 when
    no rank is left past N.

    Ranks past the frame's representable range pair every representable
    input to a zero coefficient (finer oscillations integrate level-bounded
    data to nothing), so clamping the horizon there is exact, not an
    approximation.
    """
    if F.max_rank is not None:
        M = min(M, F.max_rank)
    if M <= N:
        return 0.0
    return tail_fn(F, candidate, N, M)




def worst_tails(F: Frame, dual: bool, schedule, samples: int, seed: int) -> list[float]:
    """Per truncation N of the schedule, the worst tail norm over the
    reflexivity probe's candidates at horizon M = 2N, clamped as clamped_tail
    clamps it: the tails of shrinking_tail on the dual ball when dual, else
    those of boundedly_complete_tail (which raises as that does).

    The candidates are the ball's first _EXTREME_CANDIDATES extreme points,
    then ``samples`` seeded draws, each block through one analysis out to
    the largest horizon used.  Their rows make one coefficient array, whose
    tails each truncation takes in one call while rows x M fits in
    _TAIL_VALUES, and that many values' rows at a time past it.  np.maximum
    keeps any candidate's NaN tail, so the truncation's value is NaN.
    """
    space = F.space
    if dual:
        ball, purpose, analysis, synthesis = (
            space.dual, "probe-dual", F.eval_batch, F.dual_synth_batch
        )
    elif space.bidual_representable:
        ball, purpose, analysis, synthesis = space, "probe-bidual", F.coeff_batch, F.synth_batch
    else:
        raise DualRepresentationError(
            f"bidual elements of {space.describe()} have no finite representation"
        )
    horizons = [_HORIZON_FACTOR * N for N in schedule]
    if F.max_rank is not None:
        horizons = [min(M, F.max_rank) for M in horizons]
    top = max((M for N, M in zip(schedule, horizons) if M > N), default=None)
    if top:
        blocks = [ball.extreme_ball_points()[:_EXTREME_CANDIDATES]]
        blocks += _ball_blocks(ball, seed, purpose, _sample_blocks(samples, ball.draw_width, top))
        coeffs = np.concatenate([analysis(block, top) for block in blocks])
    values = []
    for N, M in zip(schedule, horizons):
        worst = 0.0
        if M > N:
            step = max(1, _TAIL_VALUES // M)
            worst = float(functools.reduce(np.maximum, [
                _tail_norms(coeffs[i : i + step], synthesis, ball.norm, N, M).max()
                for i in range(0, len(coeffs), step)
            ]))
        values.append(worst)
    return values
