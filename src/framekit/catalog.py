"""The concrete frames: canonical sequence frame, normalized Haar frame on
the dyadic grid, and the translated amalgam frame, plus the index machinery
(Haar generations, the diagonal enumeration of Z x N*) and label parsing.

All three constructions are exact: Haar functions with rank n <= 2^J live on
the level-J grid with no discretization error, and amalgam pairs are integer
translates of zero-extended grid pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .frames import AmalgamSpace, Frame, GridSpace, SequenceSpace
from .spaces import AmalgamFunction, check_window_width, conjugate_exponent

__all__ = [
    "HaarIndex",
    "AmalgamIndex",
    "haar_index",
    "haar_eval",
    "haar_l2_norm",
    "canonical_l1_frame",
    "haar_frame",
    "enumerate_z_cross_n",
    "rank_of_index",
    "amalgam_frame",
    "zero_sequence_frame",
    "frame_from_label",
]


# Size cap on the Haar level, checked before anything is allocated.
# Windows are capped by spaces.check_window_width.
_MAX_LEVEL = 12

# Cap on an exponent and its conjugate, since the norms of the sampled
# points are taken at both.  A Box-Muller magnitude is at most
# sqrt(-2 ln 2^-53) ~ 8.57, and 2^12 cells of 8.57^r sum past the largest
# double once r exceeds about 330: the norm is then inf and the point
# scaled to 0.  256 leaves a margin and admits every exponent in use
# (1.01, whose conjugate is 101, among them).
_MAX_EXPONENT = 256.0


# ---------------------------------------------------------------------------
# Haar indexing and evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HaarIndex:
    """Rank n with its generation m (m = 0 for n = 1; else 2^(m-1) < n <= 2^m)."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"Haar rank must be >= 1, got {self.n}")
        if self.n == 1:
            if self.m != 0:
                raise ValueError("rank 1 has generation 0 by convention")
        elif not 2 ** (self.m - 1) < self.n <= 2**self.m:
            raise ValueError(
                f"generation {self.m} does not match rank {self.n}"
            )


def haar_index(n: int) -> HaarIndex:
    """The generation bookkeeping for rank n."""
    if n < 1:
        raise ValueError(f"Haar rank must be >= 1, got {n}")
    return HaarIndex(n, 0 if n == 1 else (n - 1).bit_length())


def haar_eval(n: int, t: float) -> float:
    """Pointwise value of the n-th Haar function at t in [0, 1].

    Rank 1 is the indicator of [0, 1) (value 0 at t = 1).  For n >= 2 the
    function is +1 then -1 on the two halves of its dyadic support interval
    and 0 elsewhere.
    """
    idx = haar_index(n)
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"point must lie in [0, 1], got {t}")
    if n == 1:
        return 1.0 if t < 1.0 else 0.0
    scale = 2.0**idx.m
    lo = (2 * n - 2) / scale - 1.0
    mid = (2 * n - 1) / scale - 1.0
    hi = (2 * n) / scale - 1.0
    if lo <= t < mid:
        return 1.0
    if mid <= t < hi:
        return -1.0
    return 0.0


def haar_l2_norm(n: int) -> float:
    """1 for n = 1, else 2^((1-m)/2) where m is the generation of n."""
    idx = haar_index(n)
    return 1.0 if n == 1 else 2.0 ** (0.5 * (1 - idx.m))


def _check_exponent(frame: str, name: str, v: float) -> float:
    """v as a float, if it and its conjugate lie in (1, _MAX_EXPONENT]."""
    v = float(v)
    if not 1.0 < v < math.inf:
        raise ValueError(f"{frame} requires {name} in (1, inf), got {v}")
    if max(v, conjugate_exponent(v)) > _MAX_EXPONENT:
        raise ValueError(
            f"{frame} requires {name} and its conjugate at most {_MAX_EXPONENT:g}, "
            f"got {name}={v}"
        )
    return v


def _exponent_text(v: float) -> str:
    """v as a label writes it: in the short :g form when that parses back to
    v, else in full."""
    text = f"{v:g}"
    return text if float(text) == v else repr(v)


@lru_cache(maxsize=_MAX_LEVEL + 1)
def _haar_heights(J: int) -> np.ndarray:
    """The heights of the normalized Haar functions of ranks 1..2^J, in rank
    order and read-only: 1 for rank 1, and 2^((m-1)/2) for every rank of
    generation m >= 1."""
    heights = np.ones(2**J)
    for m in range(1, J + 1):
        heights[2 ** (m - 1) : 2**m] = 2.0 ** (0.5 * (m - 1))
    heights.flags.writeable = False
    return heights


def _haar_analysis(f: np.ndarray, N: int) -> np.ndarray:
    """The first N <= 2^J integrals of h_1/||h_1||, h_2/||h_2||, ... against
    the level-J grid values f (2^J of them on the last axis), by the Mallat
    pyramid.

    Each level splits the block sums into left and right halves: their
    difference gives that generation's unscaled coefficients, left to
    right, and their sum the next coarser level's block sums.  Only ranks
    <= N are formed.  The joined result is scaled by the heights in one
    call, then by the cell width 2^-J in place: two roundings, as in the
    pyramid (one product would round differently).  Every step acts on
    elements one by one, so a
    coefficient's value does not depend on how many inputs or coefficients
    one call takes.
    """
    sums = np.asarray(f, dtype=float)
    J = sums.shape[-1].bit_length() - 1
    details = []
    for m in range(J, 0, -1):
        left, right = sums[..., 0::2], sums[..., 1::2]
        half = 2 ** (m - 1)
        if half < N:
            if details:
                details.append(left - right)
            else:  # the finest generation formed is cut at rank N
                details.append(left[..., : N - half] - right[..., : N - half])
        sums = left + right
    out = np.concatenate([sums] + details[::-1], axis=-1)
    out *= _haar_heights(J)[:N]
    out *= 2.0**-J
    return out


def _haar_synthesis(coeffs: np.ndarray, J: int) -> np.ndarray:
    """sum_n c_n h_n/||h_n||_2 on the level-J grid, for c on the last axis
    (at most 2^J of them), by the inverse pyramid: the coefficients are
    scaled by their heights in one call, then each level adds its
    generation's term to the left half of every block and subtracts it from
    the right half."""
    coeffs = np.asarray(coeffs, dtype=float)
    lead, n = coeffs.shape[:-1], coeffs.shape[-1]
    full = np.zeros(lead + (2**J,))
    np.multiply(coeffs, _haar_heights(J)[:n], out=full[..., :n])
    if n:  # rank 1 has height 1: copied back, so a signalling NaN keeps its bits
        full[..., 0] = coeffs[..., 0]
    values = full[..., :1]
    for m in range(1, J + 1):
        detail = full[..., 2 ** (m - 1) : 2**m]
        finer = np.empty(lead + (2**m,))
        finer[..., 0::2] = values + detail
        finer[..., 1::2] = values - detail
        values = finer
    return values


# ---------------------------------------------------------------------------
# canonical sequence frame
# ---------------------------------------------------------------------------


def canonical_l1_frame() -> Frame:
    """The pair family (e_n, coordinate functional n) on the sequence space."""
    space = SequenceSpace()
    return Frame(
        space=space,
        label="l1-canonical",
        coeff_batch=space.values,
        eval_batch=space.dual.values,
        synth_batch=lambda coeffs: np.asarray(coeffs, dtype=float),
        dual_synth_batch=space.dual.finite,
        covering=lambda x: x.max_index,
    )


def zero_sequence_frame() -> Frame:
    """A frame whose every pair is zero; kept constructible so degenerate
    flagging stays testable end to end."""
    space = SequenceSpace()
    return Frame(
        space=space,
        label="zero",
        coeff_batch=lambda x, N: np.zeros(np.shape(x)[:-1] + (N,)),
        eval_batch=lambda xstar, N: np.zeros(np.shape(xstar)[:-1] + (N,)),
        synth_batch=lambda coeffs: np.zeros(np.shape(coeffs)[:-1] + (0,)),
        dual_synth_batch=lambda coeffs: np.zeros(np.shape(coeffs)[:-1] + (1,)),
        covering=lambda x: None if x.entries else 0,
    )


# ---------------------------------------------------------------------------
# normalized Haar frame on the level-J grid
# ---------------------------------------------------------------------------


def haar_frame(p: float, J: int) -> Frame:
    """The normalized Haar family (h_n/||h_n||_2 in both roles) on L_p.

    Ranks run 1..2^J; higher ranks are not representable on the level-J grid
    and are rejected rather than silently refined.  J is capped at 12, and
    p and its conjugate at 256.
    """
    p = _check_exponent("Haar frame", "p", p)
    J = int(J)
    if not 1 <= J <= _MAX_LEVEL:
        raise ValueError(f"Haar frame requires level 1 <= J <= {_MAX_LEVEL}, got {J}")

    space = GridSpace(p, J)
    size = 2**J
    label = f"haar:p={_exponent_text(p)}:J={J}"

    def _pair_batch(f: np.ndarray, N: int) -> np.ndarray:
        if not 1 <= N <= size:
            raise ValueError(f"frame {label!r} defines ranks 1..{size}, got {N}")
        width = np.shape(f)[-1]
        if width != size:
            raise ValueError(f"frame {label!r} analyses rows of 2^{J} grid values, got {width}")
        return _haar_analysis(f, N)

    def synth_batch(coeffs: np.ndarray) -> np.ndarray:
        return _haar_synthesis(coeffs, J)

    # The normalized Haar family is its own dual family: a_n = b_n.
    return Frame(
        space=space,
        label=label,
        coeff_batch=_pair_batch,
        eval_batch=_pair_batch,
        synth_batch=synth_batch,
        dual_synth_batch=synth_batch,
        max_rank=size,
        full_truncation=size,
        covering=lambda f: 2**f.level if f.level <= J else None,
    )


# ---------------------------------------------------------------------------
# the diagonal enumeration of Z x N*
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmalgamIndex:
    """Translation m (any integer) and base rank n >= 1."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"base rank must be >= 1, got {self.n}")


def enumerate_z_cross_n(rank: int) -> AmalgamIndex:
    """Rank -> (m, n) along diagonals of constant |m| + n, m ascending.

    Block s holds the 2s - 1 pairs with |m| + n = s, so the blocks end at the
    perfect squares and the map is a bijection.
    """
    if rank < 1:
        raise ValueError(f"enumeration rank must be >= 1, got {rank}")
    s = math.isqrt(rank - 1) + 1
    offset = rank - (s - 1) ** 2 - 1
    m = offset - (s - 1)
    return AmalgamIndex(m=m, n=s - abs(m))


def rank_of_index(m: int, n: int) -> int:
    """Inverse of enumerate_z_cross_n."""
    if n < 1:
        raise ValueError(f"base rank must be >= 1, got {n}")
    s = abs(m) + n
    return (s - 1) ** 2 + (m + s - 1) + 1


def _window_rank_tables(
    window: tuple[int, int], base_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ranks, cell offsets m - lo, base offsets n - 1) of every pair with a
    translation in the window and a base rank <= base_max, in rank order.

    These are the amalgam's only nonzero pairs; the ranks ``<= N`` are a
    prefix of the tables, so a truncation slices them instead of walking the
    enumeration.
    """
    lo, hi = window
    ms, ns = np.meshgrid(
        np.arange(lo, hi + 1, dtype=np.int64),
        np.arange(1, base_max + 1, dtype=np.int64),
        indexing="ij",
    )
    s = np.abs(ms) + ns
    ranks = ((s - 1) ** 2 + (ms + s - 1) + 1).ravel()
    order = np.argsort(ranks, kind="stable")
    return ranks[order], (ms - lo).ravel()[order], (ns - 1).ravel()[order]


# ---------------------------------------------------------------------------
# translated amalgam frame
# ---------------------------------------------------------------------------


def amalgam_frame(base: Frame, q: float, window: tuple[int, int]) -> Frame:
    """Integer translates of the zero-extended base pairs on the amalgam space.

    Rank r maps to (m, n) through the diagonal enumeration.  Pairs whose
    translation falls outside the window, or whose base rank exceeds the base
    frame's range, are zero pairs: they contribute nothing and are flagged in
    reports.  For inputs supported inside the window at the base level this
    loses nothing -- those pairs would carry zero coefficients anyway.
    """
    if not isinstance(base.space, GridSpace):
        raise ValueError("amalgam frames are built over a grid-space base frame")
    _check_exponent("amalgam frame", "p", base.space.p)
    q = _check_exponent("amalgam frame", "q", q)
    lo, hi = window
    if isinstance(lo, float) and not lo.is_integer():
        raise ValueError(f"window bounds must be integers, got {window}")
    if isinstance(hi, float) and not hi.is_integer():
        raise ValueError(f"window bounds must be integers, got {window}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"window must be bounded, got {window}")
    lo, hi = int(lo), int(hi)
    check_window_width(lo, hi)

    p = base.space.p
    J = base.space.level
    space = AmalgamSpace(p, q, (lo, hi), J)
    base_max = base.max_rank if base.max_rank is not None else 2**J
    label = f"amalgam:p={_exponent_text(p)}:q={_exponent_text(q)}:J={J}:window={lo},{hi}"
    width = hi - lo + 1

    ranks, cell_rows, base_cols = _window_rank_tables((lo, hi), base_max)
    for table in (ranks, cell_rows, base_cols):
        table.flags.writeable = False

    def _upto(N: int) -> int:
        # Number of valid ranks <= N: a prefix of the rank-ordered tables.
        return int(np.searchsorted(ranks, N, side="right"))

    # The base operators run on the (cells x 2^J) coordinate tables, every
    # cell of every input in one call.
    def _gather(base_batch, f: np.ndarray, N: int) -> np.ndarray:
        lead = np.shape(f)[:-1]
        cells = space.cells(f)
        table = base_batch(cells.reshape(-1, cells.shape[-1]), base_max)
        table = table.reshape(lead + (width, base_max))
        k = _upto(N)
        out = np.zeros(lead + (N,))
        out[..., ranks[:k] - 1] = table[..., cell_rows[:k], base_cols[:k]]
        return out

    def _scatter(base_synth, coeffs: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        lead = coeffs.shape[:-1]
        k = _upto(coeffs.shape[-1])
        table = np.zeros(lead + (width, base_max))
        table[..., cell_rows[:k], base_cols[:k]] = coeffs[..., ranks[:k] - 1]
        return base_synth(table.reshape(-1, base_max)).reshape(lead + (-1,))

    def covering(f: AmalgamFunction):
        if f.level > J:
            return None
        support = [
            m for m, cell in f.cells.items() if np.any(cell.coefficients != 0.0)
        ]
        if not support:
            return 0
        if any(m < lo or m > hi for m in support):
            return None  # mass outside the window is unreachable
        need = min(2**f.level, base_max)
        return max(rank_of_index(m, need) for m in support)

    def coeff_batch(f: np.ndarray, N: int) -> np.ndarray:
        return _gather(base.coeff_batch, f, N)

    def eval_batch(g: np.ndarray, N: int) -> np.ndarray:
        return _gather(base.eval_batch, g, N)

    def synth_batch(coeffs: np.ndarray) -> np.ndarray:
        return _scatter(base.synth_batch, coeffs)

    def dual_synth_batch(coeffs: np.ndarray) -> np.ndarray:
        return _scatter(base.dual_synth_batch, coeffs)

    # Translates of a family with a_n = b_n keep a_n = b_n: one callable
    # serves both roles, as on the base.
    return Frame(
        space=space,
        label=label,
        coeff_batch=coeff_batch,
        eval_batch=coeff_batch if base.eval_batch is base.coeff_batch else eval_batch,
        synth_batch=synth_batch,
        dual_synth_batch=(
            synth_batch if base.dual_synth_batch is base.synth_batch else dual_synth_batch
        ),
        full_truncation=int(ranks[-1]),
        covering=covering,
    )


# ---------------------------------------------------------------------------
# label resolution
# ---------------------------------------------------------------------------


def _parse_fields(parts: list[str], label: str, names: tuple[str, ...]) -> dict[str, str]:
    """The label's key=value fields: each key one of names, given once."""
    fields = {}
    for part in parts:
        key, sep, value = part.partition("=")
        if not sep or not value:
            raise ValueError(f"malformed frame label {label!r} near {part!r}")
        if key not in names:
            raise ValueError(f"unknown field {key!r} (fields: {', '.join(names)})")
        if key in fields:
            raise ValueError(f"repeated field {key!r}")
        fields[key] = value
    return fields


# Frames are immutable, so each frame is built once per process, keyed by
# its label's parsed fields: every spelling of a label gets the one frame,
# and with it the work the frames module memoizes per frame.  The bound
# keeps a few wide amalgam rank tables from piling up.
_FRAME_CACHE_SIZE = 8


@lru_cache(maxsize=_FRAME_CACHE_SIZE)
def _catalog_frame(kind: str, *fields) -> Frame:
    """The catalog frame of kind with its label's parsed fields."""
    if kind == "haar":
        return haar_frame(*fields)
    if kind == "amalgam":
        p, J, q, window = fields
        return amalgam_frame(haar_frame(p, J), q, window)
    return canonical_l1_frame() if kind == "l1-canonical" else zero_sequence_frame()


def frame_from_label(label: str) -> Frame:
    """Resolve a frame label string to its catalog construction.

    Known forms: "l1-canonical", "zero", "haar:p=<val>:J=<val>",
    "amalgam:p=<val>:q=<val>:J=<val>:window=<lo>,<hi>", each field given
    once; an unknown or repeated field is refused.  Sizes are checked
    before anything is built: J <= 12, exponents and their conjugates at most
    256, and at most 256 window cells.  Labels with the same parsed fields
    (haar:J=4:p=3, haar:p=3.0:J=04) name one frame and get the same object.
    """
    if label in ("l1-canonical", "zero"):
        return _catalog_frame(label)
    kind, _, rest = label.partition(":")
    try:
        if kind == "haar":
            fields = _parse_fields(rest.split(":"), label, ("p", "J"))
            return _catalog_frame(kind, float(fields["p"]), int(fields["J"]))
        if kind == "amalgam":
            fields = _parse_fields(rest.split(":"), label, ("p", "q", "J", "window"))
            lo, hi = (int(v) for v in fields["window"].split(","))
            check_window_width(lo, hi)
            p, J, q = float(fields["p"]), int(fields["J"]), float(fields["q"])
            return _catalog_frame(kind, p, J, q, (lo, hi))
    except KeyError as missing:
        raise ValueError(f"frame label {label!r} is missing field {missing}") from None
    except ValueError as bad:
        raise ValueError(f"cannot parse frame label {label!r}: {bad}") from None
    raise ValueError(f"unknown frame label {label!r}")
