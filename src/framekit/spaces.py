"""Exact arithmetic models of the sequence and function spaces.

Four element types cover everything the frame catalog needs: finitely
supported sequences (the l1 model), eventually constant bounded sequences
(the l-infinity model, acting on l1 through the coordinate-sum pairing),
piecewise constant functions on dyadic grids of [0, 1) (the Lp[0,1] model),
and windowed families of unit-cell grid functions (the amalgam (Lp, lq)
model on the line).

Every norm and every duality pairing below is a finite sum, so there is no
quadrature error anywhere; the only numerical noise is float rounding.
Scalars are real throughout.  All values are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "SeqVector",
    "DualSeq",
    "GridFunction",
    "AmalgamFunction",
    "lp_norm",
    "linf_norm",
    "pairing_psi",
    "grid_lp_norm",
    "pairing_phi",
    "amalgam_norm",
    "pairing_phi_pq",
    "translate",
    "embed_tilde",
    "conjugate_exponent",
    "check_window_width",
]


def conjugate_exponent(p: float) -> float:
    """Return p* = p / (p - 1), the Holder conjugate of p in (1, inf)."""
    if not 1.0 < p < math.inf:
        raise ValueError(f"conjugate exponent requires p in (1, inf), got {p}")
    return p / (p - 1.0)


def _require_exponent(p: float, low_open: bool) -> None:
    if math.isnan(p) or math.isinf(p):
        raise ValueError(f"exponent must be finite, got {p}")
    if low_open:
        if p <= 1.0:
            raise ValueError(f"exponent must lie in (1, inf), got {p}")
    elif p < 1.0:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")


def _json_int(value, name: str) -> int:
    """value, read from an element file, which must be an int (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


class _Vector:
    """Subtraction and negation, from each element type's __add__ and __rmul__."""

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self


# ---------------------------------------------------------------------------
# sequence types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeqVector(_Vector):
    """Finitely supported real sequence, indexed from 1.

    ``entries`` holds ``(index, value)`` pairs with strictly increasing
    positive indices and finite values; zero values are dropped on
    construction, so the representation is canonical and equality is
    structural.
    """

    entries: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        cleaned = []
        last = 0
        for idx, val in self.entries:
            idx = int(idx)
            val = float(val)
            if idx <= last:
                raise ValueError(
                    "SeqVector indices must be strictly increasing positive "
                    f"integers, got index {idx} after {last}"
                )
            last = idx
            if not math.isfinite(val):
                raise ValueError(f"SeqVector value at index {idx} is {val}")
            if val != 0.0:
                cleaned.append((idx, val))
        object.__setattr__(self, "entries", tuple(cleaned))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "SeqVector":
        """Build from (index, value) pairs in any order; duplicate indices add."""
        acc: dict[int, float] = {}
        for idx, val in pairs:
            acc[int(idx)] = acc.get(int(idx), 0.0) + float(val)
        return cls(tuple(sorted(acc.items())))

    @classmethod
    def from_dense(cls, values: Iterable[float]) -> "SeqVector":
        """Build from a dense list of values for indices 1, 2, 3, ..."""
        return cls(tuple((i, float(v)) for i, v in enumerate(values, start=1)))

    @classmethod
    def basis(cls, n: int) -> "SeqVector":
        """The canonical basis vector with a single 1 at index ``n``."""
        if n < 1:
            raise ValueError(f"basis index must be >= 1, got {n}")
        return cls(((n, 1.0),))

    def value_at(self, n: int) -> float:
        for idx, val in self.entries:
            if idx == n:
                return val
            if idx > n:
                break
        return 0.0

    @property
    def max_index(self) -> int:
        """Largest support index (0 for the zero vector)."""
        return self.entries[-1][0] if self.entries else 0

    def __add__(self, other: "SeqVector") -> "SeqVector":
        if not isinstance(other, SeqVector):
            return NotImplemented
        return SeqVector.from_pairs(list(self.entries) + list(other.entries))

    def __rmul__(self, c: float) -> "SeqVector":
        c = float(c)
        return SeqVector(tuple((i, c * v) for i, v in self.entries))

    def to_json_obj(self) -> list:
        return [[i, v] for i, v in self.entries]

    @classmethod
    def from_json_obj(cls, obj) -> "SeqVector":
        pairs = [(_json_int(i, "sequence index"), float(v)) for i, v in obj]
        top = max((i for i, _ in pairs), default=0)
        if top > MAX_SEQ_INDEX:
            raise ValueError(f"sequence indices are at most {MAX_SEQ_INDEX}, got {top}")
        return cls.from_pairs(pairs)


@dataclass(frozen=True, eq=False)
class DualSeq(_Vector):
    """Bounded real sequence with an explicit prefix and a constant tail.

    Represents mu = (mu_n) with mu_n = prefix[n-1] for n <= len(prefix) and
    mu_n = tail afterwards, all finite.  The sup-norm is therefore exact, not
    sampled, which is what the non-shrinking counterexample needs.
    """

    prefix: tuple[float, ...] = ()
    tail: float = 0.0

    def __post_init__(self) -> None:
        prefix = tuple(float(v) for v in self.prefix)
        tail = float(self.tail)
        if not all(map(math.isfinite, prefix + (tail,))):
            raise ValueError("DualSeq values must be finite")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail", tail)

    @classmethod
    def all_ones(cls) -> "DualSeq":
        return cls((), 1.0)

    @classmethod
    def unit_functional(cls, n: int) -> "DualSeq":
        """The coordinate functional picking out entry ``n``."""
        if n < 1:
            raise ValueError(f"functional index must be >= 1, got {n}")
        return cls((0.0,) * (n - 1) + (1.0,), 0.0)

    def value_at(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"sequence index must be >= 1, got {n}")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.tail

    def __eq__(self, other) -> bool:
        if not isinstance(other, DualSeq):
            return NotImplemented
        # Past the longer prefix both sides are their tails.
        width = max(len(self.prefix), len(other.prefix)) + 1
        return all(self.value_at(n) == other.value_at(n) for n in range(1, width + 1))

    __hash__ = None  # one sequence has prefixes of many lengths

    def __add__(self, other: "DualSeq") -> "DualSeq":
        if not isinstance(other, DualSeq):
            return NotImplemented
        width = max(len(self.prefix), len(other.prefix))
        pre = tuple(
            self.value_at(n) + other.value_at(n) for n in range(1, width + 1)
        )
        return DualSeq(pre, self.tail + other.tail)

    def __rmul__(self, c: float) -> "DualSeq":
        c = float(c)
        return DualSeq(tuple(c * v for v in self.prefix), c * self.tail)

    def to_json_obj(self) -> dict:
        return {"prefix": list(self.prefix), "tail": self.tail}

    @classmethod
    def from_json_obj(cls, obj) -> "DualSeq":
        return cls(tuple(obj["prefix"]), float(obj["tail"]))


# Each norm's formula, on value arrays, is shared by the typed *_norm
# function and the space descriptor's coordinate norm.  The formulas act on
# the last axis: a 1-D array gives one norm, an (S x d) matrix S norms.
def l1_values_norm(values):
    """sum |v_n| along the last axis.  fsum is exactly rounded and
    order-independent, so l1 norms of prefixes are monotone in the
    truncation with no rounding caveats."""
    vals = np.abs(np.asarray(values, dtype=float))
    rows = vals.reshape(math.prod(vals.shape[:-1]), vals.shape[-1]).tolist()
    return np.array([math.fsum(row) for row in rows]).reshape(vals.shape[:-1])[()]


def _root(totals: np.ndarray, r: float):
    """totals ** (1/r), dropping the kept last axis of length 1.  The power
    acts on an array even for a single norm: numpy's scalar power may round
    differently from its array power, and a 1-d input must give the bits of
    the same row in a batch."""
    return (totals ** (1.0 / r))[..., 0][()]


def sup_values_norm(values):
    """max |v_n| along a nonempty last axis."""
    return np.max(np.abs(values), axis=-1)


def lp_norm(v: SeqVector, p: float) -> float:
    """(sum |v_n|^p)^(1/p) over the finite support; requires p >= 1."""
    _require_exponent(p, low_open=False)
    vals = np.array([val for _, val in v.entries])
    if p == 1.0:
        return float(l1_values_norm(vals))
    return float((np.abs(vals) ** p).sum() ** (1.0 / p))


def linf_norm(mu: DualSeq) -> float:
    """sup_n |mu_n|, exact thanks to the prefix-plus-constant-tail form."""
    return float(sup_values_norm(mu.prefix + (mu.tail,)))


def pairing_psi(mu: DualSeq, lam: SeqVector) -> float:
    """Coordinate-sum duality action sum_n mu_n * lam_n (a finite sum)."""
    return float(sum(mu.value_at(i) * v for i, v in lam.entries))


# ---------------------------------------------------------------------------
# dyadic grid functions on [0, 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GridFunction(_Vector):
    """Piecewise constant function on the level-J dyadic grid of [0, 1).

    ``coefficients[k]`` is the finite value on [k 2^-J, (k+1) 2^-J).  Refining
    to a higher level repeats coefficients and changes no norm or pairing.
    Equality is mathematical: both sides are refined to a common level first.
    """

    level: int
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        level = int(self.level)
        if level < 0:
            raise ValueError(f"grid level must be >= 0, got {level}")
        coeffs = np.asarray(self.coefficients, dtype=float)
        # Compared through the bit length, so a huge level costs nothing
        # before it is rejected.
        size = coeffs.size if coeffs.ndim == 1 else 0
        if size & (size - 1) or size.bit_length() != level + 1:
            raise ValueError(
                f"level-{level} grid needs exactly 2^{level} coefficients, "
                f"got shape {coeffs.shape}"
            )
        if not np.isfinite(coeffs).all():
            raise ValueError("grid function values must be finite")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def constant(cls, value: float, level: int = 0) -> "GridFunction":
        return cls(level, np.full(2**level, float(value)))

    @classmethod
    def zero(cls, level: int = 0) -> "GridFunction":
        return cls.constant(0.0, level)

    def refine(self, level: int) -> "GridFunction":
        """Represent the same function on a finer grid (level >= self.level)."""
        if level < self.level:
            raise ValueError(
                f"cannot refine level-{self.level} function down to {level}"
            )
        if level == self.level:
            return self
        reps = 2 ** (level - self.level)
        return GridFunction(level, np.repeat(self.coefficients, reps))

    def value_at(self, t: float) -> float:
        """Pointwise value; t = 1 returns 0 (functions live on [0, 1))."""
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"point must lie in [0, 1], got {t}")
        if t == 1.0:
            return 0.0
        return float(self.coefficients[int(t * 2**self.level)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridFunction):
            return NotImplemented
        a, b, _ = _common_level(self, other)
        return bool(np.array_equal(a, b))

    __hash__ = None  # mathematical equality across levels is not hashable

    def __add__(self, other: "GridFunction") -> "GridFunction":
        if not isinstance(other, GridFunction):
            return NotImplemented
        a, b, level = _common_level(self, other)
        return GridFunction(level, a + b)

    def __rmul__(self, c: float) -> "GridFunction":
        return GridFunction(self.level, float(c) * self.coefficients)

    def to_json_obj(self) -> dict:
        return {"level": self.level, "coefficients": self.coefficients.tolist()}

    @classmethod
    def from_json_obj(cls, obj) -> "GridFunction":
        level = _json_int(obj["level"], "level")
        return cls(level, np.asarray(obj["coefficients"], dtype=float))


def _common_level(f: GridFunction, g: GridFunction) -> tuple[np.ndarray, np.ndarray, int]:
    level = max(f.level, g.level)
    return f.refine(level).coefficients, g.refine(level).coefficients, level


def grid_lp_norm(f: GridFunction, p: float) -> float:
    """Exact Lp[0,1] norm of a piecewise constant: (sum |c_k|^p 2^-J)^(1/p)."""
    _require_exponent(p, low_open=False)
    return float(grid_values_norm(f.coefficients, p, f.level))


def grid_values_norm(values, p: float, level: int):
    """grid_lp_norm of the level-``level`` grid functions with these values,
    one per index of the leading axes."""
    cell = 2.0**-level
    vals = np.abs(values)
    if p == 1.0:
        return vals.sum(axis=-1) * cell
    if p == 2.0:
        return np.sqrt((vals * vals).sum(axis=-1) * cell)
    return _root((vals**p).sum(axis=-1, keepdims=True) * cell, p)


def pairing_phi(fdual: GridFunction, g: GridFunction) -> float:
    """Exact integral of fdual * g over [0, 1) after common refinement."""
    a, b, level = _common_level(fdual, g)
    return float(np.dot(a, b) * 2.0**-level)


# ---------------------------------------------------------------------------
# amalgam functions on the line
# ---------------------------------------------------------------------------

# Amalgam elements, sample points and rank tables grow with the window width,
# so windows are capped; the check runs before any cell is built.
MAX_WINDOW_CELLS = 256
# Every frame operator is dense up to a sequence's largest index, so indices
# read from files are capped; the check runs before the sequence is built.
MAX_SEQ_INDEX = 2**16


def check_window_width(lo: int, hi: int) -> None:
    """ValueError when the window (lo, hi) holds more than MAX_WINDOW_CELLS."""
    if hi - lo + 1 > MAX_WINDOW_CELLS:
        raise ValueError(
            f"amalgam windows hold at most {MAX_WINDOW_CELLS} cells, got {hi - lo + 1}"
        )


@dataclass(frozen=True, eq=False)
class AmalgamFunction(_Vector):
    """Function on R stored as one grid function per unit cell [m, m+1).

    ``window = (m_lo, m_hi)`` (inclusive) bounds the support: the function is
    identically zero outside [m_lo, m_hi + 1).  All cells are refined to a
    common level on construction; absent cells inside the window are filled
    with zeros.
    """

    window: tuple[int, int]
    cells: Mapping[int, GridFunction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lo, hi = (int(self.window[0]), int(self.window[1]))
        if lo > hi:
            raise ValueError(f"window must satisfy m_lo <= m_hi, got ({lo}, {hi})")
        cells = dict(self.cells)
        for m in cells:
            if not lo <= m <= hi:
                raise ValueError(f"cell {m} lies outside window ({lo}, {hi})")
        level = max((c.level for c in cells.values()), default=0)
        full = {
            m: cells[m].refine(level) if m in cells else GridFunction.zero(level)
            for m in range(lo, hi + 1)
        }
        object.__setattr__(self, "window", (lo, hi))
        object.__setattr__(self, "cells", full)

    @classmethod
    def zero(cls, window: tuple[int, int], level: int = 0) -> "AmalgamFunction":
        lo, hi = window
        return cls((lo, hi), {lo: GridFunction.zero(level)} if lo <= hi else {})

    @property
    def level(self) -> int:
        return next(iter(self.cells.values())).level

    def cell(self, m: int) -> GridFunction:
        """Restriction to [m, m+1) shifted to [0, 1); zero outside the window."""
        got = self.cells.get(int(m))
        return got if got is not None else GridFunction.zero(self.level)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AmalgamFunction):
            return NotImplemented
        lo = min(self.window[0], other.window[0])
        hi = max(self.window[1], other.window[1])
        return all(self.cell(m) == other.cell(m) for m in range(lo, hi + 1))

    __hash__ = None

    def __add__(self, other: "AmalgamFunction") -> "AmalgamFunction":
        if not isinstance(other, AmalgamFunction):
            return NotImplemented
        lo = min(self.window[0], other.window[0])
        hi = max(self.window[1], other.window[1])
        return AmalgamFunction(
            (lo, hi), {m: self.cell(m) + other.cell(m) for m in range(lo, hi + 1)}
        )

    def __rmul__(self, c: float) -> "AmalgamFunction":
        return AmalgamFunction(
            self.window, {m: float(c) * f for m, f in self.cells.items()}
        )

    def to_json_obj(self) -> dict:
        return {
            "window": list(self.window),
            "level": self.level,
            "cells": {
                str(m): self.cells[m].coefficients.tolist()
                for m in sorted(self.cells)
            },
        }

    @classmethod
    def from_json_obj(cls, obj) -> "AmalgamFunction":
        lo = _json_int(obj["window"][0], "window bound")
        hi = _json_int(obj["window"][1], "window bound")
        check_window_width(lo, hi)
        level = _json_int(obj["level"], "level")
        cells = {
            int(m): GridFunction(level, np.asarray(vals, dtype=float))
            for m, vals in obj["cells"].items()
        }
        return cls((lo, hi), cells)


def amalgam_norm(f: AmalgamFunction, p: float, q: float) -> float:
    """(sum_m ||f on [m, m+1)||_p^q)^(1/q); requires p, q in (1, inf)."""
    _require_exponent(p, low_open=True)
    _require_exponent(q, low_open=True)
    cells = np.array([f.cells[m].coefficients for m in sorted(f.cells)])
    return float(amalgam_values_norm(cells, p, q, f.level))


def amalgam_values_norm(cells, p: float, q: float, level: int):
    """amalgam_norm of the functions whose cells hold these level-J rows:
    cells[..., m, :] is cell m of one function."""
    cell_norms = grid_values_norm(cells, p, level)
    return _root((cell_norms**q).sum(axis=-1, keepdims=True), q)


def pairing_phi_pq(fdual: AmalgamFunction, g: AmalgamFunction) -> float:
    """Exact sum of cellwise integrals over the intersection of windows."""
    lo = max(fdual.window[0], g.window[0])
    hi = min(fdual.window[1], g.window[1])
    return float(
        sum(pairing_phi(fdual.cell(m), g.cell(m)) for m in range(lo, hi + 1))
    )


def dyadic_step_coefficients(level: int, n: int) -> np.ndarray:
    """Coefficient array of the n-th dyadic step direction at the given level.

    n = 1 is the constant 1; for n >= 2 the direction takes the value +1 on
    the first half of the n-th dyadic subinterval of its generation and -1 on
    the second half, and 0 elsewhere.  Requires n <= 2^level so the steps are
    representable on the grid.  Integer cell arithmetic only.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    cells = 2**level
    if not 1 <= n <= cells:
        raise ValueError(f"dyadic step {n} is not representable at level {level}")
    out = np.zeros(cells)
    if n == 1:
        out[:] = 1.0
        return out
    gen = (n - 1).bit_length()  # generation: 2^(gen-1) < n <= 2^gen
    pos = n - 2 ** (gen - 1)  # 1-based position within the generation
    half = 2 ** (level - gen)
    start = (pos - 1) * 2 * half
    out[start : start + half] = 1.0
    out[start + half : start + 2 * half] = -1.0
    return out


def translate(f: AmalgamFunction, a: int) -> AmalgamFunction:
    """Shift by an integer: the result at x equals f at x - a.

    Only grid-aligned (integer) shifts are supported; they relabel cells and
    preserve every norm and pairing exactly.
    """
    if a != int(a):
        raise ValueError(f"only integer translations are supported, got {a}")
    a = int(a)
    return AmalgamFunction(
        (f.window[0] + a, f.window[1] + a),
        {m + a: cell for m, cell in f.cells.items()},
    )


def embed_tilde(f: GridFunction) -> AmalgamFunction:
    """Extend a function on [0, 1) by zero to the whole line."""
    return AmalgamFunction((0, 0), {0: f})
