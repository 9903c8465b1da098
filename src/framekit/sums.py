"""Sums whose bits do not depend on how the work is batched.

* ``prefix_sums`` gives exactly rounded prefix sums, the bits of
  ``math.fsum``, for a whole matrix of terms at once.
* ``nonzero_columns`` / ``columns_upto`` hold a matrix's nonzero entries
  column by column, and ``in_order`` adds terms one after the other in a
  given order, never by numpy's pairwise loop.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = ["prefix_sums", "nonzero_columns", "columns_upto", "in_order"]


def prefix_sums(terms: np.ndarray, schedule: tuple[int, ...]) -> np.ndarray:
    """math.fsum(row[:N]) for each row of the nonnegative matrix terms (the
    sweep's |products|) and each N of the schedule, bit for bit, as a (rows
    x len(schedule)) array; the schedule may repeat and be in any order.

    This is Sum2 (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 2005) on
    whole rows: running sums s_n by cumsum, each step's rounding error e_n
    exactly by TwoSum, and r = fl(s_N + sum e_n).  r is certified exactly
    rounded when its rounding residual, plus the bound gamma_{N-1} N 2^-53
    s_N >= gamma_{N-1} sum |e_n| (the terms are nonnegative, so s_n <= s_N)
    on the computed error sum's error, stays strictly inside half the gap
    from r to its neighbour on each side.  That bound holds for any order
    of summation, so the error sums are taken one segment between distinct
    truncations at a time, then summed over the segments.  Entries left
    uncertified (exact midpoints, non-finite values) go through math.fsum.
    """
    # The error sums run over the segments between distinct truncations;
    # reduceat needs increasing starts, since a start that does not
    # increase yields a single term, not an empty sum.
    ends = sorted(set(schedule))
    slot = [ends.index(n) for n in schedule]
    terms = np.ascontiguousarray(terms[:, : ends[-1]])
    with np.errstate(invalid="ignore", over="ignore"):
        s = np.cumsum(terms, axis=-1)
        # TwoSum of (s_{n-1}, t_n) -> (s_n, e_n), in place, over the rows
        # laid end to end; each row's first error is then set to 0.
        flat_s, flat_t = s.reshape(-1), terms.reshape(-1)
        e, z = np.empty_like(flat_s), np.empty_like(flat_s)
        np.subtract(flat_s[1:], flat_s[:-1], out=z[1:])
        np.subtract(flat_s[1:], z[1:], out=e[1:])
        np.subtract(flat_s[:-1], e[1:], out=e[1:])
        np.subtract(flat_t[1:], z[1:], out=z[1:])
        e += z
        e = e.reshape(s.shape)
        e[:, 0] = 0.0
        starts = [0] + ends[:-1]
        c = np.cumsum(np.add.reduceat(e, starts, axis=-1), axis=-1)[:, slot]
        n = np.asarray(schedule)
        s = s[:, n - 1]
        r = s + c
        w = r - s
        residual = (s - (r - w)) + (c - w)
        # gamma_{N-1} sum |e_n| <= 2 N 2^-53 a; a is 0 only if s_N <= 2^-1022,
        # where every running sum is exact; 2^-1074 covers an underflow.
        a = s * (n * 2.0**-53)
        bound = a * (n * 2.0**-52) + 2.0**-1074
        above = (np.nextafter(r, math.inf) - r) * 0.5
        below = (r - np.nextafter(r, -math.inf)) * 0.5
        exact = (a == 0.0) | (
            (residual + bound < above) & (bound - residual < below)
            & (np.abs(r) < np.finfo(float).max)
        )
    for i, k in zip(*np.nonzero(~exact)):
        r[i, k] = math.fsum(terms[i, : schedule[k]].tolist())
    return r


def nonzero_columns(blocks: Iterable[tuple[int, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero entries of a matrix given as (first row, rows) blocks, in
    row order, all of one width d.

    Returns (rows, values), two K x d arrays, K the largest number of
    nonzero entries in one column: column j lists the rows nonzero at j,
    ascending, and those entries; shorter columns are padded with row 0 and
    value 0.
    """
    found = []
    for r0, block in blocks:
        row, col = np.nonzero(block)
        found.append((row + r0, col, block[row, col]))
    width = block.shape[-1]
    row, col, value = (np.concatenate(parts) for parts in zip(*found))
    # A stable sort by column keeps each column's rows ascending.
    order = np.argsort(col, kind="stable")
    row, col, value = row[order], col[order], value[order]
    counts = np.bincount(col, minlength=width)
    slot = np.arange(len(col)) - (np.cumsum(counts) - counts)[col]
    rows = np.zeros((counts.max(initial=0), width), dtype=np.intp)
    values = np.zeros(rows.shape)
    rows[slot, col], values[slot, col] = row, value
    return rows, values


def columns_upto(rows: np.ndarray, values: np.ndarray, n: int) -> tuple:
    """nonzero_columns of the matrix's first n rows, cut from the whole."""
    live = (values != 0.0) & (rows < n)
    depth = live.sum(axis=0).max(initial=0)
    return np.where(live, rows, 0)[:depth], np.where(live, values, 0.0)[:depth]


def in_order(terms: np.ndarray) -> np.ndarray:
    """terms summed over the second-to-last axis, one term after the other
    in that axis's order, coordinate by coordinate."""
    out = np.zeros(terms.shape[:-2] + terms.shape[-1:])
    for k in range(terms.shape[-2]):
        out += terms[..., k, :]
    return out
