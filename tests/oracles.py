"""Independent reference computations for the tests.

Everything here is deliberately implemented from scratch -- pointwise
formulas, midpoint quadrature, dense linear algebra -- so that it shares no
code path with the package.  Agreement between these routes and the package
is what the derived-value tests actually check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def haar_value(n: int, t: float) -> float:
    """Pointwise Haar value via the generation/branch formula.

    h_1 is the indicator of [0, 1); for n >= 2 with generation m chosen so
    that 2^(m-1) < n <= 2^m, h_n is +1 on [(2n-2)/2^m - 1, (2n-1)/2^m - 1),
    -1 on the right half of that dyadic interval, and 0 elsewhere.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    if not 0.0 <= t <= 1.0:
        raise ValueError("point must lie in [0, 1]")
    if n == 1:
        return 1.0 if t < 1.0 else 0.0
    m = 1
    while 2**m < n:
        m += 1
    lo = (2 * n - 2) / 2**m - 1
    mid = (2 * n - 1) / 2**m - 1
    hi = (2 * n) / 2**m - 1
    if lo <= t < mid:
        return 1.0
    if mid <= t < hi:
        return -1.0
    return 0.0


def midpoints(grid: int) -> np.ndarray:
    """Cell midpoints of a uniform partition of [0, 1) into `grid` cells."""
    return (np.arange(grid) + 0.5) / grid


def quadrature_integral(values: np.ndarray) -> float:
    """Midpoint-rule integral over [0, 1].

    Exact (up to float rounding) for functions that are constant on each
    cell of the sampling grid, which covers every dyadic step function whose
    level is at most log2(len(values)).
    """
    return float(np.sum(values) / len(values))


def quadrature_pairing(n_i: int, n_j: int, grid: int = 4096) -> float:
    """integral of h_i * h_j by midpoint quadrature of the pointwise formula."""
    ts = midpoints(grid)
    vi = np.array([haar_value(n_i, t) for t in ts])
    vj = np.array([haar_value(n_j, t) for t in ts])
    return quadrature_integral(vi * vj)


def haar_columns(J: int) -> np.ndarray:
    """Matrix whose column n-1 holds h_n sampled at level-J cell midpoints."""
    ts = midpoints(2**J)
    return np.column_stack(
        [[haar_value(n, t) for t in ts] for n in range(1, 2**J + 1)]
    )


def normalized_haar_rows(J: int) -> np.ndarray:
    """Matrix whose row n-1 holds h_n / ||h_n||_2 at level-J cell midpoints."""
    cols = haar_columns(J)
    return (cols / np.sqrt(np.mean(cols * cols, axis=0))).T


def solve_reconstruction(J: int, values: np.ndarray) -> tuple[np.ndarray, float]:
    """Expand a level-J step function over {h_1 .. h_2^J} by linear solve.

    Returns the coefficient vector and the max-abs error of the rebuilt
    values; a tiny error certifies that the span of the first 2^J Haar
    functions is the whole level-J grid space.
    """
    A = haar_columns(J)
    coeffs = np.linalg.solve(A, values)
    return coeffs, float(np.max(np.abs(A @ coeffs - values)))


def abs_product_sum(lams, mus) -> float:
    """sum |lam_n * mu_n| with plain Python arithmetic."""
    return math.fsum(abs(a * b) for a, b in zip(lams, mus))


def l1_extreme_point_sup(max_index: int, prefix_len: int) -> float:
    """Brute-force sup of sum |lam_n mu_n| over +-e_k and sign functionals.

    lam ranges over the signed unit coordinate vectors e_1..e_max_index and
    mu over every +-1 pattern on a prefix with a +-1 constant tail.
    """
    best = 0.0
    for k in range(max_index):
        lam = [0.0] * max_index
        lam[k] = 1.0
        for tail in (1.0, -1.0):
            for bits in itertools.product((1.0, -1.0), repeat=prefix_len):
                mu = list(bits) + [tail] * (max_index - prefix_len)
                best = max(best, abs_product_sum(lam, mu))
    return best


def stream_words(key: int, start: int, stop: int) -> np.ndarray:
    """Words start..stop-1 of the Philox stream with this key, drawn from
    its first word on: no counter is set and no block continues another."""
    return np.random.Philox(key=key).random_raw(stop)[start:]


def dense_lp_norm(values: np.ndarray, p: float, cell_measure: float) -> float:
    """(sum |v|^p * cell_measure)^(1/p) computed directly."""
    return float((np.sum(np.abs(values) ** p) * cell_measure) ** (1.0 / p))


def in_order_sum(coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_n coeffs[n] rows[n] over the dense rows, added rank by rank.

    numpy reduces the leading axis of a C-contiguous matrix with more than
    one column by adding its rows one after the other, so every coordinate
    sees its N terms, zeros included, in exactly the rank order given.
    """
    return np.add.reduce(coeffs[:, None] * rows, axis=0)


def zero_pair_scan(F, upto: int, cap: int = 512, block: int = 64) -> tuple[bool, bool]:
    """(some pair has a zero vector or functional, every pair is zero in both
    slots) over the ranks up to min(upto, max_rank, cap), recomputed on every
    call: both syntheses of the unit vectors, a block of ranks at a time from
    rank 1, stopping after the first block that settles both answers."""
    horizon = min(upto, cap, F.max_rank or upto)
    some, every = False, horizon >= 1
    for n0 in range(0, horizon, block):
        n1 = min(horizon, n0 + block)
        units = np.eye(n1)[n0:n1]
        zero_a = ~F.synth_batch(units).any(axis=-1)
        zero_b = ~F.dual_synth_batch(units).any(axis=-1)
        some = some or bool((zero_a | zero_b).any())
        every = every and bool((zero_a & zero_b).all())
        if some and not every:
            break
    return some, every


def haar_pyramid(f: np.ndarray) -> np.ndarray:
    """Every normalized Haar coefficient of the grid values f (2^J of them on
    the last axis): the whole Mallat pyramid, each generation's differences
    scaled by its height 2^((m-1)/2), and all 2^J integrals scaled by the
    cell width 2^-J at the end."""
    sums = np.asarray(f, dtype=float)
    J = sums.shape[-1].bit_length() - 1
    pieces = []
    for m in range(J, 0, -1):
        left, right = sums[..., 0::2], sums[..., 1::2]
        pieces.insert(0, (left - right) * 2.0 ** (0.5 * (m - 1)))
        sums = left + right
    return np.concatenate([sums] + pieces, axis=-1) * 2.0**-J


def haar_inverse_pyramid(coeffs: np.ndarray, J: int) -> np.ndarray:
    """sum_n c_n h_n/||h_n||_2 on the level-J grid, for the c on the last
    axis (at most 2^J of them, zero-padded): the inverse pyramid, each
    generation's coefficients scaled by its height 2^((m-1)/2) as that
    level is formed, added to the left half of every block and subtracted
    from the right half."""
    coeffs = np.asarray(coeffs, dtype=float)
    lead = coeffs.shape[:-1]
    full = np.zeros(lead + (2**J,))
    full[..., : coeffs.shape[-1]] = coeffs
    values = full[..., :1]
    for m in range(1, J + 1):
        detail = full[..., 2 ** (m - 1) : 2**m] * 2.0 ** (0.5 * (m - 1))
        finer = np.empty(lead + (2**m,))
        finer[..., 0::2] = values + detail
        finer[..., 1::2] = values - detail
        values = finer
    return values


def extreme_sums(F, schedule) -> np.ndarray:
    """The besselian sums of every extreme pair (x, xstar), x-major, at each
    truncation of the schedule: the whole outer product of the coefficient
    rows and the evaluation rows, every column kept, each sum by math.fsum."""
    N = schedule[-1]
    coeffs = F.coeff_batch(F.space.extreme_ball_points(), N)
    evals = F.eval_batch(F.space.dual.extreme_ball_points(), N)
    with np.errstate(invalid="ignore"):
        terms = np.abs(coeffs[:, None] * evals).reshape(-1, N).tolist()
    return np.array([[math.fsum(row[:n]) for n in schedule] for row in terms])


def ordering_probe(F, elements, N: int, trials: int, seed: int) -> list:
    """(deviation, sign-flip norm) per element coordinate row, by fancy-index
    gathers over the atoms' nonzero entries: each column lists the ranks
    whose atom is nonzero there, ascending, padded with rank 0 and value 0;
    the permuted sums gather the coefficients and values column by column in
    the order each trial draws the ranks, the flipped sums scale the
    coefficients by the signs before the gather.  Every sum adds its terms
    one after the other."""
    from framekit.frames import derive_rng

    atoms = F.synth_batch(np.eye(N))
    depth = int((atoms != 0.0).sum(axis=0).max(initial=0))
    ranks = np.zeros((depth, atoms.shape[1]), dtype=np.intp)
    values = np.zeros(ranks.shape)
    for j in range(atoms.shape[1]):
        nonzero = np.flatnonzero(atoms[:, j])
        ranks[: len(nonzero), j], values[: len(nonzero), j] = nonzero, atoms[nonzero, j]

    def in_order(terms):
        out = np.zeros(terms.shape[:-2] + terms.shape[-1:])
        for k in range(terms.shape[-2]):
            out += terms[..., k, :]
        return out

    coeffs = np.array([F.coeff_batch(x, N) for x in elements])
    perms, signs = np.empty((trials, N), dtype=np.intp), np.empty((trials, N))
    for t in range(trials):
        rng = derive_rng(seed, "unconditional", t)
        perms[t] = rng.permutation(N)
        signs[t] = rng.integers(0, 2, size=N) * 2 - 1
    bases = in_order(coeffs[:, ranks] * values)
    live, columns = values != 0.0, np.arange(values.shape[-1])
    position = np.argsort(perms, axis=-1)
    drawn = np.argsort(np.where(live, position[:, ranks], N), axis=-2, kind="stable")
    permuted = in_order(coeffs[:, ranks[drawn, columns]] * values[drawn, columns])
    flipped = in_order((signs[:, None] * coeffs)[..., ranks] * values)
    deviations = F.space.norm(permuted - bases[:, None]).max(axis=1)
    flips = F.space.norm(flipped).max(axis=0)
    return list(zip(deviations.tolist(), flips.tolist()))
