"""Frame-level computations: expansions, besselian sums, constants, duals,
tail probes, rearrangement probes, and report plumbing."""

import dataclasses
import itertools
import json
import math
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framekit.catalog as catalog_module
import framekit.frames as frames_module
import framekit.sums as sums_module
import framekit.verify as verify_module
from framekit.catalog import (
    amalgam_frame,
    canonical_l1_frame,
    enumerate_z_cross_n,
    frame_from_label,
    haar_frame,
    rank_of_index,
    zero_sequence_frame,
)
from framekit.frames import (
    AmalgamSpace,
    DualRepresentationError,
    DualSequenceSpace,
    Frame,
    GridSpace,
    SequenceSpace,
    analysis_coefficient,
    ball_pair_sweep,
    besselian_sum,
    boundedly_complete_tail,
    clamped_tail,
    coefficient_products,
    coefficient_sequence,
    covering_truncation,
    derive_rng,
    dual_frame,
    duality_constant_check,
    estimate_frame_constant,
    frame_has_zero_elements,
    frame_pair,
    seeded_ball_point,
    seeded_ball_points,
    shrinking_tail,
    synthesis_partial,
    unconditional_deviation,
    unconditional_probe,
    unconditional_sweep,
)
from framekit.spaces import (
    AmalgamFunction,
    DualSeq,
    GridFunction,
    SeqVector,
    amalgam_norm,
    conjugate_exponent,
    grid_lp_norm,
    linf_norm,
    lp_norm,
)

from framekit.verify import (
    DEFAULT_FRAME_LABELS,
    ExperimentSpec,
    FrameReport,
    ProbeResult,
    reflexivity_probe,
    spec_for_label,
)

import oracles


L1 = canonical_l1_frame()
HAAR4 = haar_frame(2.0, 4)


def oracle_haar_coefficients(f: GridFunction, J: int) -> np.ndarray:
    """The 2^J integrals of f against the normalized Haar functions."""
    return oracles.normalized_haar_rows(J) @ f.refine(J).coefficients / 2**J


# ---------------------------------------------------------------------------
# analysis / synthesis
# ---------------------------------------------------------------------------


def test_analysis_examples():
    lam = SeqVector.from_pairs([(1, 5.0), (2, 7.0), (3, 11.0)])
    assert analysis_coefficient(L1, 2, lam) == 7.0
    h2n, _ = frame_pair(HAAR4, 2)
    assert analysis_coefficient(HAAR4, 2, h2n) == 1.0
    assert analysis_coefficient(L1, 5, SeqVector()) == 0.0
    with pytest.raises(ValueError):
        analysis_coefficient(L1, 0, lam)
    with pytest.raises(ValueError):
        analysis_coefficient(L1, 1, DualSeq.all_ones())


def test_synthesis_truncation_and_exactness():
    lam = SeqVector.from_pairs([(1, 5.0), (2, 7.0), (3, 11.0)])
    assert synthesis_partial(L1, lam, 2) == SeqVector.from_pairs([(1, 5.0), (2, 7.0)])
    for N in (3, 5, 10):
        assert synthesis_partial(L1, lam, N) == lam
    assert synthesis_partial(L1, lam, 0) == SeqVector()
    with pytest.raises(ValueError):
        synthesis_partial(L1, DualSeq.all_ones(), 2)


def test_synthesis_generic_route_matches_batch_route():
    # the generic route sum_{n<=N} <h_n, f> h_n, built from the oracle
    rng = np.random.default_rng(31)
    f = GridFunction(4, rng.standard_normal(16))
    rows = oracles.normalized_haar_rows(4)
    coeffs = oracle_haar_coefficients(f, 4)
    for N in (1, 5, 16):
        fast = synthesis_partial(HAAR4, f, N)
        slow = GridFunction(4, rows[:N].T @ coeffs[:N])
        assert grid_lp_norm(fast - slow, 2.0) <= 1e-12


# ---------------------------------------------------------------------------
# coefficient products and besselian sums
# ---------------------------------------------------------------------------


def test_coefficient_sequence_examples():
    lam = SeqVector.from_pairs([(1, 1.0), (2, -2.0)])
    mu = DualSeq((1.0, -1.0), 1.0)
    seq = coefficient_sequence(L1, lam, mu, 3)
    assert seq == SeqVector.from_pairs([(1, 1.0), (2, 2.0)])
    assert seq.value_at(3) == 0.0
    assert coefficient_sequence(L1, SeqVector(), mu, 4) == SeqVector()
    h2n, b2 = frame_pair(HAAR4, 2)
    seq = coefficient_sequence(HAAR4, h2n, b2, 8)
    assert seq.value_at(2) == pytest.approx(1.0, abs=1e-12)
    for n in (1, 3, 4, 5, 6, 7, 8):
        assert seq.value_at(n) == pytest.approx(0.0, abs=1e-12)


def test_besselian_sum_examples():
    lam = SeqVector.from_pairs([(1, 1.0), (2, -2.0)])
    mu = DualSeq((1.0, -1.0), 1.0)
    assert besselian_sum(L1, lam, mu, 3) == 3.0
    assert besselian_sum(L1, lam, mu, 3) == lp_norm(lam, 1.0) * linf_norm(mu)
    assert besselian_sum(L1, SeqVector(), mu, 3) == 0.0
    one = GridFunction.constant(1.0)
    for N in (1, 4, 16):
        assert besselian_sum(HAAR4, one, one, N) == pytest.approx(1.0, abs=1e-12)


@given(
    entries=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=12),
            st.floats(min_value=-8, max_value=8, allow_nan=False),
        ),
        max_size=6,
        unique_by=lambda iv: iv[0],
    ),
    prefix=st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False), max_size=6),
    tail=st.floats(min_value=-2, max_value=2, allow_nan=False),
)
def test_besselian_sum_monotone_in_truncation(entries, prefix, tail):
    lam = SeqVector.from_pairs(entries)
    mu = DualSeq(tuple(prefix), tail)
    values = [besselian_sum(L1, lam, mu, N) for N in range(1, 16)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_coefficient_products_match_generic_route():
    # the generic route b_n(f) * g(a_n), with both factors from the oracle
    rng = np.random.default_rng(17)
    f = GridFunction(4, rng.standard_normal(16))
    g = GridFunction(4, rng.standard_normal(16))
    fast = coefficient_products(HAAR4, f, g, 16)
    slow = oracle_haar_coefficients(f, 4) * oracle_haar_coefficients(g, 4)
    assert np.allclose(fast, slow, atol=1e-12, rtol=0.0)


def test_coefficient_products_scale_invariance():
    # replacing (a_n, b_n) by (2 a_n, b_n / 2) leaves every product unchanged
    scaled = Frame(
        space=HAAR4.space,
        label="haar-rescaled",
        coeff_batch=lambda x, N: 0.5 * HAAR4.coeff_batch(x, N),
        eval_batch=lambda xstar, N: 2.0 * HAAR4.eval_batch(xstar, N),
        synth_batch=lambda c: 2.0 * HAAR4.synth_batch(c),
        dual_synth_batch=lambda c: 0.5 * HAAR4.dual_synth_batch(c),
        max_rank=HAAR4.max_rank,
    )
    for n in (1, 2, 9, 16):
        a, b = frame_pair(HAAR4, n)
        a2, b2 = frame_pair(scaled, n)
        assert a2 == 2.0 * a and b2 == 0.5 * b
    rng = np.random.default_rng(23)
    f = GridFunction(4, rng.standard_normal(16))
    g = GridFunction(4, rng.standard_normal(16))
    base = coefficient_products(HAAR4, f, g, 16)
    resc = coefficient_products(scaled, f, g, 16)
    assert np.array_equal(base, resc)


def test_zabreiko_shadow_bidual_route_is_exact():
    # On the reflexive grid space the bidual representation of x is x itself,
    # so the besselian sum through the double-dual frame is bit-equal.
    F2 = dual_frame(dual_frame(HAAR4))
    rng = np.random.default_rng(29)
    f = GridFunction(4, rng.standard_normal(16))
    g = GridFunction(4, rng.standard_normal(16))
    for n in (1, 2, 7, 16):
        a, b = frame_pair(HAAR4, n)
        a2, b2 = frame_pair(F2, n)
        assert a == a2 and b == b2
    assert besselian_sum(F2, f, g, 16) == besselian_sum(HAAR4, f, g, 16)


# ---------------------------------------------------------------------------
# constants and duality
# ---------------------------------------------------------------------------


def test_l1_constant_is_exactly_one():
    for N in (1, 4, 16):
        assert estimate_frame_constant(L1, N, 25, 42) == 1.0


def test_haar_p2_constant_is_one_within_1e9():
    assert estimate_frame_constant(HAAR4, 16, 200, 42) == pytest.approx(1.0, abs=1e-9)


def test_zero_frame_constant_is_zero():
    Z = zero_sequence_frame()
    assert estimate_frame_constant(Z, 8, 25, 42) == 0.0


def test_constant_monotone_in_truncation_and_samples():
    F = haar_frame(1.5, 4)
    by_n = [estimate_frame_constant(F, N, 50, 42) for N in (1, 2, 4, 8, 16)]
    assert all(a <= b for a, b in zip(by_n, by_n[1:]))
    by_s = [estimate_frame_constant(F, 16, s, 42) for s in (1, 10, 50, 200)]
    assert all(a <= b for a, b in zip(by_s, by_s[1:]))


def test_besselian_bound_against_superset_budget():
    for F in (L1, HAAR4, frame_from_label("amalgam:p=2:q=2:J=3:window=-1,1")):
        N = 16
        lhat = estimate_frame_constant(F, N, 60, 42)
        for x, xstar in ball_pair_sweep(F.space, 60, 42):
            bs = besselian_sum(F, x, xstar, N)
            bound = lhat * F.space.element_norm(x) * F.space.dual.element_norm(xstar)
            assert bs <= bound + 1e-9


def test_ball_sweep_is_deterministic_and_inside_balls():
    amalgam = frame_from_label("amalgam:p=3:q=1.5:J=2:window=-1,1")
    linf = dual_frame(L1)  # the bounded-sequence side, with l1 functionals
    for F in (L1, HAAR4, amalgam, linf):
        pairs1 = list(ball_pair_sweep(F.space, 10, 42))
        pairs2 = list(ball_pair_sweep(F.space, 10, 42))
        assert len(pairs1) == len(pairs2) > 10
        for (x1, s1), (x2, s2) in zip(pairs1, pairs2):
            assert x1 == x2 and s1 == s2
            assert F.space.element_norm(x1) <= 1.0 + 1e-12
            assert F.space.dual.element_norm(s1) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# the stream contract: sample k of (seed, purpose, ball) is one fixed slice
# of one stream, whatever the block or sample count that draws it
# ---------------------------------------------------------------------------

STREAM_SPACES = (
    SequenceSpace(),
    DualSequenceSpace(),
    GridSpace(3.0, 5),
    AmalgamSpace(3.0, 1.5, (-1, 1), 2),
)


def _fresh(label: str) -> Frame:
    """frame_from_label(label) built anew, so that no memo holds an entry of
    it: a test that counts the work of a cold call must not get a frame that
    an earlier test already swept or probed."""
    catalog_module._catalog_frame.cache_clear()
    return frame_from_label(label)


def _same_sweep(a, b) -> bool:
    """Two sweep_arrays results hold the same bits."""
    return all(_bits(u) == _bits(v) for u, v in zip(a, b, strict=True))


def _sorted_rows(nx, nxs, sums) -> list:
    """A sweep's (||x||, ||xstar||, sums) rows, sorted."""
    return sorted(zip(nx.tolist(), nxs.tolist(), map(tuple, sums.tolist())))


def _sweep_block_rows(F, N: int) -> int:
    """Samples per block of F's sweep to truncation N."""
    return frames_module._block_rows(N, F.space.draw_width, F.space.dual.draw_width)


def test_sweep_rows_are_prefixes_across_block_sizes():
    for label in DEFAULT_FRAME_LABELS + ("haar:p=3:J=5",):
        F = frame_from_label(label)
        schedule = spec_for_label(label).schedule
        block = _sweep_block_rows(F, schedule[-1])
        assert 1 < block < 2000
        full = frames_module.sweep_arrays(F, schedule, 2000, 7)
        extremes = len(full[0]) - 2000
        for samples in (1, block - 1, block, block + 1):
            got = frames_module.sweep_arrays(F, schedule, samples, 7)
            assert _same_sweep(got, [a[: extremes + samples] for a in full])


def test_seeded_ball_point_is_row_k_of_every_block():
    for space in STREAM_SPACES:
        for k0, k1 in ((0, 300), (5, 9), (255, 258), (299, 300)):
            block = frames_module._ball_block(space, 9, "ball", k0, k1)
            assert block.shape[0] == k1 - k0
            for k in (k0, (k0 + k1) // 2, k1 - 1):
                row = frames_module._ball_block(space, 9, "ball", k, k + 1)[0]
                assert np.array_equal(row, block[k - k0])
                assert seeded_ball_point(space, 9, "ball", k) == space.from_coordinates(row)
        # the sweep's random pairs are these rows, in order
        pairs = list(ball_pair_sweep(space, 3, 9))[-3:]
        for k, (x, xstar) in enumerate(pairs):
            assert x == seeded_ball_point(space, 9, "ball", k)
            assert xstar == seeded_ball_point(space.dual, 9, "ball", k)


def test_ball_samplers_keep_their_invariants():
    draws = {space: frames_module._ball_block(space, 5, "ball", 0, 4096) for space in STREAM_SPACES}
    l1, sup, grid, amalgam = STREAM_SPACES
    rows = draws[l1]
    support = rows != 0.0
    assert rows.shape[1] == 24  # indices 1..24
    assert (support.sum(axis=1) >= 1).all() and (support.sum(axis=1) <= 8).all()
    assert support.sum(axis=1).max() == 8 and support[:, -1].any()
    for row in rows[:64]:
        x = l1.from_coordinates(row)
        assert 1 <= len(x.entries) <= 8 and x.max_index <= 24
    assert np.max(np.abs(draws[sup])) <= 0.99
    assert np.all(sup.norm(draws[sup]) == 0.99)
    for space in (l1, grid, amalgam, grid.dual, amalgam.dual):
        block = frames_module._ball_block(space, 5, "ball", 0, 4096)
        assert np.all(np.abs(space.norm(block) - 1.0) <= 1e-12)
        assert np.isfinite(block).all()


def test_one_stream_per_ball_is_the_per_block_draws_bit_for_bit():
    # a ball's consecutive blocks continue one keyed stream, and each block
    # has the bits of its words drawn from the stream's first word, wherever
    # a block boundary splits one of Philox's four-word counters
    sweep = frames_module._sample_blocks(500, 300, 33, 26)
    assert (SequenceSpace().draw_width, DualSequenceSpace().draw_width) == (33, 26)
    assert sweep[:2] == [(0, 109), (109, 218)]  # the l1 sweep to N = 300
    cases = (
        sweep,
        [(k0, min(500, k0 + 109)) for k0 in range(5, 500, 109)],  # k0 > 0 first
        [(k, k + 1) for k in range(3, 12)],  # one-row blocks
        [],  # zero samples
    )
    for space in STREAM_SPACES:
        w = space.draw_width
        key = frames_module._entropy(9, "ball", *space.ball_key)
        if w in (33, 26):
            assert any(k0 * w % 4 for k0, _ in sweep[1:])
        for bounds in cases:
            got = list(frames_module._ball_blocks(space, 9, "ball", bounds))
            assert len(got) == len(bounds)
            for (k0, k1), block in zip(bounds, got):
                words = oracles.stream_words(key, k0 * w, k1 * w).reshape(k1 - k0, w)
                assert _bits(block) == _bits(space.ball_points(words))
                assert _bits(block) == _bits(frames_module._ball_block(space, 9, "ball", k0, k1))
        assert len(frames_module._ball_block(space, 9, "ball", 4, 4)) == 0
        assert seeded_ball_points(space, 9, "ball", 0) == []
        assert seeded_ball_points(space, 9, "ball", 3) == [
            seeded_ball_point(space, 9, "ball", k) for k in range(3)
        ]


def test_uniforms_are_the_reference_formula_bit_for_bit():
    # formed from the exponent bits, the uniform is (k + 1/2) 2^-52 for
    # k = word >> 12, exactly as the integer-to-float route forms it
    edges = [0, 1, 2**12 - 1, 2**12, 2**52, 2**63, 2**64 - 1, (2**52 - 1) << 12]
    random = np.random.default_rng(3).integers(0, 2**64, 10**5, dtype=np.uint64)
    words = np.concatenate((np.array(edges, dtype=np.uint64), random))
    blocks = (words, words[: 8 * 2500].reshape(2500, 8)[:, 1:])
    for block in blocks:
        before = block.copy()
        got = frames_module._uniforms(block)
        want = ((block >> 12).astype(float) + 0.5) * 2.0**-52
        assert got.dtype == np.float64 and got.shape == block.shape
        assert _bits(got.ravel()) == _bits(want.ravel())
        assert np.array_equal(block, before)
    got = frames_module._uniforms(words)
    assert got[0] == 2.0**-53 and got[6] == 1.0 - 2.0**-53
    assert ((got > 0.0) & (got < 1.0) & (got != 0.5)).all()


def _reference_normals(words: np.ndarray) -> np.ndarray:
    u = ((words >> 12).astype(float) + 0.5) * 2.0**-52
    radius = np.sqrt(-2.0 * np.log(u[..., 0::2]))
    angle = (2.0 * math.pi * u[..., 1::2]).astype(np.float32)
    out = np.empty(u.shape)
    out[..., 0::2] = radius * np.cos(angle).astype(float)
    out[..., 1::2] = radius * np.sin(angle).astype(float)
    return out


def test_normals_are_the_reference_formula_bit_for_bit():
    # Box-Muller with the angle rounded to float32 once: the float32 cosine
    # and sine widen exactly, and every other step is float64
    edges = [0, 1, 2**12 - 1, 2**52, 2**63, 2**64 - 1]
    edges = edges + edges[1:] + edges[:1]  # each edge word as radius and as angle
    random = np.random.default_rng(5).integers(0, 2**64, 10**5, dtype=np.uint64)
    words = np.concatenate((np.array(edges, dtype=np.uint64), random))
    blocks = (
        words,
        words[: 3 * 8000].reshape(3, 8000),
        words[: 64000].reshape(2, 4, 8000),
        words[: 9 * 10000].reshape(10000, 9)[:, 1:],
    )
    for block in blocks:
        before = block.copy()
        got = frames_module._normals(block)
        assert got.dtype == np.float64 and got.shape == block.shape
        assert _bits(got.ravel()) == _bits(_reference_normals(block).ravel())
        assert np.array_equal(block, before)


def test_normals_are_never_zero():
    # near the zeros of cos and sin the words reach every float32 angle up
    # to the largest, float32(2 pi); each of them, and the smallest angle,
    # gives a nonzero normal (the radius is at least 2^-26, never 0)
    largest = np.float32(2.0 * math.pi * (1.0 - 2.0**-53))
    windows = []
    for centre in (math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi):
        lo, hi = np.array([centre - 1e-2, centre + 1e-2], dtype=np.float32).view(np.int32)
        windows.append(np.arange(lo, hi + 1, dtype=np.int32).view(np.float32))
    angles = np.concatenate(windows)
    assert angles.size > 330_000
    angles = angles[angles <= largest]
    k = np.rint(angles.astype(float) / (2.0 * math.pi) * 2.0**52 - 0.5)
    angle_words = np.clip(k, 0, 2**52 - 1).astype(np.uint64) << np.uint64(12)
    angle_words = np.concatenate((angle_words, np.array([0, 2**64 - 1], dtype=np.uint64)))
    u = frames_module._uniforms(angle_words)
    reached = (2.0 * math.pi * u).astype(np.float32)
    assert np.array_equal(reached[:-2], angles)
    assert reached[-2] == np.float32(2.0 * math.pi * 2.0**-53) and reached[-1] == largest
    words = np.empty((angle_words.size, 2), dtype=np.uint64)
    words[:, 1] = angle_words
    for radius_word in (0, 2**63, 2**64 - 1):
        words[:, 0] = radius_word
        assert (frames_module._normals(words) != 0.0).all()


def test_ball_streams_keep_no_words_past_their_points(monkeypatch):
    # a suspended stream holds its bit generator, never a block's words
    space = GridSpace(3.0, 12)
    words_seen = []
    ball_points = GridSpace.ball_points

    def spy(self, words):
        words_seen.extend(weakref.ref(a) for a in (words, words.base) if a is not None)
        return ball_points(self, words)

    monkeypatch.setattr(GridSpace, "ball_points", spy)
    bounds = frames_module._sample_blocks(40, space.draw_width)
    assert len(bounds) > 2
    for block in frames_module._ball_blocks(space, 1, "ball", bounds):
        assert words_seen and all(ref() is None for ref in words_seen)


def test_batched_operators_match_the_oracles():
    J, size = 5, 32
    F = haar_frame(3.0, J)
    rows = oracles.normalized_haar_rows(J)
    X = frames_module._ball_block(F.space, 3, "ops", 0, 40)
    XS = frames_module._ball_block(F.space.dual, 3, "ops", 0, 40)
    for N in (1, 7, size):
        assert np.allclose(F.coeff_batch(X, N), X @ rows[:N].T / size, rtol=0.0, atol=1e-12)
        assert np.allclose(F.eval_batch(XS, N), XS @ rows[:N].T / size, rtol=0.0, atol=1e-12)
        C = X[:, :N]
        assert np.allclose(F.synth_batch(C), C @ rows[:N], rtol=0.0, atol=1e-12)
        # a 1-D input is a batch of one through the same code, bit for bit
        for i in (0, 17):
            assert np.array_equal(F.coeff_batch(X[i], N), F.coeff_batch(X, N)[i])
            assert np.array_equal(F.synth_batch(C[i]), F.synth_batch(C)[i])
    A = frame_from_label("amalgam:p=3:q=1.5:J=2:window=-1,1")
    base_rows = oracles.normalized_haar_rows(2)
    X = frames_module._ball_block(A.space, 3, "ops", 0, 20)
    XS = frames_module._ball_block(A.space.dual, 3, "ops", 0, 20)
    N = A.full_truncation + 5
    coeffs, evals = A.coeff_batch(X, N), A.eval_batch(XS, N)
    cells, dual_cells = A.space.cells(X), A.space.cells(XS)
    for rank in range(1, N + 1):
        idx = enumerate_z_cross_n(rank)
        if -1 <= idx.m <= 1 and idx.n <= 4:
            want = cells[:, idx.m + 1] @ base_rows[idx.n - 1] / 4
            want_eval = dual_cells[:, idx.m + 1] @ base_rows[idx.n - 1] / 4
        else:
            want = want_eval = np.zeros(len(X))
        assert np.allclose(coeffs[:, rank - 1], want, rtol=0.0, atol=1e-12)
        assert np.allclose(evals[:, rank - 1], want_eval, rtol=0.0, atol=1e-12)
    for i in (0, 11):
        assert np.array_equal(A.coeff_batch(X[i], N), coeffs[i])
        assert np.array_equal(A.synth_batch(coeffs[i]), A.synth_batch(coeffs)[i])


def test_besselian_sweep_memory_stays_small():
    # the sweep holds one block of points, operators and products at a time
    for label in DEFAULT_FRAME_LABELS:
        F = frame_from_label(label)  # built outside the trace
        spec = spec_for_label(label)
        tracemalloc.start()
        try:
            frames_module.sweep_arrays(F, spec.schedule, spec.samples, spec.seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20, (label, peak)


def test_sweep_blocks_are_sized_by_values():
    # at the finest grid a block is 8 rows of 4096 values, so the sweep holds
    # a few block-sized arrays (words, points, coefficients, products and
    # their sums' temporaries), not 64 rows of each
    F = frame_from_label("haar:p=3:J=12")
    schedule = (4, 16, 64, 256)
    assert _sweep_block_rows(F, schedule[-1]) == 8
    frames_module.sweep_arrays(F, schedule, 1, 1)  # the extreme points, once
    tracemalloc.start()
    try:
        frames_module.sweep_arrays(F, schedule, 300, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * frames_module._BLOCK_VALUES * 8, peak


# ---------------------------------------------------------------------------
# the sweep skips work whose result it already holds, and no bit moves
# ---------------------------------------------------------------------------


def test_sweep_rows_are_besselian_sums_past_the_cut(monkeypatch):
    # the prefix sums take only the live columns (column 0 and every column
    # holding a nonzero term), each truncation cut to the live columns
    # before it, and every row is still besselian_sum over the matching
    # ball_pair_sweep pair
    calls = []
    prefix_sums = sums_module.prefix_sums

    def spy(terms, schedule):
        calls.append((terms.shape[1], tuple(schedule)))
        return prefix_sums(terms, schedule)

    monkeypatch.setattr(sums_module, "prefix_sums", spy)
    cases = (
        ("haar:p=3:J=7", (1, 3, 16, 40, 128)),
        ("l1-canonical", (2, 5, 24, 40)),
        ("zero", (1, 4)),
    )
    for label, schedule in cases:
        F = _fresh(label)
        samples = _sweep_block_rows(F, schedule[-1]) + 6  # two sample blocks
        calls.clear()
        S = frames_module.sweep_arrays(F, schedule, samples, 5)[2]
        pairs = list(ball_pair_sweep(F.space, samples, 5))
        assert len(S) == len(pairs)
        for got, (x, xstar) in zip(S.tolist(), pairs):
            assert got == [besselian_sum(F, x, xstar, N) for N in schedule]
        for w, cut in calls:
            # column 0 is kept, so no truncation is cut to an empty sum
            assert 1 <= cut[0] and list(cut) == sorted(cut) and cut[-1] <= w
            assert all(c <= N for c, N in zip(cut, schedule))
        widths = [w for w, _ in calls]
        if label == "zero":
            assert set(widths) == {1}
            assert {cut for _, cut in calls} == {(1, 1)}
        else:
            # some chunks are cut with schedule entries below and above the cut
            assert any(schedule[0] < w < schedule[-1] for w in widths)
        if label.startswith("haar"):
            # of the 32 x 32 extreme pairs only the 32 sharing a live column
            # (rank 1..32) are summed, in one call, their factors gathered to
            # ranks 1..32; then the sample blocks of 256 and 6 rows, 128
            # rows of 128 terms per call
            assert samples == 262
            assert calls == [(32, (1, 3, 16, 32, 32)), *[(128, schedule)] * 3]


def _frame_with_a_nan_column() -> Frame:
    """l1-canonical with every coefficient past rank 29 infinite and every
    evaluation past rank 19 zero: the products past rank 29 are inf * 0."""
    space = SequenceSpace()

    def coeff_batch(x, N):
        out = space.values(x, N)
        out[..., 29:] = math.inf
        return out

    def eval_batch(xstar, N):
        out = space.dual.values(xstar, N)
        out[..., 19:] = 0.0
        return out

    return dataclasses.replace(
        canonical_l1_frame(), label="nan-column", coeff_batch=coeff_batch,
        eval_batch=eval_batch,
    )


def test_sweep_with_a_non_finite_factor_forms_the_products_first(monkeypatch):
    # cutting the factors at rank 19 would drop the inf * 0 = NaN terms
    F, schedule, samples = _frame_with_a_nan_column(), (4, 19, 30, 40), 10
    calls = []
    prefix_sums = sums_module.prefix_sums

    def spy(terms, cut):
        calls.append((np.flatnonzero(np.isnan(terms).any(axis=0)), terms.shape[1], tuple(cut)))
        return prefix_sums(terms, cut)

    monkeypatch.setattr(sums_module, "prefix_sums", spy)
    with np.errstate(invalid="ignore"):
        got = frames_module.sweep_arrays(F, schedule, samples, 3)[2]
        pairs = list(ball_pair_sweep(F.space, samples, 3))
        want = [[besselian_sum(F, x, xs, N) for N in schedule] for x, xs in pairs]
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got).any(axis=0).tolist() == [False, False, True, True]
    # the zero products at ranks 20..29 are dropped, the NaN products at
    # ranks 30..40 all kept, as the last 11 columns of every call
    assert len(calls) == 2
    for nan_columns, w, cut in calls:
        assert w < 40 and nan_columns.tolist() == list(range(w - 11, w))
        assert cut[2:] == (w - 10, w)


def _frame_with_a_nan_after_zero_columns() -> Frame:
    """l1-canonical with every coefficient at ranks 9..30 zero, every
    coefficient at rank 31 infinite and every evaluation past rank 8 zero:
    the products at ranks 9..30 and past 31 are 0, at rank 31 inf * 0."""
    space = SequenceSpace()

    def coeff_batch(x, N):
        out = space.values(x, N)
        out[..., 8:30] = 0.0
        out[..., 30:31] = math.inf
        return out

    def eval_batch(xstar, N):
        out = space.dual.values(xstar, N)
        out[..., 8:] = 0.0
        return out

    return dataclasses.replace(
        canonical_l1_frame(), label="nan-after-zeros", coeff_batch=coeff_batch,
        eval_batch=eval_batch,
    )


def test_sweep_sums_only_the_live_columns(monkeypatch):
    # every sweep row is per-pair besselian_sum bit for bit, NaN included,
    # while the prefix sums see column 0 and the columns holding a nonzero
    # term only
    calls = []
    prefix_sums = sums_module.prefix_sums

    def spy(terms, cut):
        calls.append((terms.copy(), tuple(cut)))
        return prefix_sums(terms, cut)

    monkeypatch.setattr(sums_module, "prefix_sums", spy)
    cases = (
        (_fresh("amalgam:p=2:q=2:J=4:window=-1,1"), None, 300),
        (_fresh("amalgam:p=3:q=1.5:J=2:window=-3,1"), None, 300),
        (_frame_with_a_nan_after_zero_columns(), (4, 8, 30, 31, 40), 20),
        (_fresh("zero"), (1, 4, 16), 20),
    )
    for F, schedule, samples in cases:
        schedule = schedule or spec_for_label(F.label).schedule
        calls.clear()
        with np.errstate(invalid="ignore"):
            _nx, _nxs, got = frames_module.sweep_arrays(F, schedule, samples, 5)
            want = [
                [besselian_sum(F, x, xstar, N) for N in schedule]
                for x, xstar in ball_pair_sweep(F.space, samples, 5)
            ]
        assert np.array_equal(got, want, equal_nan=True), F.label
        assert _bits(got[~np.isnan(got)]) == _bits(np.array(want)[~np.isnan(want)]), F.label
        for terms, cut in calls:
            # no column but column 0 is zero in every row
            assert terms[:, 1:].any(axis=0).all(), F.label
            assert cut[0] >= 1 and cut[-1] <= terms.shape[1]
        if F.label == "zero":
            assert {(terms.shape[1], cut) for terms, cut in calls} == {(1, (1, 1, 1))}
        if F.label == "nan-after-zeros":
            # ranks 9..30 are dropped, and rank 31's NaN survives the gather
            # as the last kept column
            for terms, cut in calls:
                w = terms.shape[1]
                assert w <= 9 and np.isnan(terms[:, -1]).all()
                assert not np.isnan(terms[:, :-1]).any()
                assert cut[2:] == (w - 1, w, w)
            assert np.isnan(got[:, 3:]).all() and not np.isnan(got[:, :3]).any()


def test_default_amalgam_sums_48_sample_and_24_extreme_columns(monkeypatch):
    # the default amalgam has 274 ranks, most of them zero pairs: the 24
    # extreme pairs that share a live column are summed over 24 columns,
    # the 2,000 samples over 48
    widths = []
    prefix_sums = sums_module.prefix_sums

    def spy(terms, cut):
        widths.append((len(terms), terms.shape[1]))
        return prefix_sums(terms, cut)

    monkeypatch.setattr(sums_module, "prefix_sums", spy)
    label = "amalgam:p=2:q=2:J=4:window=-1,1"
    F, spec = _fresh(label), spec_for_label(label)
    assert spec.schedule[-1] == 274 and spec.samples == 2000
    m = len(F.space.extremes[0])
    cold = frames_module.sweep_arrays(F, spec.schedule, spec.samples, spec.seed)
    extreme, samples = widths[:1], widths[1:]
    assert extreme == [(m, 24)]
    assert {w for _rows, w in samples} == {48}
    assert sum(rows for rows, _w in samples) == spec.samples
    # a second call on the frame reads the extreme rows from their memo:
    # only the sample blocks are summed, and no bit moves
    widths.clear()
    warm = frames_module.sweep_arrays(F, spec.schedule, spec.samples, spec.seed)
    assert widths == samples
    assert _same_sweep(warm, cold)


def test_sweep_prefix_sums_take_at_most_one_chunk(monkeypatch):
    sizes = []
    prefix_sums = sums_module.prefix_sums

    def spy(terms, cut):
        sizes.append(terms.size)
        return prefix_sums(terms, cut)

    monkeypatch.setattr(sums_module, "prefix_sums", spy)
    chunk = frames_module._PREFIX_CHUNK
    cases = (("haar:p=3:J=11", (32, 2048)), ("l1-canonical", (4, 256, 4096)))
    for label, schedule in cases:
        frames_module.sweep_arrays(_fresh(label), schedule, 70, 5)
    for label in DEFAULT_FRAME_LABELS:
        schedule = spec_for_label(label).schedule
        frames_module.sweep_arrays(_fresh(label), schedule, 70, 5)
    assert sizes and max(sizes) <= chunk
    # a smaller chunk splits the extreme product across x rows; rows stay put
    label, schedule = "amalgam:p=3:q=1.5:J=2:window=-3,1", (4, 16, 64)
    full = frames_module.sweep_arrays(_fresh(label), schedule, 70, 5)
    sizes.clear()
    monkeypatch.setattr(frames_module, "_PREFIX_CHUNK", 500)
    assert _same_sweep(frames_module.sweep_arrays(_fresh(label), schedule, 70, 5), full)
    assert max(sizes) <= 500


def test_extreme_rows_keep_ball_pair_sweep_order(monkeypatch):
    # x-major over the extreme pairs, whatever the chunk: on l1 the 12 x
    # rows and 33 xstar rows make an x-minor order fail
    F, schedule = L1, (2, 5, 12)
    xs, xstars = F.space.extremes[0], F.space.dual.extremes[0]
    pairs = list(itertools.islice(ball_pair_sweep(F.space, 0, 1), len(xs) * len(xstars)))
    want = [
        [lp_norm(x, 1.0) for x, _ in pairs],
        [linf_norm(xstar) for _, xstar in pairs],
        [[besselian_sum(F, x, xstar, N) for N in schedule] for x, xstar in pairs],
    ]
    for chunk in (frames_module._PREFIX_CHUNK, 500, 1):
        monkeypatch.setattr(frames_module, "_PREFIX_CHUNK", chunk)
        cold = frames_module.sweep_arrays(canonical_l1_frame(), schedule, 0, 1)
        assert [a.tolist() for a in cold] == want


def test_self_dual_sweeps_draw_and_analyse_once(monkeypatch):
    # each ball's blocks come from one keyed stream per sweep, and a
    # self-dual ball draws one stream for both roles; a family with
    # a_n = b_n runs one analysis for both roles; neither moves a bit of
    # any row
    draws = []
    ball_blocks = frames_module._ball_blocks

    def spy(space, seed, purpose, bounds):
        draws.append((space, len(bounds)))
        return ball_blocks(space, seed, purpose, bounds)

    monkeypatch.setattr(frames_module, "_ball_blocks", spy)
    blocks = 3
    cases = (
        ("haar:p=2:J=5", 1),
        ("amalgam:p=2:q=2:J=2:window=-1,1", 1),
        ("haar:p=3:J=5", 2),
        ("l1-canonical", 2),
    )
    for label, per_block in cases:
        F = frame_from_label(label)
        space, dual = F.space, F.space.dual
        samples = (blocks - 1) * _sweep_block_rows(F, 16) + 1
        draws.clear()
        got_nx, got_nxs, _ = frames_module.sweep_arrays(F, (4, 16), samples, 3)
        assert draws == [(space, blocks), (dual, blocks)][:per_block]
        assert (dual == space) == (per_block == 1)
        # the random pairs' norms are those of the two sides' own draws
        nx = space.norm(frames_module._ball_block(space, 3, "ball", 0, samples))
        nxs = dual.norm(frames_module._ball_block(dual, 3, "ball", 0, samples))
        assert got_nx[-samples:].tolist() == nx.tolist()
        assert got_nxs[-samples:].tolist() == nxs.tolist()

    analyses = []

    def counted(batch):
        def wrapped(values, N):
            analyses.append(N)
            return batch(values, N)

        return wrapped

    for label in ("haar:p=2:J=5", "amalgam:p=2:q=2:J=2:window=-1,1"):
        F = frame_from_label(label)
        samples = (blocks - 1) * _sweep_block_rows(F, 16) + 1
        one = counted(F.coeff_batch)
        shared = dataclasses.replace(F, coeff_batch=one, eval_batch=one)
        split = dataclasses.replace(
            F, coeff_batch=counted(F.coeff_batch), eval_batch=counted(F.eval_batch)
        )
        analyses.clear()
        rows = frames_module.sweep_arrays(shared, (4, 16), samples, 3)
        assert len(analyses) == 1 + blocks  # the extreme points, then each block
        analyses.clear()
        assert _same_sweep(frames_module.sweep_arrays(split, (4, 16), samples, 3), rows)
        assert len(analyses) == 2 * (1 + blocks)


def test_sweep_constants_propagate_a_nan_whatever_the_row_order(monkeypatch):
    # the rows of x = +-e_1 come first and stay finite; later rows are NaN
    # past rank 29, and every reduction of the constant is NaN there
    space = SequenceSpace()

    def coeff_batch(x, N):
        out = space.values(x, N)
        out[..., 29:] = np.where(x[..., 1:2] != 0.0, math.inf, 0.0)
        return out

    F = dataclasses.replace(_frame_with_a_nan_column(), coeff_batch=coeff_batch)
    schedule, samples = (4, 19, 30, 40), 10
    monkeypatch.setattr(verify_module, "frame_from_label", lambda label: F)
    spec = ExperimentSpec("l1-canonical", schedule=schedule, samples=samples, seed=3)
    with np.errstate(invalid="ignore"):
        sums = frames_module.sweep_arrays(F, schedule, samples, 3)[2]
        constant = estimate_frame_constant(F, 40, samples, 3)
        constants, _margins = verify_module._SpecResults(spec).sweep
    assert np.flatnonzero(np.isnan(sums[:, -1]))[0] > 0
    finite = [max(column) for column in sums[:, :2].T.tolist()]
    for got in (sums.max(axis=0), sums[::-1].max(axis=0), np.array(constants)):
        assert np.isnan(got).tolist() == [False, False, True, True]
        assert got[:2].tolist() == finite
    assert math.isnan(constant)
    finite_first = np.array([[1.0], [math.nan]])
    for order in (finite_first, finite_first[::-1]):
        assert math.isnan(order.max(axis=0)[0])


def _inf_past(batch, rank):
    """batch with every value past the rank infinite."""
    def wrapped(values, N):
        out = batch(values, N)
        out[..., rank:] = math.inf
        return out

    return wrapped


# The labels the probe and the extreme route are checked on against the
# gathers and products that do every step in full.
ORACLE_LABELS = (
    "l1-canonical",
    "zero",
    "haar:p=2:J=8",
    "haar:p=3:J=6",
    "amalgam:p=2:q=2:J=4:window=-1,1",
    "amalgam:p=3:q=1.5:J=2:window=-3,1",
)


def _non_finite_frames():
    """The l1 frame with a NaN column, and Haar at p = 2 with one shared
    analysis that is infinite past rank 20 (every extreme product formed)."""
    haar = frame_from_label("haar:p=2:J=5")
    shared = _inf_past(haar.coeff_batch, 20)
    return (
        _frame_with_a_nan_column(),
        dataclasses.replace(haar, label="inf-haar", coeff_batch=shared, eval_batch=shared),
    )


def test_extreme_sums_match_the_full_product_oracle():
    frames = [frame_from_label(label) for label in ORACLE_LABELS]
    for F in frames + list(_non_finite_frames()):
        schedule = spec_for_label(F.label).schedule if F in frames else (4, 19, 30)
        with np.errstate(invalid="ignore"):
            got = frames_module.sweep_arrays(F, schedule, 0, 1)[2]
            want = oracles.extreme_sums(F, schedule)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True), F.label
        assert _bits(got[~np.isnan(got)]) == _bits(want[~np.isnan(want)]), F.label


def test_shared_and_split_analyses_sum_the_same_extreme_pairs(monkeypatch):
    # a_n = b_n on a self-dual ball analyses the extreme points once for
    # both roles; the same frame with two analysis callables sums the same
    # pairs, the m sharing a live column, and both give the same bits
    rows = []
    prefix_sums = sums_module.prefix_sums

    def spy(terms, cut):
        rows.append(len(terms))
        return prefix_sums(terms, cut)

    monkeypatch.setattr(sums_module, "prefix_sums", spy)
    for label in ("haar:p=2:J=8", "amalgam:p=2:q=2:J=4:window=-1,1"):
        F = _fresh(label)
        m = len(F.space.extremes[0])
        split = dataclasses.replace(F, eval_batch=lambda x, N, F=F: F.coeff_batch(x, N))
        schedule = spec_for_label(label).schedule
        rows.clear()
        shared = frames_module.sweep_arrays(F, schedule, 0, 1)
        assert sum(rows) == m
        rows.clear()
        separate = frames_module.sweep_arrays(split, schedule, 0, 1)
        assert [_bits(v) for v in separate] == [_bits(v) for v in shared]
        assert sum(rows) == m
    F = _fresh("haar:p=3:J=6")  # a_n = b_n, but two balls
    rows.clear()
    frames_module.sweep_arrays(F, (4, 64), 0, 1)
    assert sum(rows) == len(F.space.extremes[0]) == 32


def _mixed_ranks(batch):
    """batch with half of each rank's value added to the next rank's."""
    def wrapped(values, N):
        out = batch(values, N)
        out[..., 1:] += 0.5 * out[..., :-1]
        return out

    return wrapped


def test_extreme_pairs_sharing_several_live_columns_are_besselian_sums(monkeypatch):
    # with neighbouring ranks mixed in both analyses, extreme point k is
    # nonzero at ranks k and k + 1 (the last at rank m = N only): pair
    # (k, k) shares two live columns, pairs (k, k +- 1) and (m, m) one, and
    # every sweep row is still besselian_sum
    terms = []
    prefix_sums = sums_module.prefix_sums

    def spy(block, cut):
        terms.append(block.copy())
        return prefix_sums(block, cut)

    monkeypatch.setattr(sums_module, "prefix_sums", spy)
    schedule, samples = (2, 5, 16, 32), 20
    for label in ("haar:p=2:J=5", "haar:p=3:J=5"):
        haar = frame_from_label(label)
        mixed = _mixed_ranks(haar.coeff_batch)
        F = dataclasses.replace(haar, label="mixed", coeff_batch=mixed, eval_batch=mixed)
        m = len(F.space.extremes[0])
        assert m == schedule[-1]
        terms.clear()
        _nx, _nxs, got = frames_module.sweep_arrays(F, schedule, samples, 4)
        want = [
            [besselian_sum(F, x, xstar, N) for N in schedule]
            for x, xstar in ball_pair_sweep(F.space, samples, 4)
        ]
        assert _bits(got) == _bits(want), label
        extreme = np.concatenate(terms[:-1])  # the last call is the samples'
        assert len(extreme) == 3 * m - 2, label
        assert np.bincount((extreme != 0.0).sum(axis=1)).tolist() == [0, 2 * m - 1, m - 1]


def test_unconditional_sweep_matches_the_gather_oracle():
    cases = [(frame_from_label(label), spec_for_label(label).schedule) for label in ORACLE_LABELS]
    cases += [(F, (4, 19, 30)) for F in _non_finite_frames()]
    for F, schedule in cases:
        elements = [seeded_ball_point(F.space, 3, "elements", k) for k in range(3)]
        coords = [F.space.coordinates(x) for x in elements]
        with np.errstate(invalid="ignore", over="ignore"):
            got = _probe_pairs(F, elements, schedule, 7, 42)
            want = [oracles.ordering_probe(F, coords, N, 7, 42) for N in schedule]
        assert np.array_equal(got, want, equal_nan=True), F.label
        finite = np.isfinite(got)
        assert _bits(np.array(got)[finite]) == _bits(np.array(want)[finite]), F.label


def test_ball_pair_sweep_points_own_their_coordinates():
    def buffers(element):
        if isinstance(element, GridFunction):
            return [element.coefficients]
        return [cell.coefficients for cell in element.cells.values()]

    for space in (
        GridSpace(2.0, 4),
        GridSpace(3.0, 4),
        AmalgamSpace(2.0, 2.0, (-1, 1), 2),
        AmalgamSpace(3.0, 1.5, (-1, 1), 2),
    ):
        block = frames_module._block_rows(space.draw_width, space.dual.draw_width)
        for x, xstar in ball_pair_sweep(space, block + 3, 2):
            for a in buffers(x):
                assert not any(np.shares_memory(a, b) for b in buffers(xstar))


def test_self_dual_families_share_one_operator():
    haar = frame_from_label("haar:p=3:J=4")
    split = dataclasses.replace(haar, eval_batch=lambda g, N: haar.eval_batch(g, N))
    for F in (
        haar,
        frame_from_label("haar:p=2:J=5"),
        frame_from_label("amalgam:p=2:q=2:J=2:window=-1,1"),
        amalgam_frame(haar, 1.5, (-1, 1)),
    ):
        assert F.eval_batch is F.coeff_batch
        assert dual_frame(F).eval_batch is dual_frame(F).coeff_batch
        assert F.synth_batch is F.dual_synth_batch
        assert dual_frame(F).synth_batch is dual_frame(F).dual_synth_batch
    for F in (L1, split, amalgam_frame(split, 1.5, (-1, 1))):
        assert F.eval_batch is not F.coeff_batch
    assert L1.synth_batch is not L1.dual_synth_batch


def test_dual_descriptors_keep_the_stream_keys():
    # The dual ball's key enters every dual-side random stream, so these
    # literals (compared by repr: 2 and 2.0 key different streams) pin the
    # draws behind the default reports.
    expected = {
        "l1-canonical": ("seq-linf",),
        "haar:p=2:J=8": ("grid", 8, 2.0),
        "amalgam:p=2:q=2:J=4:window=-1,1": ("amalgam", 4, (-1, 1), 2.0, 2.0),
    }
    assert set(expected) == set(DEFAULT_FRAME_LABELS)
    for label, key in expected.items():
        F = frame_from_label(label)
        assert repr(F.space.dual.ball_key) == repr(key)
        assert F.space.dual is F.space.dual  # built once per descriptor
        assert dual_frame(F).space == F.space.dual
    assert repr(GridSpace(3.0, 4).dual.ball_key) == repr(("grid", 4, 1.5))


def test_dual_frame_swaps_roles():
    Fd = dual_frame(HAAR4)
    for n in (1, 2, 5, 16):
        a, b = frame_pair(HAAR4, n)
        ad, bd = frame_pair(Fd, n)
        assert ad == b and bd == a
    assert Fd.label == HAAR4.label + "*"
    assert Fd.space.p == 2.0

    Ld = dual_frame(L1)
    a1, b1 = frame_pair(Ld, 3)
    assert a1 == DualSeq.unit_functional(3)
    assert b1 == SeqVector.basis(3)


def test_dual_of_dual_restores_grid_frame():
    F2 = dual_frame(dual_frame(haar_frame(1.5, 3)))
    base = haar_frame(1.5, 3)
    for n in range(1, 9):
        a, b = frame_pair(base, n)
        a2, b2 = frame_pair(F2, n)
        assert a == a2 and b == b2


def test_dual_frame_synthesis_reconstructs():
    # the dual frame's synthesis is the original frame's dual synthesis
    amalgam = frame_from_label("amalgam:p=3:q=1.5:J=3:window=-1,1")
    for F in (haar_frame(1.5, 4), amalgam):
        Fd = dual_frame(F)
        g = seeded_ball_point(Fd.space, 37, "elements", 0)
        rebuilt = synthesis_partial(Fd, g, F.full_truncation)
        assert Fd.space.element_norm(g - rebuilt) <= 1e-12
    mu = DualSeq((0.5, 0.0, -2.0, 0.25), 0.0)
    Ld = dual_frame(L1)
    assert synthesis_partial(Ld, mu, 4) == mu
    assert synthesis_partial(Ld, mu, 2) == DualSeq((0.5, 0.0), 0.0)


def test_dual_of_dual_sequence_space_is_rejected():
    with pytest.raises(DualRepresentationError):
        dual_frame(dual_frame(L1))


def test_duality_check_examples():
    lf, ld = duality_constant_check(HAAR4, 16, 150, 42)
    assert lf == pytest.approx(1.0, abs=1e-6)
    assert ld == pytest.approx(1.0, abs=1e-6)
    lf, ld = duality_constant_check(L1, 16, 150, 42)
    assert lf == 1.0
    assert abs(ld - 1.0) <= 1e-9


def test_dual_frame_sweep_mirrors_the_frame_sweep():
    # reference for duality_constant_check's one sweep: the dual frame's own
    # sweep draws F's pairs mirrored, and the besselian sum is symmetric under
    # the mirror, so its constants are F's bit for bit
    for label in (
        "l1-canonical",
        "haar:p=1.5:J=3",
        "haar:p=3:J=5",
        "amalgam:p=3:q=1.5:J=2:window=-3,1",
    ):
        F = frame_from_label(label)
        nx, nxs, sums = frames_module.sweep_arrays(F, (4, 8), 20, 42)
        dual = frames_module.sweep_arrays(dual_frame(F), (4, 8), 20, 42)
        assert dual[2].max(axis=0).tolist() == sums.max(axis=0).tolist()
        assert len(sums) == len(list(ball_pair_sweep(F.space, 20, 42)))
        # row by row: the same pairs with the roles of the two balls swapped
        assert _sorted_rows(*dual) == _sorted_rows(nxs, nx, sums)


def test_duality_estimates_mirror_exactly_on_catalog_frames():
    # the sampler keys random draws by ball identity, not by frame role, so
    # the dual frame consumes mirrored streams and the two sides agree
    # bit-for-bit
    for label in ("l1-canonical", "haar:p=1.5:J=3", "amalgam:p=2:q=2:J=3:window=-1,1"):
        F = frame_from_label(label)
        lf, ld = duality_constant_check(F, 8, 40, 42)
        assert lf == ld


# ---------------------------------------------------------------------------
# unconditionality
# ---------------------------------------------------------------------------


def test_unconditional_sweep_matches_per_truncation_probes():
    # atom rows built once at the largest truncation and sliced give every
    # truncation's probe bit for bit
    amalgam = frame_from_label("amalgam:p=2:q=2:J=2:window=-1,1")
    for F in (L1, HAAR4, amalgam):
        elements = [seeded_ball_point(F.space, 3, "elements", k) for k in range(2)]
        schedule = (2, 5, 16)
        results = unconditional_sweep(F, elements, schedule, 4, 42)
        assert results == [
            [unconditional_probe(F, x, N, 4, 42) for x in elements] for N in schedule
        ]


def test_unconditional_sweep_analyses_each_element_once():
    # one analysis per element, at the largest truncation, sliced for the
    # others: the results are the per-truncation probes bit for bit, with
    # l1 elements of different lengths and schedules given out of order
    l1_elements = [
        SeqVector.from_pairs([(1, 0.5)]),
        SeqVector.from_pairs([(3, -0.25), (17, 0.75)]),
        seeded_ball_point(L1.space, 3, "elements", 0),
    ]
    assert len({len(L1.space.coordinates(x)) for x in l1_elements}) == 3
    cases = [(L1, l1_elements, (16, 4, 40, 9))]
    for label, schedule in (
        ("haar:p=3:J=5", (32, 4, 16)),
        ("amalgam:p=3:q=1.5:J=2:window=-3,1", (16, 45, 4)),
    ):
        F = frame_from_label(label)
        cases.append((F, [seeded_ball_point(F.space, 3, "elements", k) for k in range(3)], schedule))
    for F, elements, schedule in cases:
        calls = []

        def counted(values, N, batch=F.coeff_batch):
            calls.append(N)
            return batch(values, N)

        got = _probe_pairs(dataclasses.replace(F, coeff_batch=counted), elements, schedule, 5, 42)
        assert calls == [max(schedule)] * len(elements), F.label
        want = [
            [(r.deviation, r.sign_flip_norm) for r in
             (unconditional_probe(F, x, N, 5, 42) for x in elements)]
            for N in schedule
        ]
        assert _bits(got) == _bits(want), F.label


def test_unconditional_sweep_draws_each_trial_once(monkeypatch):
    # from a cold draw memo, one stream per (trial, truncation), each drawn
    # once: a repeated sweep derives none; one permutation and sign pattern
    # per (trial, truncation), shared by every element, with results equal
    # to per-element probes bit for bit.  The l1 atoms have disjoint
    # supports, so no truncation can be reordered and no stream is derived
    # at all.
    for label in DEFAULT_FRAME_LABELS:
        F = frame_from_label(label)
        elements = [seeded_ball_point(F.space, 3, "elements", k) for k in range(3)]
        schedule = spec_for_label(label).schedule
        calls = []

        def counted(seed, *keys, original=frames_module.derive_rng):
            calls.append(keys)
            return original(seed, *keys)

        frames_module._trial_draws.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(frames_module, "derive_rng", counted)
            results = unconditional_sweep(F, elements, schedule, 5, 42)
            streams = [] if label == "l1-canonical" else [
                ("unconditional", t) for _N in schedule for t in range(5)
            ]
            assert calls == streams, label
            calls.clear()
            assert unconditional_sweep(F, elements, schedule, 5, 42) == results
            assert calls == [], label
        assert results == [
            [unconditional_probe(F, x, N, 5, 42) for x in elements] for N in schedule
        ]


def test_unconditional_sweep_reads_and_fills_a_draw_table(monkeypatch):
    # the draw memo, keyed by (seed, trials, N), holds each ordered
    # truncation's read-only (position, signs); a sweep derives the trial
    # streams only for the keys missing from it, and the results are those
    # of a cold memo
    calls = []

    def counted(seed, *keys, original=frames_module.derive_rng):
        calls.append(keys)
        return original(seed, *keys)

    draws = frames_module._trial_draws
    haar, amalgam = frame_from_label("haar:p=2:J=8"), frame_from_label(DEFAULT_FRAME_LABELS[2])
    cases = (
        (haar, (4, 16, 64), 15),  # all three missing: five streams each
        (amalgam, (4, 16, 64, 274), 5),  # 274 missing
        (haar, (4, 64), 0),
        (L1, (4, 64), 0),  # order-free: no lookup, no draw
    )
    elements = {F: [seeded_ball_point(F.space, 3, "elements", k) for k in range(3)]
                for F in (haar, amalgam, L1)}
    cold = []
    for F, schedule, _ in cases:
        draws.cache_clear()
        cold.append(unconditional_sweep(F, elements[F], schedule, 5, 42))
    draws.cache_clear()
    monkeypatch.setattr(frames_module, "derive_rng", counted)
    for (F, schedule, streams), want in zip(cases, cold):
        calls.clear()
        assert unconditional_sweep(F, elements[F], schedule, 5, 42) == want, F.label
        assert len(calls) == streams, F.label
    assert draws.cache_info().currsize == 4
    calls.clear()
    for N in (4, 16, 64, 274):
        position, signs = draws(42, 5, N)
        again = draws(42, 5, N)
        assert again[0] is position and again[1] is signs
        assert position.shape == signs.shape == (5, N)
        assert not position.flags.writeable and not signs.flags.writeable
        assert (np.sort(position, axis=1) == np.arange(N)).all()
        assert set(np.unique(signs)) <= {-1.0, 1.0}
    assert calls == []
    # another seed or trial count is another key
    x = seeded_ball_point(haar.space, 3, "elements", 0)
    unconditional_sweep(haar, (x,), (4,), 6, 42)
    unconditional_sweep(haar, (x,), (4,), 5, 43)
    assert len(calls) == 6 + 5 and draws.cache_info().currsize == 6


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _dense_probe(F, elements, N: int, trials: int, seed: int) -> list:
    """(deviation, sign-flip norm) per element, with every sum taken over the
    dense atom rows, zeros included, in the trial's order.  The norms are
    taken over the elements' stacked sums, as the probe takes them: on a
    1-d input a norm may round its last step differently."""
    rows = F.synth_batch(np.eye(N))
    coeffs = [F.coeff_batch(F.space.coordinates(x), N) for x in elements]
    bases = [oracles.in_order_sum(c, rows) for c in coeffs]
    deviations = flips = np.zeros(len(elements))
    for t in range(trials):
        rng = derive_rng(seed, "unconditional", t)
        perm = rng.permutation(N)
        signs = rng.integers(0, 2, size=N) * 2 - 1
        permuted = [oracles.in_order_sum(c[perm], rows[perm]) - b for c, b in zip(coeffs, bases)]
        flipped = [oracles.in_order_sum(signs * c, rows) for c in coeffs]
        deviations = np.maximum(deviations, F.space.norm(np.array(permuted)))
        flips = np.maximum(flips, F.space.norm(np.array(flipped)))
    return list(zip(deviations.tolist(), flips.tolist()))


def _probe_pairs(F, elements, schedule, trials, seed) -> list:
    return [
        [(r.deviation, r.sign_flip_norm) for r in results]
        for results in unconditional_sweep(F, elements, schedule, trials, seed)
    ]


def test_unconditional_sweep_matches_the_dense_in_order_oracle():
    cases = [(frame_from_label(label), spec_for_label(label).schedule)
             for label in DEFAULT_FRAME_LABELS]
    cases += [
        (frame_from_label("haar:p=3:J=5"), (4, 16, 32)),
        (frame_from_label("amalgam:p=3:q=1.5:J=2:window=-3,1"), (4, 16, 45)),
        (dual_frame(frame_from_label("haar:p=3:J=5")), (3, 32)),
        (dual_frame(L1), (4, 30)),
    ]
    for F, schedule in cases:
        elements = [seeded_ball_point(F.space, 3, "elements", k) for k in range(3)]
        got = _probe_pairs(F, elements, schedule, 6, 42)
        want = [_dense_probe(F, elements, N, 6, 42) for N in schedule]
        assert _bits(got) == _bits(want), F.label


def test_unconditional_sweep_adds_in_order_where_pairwise_sums_differ(monkeypatch):
    # At J = 8 each grid cell lies in 9 Haar atoms, enough for numpy's
    # unrolled pairwise loop, which a reduce over a strided axis would run.
    F = frame_from_label("haar:p=2:J=8")
    elements = [seeded_ball_point(F.space, 3, "elements", k) for k in range(3)]
    want = [_dense_probe(F, elements, 256, 6, 42)]
    assert _bits(_probe_pairs(F, elements, (256,), 6, 42)) == _bits(want)

    def pairwise(terms):
        return np.add.reduce(np.ascontiguousarray(np.moveaxis(terms, -2, -1)), axis=-1)

    with monkeypatch.context() as patch:
        patch.setattr(sums_module, "in_order", pairwise)
        assert _bits(_probe_pairs(F, elements, (256,), 6, 42)) != _bits(want)


def test_unconditional_sweep_memory_is_linear_in_the_truncation():
    # the atoms are synthesized a block of ranks at a time, never as an
    # N x N identity
    x = seeded_ball_point(L1.space, 1, "elements", 0)
    peaks = {}
    for N in (1024, 2048):
        F = canonical_l1_frame()  # no atom table yet
        tracemalloc.start()
        try:
            unconditional_sweep(F, [x], (N,), 1, 1)
            peaks[N] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2048] < 8 * 2**20, peaks
    assert peaks[2048] <= 2.5 * peaks[1024], peaks


def test_unconditional_deviation_vanishes_at_covering():
    lam = SeqVector.from_pairs([(n, 1.0 / n**2) for n in range(1, 11)])
    assert unconditional_deviation(L1, lam, 10, 20, 42) <= 1e-12
    rng = np.random.default_rng(3)
    f = GridFunction(4, rng.standard_normal(16))
    assert unconditional_deviation(HAAR4, f, 16, 50, 42) <= 1e-10


def test_unconditional_probe_records_sign_flip_norm():
    lam = SeqVector.from_pairs([(1, 1.0), (2, -2.0), (3, 3.0)])
    result = unconditional_probe(L1, lam, 3, 10, 42)
    assert result.deviation <= 1e-12
    # flipping signs of an l1 vector never changes the norm
    assert result.sign_flip_norm == pytest.approx(lp_norm(lam, 1.0))
    assert result.trials == 10
    with pytest.raises(ValueError):
        unconditional_probe(L1, lam, 0, 10, 42)
    with pytest.raises(ValueError):
        unconditional_probe(L1, lam, 3, 0, 42)


def test_unconditional_deviation_nonzero_before_coverage_is_reported():
    # at partial truncation the permuted sum may differ; the value is still
    # finite, deterministic information
    lam = SeqVector.from_pairs([(1, 1.0), (4, 2.0)])
    d1 = unconditional_deviation(L1, lam, 2, 5, 42)
    d2 = unconditional_deviation(L1, lam, 2, 5, 42)
    assert d1 == d2 >= 0.0


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------


def test_l1_shrinking_tail_examples():
    ones = DualSeq.all_ones()
    for N, M in ((0, 4), (4, 8), (16, 32)):
        assert shrinking_tail(L1, ones, N, M) == 1.0
    recip = DualSeq(tuple(1.0 / n for n in range(1, 65)), 0.0)
    for N in (1, 3, 7):
        assert shrinking_tail(L1, recip, N, 2 * N + 2) == 1.0 / (N + 1)
    with pytest.raises(ValueError):
        shrinking_tail(L1, ones, 4, 4)


def test_haar_shrinking_tail_vanishes_beyond_span():
    # a dual element living on the coarser half-grid has no coefficients
    # beyond rank 2^(J-1)
    F = haar_frame(2.0, 4)
    rng = np.random.default_rng(8)
    g = GridFunction(3, rng.standard_normal(8))
    assert shrinking_tail(F, g, 8, 16) <= 1e-12


def test_boundedly_complete_tail_examples():
    F = haar_frame(2.0, 4)
    rng = np.random.default_rng(9)
    f = GridFunction(3, rng.standard_normal(8))
    assert boundedly_complete_tail(F, f, 8, 16) <= 1e-12
    assert boundedly_complete_tail(F, GridFunction.zero(4), 1, 16) == 0.0
    h2n, _ = frame_pair(F, 2)
    tail = boundedly_complete_tail(F, h2n, 1, 16)
    assert tail == pytest.approx(grid_lp_norm(h2n, 2.0), abs=1e-12)
    with pytest.raises(DualRepresentationError):
        boundedly_complete_tail(L1, SeqVector.basis(1), 1, 4)


# ---------------------------------------------------------------------------
# reflexivity probe
# ---------------------------------------------------------------------------


def test_probe_haar_consistent_with_reflexive():
    spec = ExperimentSpec(HAAR4.label, schedule=(4, 16), probe_samples=4)
    report = reflexivity_probe(HAAR4, spec)
    assert report.verdict == "consistent with reflexive"
    assert report.all_pass()
    finals = [
        p.value
        for p in report.probes
        if p.truncation == 16 and p.name in ("shrinking-tail", "boundedly-complete-tail")
    ]
    assert len(finals) == 2 and all(v <= 1e-6 for v in finals)


def test_probe_l1_finds_non_shrinking_witness():
    spec = ExperimentSpec(L1.label, schedule=(4, 16, 64), probe_samples=4)
    report = reflexivity_probe(L1, spec)
    assert report.verdict == "non-shrinking witness found"
    assert report.all_pass()  # a conclusive witness is a successful probe
    tails = [p.value for p in report.probes if p.name == "shrinking-tail"]
    assert tails == [1.0, 1.0, 1.0]
    assert any("skipped" in n for n in report.notes)


def test_probe_stall_before_full_truncation_is_no_witness():
    # white-noise candidates on the orthonormal Haar basis have tails that
    # grow until the schedule reaches 2^J; a stall before that proves nothing
    F = haar_frame(2.0, 8)
    report = reflexivity_probe(F, ExperimentSpec(F.label, schedule=(4, 16, 64, 128)))
    assert report.verdict == "inconclusive"
    assert any("before the full truncation 256" in n for n in report.notes)
    full = reflexivity_probe(F, ExperimentSpec(F.label, schedule=(4, 16, 64, 256)))
    assert full.verdict == "consistent with reflexive"


def _typed_leg(F, ball, purpose: str, tail_fn, spec: ExperimentSpec) -> list:
    """Each scheduled truncation's max over the probe's candidates, typed
    elements one at a time, of clamped_tail(tail_fn, ...) at horizon 2N."""
    extremes = ball.extremes[0][: frames_module._EXTREME_CANDIDATES]
    candidates = [ball.from_coordinates(c) for c in extremes] + [
        seeded_ball_point(ball, spec.seed, purpose, k) for k in range(spec.probe_samples)
    ]
    return [
        max(clamped_tail(tail_fn, F, c, N, 2 * N) for c in candidates) for N in spec.schedule
    ]


def test_probe_legs_are_the_typed_tails_bit_for_bit():
    # each leg's row is the max over its candidates of the typed tail;
    # the legs run a block of candidates per operator call, one at a time here
    cases = [(label, spec_for_label(label).schedule, 42) for label in DEFAULT_FRAME_LABELS]
    cases += [
        ("haar:p=3:J=6", (4, 16, 64), 7),
        ("amalgam:p=3:q=1.5:J=2:window=-3,1", (4, 16, 64), 42),
        ("l1-canonical", (4, 16, 64, 256, 512), 1),
        ("zero", (4, 16), 3),
        ("haar:p=1.5:J=5", (4, 12, 16, 24, 32), 7),  # horizons clamped to rank 32
    ]
    for label, schedule, seed in cases:
        F = frame_from_label(label)
        spec = ExperimentSpec(label, schedule=schedule, probe_samples=8, seed=seed)
        report = reflexivity_probe(F, spec)
        legs = [("shrinking", F.space.dual, "probe-dual", shrinking_tail)]
        if F.space.bidual_representable:
            legs.append(("boundedly-complete", F.space, "probe-bidual", boundedly_complete_tail))
        for name, ball, purpose, tail_fn in legs:
            got = [p.value for p in report.probes if p.name == f"{name}-tail"]
            want = _typed_leg(F, ball, purpose, tail_fn, spec)
            assert _bits(got) == _bits(want), (label, name)
        if label.startswith("haar:p=1.5"):
            assert got[-1] == 0.0  # N = 32: no rank is left past N


def test_worst_tails_refuses_a_bidual_leg_with_no_representation():
    # as boundedly_complete_tail does: l1's biduals are not l1 elements
    assert frames_module.worst_tails(L1, True, (4, 16), 2, 42) == [1.0, 1.0]
    with pytest.raises(DualRepresentationError, match="no finite representation"):
        frames_module.worst_tails(L1, False, (4, 16), 2, 42)


def _l1_with_nan_dual_tails(rows: str) -> Frame:
    """l1-canonical whose dual synthesis writes NaN into the rows of the
    extreme candidates (rows="extreme") or of every other candidate
    (rows="sampled").  The extreme candidates are sign patterns, so their
    nonzero tail coefficients are +-1; the sampled ones have sup norm 0.99."""
    F = canonical_l1_frame()

    def dual_synth_batch(coeffs):
        out = F.dual_synth_batch(coeffs)
        extreme = np.abs(coeffs).max(axis=-1) == 1.0
        out[extreme == (rows == "extreme")] = np.nan
        return out

    return dataclasses.replace(F, label=f"nan-{rows}-tails", dual_synth_batch=dual_synth_batch)


def test_a_nan_tail_raises_whichever_candidate_holds_it(monkeypatch):
    # every candidate's tail is one row of one array, so a NaN tail of a
    # sampled candidate reaches its row as one of an extreme candidate does,
    # and run_all reports the suite as failed
    message = "probe 'shrinking-tail' produced non-finite nan"
    # at N = 2048 the tails are taken 4 rows at a time, one array for the
    # extreme candidates and one for the sampled ones
    assert frames_module._TAIL_VALUES // 4096 == 4
    for rows in ("extreme", "sampled"):
        F = _l1_with_nan_dual_tails(rows)
        for schedule in ((4, 16), (2048,)):
            spec = ExperimentSpec(F.label, schedule=schedule, probe_samples=4)
            with pytest.raises(ValueError, match=message):
                reflexivity_probe(F, spec)
        monkeypatch.setattr(verify_module, "frame_from_label", lambda label, F=F: F)
        spec = verify_module.ExperimentSpec("l1-canonical", schedule=(4, 16), probe_samples=4)
        (report,) = verify_module.run_all([spec], suites=("james",)).reports
        assert [(p.name, p.passed) for p in report.probes] == [("suite-error", False)]
        assert report.notes == (f"ValueError: {message}",)


def test_zero_frame_runs_the_operator_route():
    Z = zero_sequence_frame()
    lam = SeqVector.from_pairs([(1, 2.0), (3, -1.0)])
    assert frame_pair(Z, 4) == (SeqVector(), DualSeq())
    assert synthesis_partial(Z, lam, 4) == SeqVector()
    assert np.array_equal(coefficient_products(Z, lam, DualSeq.all_ones(), 4), np.zeros(4))
    result = unconditional_probe(Z, lam, 4, 3, 42)
    assert result.deviation == 0.0 and result.sign_flip_norm == 0.0
    assert shrinking_tail(Z, DualSeq.all_ones(), 0, 8) == 0.0
    assert covering_truncation(Z, lam) is None
    assert covering_truncation(dual_frame(Z), DualSeq()) is None


def test_probe_zero_frame_is_degenerate():
    report = reflexivity_probe(
        zero_sequence_frame(), ExperimentSpec("zero", schedule=(4, 8), probe_samples=2)
    )
    assert report.verdict == "degenerate"
    assert "zero-elements" in report.flags


def test_probe_amalgam_consistent_with_reflexive():
    F = frame_from_label("amalgam:p=2:q=2:J=3:window=-1,1")
    spec = ExperimentSpec(F.label, schedule=(4, 16, F.full_truncation), probe_samples=3)
    report = reflexivity_probe(F, spec)
    assert report.verdict == "consistent with reflexive"
    assert "zero-elements" in report.flags


def test_probe_config_validation():
    # the probe's settings are checked once, by the spec that carries them
    for bad in (
        dict(schedule=()),
        dict(schedule=(4, 4)),
        dict(schedule=(4, 16), tail_tol=0.0),
        dict(schedule=(4, 16), probe_samples=-1),
    ):
        with pytest.raises(ValueError):
            ExperimentSpec("l1-canonical", **bad)


# ---------------------------------------------------------------------------
# misc plumbing
# ---------------------------------------------------------------------------


def test_covering_truncations():
    lam = SeqVector.from_pairs([(2, 1.0), (9, -1.0)])
    assert covering_truncation(L1, lam) == 9
    f = GridFunction(3, np.ones(8))
    assert covering_truncation(HAAR4, f) == 8
    too_fine = GridFunction(6, np.ones(64))
    assert covering_truncation(HAAR4, too_fine) is None
    A = frame_from_label("amalgam:p=2:q=2:J=3:window=-1,1")
    x = seeded_ball_point(A.space, 1, "t", 0)
    cover = covering_truncation(A, x)
    assert cover == rank_of_index(1, 8)


def test_sweep_probe_and_tails_build_no_typed_elements(monkeypatch):
    # the frame-level loops run on coordinate arrays; typed elements are
    # built only where a public function takes or returns one
    runs = []
    for label in DEFAULT_FRAME_LABELS:
        F = frame_from_label(label)
        elements = [seeded_ball_point(F.space, 7, "uncond-element", k) for k in range(2)]
        runs.append((F, elements, spec_for_label(label).schedule))
    built = []
    for cls in (SeqVector, DualSeq, GridFunction, AmalgamFunction):
        def counted(self, original=cls.__post_init__):
            built.append(type(self).__name__)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    for F, elements, schedule in runs:
        frames_module.sweep_arrays(F, schedule, 20, 42)
        unconditional_sweep(F, elements, schedule, 3, 42)
        reflexivity_probe(F, ExperimentSpec(F.label, schedule=schedule, probe_samples=2))
    assert built == []


def test_inputs_outside_the_model_keep_their_values():
    # a grid function finer than the Haar level is read through its cell
    # averages, which keep every integral against the level-J Haar functions
    F = haar_frame(3.0, 3)
    rng = np.random.default_rng(41)
    fine = GridFunction(5, rng.standard_normal(32))
    averaged = fine.coefficients.reshape(8, 4).mean(axis=1)
    want = oracles.normalized_haar_rows(3) @ averaged / 8
    got = [analysis_coefficient(F, n, fine) for n in range(1, 9)]
    assert np.allclose(got, want, atol=1e-13, rtol=0.0)
    partial = synthesis_partial(F, fine, 8)
    assert partial.level == 3
    assert np.allclose(partial.coefficients, averaged, atol=1e-12, rtol=0.0)
    assert grid_lp_norm(fine - partial, 3.0) > 0.1
    # mass outside an amalgam frame's window has no coefficient and no atom
    A = frame_from_label("amalgam:p=2:q=2:J=2:window=-1,1")
    base = haar_frame(2.0, 2)
    wide = AmalgamFunction(
        (-2, 2), {m: GridFunction(2, rng.standard_normal(4)) for m in range(-2, 3)}
    )
    for rank in range(1, A.full_truncation + 1):
        idx = enumerate_z_cross_n(rank)
        inside = -1 <= idx.m <= 1 and idx.n <= 4
        want = analysis_coefficient(base, idx.n, wide.cell(idx.m)) if inside else 0.0
        assert analysis_coefficient(A, rank, wide) == want
    rebuilt = synthesis_partial(A, wide, A.full_truncation)
    outside = AmalgamFunction((-2, 2), {m: wide.cell(m) for m in (-2, 2)})
    assert amalgam_norm(wide - rebuilt - outside, 2.0, 2.0) <= 1e-12


def test_frame_zero_element_scan():
    assert not frame_has_zero_elements(L1, 64)
    assert not frame_has_zero_elements(HAAR4, 16)
    A = frame_from_label("amalgam:p=2:q=2:J=3:window=-1,1")
    assert frame_has_zero_elements(A, 64)
    assert frame_has_zero_elements(zero_sequence_frame(), 8)


def _masked_l1(label: str, dead, both: bool) -> Frame:
    """l1-canonical with a_n = 0 for the ranks n in dead, and b_n = 0 too
    when both."""
    def mask(synth):
        def masked(coeffs):
            coeffs = np.array(coeffs, dtype=float)
            coeffs[..., [n - 1 for n in dead if n <= coeffs.shape[-1]]] = 0.0
            return synth(coeffs)
        return masked

    dual_synth = mask(L1.dual_synth_batch) if both else L1.dual_synth_batch
    return dataclasses.replace(
        L1, label=label, synth_batch=mask(L1.synth_batch), dual_synth_batch=dual_synth
    )


ZERO_SCAN_FRAMES = (
    "l1-canonical",
    "zero",
    "haar:p=3:J=4",
    "haar:p=2:J=10",
    "amalgam:p=2:q=2:J=4:window=-1,1",
    "amalgam:p=3:q=1.5:J=2:window=-3,1",
)


def _zero_scan_frames() -> list:
    return [frame_from_label(label) for label in ZERO_SCAN_FRAMES] + [
        _masked_l1("zero-vector-at-70", (70,), both=False),
        _masked_l1("zero-pairs-to-64", range(1, 65), both=True),
    ]


def _rank_spies(F: Frame) -> tuple[Frame, tuple[list, list]]:
    """A fresh copy of F whose syntheses record the rank of every unit row
    they synthesize; a shared synthesis stays shared and records in the
    first list."""
    seen = ([], [])

    def spy(synth, ranks):
        def recorded(units):
            ranks.extend((np.argmax(units, axis=-1) + 1).tolist())
            return synth(units)
        return recorded

    synth = spy(F.synth_batch, seen[0])
    dual_synth = synth
    if F.dual_synth_batch is not F.synth_batch:
        dual_synth = spy(F.dual_synth_batch, seen[1])
    return dataclasses.replace(F, synth_batch=synth, dual_synth_batch=dual_synth), seen


def test_zero_pair_scan_matches_the_block_scan_oracle():
    uptos = range(601)
    for F in _zero_scan_frames():
        want = [oracles.zero_pair_scan(F, upto) for upto in uptos]
        # dataclasses.replace gives a copy with an empty record
        for order in (uptos, uptos[::-1]):
            fresh = dataclasses.replace(F)
            got = {upto: frames_module._zero_pair_scan(fresh, upto) for upto in order}
            assert [got[upto] for upto in uptos] == want, (F.label, order)
    masked = _zero_scan_frames()[-2:]
    assert oracles.zero_pair_scan(masked[0], 69) == (False, False)
    assert oracles.zero_pair_scan(masked[0], 70) == (True, False)
    assert oracles.zero_pair_scan(masked[1], 64) == (True, True)
    assert oracles.zero_pair_scan(masked[1], 65) == (True, False)


def test_zero_pair_scan_synthesizes_each_rank_once():
    for F in _zero_scan_frames():
        spied, seen = _rank_spies(F)
        for upto in (0, 1, 5, 64, 65, 70, 130, 600, 600, 10, 1000):
            before = [len(ranks) for ranks in seen]
            frames_module._zero_pair_scan(spied, upto)
            oracle_frame, oracle_seen = _rank_spies(F)
            oracles.zero_pair_scan(oracle_frame, upto)
            for ranks, n, oracle_ranks in zip(seen, before, oracle_seen):
                assert len(ranks) - n <= len(oracle_ranks), (F.label, upto)
        for ranks in seen:
            assert len(ranks) == len(set(ranks)), F.label
    # a self-dual family is synthesized once per rank: l1 scans 512 ranks
    # through each synthesis, Haar at J = 4 its 16 ranks through one
    for label, counts in (("l1-canonical", [512, 512]), ("haar:p=3:J=4", [16, 0])):
        spied, seen = _rank_spies(frame_from_label(label))
        frames_module._zero_pair_scan(spied, 1000)
        assert [len(ranks) for ranks in seen] == counts


@pytest.mark.parametrize(
    "space",
    [SequenceSpace(), DualSequenceSpace(), GridSpace(3.0, 5), AmalgamSpace(3.0, 1.5, (-1, 1), 2)],
    ids=lambda s: type(s).__name__,
)
def test_extreme_points_and_norms_are_built_once(space):
    points, norms = space.extremes
    assert space.extremes is space.extremes
    assert space.extremes[0] is points
    assert space.extremes[0] is space.extremes[0]
    for array in (points, norms):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    fresh = space._extreme_points()
    assert fresh.shape == points.shape and fresh.tobytes() == points.tobytes()
    assert np.asarray(space.norm(points)).tobytes() == norms.tobytes()


def test_sweep_analyses_the_extreme_rows_and_full_width_samples(monkeypatch):
    widths = []
    analysis = catalog_module._haar_analysis

    def spy(f, N):
        widths.append(np.shape(f))
        return analysis(f, N)

    monkeypatch.setattr(catalog_module, "_haar_analysis", spy)
    F = _fresh("haar:p=3:J=11")
    want = oracles.extreme_sums(F, (4, 64, 2048))
    widths.clear()
    got = frames_module.sweep_arrays(F, (4, 64, 2048), 8, 1)[2]
    # the 32 extreme points of each ball, then one block of samples per
    # ball, all at the full 2^11 width
    assert widths == [(32, 2048), (32, 2048), (8, 2048), (8, 2048)]
    assert _bits(got[: len(want)]) == _bits(want)


def test_cold_extreme_points_and_duals_build_side_by_side():
    # each descriptor's first build waits for the other's: the barrier
    # breaks if one lock runs them one after the other
    grids = [GridSpace(3.0, 5), GridSpace(1.5, 6)]
    barrier = threading.Barrier(2, timeout=5)

    def waiting(build):
        def wrapped(*args):
            barrier.wait()
            return build(*args)

        return wrapped

    with pytest.MonkeyPatch.context() as patch, ThreadPoolExecutor(2) as pool:

        def on_both(name):
            futures = [pool.submit(getattr, g, name) for g in grids]
            return [f.result(timeout=30) for f in futures]

        patch.setattr(GridSpace, "_extreme_points", waiting(GridSpace._extreme_points))
        extremes = on_both("extremes")
        patch.setattr(frames_module, "conjugate_exponent", waiting(conjugate_exponent))
        duals = on_both("dual")
    assert not barrier.broken
    assert all(g.extremes is e and g.dual is d for g, e, d in zip(grids, extremes, duals))
    assert [d.p for d in duals] == [1.5, 3.0]


def test_threads_racing_on_a_cold_descriptor_all_get_its_first_value():
    # more threads than cores, switching often: whoever builds, every
    # thread reads the one stored value, and it stays put
    spaces = [GridSpace(p, J) for p in (1.5, 3.0) for J in (4, 8)] + [
        SequenceSpace(), DualSequenceSpace(), AmalgamSpace(3.0, 1.5, (-1, 1), 2)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            seen = list(pool.map(lambda _: [(s.extremes, s.dual) for s in spaces], range(8)))
    finally:
        sys.setswitchinterval(interval)
    for k, s in enumerate(spaces):
        assert all(row[k][0] is s.extremes and row[k][1] is s.dual for row in seen)
        assert s.extremes[0] is s.extremes[0]


# ---------------------------------------------------------------------------
# memos of frame work: the extreme pairs' sums, the atom table and the
# trial draws
# ---------------------------------------------------------------------------

RECORD_LABELS = DEFAULT_FRAME_LABELS + ("haar:p=3:J=11",)
MEMOS = (frames_module._extreme_rows, frames_module._atom_table, frames_module._trial_draws)


def _record_run(F, schedule) -> tuple:
    """F's sweep arrays and unconditional probe pairs at the schedule, at a
    fixed seed and budget: the two calls that read the memos."""
    elements = seeded_ball_points(F.space, 7, "uncond-element", 3)
    return (
        frames_module.sweep_arrays(F, schedule, 50, 7),
        _probe_pairs(F, elements, schedule, 5, 7),
    )


def _same_run(a, b) -> bool:
    return _same_sweep(a[0], b[0]) and _bits(a[1]) == _bits(b[1])


def _misses() -> list:
    """How many entries each memo has built so far."""
    return [memo.cache_info().misses for memo in MEMOS]


def _entries(F, schedule) -> tuple:
    """The memo entries a _record_run of F at the schedule reads: F's
    extreme rows at the schedule and atom table at its last truncation."""
    return frames_module._extreme_rows(F, schedule), frames_module._atom_table(F, schedule[-1])


@pytest.mark.parametrize("label", RECORD_LABELS)
def test_warm_calls_read_the_records_and_give_the_cold_bits(label):
    # the first calls fill the frame's memo entries, with read-only arrays;
    # later calls read the same entries, build none and derive no trial
    # stream, and no bit of either result moves
    F, schedule = _fresh(label), spec_for_label(label).schedule
    frames_module._trial_draws.cache_clear()
    before = _misses()
    cold = _record_run(F, schedule)
    built = _misses()
    assert built[:2] == [before[0] + 1, before[1] + 1]
    entries = _entries(F, schedule)
    assert not any(a.flags.writeable for entry in entries for a in entry)
    for _ in range(2):
        assert _same_run(_record_run(F, schedule), cold)
        assert _misses() == built
        assert all(a is b for a, b in zip(_entries(F, schedule), entries))


def test_the_atom_table_is_rebuilt_for_another_top():
    # each largest truncation has its own table: a probe at another top,
    # larger or smaller, builds the table at that top, as wide as a fresh
    # frame's (on l1 a table kept from a larger top would be wider), and
    # gets a fresh frame's bits; the same top again reads its entry
    atom_table = frames_module._atom_table
    for label in RECORD_LABELS:
        large = spec_for_label(label).schedule
        F = _fresh(label)
        elements = seeded_ball_points(F.space, 3, "uncond-element", 3)
        tables = {}
        for schedule in ((4,), large, (16, 4), large[:-1], large):
            top = max(schedule)
            got = _probe_pairs(F, elements, schedule, 5, 3)
            fresh = _fresh(label)
            assert _bits(got) == _bits(_probe_pairs(fresh, elements, schedule, 5, 3))
            atoms = atom_table(F, top)
            assert atoms[1].shape == atom_table(fresh, top)[1].shape, (label, schedule)
            if top in tables:
                assert atoms is tables[top], (label, schedule)
            else:
                assert all(atoms is not t for t in tables.values()), (label, schedule)
                tables[top] = atoms
            misses = atom_table.cache_info().misses
            _probe_pairs(F, elements, schedule, 5, 3)
            assert atom_table(F, top) is atoms and atom_table.cache_info().misses == misses
    # l1's coordinates grow with the truncation: the table at 4 is 4 wide
    F = _fresh("l1-canonical")
    elements = seeded_ball_points(F.space, 3, "uncond-element", 3)
    _probe_pairs(F, elements, (256,), 5, 3)
    _probe_pairs(F, elements, (4,), 5, 3)
    assert atom_table(F, 4)[1].shape[-1] == 4


def test_a_changed_schedule_gets_its_own_extreme_rows():
    # each schedule has its own entry: another one is summed and kept beside
    # the first, which stays as it was; a list schedule reads the tuple's
    # entry; and every sweep keeps its fresh frame's bits and the
    # full-product oracle's extreme rows
    extreme_rows = frames_module._extreme_rows
    for label in ("l1-canonical", "haar:p=3:J=6", "amalgam:p=3:q=1.5:J=2:window=-3,1"):
        F, samples = _fresh(label), 30
        first = frames_module.sweep_arrays(F, (4, 16, 64), samples, 3)
        entry = extreme_rows(F, (4, 16, 64))
        kept = [_bits(a) for a in entry]
        m = len(first[0]) - samples
        for schedule in ([2, 8], (4, 16, 64), (1,), (4, 16, 64)):
            misses = extreme_rows.cache_info().misses
            got = frames_module.sweep_arrays(F, schedule, samples, 3)
            extreme_rows(F, tuple(schedule))
            new = tuple(schedule) != (4, 16, 64)
            assert extreme_rows.cache_info().misses == misses + new, (label, schedule)
            assert _same_sweep(got, frames_module.sweep_arrays(_fresh(label), schedule, samples, 3))
            assert _bits(got[2][:m]) == _bits(oracles.extreme_sums(F, tuple(schedule)))
        assert extreme_rows(F, (4, 16, 64)) is entry and [_bits(a) for a in entry] == kept
        assert _same_sweep(got, first)


def test_each_memo_stays_at_its_bound_with_fresh_frame_bits():
    # more distinct frames and keys than the bound: each memo holds the
    # bound, least recently used out; an evicted key is built again with
    # its first bits, and a key still held reads a fresh frame's bits
    bound = frames_module._MEMO_SIZE
    assert all(memo.cache_info().maxsize == bound for memo in MEMOS)
    label, schedule = "haar:p=3:J=4", (4, 16)

    def run(F, seed):
        elements = seeded_ball_points(F.space, seed, "uncond-element", 2)
        return frames_module.sweep_arrays(F, schedule, 20, seed), _probe_pairs(
            F, elements, schedule, 3, seed
        )

    frames = [_fresh(label) for _ in range(bound + 2)]
    runs = [run(F, seed) for seed, F in enumerate(frames)]
    assert all(memo.cache_info().currsize == bound for memo in MEMOS)
    misses = _misses()
    assert _same_run(run(frames[0], 0), runs[0])
    assert _misses() == [misses[0] + 1, misses[1] + 1, misses[2] + len(schedule)]
    assert all(memo.cache_info().currsize == bound for memo in MEMOS)
    assert _same_run(run(frames[-1], bound + 1), run(_fresh(label), bound + 1))


def test_threads_racing_on_a_fresh_frame_get_the_serial_bits():
    # more threads than cores start together on a frame no memo holds, with
    # a cold draw memo, switching often: whichever thread's entry is
    # stored, every thread gets a serial run's bits, and the stored entries
    # are whole, a fresh frame's arrays
    threads = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for label in DEFAULT_FRAME_LABELS + ("haar:p=3:J=6",):
            schedule = spec_for_label(label).schedule
            want = _record_run(_fresh(label), schedule)
            F = _fresh(label)
            frames_module._trial_draws.cache_clear()
            barrier = threading.Barrier(threads, timeout=30)

            def run(_):
                barrier.wait()
                return _record_run(F, schedule)

            with ThreadPoolExecutor(threads) as pool:
                futures = [pool.submit(run, k) for k in range(threads)]
                got = [f.result(timeout=120) for f in futures]
            assert not barrier.broken
            assert all(_same_run(g, want) for g in got), label
            stored, whole = _entries(F, schedule), _entries(_fresh(label), schedule)
            for a, b in zip(stored, whole):
                assert [_bits(u) for u in a] == [_bits(v) for v in b], label
            assert _same_run(_record_run(F, schedule), want), label
    finally:
        sys.setswitchinterval(interval)


def test_sweep_takes_the_extreme_norms_from_the_descriptors(monkeypatch):
    calls = []
    for cls in (SequenceSpace, DualSequenceSpace, GridSpace):
        norm = cls.norm

        def spy(*args, norm=norm, cls=cls):
            calls.append(cls.__name__)
            return norm(*args)

        monkeypatch.setattr(cls, "norm", spy if cls is GridSpace else staticmethod(spy))
    for label in ("l1-canonical", "haar:p=3:J=5", "haar:p=2:J=5"):
        F = frame_from_label(label)
        (_, x_norms), (_, xstar_norms) = F.space.extremes, F.space.dual.extremes
        calls.clear()
        nx, nxs, _ = frames_module.sweep_arrays(F, (4, 8), 0, 42)
        assert calls == []
        assert list(zip(nx.tolist(), nxs.tolist())) == list(
            itertools.product(x_norms.tolist(), xstar_norms.tolist())
        )


@pytest.mark.parametrize(
    "schedule, message",
    [
        ((), "positive truncations"),
        ((0, 4), "positive truncations"),
        ((-4, 4), "positive truncations"),
        ((64, 4), "strictly increasing"),
        ((4, 4), "strictly increasing"),
        ((1.5, 16), "schedule entry must be an integer"),
    ],
    ids=["empty", "zero", "negative", "decreasing", "repeated", "float"],
)
def test_sweep_refuses_the_schedules_the_spec_refuses(schedule, message):
    # (64, 4) summed the N = 64 column only to rank 4, (0, 4) gave the whole
    # sum at truncation 0, () raised IndexError, and (1.5, 16) summed to
    # rank 2; both callers now share one check and its messages
    F = frame_from_label("haar:p=3:J=6")
    with pytest.raises(ValueError, match=message) as swept:
        frames_module.sweep_arrays(F, schedule, 50, 7)
    with pytest.raises(ValueError, match=message) as specified:
        ExperimentSpec(F.label, schedule=schedule)
    assert str(swept.value) == str(specified.value)


def test_derive_rng_is_keyed_and_stable():
    a = derive_rng(42, "ball", "seq-l1", 0).random(3)
    b = derive_rng(42, "ball", "seq-l1", 0).random(3)
    c = derive_rng(42, "ball", "seq-l1", 1).random(3)
    d = derive_rng(43, "ball", "seq-l1", 0).random(3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_probe_result_validation_and_round_trip():
    r = ProbeResult("metric", 4, 0.5, passed=True, tolerance=1e-6)
    assert ProbeResult.from_json_obj(json.loads(json.dumps(r.to_json_obj()))) == r
    with pytest.raises(ValueError):
        ProbeResult("metric", 4, math.nan)


def test_records_serialize_their_fields():
    # each record writes one key per field and reads the same keys back;
    # a missing key raises KeyError and an unknown key is ignored
    probe = ProbeResult("metric", 4, 0.5, passed=False, tolerance=None)
    info = ProbeResult("other", 16, 0.25)
    report = FrameReport(
        label="haar:p=3:J=6", suite="james", truncation=16, constant=1.5, seed=7,
        samples=3, probes=(probe, info), verdict=None,
        flags=("zero-elements", "degenerate"), notes=("a note", "another"),
    )
    judged = dataclasses.replace(report, verdict="inconclusive", probes=())
    spec = ExperimentSpec(
        "haar:p=3:J=6", schedule=(2, 8, 32), samples=17, seed=7, trials=5,
        uncond_elements=2, probe_samples=0, abs_tol=1e-3, rel_tol=0.5,
        deviation_tol=1e-4, tail_tol=1e-2,
    )
    for record in (probe, info, report, judged, spec):
        cls, obj = type(record), record.to_json_obj()
        names = [f.name for f in dataclasses.fields(record)]
        assert sorted(obj) == sorted(names)
        assert cls.from_json_obj(json.loads(json.dumps(obj))) == record
        assert cls.from_json_obj({**obj, "unknown": 1}) == record
        for name in names:
            with pytest.raises(KeyError):
                cls.from_json_obj({k: v for k, v in obj.items() if k != name})
    assert report.to_json_obj()["probes"] == [probe.to_json_obj(), info.to_json_obj()]


def test_frame_report_round_trip_and_csv():
    report = reflexivity_probe(L1, ExperimentSpec(L1.label, schedule=(4, 16), probe_samples=2))
    back = FrameReport.from_json_obj(json.loads(json.dumps(report.to_json_obj())))
    assert back == report
    rows = report.csv_rows()
    assert all(len(row) == 6 for row in rows)
    assert {row[0] for row in rows} == {"james"}
    assert {row[1] for row in rows} == {"l1-canonical"}
    # informational rows carry an empty pass column; the verdict row says pass
    passes = {row[3]: row[5] for row in rows}
    assert passes["shrinking-tail"] == ""
    assert passes["verdict-conclusive"] == "pass"


def test_report_all_pass_semantics():
    base = dict(label="x", suite="s", truncation=4, constant=0.0, seed=1, samples=1)
    ok = FrameReport(probes=(ProbeResult("a", 4, 0.0, passed=True),), **base)
    info = FrameReport(probes=(ProbeResult("a", 4, 0.0),), **base)
    bad = FrameReport(probes=(ProbeResult("a", 4, 0.0, passed=False),), **base)
    assert ok.all_pass() and info.all_pass() and not bad.all_pass()
    with pytest.raises(ValueError):
        FrameReport(constant=-1.0, **{k: v for k, v in base.items() if k != "constant"})
