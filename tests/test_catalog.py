"""The three concrete frames and their index machinery."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framekit import catalog
from framekit.catalog import (
    AmalgamIndex,
    HaarIndex,
    amalgam_frame,
    canonical_l1_frame,
    enumerate_z_cross_n,
    frame_from_label,
    haar_eval,
    haar_frame,
    haar_index,
    haar_l2_norm,
    rank_of_index,
    zero_sequence_frame,
)
from framekit.frames import (
    AmalgamSpace,
    analysis_coefficient,
    besselian_sum,
    frame_pair,
    synthesis_partial,
)
from framekit.spaces import (
    AmalgamFunction,
    DualSeq,
    GridFunction,
    SeqVector,
    amalgam_norm,
    embed_tilde,
    grid_lp_norm,
    linf_norm,
    lp_norm,
    pairing_phi,
    pairing_phi_pq,
    translate,
)

import oracles


# ---------------------------------------------------------------------------
# canonical sequence frame
# ---------------------------------------------------------------------------


def test_l1_frame_generators():
    F = canonical_l1_frame()
    a3, b3 = frame_pair(F, 3)
    assert a3 == SeqVector.basis(3)
    assert b3 == DualSeq.unit_functional(3)
    lam = SeqVector.from_pairs([(1, 5.0), (2, 7.0), (3, 11.0)])
    assert analysis_coefficient(F, 2, lam) == 7.0


def test_l1_besselian_equality_case():
    # sign-aligned functional: the bound sum |lam_n mu_n| <= ||lam||_1 ||mu||_inf
    # is attained exactly.
    F = canonical_l1_frame()
    lam = SeqVector.from_pairs([(1, 1.0), (2, -2.0)])
    mu = DualSeq((1.0, -1.0), 1.0)
    got = besselian_sum(F, lam, mu, 3)
    assert got == 3.0
    assert got == lp_norm(lam, 1.0) * linf_norm(mu)
    assert got == oracles.abs_product_sum([1.0, -2.0, 0.0], [1.0, -1.0, 1.0])


def test_l1_frame_rejects_bad_rank():
    F = canonical_l1_frame()
    with pytest.raises(ValueError):
        frame_pair(F, 0)


# ---------------------------------------------------------------------------
# Haar indexing, evaluation, norms
# ---------------------------------------------------------------------------


def test_haar_eval_paper_values():
    assert haar_eval(1, 0.5) == 1.0
    assert haar_eval(1, 1.0) == 0.0
    assert haar_eval(2, 0.25) == 1.0
    assert haar_eval(2, 0.75) == -1.0
    assert haar_eval(5, 0.05) == 1.0
    assert haar_eval(5, 0.2) == -1.0
    assert haar_eval(5, 0.5) == 0.0
    with pytest.raises(ValueError):
        haar_eval(2, 1.5)
    with pytest.raises(ValueError):
        haar_eval(2, -0.1)


@given(n=st.integers(min_value=1, max_value=128))
def test_haar_eval_matches_independent_formula(n):
    for t in oracles.midpoints(256):
        assert haar_eval(n, float(t)) == oracles.haar_value(n, float(t))


def test_haar_index_generation_bracket():
    assert haar_index(1) == HaarIndex(1, 0)
    for n in range(2, 257):
        m = haar_index(n).m
        assert 2 ** (m - 1) < n <= 2**m


@given(n=st.integers(min_value=2, max_value=256))
def test_haar_support_measure_and_mean_zero(n):
    m = haar_index(n).m
    ts = oracles.midpoints(1024)
    vals = np.array([oracles.haar_value(n, t) for t in ts])
    support = oracles.quadrature_integral(np.abs(vals))
    assert support == pytest.approx(2.0 ** (1 - m), abs=1e-12)
    assert oracles.quadrature_integral(vals) == pytest.approx(0.0, abs=1e-12)


def test_haar_mean_of_rank_one_is_one():
    ts = oracles.midpoints(64)
    vals = np.array([oracles.haar_value(1, t) for t in ts])
    assert oracles.quadrature_integral(vals) == 1.0


def test_haar_l2_norm_values():
    assert haar_l2_norm(1) == 1.0
    assert haar_l2_norm(2) == 1.0
    assert haar_l2_norm(5) == 0.5
    for n in range(1, 65):
        quad = math.sqrt(oracles.quadrature_pairing(n, n))
        assert haar_l2_norm(n) == pytest.approx(quad, abs=1e-12)


def test_haar_index_validation():
    with pytest.raises(ValueError):
        haar_index(0)
    with pytest.raises(ValueError):
        HaarIndex(1, 1)
    with pytest.raises(ValueError):
        HaarIndex(5, 2)


# ---------------------------------------------------------------------------
# Haar frame
# ---------------------------------------------------------------------------


def test_haar_frame_rank_two_at_level_one():
    F = haar_frame(2.0, 1)
    a2, b2 = frame_pair(F, 2)
    assert a2 == GridFunction(1, (1.0, -1.0))
    assert b2 == a2


def test_haar_frame_parameter_validation():
    with pytest.raises(ValueError):
        haar_frame(1.0, 4)
    with pytest.raises(ValueError):
        haar_frame(math.inf, 4)
    with pytest.raises(ValueError):
        haar_frame(2.0, 0)
    F = haar_frame(2.0, 3)
    with pytest.raises(ValueError):
        frame_pair(F, 9)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_haar_full_reconstruction_matches_linear_solve(p):
    J = 4
    F = haar_frame(p, J)
    rng = np.random.default_rng(2024)
    values = rng.standard_normal(2**J)
    f = GridFunction(J, values)
    rebuilt = synthesis_partial(F, f, 2**J)
    assert grid_lp_norm(f - rebuilt, p) <= 1e-12
    # independent certificate that the first 2^J Haar functions span the
    # level-J grid space: dense linear solve against pointwise samples
    _coeffs, err = oracles.solve_reconstruction(J, values)
    assert err <= 1e-10


def test_haar_pairings_form_identity_at_p2():
    J = 4
    F = haar_frame(2.0, J)
    n = 2**J
    gram = np.empty((n, n))
    for i in range(1, n + 1):
        ai, _ = frame_pair(F, i)
        for j in range(1, n + 1):
            aj, _ = frame_pair(F, j)
            gram[i - 1, j - 1] = pairing_phi(ai, aj)
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-12


def test_haar_pairings_match_quadrature_oracle():
    # unnormalized cross-pairings against the midpoint-quadrature route
    F = haar_frame(2.0, 3)
    for i in (1, 2, 3, 5, 8):
        for j in (1, 2, 4, 6):
            ai, _ = frame_pair(F, i)
            aj, _ = frame_pair(F, j)
            want = (
                oracles.quadrature_pairing(i, j)
                / (haar_l2_norm(i) * haar_l2_norm(j))
            )
            assert pairing_phi(ai, aj) == pytest.approx(want, abs=1e-12)


def test_haar_batch_routes_agree_with_per_rank_route():
    # rank by rank, from the pointwise oracle: h_n / ||h_n||_2 at midpoints
    F = haar_frame(3.0, 3)
    rng = np.random.default_rng(7)
    f = GridFunction(3, rng.standard_normal(8))
    rows = oracles.normalized_haar_rows(3)
    slow = [oracles.quadrature_integral(rows[n] * f.coefficients) for n in range(8)]
    assert np.allclose(F.coeff_batch(F.space.coordinates(f), 8), slow, atol=1e-13, rtol=0.0)
    assert np.allclose(F.eval_batch(F.space.coordinates(f), 8), slow, atol=1e-13, rtol=0.0)
    for n in range(1, 9):
        a, b = frame_pair(F, n)
        assert np.allclose(a.coefficients, rows[n - 1], atol=1e-13, rtol=0.0)
        assert a == b


@settings(max_examples=60, deadline=None)
@given(data=st.data(), J=st.integers(min_value=0, max_value=8))
def test_haar_analysis_to_rank_n_has_the_bits_of_the_whole_pyramid(data, J):
    # generations with no rank <= N are skipped: every kept coefficient,
    # NaN and inf included, is the whole pyramid's, sliced to N
    f = data.draw(arrays(np.float64, (2, 2**J), elements=st.floats(), fill=st.floats()))
    with np.errstate(all="ignore"):
        full = oracles.haar_pyramid(f)
        for N in range(1, 2**J + 1):
            got = catalog._haar_analysis(f, N)
            assert got.shape == (2, N)
            assert got.tobytes() == full[:, :N].tobytes(), N


@settings(max_examples=60, deadline=None)
@given(data=st.data(), J=st.integers(min_value=0, max_value=8))
def test_haar_synthesis_has_the_bits_of_the_per_generation_pyramid(data, J):
    # the heights are applied in one call, not level by level: every value,
    # NaN and inf included, is the per-generation pyramid's, for any number
    # of coefficients up to 2^J
    n = data.draw(st.integers(min_value=0, max_value=2**J))
    c = data.draw(arrays(np.float64, (2, n), elements=st.floats(), fill=st.floats()))
    with np.errstate(all="ignore"):
        want = oracles.haar_inverse_pyramid(c, J)
        got = catalog._haar_synthesis(c, J)
    assert got.shape == (2, 2**J)
    assert got.tobytes() == want.tobytes()


def test_haar_synthesis_bits_at_the_edges_of_the_float_range():
    # the values the hypothesis test may miss: heights times 8.99e307
    # overflow, and subnormals times heights round
    edges = [8.99e307, -8.99e307, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf, np.nan, 0.0, -0.0]
    for J in (1, 4, 8):
        rng = np.random.default_rng(J)
        c = rng.choice(edges, size=(3, 2**J))
        with np.errstate(all="ignore"):
            assert catalog._haar_synthesis(c, J).tobytes() == oracles.haar_inverse_pyramid(c, J).tobytes()


def test_haar_heights_are_one_read_only_row_per_level():
    for J in (0, 1, 5, 12):
        heights = catalog._haar_heights(J)
        assert heights is catalog._haar_heights(J)
        with pytest.raises(ValueError, match="read-only"):
            heights[0] = 2.0
        ranks = range(1, 2**J + 1)
        assert heights.tolist() == [
            1.0 if n == 1 else 2.0 ** (0.5 * (haar_index(n).m - 1)) for n in ranks
        ]


def test_haar_operators_reject_rows_that_are_not_a_dyadic_grid():
    for J in (1, 5, 12):
        F = haar_frame(3.0, J)
        for batch in (F.coeff_batch, F.eval_batch):
            for width in (0, 1, 3, 2 ** (J - 1), 2 ** (J + 1)):
                with pytest.raises(ValueError, match=rf"rows of 2\^{J} grid values"):
                    batch(np.ones((2, width)), 1)


# ---------------------------------------------------------------------------
# diagonal enumeration of Z x N*
# ---------------------------------------------------------------------------


def test_enumeration_first_block_values():
    assert enumerate_z_cross_n(1) == AmalgamIndex(0, 1)
    assert enumerate_z_cross_n(2) == AmalgamIndex(-1, 1)
    assert enumerate_z_cross_n(3) == AmalgamIndex(0, 2)
    assert enumerate_z_cross_n(4) == AmalgamIndex(1, 1)
    with pytest.raises(ValueError):
        enumerate_z_cross_n(0)


def test_enumeration_round_trip_to_ten_thousand():
    for rank in range(1, 10_001):
        idx = enumerate_z_cross_n(rank)
        assert rank_of_index(idx.m, idx.n) == rank


def test_enumeration_blocks_are_diagonal_and_ascending():
    # within each block |m| + n is constant and m strictly ascends
    rank = 1
    for s in range(1, 20):
        block = [enumerate_z_cross_n(rank + i) for i in range(2 * s - 1)]
        rank += 2 * s - 1
        assert all(abs(idx.m) + idx.n == s for idx in block)
        ms = [idx.m for idx in block]
        assert ms == sorted(ms)


# ---------------------------------------------------------------------------
# amalgam frame
# ---------------------------------------------------------------------------


def make_amalgam(p=2.0, q=2.0, J=3, window=(-1, 1)):
    return amalgam_frame(haar_frame(p, J), q, window)


def test_amalgam_window_validation():
    base = haar_frame(2.0, 3)
    with pytest.raises(ValueError):
        amalgam_frame(base, 1.0, (-1, 1))
    with pytest.raises(ValueError):
        amalgam_frame(base, 2.0, (-math.inf, 1))
    with pytest.raises(ValueError):
        amalgam_frame(base, 2.0, (0.5, 1))
    with pytest.raises(ValueError):
        amalgam_frame(canonical_l1_frame(), 2.0, (-1, 1))


def test_amalgam_cell_identity():
    # a function supported on one cell has the base frame's coefficients at
    # that cell's translation and zeros at every other m
    F = make_amalgam()
    base = haar_frame(2.0, 3)
    cell = GridFunction(3, np.arange(8, dtype=float) - 3.0)
    f = translate(embed_tilde(cell), 1)
    for n in range(1, 9):
        got = analysis_coefficient(F, rank_of_index(1, n), f)
        want = analysis_coefficient(base, n, cell)
        assert got == pytest.approx(want, abs=1e-13)
        for m in (-1, 0):
            assert analysis_coefficient(F, rank_of_index(m, n), f) == 0.0


def test_amalgam_unit_interval_support_kills_other_cells():
    F = make_amalgam()
    f = embed_tilde(GridFunction(3, np.ones(8)))
    for n in range(1, 9):
        assert analysis_coefficient(F, rank_of_index(-1, n), f) == 0.0
        assert analysis_coefficient(F, rank_of_index(1, n), f) == 0.0


def test_amalgam_full_reconstruction():
    F = make_amalgam()
    rng = np.random.default_rng(11)
    f = AmalgamFunction(
        (-1, 1), {m: GridFunction(3, rng.standard_normal(8)) for m in (-1, 0, 1)}
    )
    rebuilt = synthesis_partial(F, f, F.full_truncation)
    assert amalgam_norm(f - rebuilt, 2.0, 2.0) <= 1e-10


def test_amalgam_translation_covariance():
    F = make_amalgam(window=(-2, 2))
    rng = np.random.default_rng(5)
    f = embed_tilde(GridFunction(3, rng.standard_normal(8)))
    shifted = translate(f, 1)
    for n in range(1, 9):
        for m in (-1, 0, 1):
            lhs = analysis_coefficient(F, rank_of_index(m + 1, n), shifted)
            rhs = analysis_coefficient(F, rank_of_index(m, n), f)
            assert lhs == pytest.approx(rhs, abs=1e-13)


def test_amalgam_out_of_range_ranks_are_zero_pairs():
    F = make_amalgam()  # window (-1, 1), base ranks 1..8
    zero = F.space.from_coordinates(F.space.zero())
    a, b = frame_pair(F, rank_of_index(2, 1))  # m outside window
    assert a == zero and b == zero
    a, b = frame_pair(F, rank_of_index(0, 9))  # n beyond base range
    assert a == zero and b == zero


def test_amalgam_batch_routes_agree_with_per_rank_route():
    F = make_amalgam()
    rng = np.random.default_rng(13)
    f = AmalgamFunction(
        (-1, 1), {m: GridFunction(3, rng.standard_normal(8)) for m in (-1, 0, 1)}
    )
    N = 40
    # rank by rank: the space's pairing against each synthesized pair
    pairs = [frame_pair(F, n) for n in range(1, N + 1)]
    slow_coeffs = [pairing_phi_pq(b, f) for _a, b in pairs]
    slow_evals = [pairing_phi_pq(f, a) for a, _b in pairs]
    assert np.allclose(F.coeff_batch(F.space.coordinates(f), N), slow_coeffs, atol=1e-13, rtol=0.0)
    assert np.allclose(F.eval_batch(F.space.coordinates(f), N), slow_evals, atol=1e-13, rtol=0.0)


def test_amalgam_operators_match_enumeration_on_asymmetric_window():
    # the per-frame rank tables against the rank -> (m, n) enumeration, rank
    # by rank, past the full truncation (where every pair is zero)
    base = haar_frame(2.0, 3)
    F = amalgam_frame(base, 2.0, (-3, 1))
    N = F.full_truncation + 12
    rng = np.random.default_rng(29)
    f = AmalgamFunction(
        (-3, 1), {m: GridFunction(3, rng.standard_normal(8)) for m in range(-3, 2)}
    )
    values = F.space.coordinates(f)
    coeffs, evals = F.coeff_batch(values, N), F.eval_batch(values, N)
    for rank in range(1, N + 1):
        idx = enumerate_z_cross_n(rank)
        inside = -3 <= idx.m <= 1 and idx.n <= 8
        want_coeff = base.coeff_batch(f.cell(idx.m).coefficients, 8)[idx.n - 1] if inside else 0.0
        want_eval = base.eval_batch(f.cell(idx.m).coefficients, 8)[idx.n - 1] if inside else 0.0
        assert coeffs[rank - 1] == want_coeff
        assert evals[rank - 1] == want_eval
        a, b = frame_pair(F, rank)
        want = np.zeros((5, 8))
        if inside:
            want[idx.m + 3] = frame_pair(base, idx.n)[0].coefficients
        assert np.array_equal(F.space.coordinates(a), want.ravel())
        assert np.array_equal(F.space.coordinates(b), want.ravel())


def test_amalgam_covering_truncation_bounds_support():
    F = make_amalgam()
    f = translate(embed_tilde(GridFunction(3, np.ones(8))), 1)
    cover = F.covering(f)
    assert cover == rank_of_index(1, 8)
    rebuilt = synthesis_partial(F, f, cover)
    assert amalgam_norm(f - rebuilt, 2.0, 2.0) <= 1e-12
    outside = translate(embed_tilde(GridFunction.constant(1.0)), 5)
    assert F.covering(outside) is None


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------


def test_labels_round_trip():
    for label in (
        "l1-canonical",
        "zero",
        "haar:p=2:J=8",
        "haar:p=1.5:J=4",
        "amalgam:p=2:q=2:J=4:window=-1,1",
        "amalgam:p=1.5:q=3:J=3:window=-2,2",
        "haar:p=1.0123456:J=3",  # more digits than :g keeps
        "amalgam:p=3.00000001:q=2:J=2:window=-1,1",  # :g would round p to 3
    ):
        assert frame_from_label(label).label == label


def test_labels_build_each_frame_once():
    for label in ("l1-canonical", "haar:p=2:J=3", "amalgam:p=2:q=2:J=2:window=-1,1"):
        assert frame_from_label(label) is frame_from_label(label)


def test_spellings_of_one_label_get_one_frame():
    # the frame cache is keyed by the parsed fields, not the label's text:
    # field order, "3" or "3.0" and "4" or "04" name one frame, built once,
    # whose own label is the catalog's spelling; other fields, another frame
    spellings = (
        ("haar:p=3:J=4", "haar:J=4:p=3", "haar:p=3.0:J=04"),
        (
            "amalgam:p=3:q=1.5:J=2:window=-3,1",
            "amalgam:window=-3,1:J=2:q=1.5:p=3",
            "amalgam:p=3.0:q=1.50:J=02:window=-3,01",
        ),
    )
    for labels in spellings:
        frames = [frame_from_label(label) for label in labels]
        assert all(F is frames[0] for F in frames), labels
        assert frames[0].label == labels[0]
    assert frame_from_label("haar:p=3:J=4") is not frame_from_label("haar:p=2:J=4")
    assert frame_from_label("haar:p=3:J=4") is not frame_from_label("haar:p=3:J=5")
    amalgam = frame_from_label("amalgam:p=3:q=1.5:J=2:window=-3,1")
    assert amalgam is not frame_from_label("amalgam:p=3:q=1.5:J=2:window=-3,0")
    assert amalgam is not frame_from_label("amalgam:p=3:q=2:J=2:window=-3,1")


def test_label_errors_are_informative():
    with pytest.raises(ValueError, match="missing field"):
        frame_from_label("haar:p=2")
    with pytest.raises(ValueError, match="cannot parse"):
        frame_from_label("haar:p=two:J=4")
    with pytest.raises(ValueError, match="unknown frame label"):
        frame_from_label("fourier:p=2")
    with pytest.raises(ValueError, match="malformed"):
        frame_from_label("haar:p:J=4")
    with pytest.raises(ValueError, match="'haar:p=3:J=6:foo=1': unknown field 'foo'"):
        frame_from_label("haar:p=3:J=6:foo=1")
    with pytest.raises(ValueError, match="'haar:p=3:p=2:J=4': repeated field 'p'"):
        frame_from_label("haar:p=3:p=2:J=4")
    with pytest.raises(ValueError, match="repeated field 'window'"):
        frame_from_label("amalgam:p=2:q=2:J=2:window=-1,1:window=0,0")


def test_label_sizes_are_bounded_before_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="J <= 12"):
            frame_from_label("haar:p=2:J=20")  # 8 TiB of Haar matrix
        with pytest.raises(ValueError, match="J <= 12"):
            frame_from_label("amalgam:p=2:q=2:J=13:window=0,0")
        with pytest.raises(ValueError, match="at most 256 cells"):
            frame_from_label("amalgam:p=2:q=2:J=12:window=-1000000,1000000")
        with pytest.raises(ValueError, match="at most 256 cells"):
            amalgam_frame(haar_frame(2.0, 1), 2.0, (0, 256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert amalgam_frame(haar_frame(2.0, 1), 2.0, (0, 255)).full_truncation > 0


def test_exponents_whose_powers_overflow_the_samplers_are_refused():
    # a Box-Muller magnitude reaches about 8.57, and 2^12 cells of its r-th
    # power overflow once r exceeds about 330, so p, q and their conjugates
    # are capped at 256; the error names the label
    for label in (
        "haar:p=1e4:J=3",
        "haar:p=1e3:J=3",
        "haar:p=256.5:J=2",
        "haar:p=1.000001:J=3",  # conjugate 1e6
        "haar:p=1.0039:J=2",  # conjugate 257.4
        "haar:p=1e16:J=2",  # conjugate rounds to 1
        "amalgam:p=2:q=1e16:J=2:window=-1,1",
        "amalgam:p=2:q=300:J=2:window=0,0",
        "amalgam:p=1.0001:q=2:J=2:window=0,0",
    ):
        with pytest.raises(ValueError, match="its conjugate at most 256") as refused:
            frame_from_label(label)
        assert repr(label) in str(refused.value)
    with pytest.raises(ValueError, match="q and its conjugate at most 256"):
        amalgam_frame(haar_frame(2.0, 2), 1e16, (0, 0))
    with pytest.raises(ValueError, match=r"q in \(1, inf\), got nan"):
        amalgam_frame(haar_frame(2.0, 2), math.nan, (0, 0))


def test_exponents_in_use_and_up_to_the_cap_are_accepted():
    for p in (1.5, 2.0, 3.0, 6.0, 1.01, 1.004, 256.0):
        assert haar_frame(p, 2).space.p == p
        assert amalgam_frame(haar_frame(2.0, 2), p, (0, 0)).space.q == p
    assert frame_from_label("haar:p=1.01:J=3").space.dual.p == pytest.approx(101.0)
    assert frame_from_label("amalgam:p=3:q=1.5:J=2:window=-3,1").space.dual.q == 3.0


def test_amalgam_extreme_points_are_bounded_before_allocation():
    # every sweep builds each amalgam ball's extreme points, cells x 8 atoms
    # rows of cells x 2^J values: 2,048 x 2^20 values (16 GiB) at J = 12 on
    # 256 cells, refused before anything is allocated
    message = "extreme points hold at most 8388608 values"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            frame_from_label("amalgam:p=2:q=2:J=12:window=-128,127")
        with pytest.raises(ValueError, match=message):
            frame_from_label("amalgam:p=2:q=2:J=8:window=0,64")  # 520 x 16,640 values
        with pytest.raises(ValueError, match=message):
            amalgam_frame(haar_frame(3.0, 12), 1.5, (0, 16))  # 136 x 69,632 values
        with pytest.raises(ValueError, match=message):
            AmalgamSpace(2.0, 2.0, (-128, 127), 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # 64 cells at J = 8 and 16 at J = 12 hold exactly 2^23 values; 61
    # cells at J = 8, the widest label in use, hold 488 x 15,616
    assert frame_from_label("amalgam:p=2:q=2:J=8:window=0,63").space.window == (0, 63)
    assert amalgam_frame(haar_frame(3.0, 12), 1.5, (0, 15)).space.window == (0, 15)
    assert frame_from_label("amalgam:p=2:q=2:J=8:window=0,60").full_truncation > 0
    # the cap counts the rows and values the extreme points have
    for J, window in ((1, (0, 255)), (3, (-2, 2)), (6, (0, 1)), (12, (0, 1))):
        cells = window[1] - window[0] + 1
        points = AmalgamSpace(3.0, 1.5, window, J).extremes[0]
        assert points.shape == (cells * min(8, 2**J), cells * 2**J)


def test_zero_frame_is_degenerate_but_constructible():
    F = zero_sequence_frame()
    a, b = frame_pair(F, 3)
    assert a == SeqVector()
    assert b == DualSeq()
    assert F.covering(SeqVector()) == 0
    assert F.covering(SeqVector.basis(1)) is None
