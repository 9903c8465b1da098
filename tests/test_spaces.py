"""Exact norms, pairings and serialization of the three space models."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framekit.frames import (
    AmalgamSpace,
    DualSequenceSpace,
    GridSpace,
    SequenceSpace,
    seeded_ball_point,
)
from framekit.spaces import (
    AmalgamFunction,
    DualSeq,
    GridFunction,
    SeqVector,
    amalgam_norm,
    conjugate_exponent,
    embed_tilde,
    grid_lp_norm,
    linf_norm,
    lp_norm,
    pairing_phi,
    pairing_phi_pq,
    pairing_psi,
    translate,
)

import oracles

finite = st.floats(min_value=-16.0, max_value=16.0, allow_nan=False, width=64)


def seq_vectors():
    return st.lists(
        st.tuples(st.integers(min_value=1, max_value=40), finite),
        max_size=10,
        unique_by=lambda iv: iv[0],
    ).map(SeqVector.from_pairs)


def dual_seqs():
    return st.builds(
        DualSeq,
        st.lists(finite, max_size=8).map(tuple),
        finite,
    )


def grid_functions(max_level=5):
    return st.integers(min_value=0, max_value=max_level).flatmap(
        lambda lvl: st.lists(
            finite, min_size=2**lvl, max_size=2**lvl
        ).map(lambda cs: GridFunction(lvl, cs))
    )


def amalgam_functions():
    def build(lo, width, level, flat):
        cells = {
            lo + i: GridFunction(level, flat[i * 2**level : (i + 1) * 2**level])
            for i in range(width)
        }
        return AmalgamFunction((lo, lo + width - 1), cells)

    return st.tuples(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=3),
    ).flatmap(
        lambda t: st.lists(
            finite, min_size=t[1] * 2 ** t[2], max_size=t[1] * 2 ** t[2]
        ).map(lambda flat: build(t[0], t[1], t[2], flat))
    )


# ---------------------------------------------------------------------------
# sequence space
# ---------------------------------------------------------------------------


def test_lp_norm_small_cases():
    v = SeqVector.from_pairs([(1, 3.0), (2, 4.0)])
    assert lp_norm(v, 1.0) == 7.0
    assert lp_norm(v, 2.0) == 5.0
    assert lp_norm(SeqVector.from_pairs([]), 1.0) == 0.0
    assert lp_norm(SeqVector.from_pairs([]), 3.0) == 0.0


def test_lp_norm_rejects_bad_exponent():
    v = SeqVector.basis(1)
    with pytest.raises(ValueError):
        lp_norm(v, 0.5)


def test_seq_vector_canonical_form():
    v = SeqVector.from_pairs([(3, 1.0), (1, 0.0), (2, -2.0)])
    assert v.entries == ((2, -2.0), (3, 1.0))
    assert v.value_at(1) == 0.0
    assert v.value_at(3) == 1.0
    assert SeqVector.from_pairs([(1, 1.0), (1, 2.0)]).value_at(1) == 3.0
    with pytest.raises(ValueError):
        SeqVector(((2, 1.0), (1, 2.0)))
    with pytest.raises(ValueError):
        SeqVector.from_pairs([(0, 1.0)])


def test_linf_norm_small_cases():
    assert linf_norm(DualSeq((1.0, -2.0, 3.0), 0.0)) == 3.0
    assert linf_norm(DualSeq((), 1.0)) == 1.0
    assert linf_norm(DualSeq((0.5,), 0.75)) == 0.75


def test_dual_seq_equality_compares_values():
    assert DualSeq((1.0,), 1.0) == DualSeq((), 1.0)
    assert DualSeq((), 1.0) == DualSeq((1.0,), 1.0)
    assert DualSeq((0.5, 2.0, 2.0), 2.0) == DualSeq((0.5,), 2.0)
    assert DualSeq((-0.0,), 0.0) == DualSeq()
    assert DualSeq((1.0,), 1.0) != DualSeq((), -1.0)
    assert DualSeq((1.0, 2.0), 0.0) != DualSeq((1.0,), 0.0)
    assert DualSeq((1.0,), 2.0) != DualSeq((1.0,), 2.5)
    assert DualSeq() != SeqVector()
    with pytest.raises(TypeError):
        hash(DualSeq())


def test_sup_ball_points_equal_their_short_form():
    # sup-ball points carry a full-width prefix padded with the tail
    trimmed = 0
    for k in range(8):
        point = seeded_ball_point(DualSequenceSpace(), 42, "ball", k)
        prefix = point.prefix
        while prefix and prefix[-1] == point.tail:
            prefix = prefix[:-1]
        trimmed += len(prefix) < len(point.prefix)
        assert point == DualSeq(prefix, point.tail)
        assert DualSeq(prefix, point.tail) == point
    assert trimmed > 0


def test_pairing_psi_small_cases():
    assert pairing_psi(DualSeq((2.0, 3.0), 0.0), SeqVector.from_pairs([(1, 1.0), (2, -1.0)])) == -1.0
    lam = SeqVector.from_pairs([(1, 5.0), (2, 7.0), (3, 11.0)])
    assert pairing_psi(DualSeq.unit_functional(3), lam) == 11.0
    assert pairing_psi(DualSeq.all_ones(), SeqVector.from_pairs([(1, 1.0), (2, -2.0), (3, 1.0)])) == 0.0


@given(mu=dual_seqs(), lam=seq_vectors())
def test_pairing_psi_within_product_of_norms(mu, lam):
    assert abs(pairing_psi(mu, lam)) <= linf_norm(mu) * lp_norm(lam, 1.0) + 1e-9


@given(mu=dual_seqs())
def test_psi_sharpness_on_basis_vectors(mu):
    # The sup over canonical basis vectors reaches the sup norm: some index
    # in the prefix or in the constant tail attains it.
    probe_upto = len(mu.prefix) + 1
    attained = max(
        abs(pairing_psi(mu, SeqVector.basis(n))) for n in range(1, probe_upto + 1)
    )
    assert attained == linf_norm(mu)


# ---------------------------------------------------------------------------
# grid space
# ---------------------------------------------------------------------------


def test_grid_lp_norm_small_cases():
    for level in (0, 1, 4):
        for p in (1.0, 1.5, 2.0, 3.0):
            assert grid_lp_norm(GridFunction.constant(1.0, level), p) == pytest.approx(1.0)
    h2 = GridFunction(1, (1.0, -1.0))
    assert grid_lp_norm(h2, 2.0) == 1.0
    assert grid_lp_norm(GridFunction(1, (2.0, 0.0)), 1.0) == 1.0
    with pytest.raises(ValueError):
        grid_lp_norm(h2, 0.99)


def test_grid_function_shape_is_validated():
    with pytest.raises(ValueError):
        GridFunction(2, (1.0, 2.0, 3.0))


def test_pairing_phi_small_cases():
    one = GridFunction.constant(1.0)
    h2 = GridFunction(1, (1.0, -1.0))
    h3 = GridFunction(2, (1.0, -1.0, 0.0, 0.0))
    assert pairing_phi(one, one) == 1.0
    assert pairing_phi(h2, h3) == 0.0
    assert pairing_phi(h2, h2) == 1.0
    # cross-check the nonzero cases against midpoint quadrature of the
    # pointwise branch formula
    assert pairing_phi(h2, h2) == pytest.approx(oracles.quadrature_pairing(2, 2), abs=1e-12)
    assert pairing_phi(h2, h3) == pytest.approx(oracles.quadrature_pairing(2, 3), abs=1e-12)


@given(f=grid_functions())
def test_grid_norm_matches_dense_oracle(f):
    for p in (1.0, 1.5, 2.0, 3.0, 4.0):
        want = oracles.dense_lp_norm(np.asarray(f.coefficients), p, 2.0**-f.level)
        assert grid_lp_norm(f, p) == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(f=grid_functions(), g=grid_functions())
def test_holder_bound_on_grid(f, g):
    for p in (1.25, 1.5, 2.0, 3.0, 4.0):
        lhs = abs(pairing_phi(f, g))
        rhs = grid_lp_norm(f, conjugate_exponent(p)) * grid_lp_norm(g, p)
        assert lhs <= rhs + 1e-9


@given(g=grid_functions())
def test_holder_equality_on_aligned_pair(g):
    # f = sign(g) |g|^(p-1) makes |f|^{p*} proportional to |g|^p, the exact
    # equality case of the bound.
    for p in (1.25, 1.5, 2.0, 3.0, 4.0):
        coeffs = np.asarray(g.coefficients)
        f = GridFunction(g.level, np.sign(coeffs) * np.abs(coeffs) ** (p - 1.0))
        lhs = abs(pairing_phi(f, g))
        rhs = grid_lp_norm(f, conjugate_exponent(p)) * grid_lp_norm(g, p)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


@given(f=grid_functions(), g=grid_functions(), extra=st.integers(min_value=0, max_value=3))
def test_refinement_changes_nothing(f, g, extra):
    fr = f.refine(f.level + extra)
    assert fr == f
    for p in (1.0, 1.5, 2.0, 3.0):
        assert abs(grid_lp_norm(fr, p) - grid_lp_norm(f, p)) <= 1e-12
    assert abs(pairing_phi(fr, g) - pairing_phi(f, g)) <= 1e-12


def test_refine_rejects_coarsening():
    f = GridFunction(2, (1.0, 2.0, 3.0, 4.0))
    with pytest.raises(ValueError):
        f.refine(1)


def test_grid_value_at_reads_cells():
    f = GridFunction(1, (2.0, -3.0))
    assert f.value_at(0.0) == 2.0
    assert f.value_at(0.25) == 2.0
    assert f.value_at(0.5) == -3.0
    assert f.value_at(1.0) == 0.0


# ---------------------------------------------------------------------------
# amalgam space
# ---------------------------------------------------------------------------


def chi(m: int) -> AmalgamFunction:
    return translate(embed_tilde(GridFunction.constant(1.0)), m)


def test_amalgam_norm_small_cases():
    two_cells = chi(0) + chi(1)
    assert amalgam_norm(two_cells, 2.0, 3.0) == pytest.approx(2.0 ** (1.0 / 3.0))
    for p, q in ((1.5, 2.0), (2.0, 2.0), (3.0, 1.5)):
        assert amalgam_norm(chi(0), p, q) == pytest.approx(1.0)
    zero = AmalgamFunction.zero((0, 1))
    assert amalgam_norm(zero, 2.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        amalgam_norm(chi(0), 1.0, 2.0)
    with pytest.raises(ValueError):
        amalgam_norm(chi(0), 2.0, 1.0)


def test_pairing_phi_pq_small_cases():
    assert pairing_phi_pq(chi(0), chi(0)) == 1.0
    assert pairing_phi_pq(chi(0), chi(1)) == 0.0
    h2t = translate(embed_tilde(GridFunction(1, (1.0, -1.0))), 2)
    assert pairing_phi_pq(h2t, h2t) == 1.0


def test_translate_small_cases():
    assert translate(chi(0), 1) == chi(1)
    f = chi(0) + chi(1)
    assert translate(f, 0) == f
    assert translate(translate(f, 2), -2) == f
    with pytest.raises(ValueError):
        translate(f, 0.5)


def test_embed_tilde_small_cases():
    assert embed_tilde(GridFunction.constant(1.0)) == chi(0)
    z = embed_tilde(GridFunction.zero(2))
    assert amalgam_norm(z, 2.0, 2.0) == 0.0
    f = GridFunction(2, (1.0, -2.0, 0.5, 0.0))
    for p in (1.5, 2.0, 3.0):
        for q in (1.5, 2.0, 4.0):
            assert amalgam_norm(embed_tilde(f), p, q) == pytest.approx(grid_lp_norm(f, p))


@given(f=amalgam_functions(), a=st.integers(min_value=-4, max_value=4))
def test_translate_preserves_norms_exactly(f, a):
    for p, q in ((1.5, 2.0), (2.0, 2.0), (3.0, 1.5)):
        assert amalgam_norm(translate(f, a), p, q) == amalgam_norm(f, p, q)


@given(f=amalgam_functions(), g=amalgam_functions(), a=st.integers(min_value=-4, max_value=4))
def test_translate_preserves_pairings(f, g, a):
    assert pairing_phi_pq(translate(f, a), translate(g, a)) == pytest.approx(
        pairing_phi_pq(f, g), rel=1e-12, abs=1e-12
    )


@given(f=amalgam_functions())
def test_single_cell_amalgam_norm_equals_grid_norm(f):
    m = f.window[0]
    cell_only = AmalgamFunction((m, m), {m: f.cell(m)})
    for p, q in ((1.5, 3.0), (2.0, 2.0)):
        assert amalgam_norm(cell_only, p, q) == pytest.approx(grid_lp_norm(f.cell(m), p))


# ---------------------------------------------------------------------------
# a 1-d array is a batch of one
# ---------------------------------------------------------------------------


def test_one_norm_has_the_bits_of_its_row_in_a_batch():
    # off p = 1, 2 the last step is a power; numpy's scalar power rounds
    # about one row in twenty differently from its array power
    rows = np.random.default_rng(0).standard_normal((2000, 32))
    grid, amalgam = GridSpace(3.0, 5), AmalgamSpace(3.0, 1.5, (-1, 2), 3)
    for space in (grid, amalgam):
        batch = space.norm(rows)
        assert [space.norm(v) for v in rows] == batch.tolist()
        # the typed grid_lp_norm and amalgam_norm
        assert [space.element_norm(space.from_coordinates(v)) for v in rows] == batch.tolist()


# Each descriptor with its dual: grid norms at p = 1.5, 2 and 3 and both
# amalgam exponent pairs.
LATTICE_SPACES = tuple(
    space
    for base in (
        SequenceSpace(),
        *(GridSpace(p, 3) for p in (1.5, 2.0, 3.0)),
        AmalgamSpace(3.0, 1.5, (-1, 1), 2),
    )
    for space in (base, base.dual)
)

lattice_entries = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, width=64),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_descriptor_norms_are_lattice_norms(data):
    # norm(values * signs) has the bits of norm(values) for every +-1 sign
    # pattern, zeros, NaN and inf included: each norm is a function of
    # |values|.  The unconditionality probe's order-free route relies on it.
    for space in LATTICE_SPACES:
        width = space.zero().size
        if isinstance(space, (SequenceSpace, DualSequenceSpace)):
            width = data.draw(st.integers(min_value=1, max_value=30))
        shape = (data.draw(st.integers(min_value=1, max_value=3)), width)
        values = data.draw(arrays(np.float64, shape, elements=lattice_entries))
        signs = data.draw(arrays(np.float64, shape, elements=st.sampled_from([-1.0, 1.0])))
        with np.errstate(over="ignore", invalid="ignore"):
            flipped, want = space.norm(values * signs), space.norm(values)
        assert flipped.view(np.uint64).tolist() == want.view(np.uint64).tolist(), space


# ---------------------------------------------------------------------------
# serialization round-trips
# ---------------------------------------------------------------------------


@given(v=seq_vectors())
def test_seq_vector_json_round_trip(v):
    assert SeqVector.from_json_obj(json.loads(json.dumps(v.to_json_obj()))) == v


@given(mu=dual_seqs())
def test_dual_seq_json_round_trip(mu):
    assert DualSeq.from_json_obj(json.loads(json.dumps(mu.to_json_obj()))) == mu


@given(f=grid_functions())
def test_grid_function_json_round_trip(f):
    assert GridFunction.from_json_obj(json.loads(json.dumps(f.to_json_obj()))) == f


@given(f=amalgam_functions())
def test_amalgam_function_json_round_trip(f):
    assert AmalgamFunction.from_json_obj(json.loads(json.dumps(f.to_json_obj()))) == f


# ---------------------------------------------------------------------------
# coordinate round-trips through the space descriptors
# ---------------------------------------------------------------------------

# Descriptors whose models hold every element the strategies draw: grids up
# to level 5, amalgam windows inside [-3, 5] at levels up to 3.
MODELS = {
    SeqVector: SequenceSpace(),
    DualSeq: DualSequenceSpace(),
    GridFunction: GridSpace(1.5, 5),
    AmalgamFunction: AmalgamSpace(3.0, 1.5, (-3, 5), 3),
}


@example(x=DualSeq((0.5, 0.0), -1.0))
@example(x=DualSeq((), 2.0))
@given(x=st.one_of(seq_vectors(), dual_seqs(), grid_functions(), amalgam_functions()))
def test_coordinates_round_trip_in_the_model(x):
    space = MODELS[type(x)]
    values = space.coordinates(x)
    assert space.from_coordinates(values) == x
    assert space.norm(values) == pytest.approx(space.element_norm(x), rel=1e-12, abs=1e-300)
    if isinstance(x, DualSeq):
        assert values[-1] == x.tail  # the constant tail is the last coordinate
        assert np.array_equal(space.values(values, len(x.prefix) + 3)[-3:], [x.tail] * 3)


def test_grid_coordinates_of_a_same_level_element_are_its_read_only_coefficients():
    space = GridSpace(3.0, 4)
    x = GridFunction(4, np.linspace(-1.0, 2.0, 16))
    values = space.coordinates(x)
    assert values is x.coefficients
    assert not values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        values[0] = 0.0
    assert np.array_equal(values, np.linspace(-1.0, 2.0, 16))
    # coarser and finer elements still convert to new level-4 arrays
    coarse = space.coordinates(GridFunction(2, [1.0, 2.0, 3.0, 4.0]))
    assert coarse.flags.writeable and np.array_equal(coarse, np.repeat([1.0, 2.0, 3.0, 4.0], 4))
    fine = space.coordinates(GridFunction(5, np.repeat(np.linspace(-1.0, 2.0, 16), 2)))
    assert fine.flags.writeable and np.array_equal(fine, np.linspace(-1.0, 2.0, 16))


def test_sup_values_are_the_index_gather_bit_for_bit():
    # a slice copy and a broadcast of the last coordinate give every bit of
    # the gather through min(n, k - 1): signed zeros, NaN, infinities and
    # subnormals included, for any leading shape and any N
    specials = np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2e-308, 0.0, 1.5])
    rng = np.random.default_rng(11)
    for k in range(1, 31):
        for lead in ((), (3,), (2, 4)):
            coords = rng.choice(specials, lead + (k,))
            coords.flags.writeable = k % 2 == 1  # even k: read-only input
            before = coords.tobytes()
            for N in sorted({0, 1, k - 1, k, k + 1, 1024}):
                got = DualSequenceSpace.values(coords, N)
                want = coords[..., np.minimum(np.arange(N), k - 1)]
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
                # a fresh writable array: writing into it leaves coords as they were
                assert got.flags.writeable and not np.shares_memory(got, coords)
                got[...] = 7.0
                assert coords.tobytes() == before


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_are_rejected(bad):
    with pytest.raises(ValueError):
        SeqVector(((1, 1.0), (2, bad)))
    with pytest.raises(ValueError):
        SeqVector.from_json_obj([[3, bad]])
    with pytest.raises(ValueError):
        DualSeq((0.5, bad), 0.0)
    with pytest.raises(ValueError):
        DualSeq((0.5,), bad)
    with pytest.raises(ValueError):
        GridFunction(1, (bad, 1.0))
    with pytest.raises(ValueError):
        GridFunction.from_json_obj({"level": 1, "coefficients": [bad, 1.0]})
    with pytest.raises(ValueError):
        AmalgamFunction.from_json_obj(
            {"window": [0, 1], "level": 0, "cells": {"1": [bad]}}
        )


def test_conjugate_exponent_pairs():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(1.5) == 3.0
    assert conjugate_exponent(3.0) == 1.5
    with pytest.raises(ValueError):
        conjugate_exponent(1.0)
