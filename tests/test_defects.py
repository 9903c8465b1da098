"""The defect ratchet: operator defects injected in process, against the report.

Each defect patches one operator or norm behind the catalog frames.  The
bundle of the default labels plus haar:p=3:J=6 and a p = 3 amalgam (seed 7,
200 samples) is run with the defect in place and compared with the clean
bundle.  Every defect must change the bundle's bytes, and the defects whose
bundle fails some pass row must include CAUGHT.  A change that gives the
report's rows teeth adds the defects it catches to CAUGHT; none leaves it.
"""

import dataclasses

import numpy as np
import pytest

import framekit.catalog as catalog
import framekit.frames as frames
import framekit.spaces as spaces
from framekit.verify import DEFAULT_FRAME_LABELS, run_all, spec_for_label

LABELS = DEFAULT_FRAME_LABELS + ("haar:p=3:J=6", "amalgam:p=3:q=1.5:J=2:window=-3,1")

# The defects whose bundle fails some pass row.  Every defect below passes
# every row today: the report moves, but nothing in it fails.
CAUGHT = frozenset()

# The memos that would hand a defective run the clean frames and their work
# (or the clean run a defect's); taken before any patch replaces them.
MEMOS = (catalog._catalog_frame, frames._extreme_rows, frames._atom_table)


def _wrap(patch, module, name, wrapper):
    """module.name replaced by wrapper(the original)."""
    patch.setattr(module, name, wrapper(getattr(module, name)))


def _edit_frames(patch, builder, edit):
    """Every frame catalog.builder returns replaced by edit(frame)."""
    _wrap(patch, catalog, builder, lambda build: lambda *args: edit(build(*args)))


def _scale_synthesis(factor):
    return lambda synth: lambda coeffs, J: factor * synth(coeffs, J)


def _edit_analysis(edit):
    """_haar_analysis with edit applied in place to its coefficients."""

    def wrapper(analysis):
        def run(f, N):
            out = analysis(f, N)
            edit(out, np.shape(f)[-1])
            return out

        return run

    return wrapper


def _drop_finest(out, size):
    out[..., size // 2 :] = 0.0


def _flip_ranks_3_and_4(out, size):
    out[..., 2:4] *= -1.0


def _rank_2_times_3(synth):
    def run(coeffs, J):
        coeffs = np.array(coeffs, dtype=float)
        coeffs[..., 1:2] *= 3.0
        return synth(coeffs, J)

    return run


def _grid_norm_at_1_1_p(patch):
    # spaces' amalgam norm and frames' GridSpace.norm each read the name
    for module in (spaces, frames):
        _wrap(patch, module, "grid_values_norm", lambda norm: lambda v, p, J: norm(v, 1.1 * p, J))


def _eval_next_vector(F):
    """F whose eval_batch returns x*(a_{n+1}) for x*(a_n), 0 past max_rank."""
    evaluate = F.eval_batch

    def shifted(xstar, N):
        top = N + 1 if F.max_rank is None else min(N + 1, F.max_rank)
        out = np.zeros(np.shape(xstar)[:-1] + (N,))
        out[..., : top - 1] = evaluate(xstar, top)[..., 1:]
        return out

    return dataclasses.replace(F, eval_batch=shifted)


# A sign flipped in the dual synthesis itself (of one coefficient, of one
# generation, or of one half of the inverse pyramid) leaves the bundle's
# bytes alone: the James tails it feeds are lattice norms of terms with
# disjoint supports, one Haar generation or one atom at a time, so only the
# terms' magnitudes count.  Flipping the sign of the heights' exponent
# changes them.
def _dual_heights_inverted(F):
    """The Haar frame F whose dual synthesis scales the rank-n term by
    2^(-(m-1)/2), generation m, in place of 2^((m-1)/2): the sign of the
    height's exponent flipped."""
    synth, ratio = F.dual_synth_batch, catalog._haar_heights(F.space.level) ** -2.0
    return dataclasses.replace(
        F, dual_synth_batch=lambda c: synth(np.asarray(c, dtype=float) * ratio[: np.shape(c)[-1]])
    )


# Reading x_{n+1} as b_n(x) leaves the bundle's bytes alone: no seeded l1
# element has mass at index 1 or at N + 1 for the scheduled N.  Reading
# x_{n-1} drops index N, which moves the l1 sign-flip rows.
def _l1_functional_shifted(F):
    """F whose analysis reads x_{n-1} as b_n(x), and 0 as b_1(x), on l1."""
    if F.label != "l1-canonical":
        return F
    analysis = F.coeff_batch

    def shifted(x, N):
        out = np.zeros(np.shape(x)[:-1] + (N,))
        out[..., 1:] = analysis(x, N - 1)
        return out

    return dataclasses.replace(F, coeff_batch=shifted)


DEFECTS = {
    "haar-synthesis-x1.05": lambda p: _wrap(p, catalog, "_haar_synthesis", _scale_synthesis(1.05)),
    "haar-analysis-drops-finest": lambda p: _wrap(
        p, catalog, "_haar_analysis", _edit_analysis(_drop_finest)
    ),
    "haar-analysis-flips-ranks-3-4": lambda p: _wrap(
        p, catalog, "_haar_analysis", _edit_analysis(_flip_ranks_3_and_4)
    ),
    "haar-synthesis-rank-2-x3": lambda p: _wrap(p, catalog, "_haar_synthesis", _rank_2_times_3),
    "grid-norm-at-1.1p": _grid_norm_at_1_1_p,
    "eval-reads-next-vector": lambda p: _edit_frames(p, "_catalog_frame", _eval_next_vector),
    "haar-dual-heights-inverted": lambda p: _edit_frames(p, "haar_frame", _dual_heights_inverted),
    "l1-functional-shifted": lambda p: _edit_frames(p, "_catalog_frame", _l1_functional_shifted),
}


def _bundle():
    """The bundle on LABELS, with the memos cleared before and after."""
    for memo in MEMOS:
        memo.cache_clear()
    try:
        return run_all([spec_for_label(label, seed=7, samples=200) for label in LABELS])
    finally:
        for memo in MEMOS:
            memo.cache_clear()


@pytest.fixture(scope="module")
def bundles():
    """The clean bundle under None, then each defect's bundle under its name."""
    out = {None: _bundle()}
    for name, inject in DEFECTS.items():
        with pytest.MonkeyPatch.context() as patch:
            inject(patch)
            out[name] = _bundle()
    assert _bundle().to_json() == out[None].to_json()  # every defect was undone
    return out


@pytest.mark.parametrize("name", DEFECTS)
def test_every_defect_changes_the_bundle(bundles, name):
    assert bundles[name].to_json() != bundles[None].to_json()


def test_the_report_catches_the_committed_defects(bundles):
    assert bundles[None].all_pass()
    caught = {name for name in DEFECTS if not bundles[name].all_pass()}
    assert caught >= CAUGHT, f"caught {sorted(caught)}, committed {sorted(CAUGHT)}"
