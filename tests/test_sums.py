"""The exactly rounded prefix sums: math.fsum's bits, certified or not."""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from framekit.sums import prefix_sums


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


# Nonnegative terms for the prefix sums: zeros, subnormals and normal values
# spread over +-60 binades.
_prefix_terms = st.one_of(
    st.just(0.0),
    st.floats(0.0, 2.0**-1022, exclude_max=True, allow_subnormal=True),
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-60, 60)),
)


@st.composite
def _prefix_rows(draw):
    row = draw(st.lists(_prefix_terms, min_size=1, max_size=40))
    # half an ulp of a prefix sum lands that prefix on or near a midpoint
    for k in draw(st.lists(st.integers(1, len(row)), max_size=3)):
        row.insert(k, math.ulp(math.fsum(row[:k])) / 2)
    return row


# The error sum rounds back below the midpoint 1 + 2^-53 that the exact
# sum passes: only the error bound keeps this from being certified as 1.
_PAST_THE_MIDPOINT = [1.0] + [float.fromhex(h) for h in (
    "0x1.fffffffffffecp-58", "0x1.000000000001bp-56", "0x1.fffffffffffd2p-58",
    "0x1.fffffffffffecp-55", "0x1.fffffffffffc4p-58", "0x1.0000000000024p-57",
    "0x1.000000000001bp-56",
)]


@example(rows=[_PAST_THE_MIDPOINT])
@example(rows=[[1.0, 2.0**-53]])
@example(rows=[[1.0, 2.0**-53, 2.0**-53, 0.0, 2.0**-106]])
@example(rows=[[2.0**-1074, 2.0**-1074, 0.0], [2.0**-1022, 2.0**-1074, 2.0**60]])
# The error bound N 2^-53 s_N at the smallest normal: it underflows to 0
# at one term and is a few subnormals wide past it, where sums round.
@example(rows=[
    [2.0**-1022 - 2.0**-1074, 2.0**-1074], [2.0**-1022], [2.0**-1021, 2.0**-1074, 2.0**-1074],
])
# Rows of subnormals only, exact below 2^-1021 and rounded above it.
@example(rows=[[2.0**-1074] * 5, [2.0**-1022 - 2.0**-1074] * 3, [2.0**-1030, 2.0**-1074] * 4])
@given(rows=st.lists(_prefix_rows(), min_size=1, max_size=4))
def test_prefix_sums_are_fsum_at_every_truncation(rows):
    width = max(map(len, rows))
    terms = np.array([row + [0.0] * (width - len(row)) for row in rows])
    schedule = tuple(range(1, width + 1))
    got = prefix_sums(terms, schedule)
    want = [[math.fsum(row[:N]) for N in schedule] for row in terms.tolist()]
    assert _bits(got) == _bits(want)


@st.composite
def _cut_schedules(draw):
    """Rows and a nondecreasing schedule that may repeat a truncation and
    stop short of the row width, as the sweep's min(N, w) cuts do."""
    rows = draw(st.lists(_prefix_rows(), min_size=1, max_size=4))
    width = max(map(len, rows))
    schedule = draw(st.lists(st.integers(1, width), min_size=1, max_size=6))
    return rows, tuple(sorted(schedule))


# A repeated truncation whose own last error is not 0: a segment sum
# started at a repeated column would add that error twice.
@example(case=([[1.0, 2.0**-53, 3.0, 2.0**-52, 7.0]], (1, 3, 3, 3)))
@example(case=([[2.0**-60, 1.0, 2.0**-53, 1.0, 0.0, 5.0]], tuple(min(N, 4) for N in (2, 4, 16, 64))))
# Rows as long as the sweep's chunk, 2^14 terms: one that rounds at every
# step and ends on an exact midpoint, and one whose errors do not cancel.
@example(case=([[1.0] + [2.0**-53] * (2**14 - 1)], (1, 2**13, 2**14 - 1, 2**14)))
@example(case=([[1.0, 0.75 * 2.0**-52] * 2**13], (2, 2**10, 2**14)))
@given(case=_cut_schedules())
def test_prefix_sums_on_cut_schedules_are_fsum(case):
    rows, schedule = case
    width = max(map(len, rows))
    terms = np.array([row + [0.0] * (width - len(row)) for row in rows])
    got = prefix_sums(terms, schedule)
    want = [[math.fsum(row[:N]) for N in schedule] for row in terms.tolist()]
    assert _bits(got) == _bits(want)


def test_prefix_sums_certify_most_entries_and_fall_back_on_midpoints(monkeypatch):
    calls = []

    def counted(values, original=math.fsum):
        calls.append(len(values))
        return original(values)

    # products of full-precision values, as in the sweep; none of these
    # prefix sums is an exact midpoint
    rng = np.random.default_rng(5)
    terms = np.abs(rng.standard_normal((8, 300)) * rng.standard_normal((8, 300)))
    schedule = (1, 10, 100, 300)
    with monkeypatch.context() as patch:
        patch.setattr(math, "fsum", counted)
        got = prefix_sums(terms, schedule)
        assert calls == []  # every entry certified
        tie = prefix_sums(np.array([[1.0, 2.0**-53, 0.0]]), (1, 2, 3))
        assert calls == [2, 3]  # the exact midpoint 1 + 2^-53 is left to fsum
    assert _bits(tie) == _bits([[1.0, 1.0, 1.0]])
    want = [[math.fsum(row[:N]) for N in schedule] for row in terms.tolist()]
    assert _bits(got) == _bits(want)
