import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from vadpipe.aggregate import aggregate_score, decide_segment, segment_values
from vadpipe.scorer import FrameScoreMatrix


def matrix(rows):
    return FrameScoreMatrix(np.asarray(rows, dtype=float), 10.0)


class TestAggregateScore:
    def test_all_ones_2x2(self):
        assert aggregate_score(matrix([[1, 1], [1, 1]])) == 2.0

    def test_all_zeros(self):
        assert aggregate_score(matrix([[0, 0], [0, 0]])) == 0.0

    def test_single_channel_mean(self):
        assert aggregate_score(matrix([[0.3], [0.6], [0.9]])) == pytest.approx(0.6, abs=1e-15)

    def test_divides_by_frames_only(self):
        # 3 frames x 4 channels of 1.0: sum 12, divided by D=3, not D*C
        assert aggregate_score(matrix(np.ones((3, 4)))) == 4.0

    def test_monotone_in_every_entry(self, rng):
        for _ in range(50):
            scores = rng.uniform(0, 3, size=(5, 4))
            base = aggregate_score(matrix(scores))
            bumped = scores.copy()
            d, c = rng.integers(0, 5), rng.integers(0, 4)
            bumped[d, c] += rng.uniform(0, 2)
            assert aggregate_score(matrix(bumped)) >= base

    def test_permutation_invariance(self, rng):
        scores = rng.uniform(0, 3, size=(6, 5))
        base = aggregate_score(matrix(scores))
        rows = aggregate_score(matrix(scores[rng.permutation(6)]))
        cols = aggregate_score(matrix(scores[:, rng.permutation(5)]))
        assert rows == base  # exact: compensated summation
        assert cols == base


class TestDecideSegment:
    def test_boundary_is_speech(self):
        ss = decide_segment(matrix([[1, 1], [1, 1]]), 2.0)
        assert ss.value == 2.0
        assert ss.label == 1
        assert ss.threshold_used == 2.0

    def test_just_below_boundary(self):
        ss = decide_segment(matrix([[0.9995, 1], [1, 1]]), 2.0)
        assert ss.label == 0

    def test_thresh_zero_always_speech(self, rng):
        scores = rng.uniform(0, 1, size=(4, 3))
        assert decide_segment(matrix(scores), 0.0).label == 1

    def test_label_monotone_nonincreasing_in_thresh(self, rng):
        scores = rng.uniform(0, 2, size=(4, 4))
        labels = [decide_segment(matrix(scores), t).label
                  for t in np.linspace(0, 10, 25)]
        assert all(a >= b for a, b in zip(labels, labels[1:]))


# ---------------------------------------------------------------------------
# segment_values against math.fsum: equal, not close

def fsum_value(segment: np.ndarray) -> float:
    """The aggregate's definition: math.fsum over frames of math.fsum over channels."""
    return math.fsum([math.fsum(row) for row in segment.tolist()]) / len(segment)


@contextlib.contextmanager
def fsum_calls():
    """The term lists math.fsum is called with inside the block."""
    calls = []
    fsum = math.fsum
    with mock.patch.object(math, "fsum", lambda terms: calls.append(terms) or fsum(terms)):
        yield calls


def assert_fsum_values(block: np.ndarray) -> None:
    want = [fsum_value(segment).hex() for segment in block.reshape((-1,) + block.shape[-2:])]
    with fsum_calls() as calls:
        got = segment_values(block)
    assert got.shape == block.shape[:-2]
    assert [v.hex() for v in got.reshape(-1).tolist()] == want
    assert all(any(terms) for terms in calls), "a zero sum went to math.fsum"


@st.composite
def with_zero_rows(draw, block: np.ndarray) -> np.ndarray:
    """block with some frames, and some whole segments, set to +0.0 or -0.0."""
    segments = block.shape[:1] + (1,) * (block.ndim - 2)
    zero = draw(arrays(np.bool_, block.shape[:-1])) | draw(arrays(np.bool_, segments))
    block[zero] = draw(st.sampled_from([0.0, -0.0]))
    return block


blocks = st.tuples(st.integers(1, 4), st.integers(1, 24), st.integers(1, 40)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(0.0, 1e6))).flatmap(with_zero_rows)


@settings(deadline=None, max_examples=200)
@given(blocks)
def test_random_blocks_equal_fsum(block):
    assert_fsum_values(block)


def test_zero_sums_reach_no_fsum():
    # Nonnegative terms sum to 0 only if all are 0, so those sums are exact
    # in numpy; the other sums here are small integers, exact as well.
    block = np.zeros((3, 19, 32))
    block[1, ::3] = 0.5
    block[2] = -0.0
    want = [fsum_value(segment) for segment in block]
    with fsum_calls() as calls:
        got = segment_values(block)
    assert calls == []
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
    assert got.tolist() == [0.0, 7 * 16 / 19, 0.0]


@st.composite
def tie_terms(draw) -> list[float]:
    """Nonnegative terms whose exact sum is a half-ulp rounding tie, or lies
    a hair above or below one, at a magnitude between 2^-60 and 2^60."""
    big = math.ldexp(draw(st.integers(2**52, 2**53 - 1)), draw(st.integers(-60, 60)) - 52)
    half = math.ulp(big) / 2
    pieces = draw(st.integers(1, 3))
    terms = [big] + [half / 2**pieces] * 2 + [half / 2**k for k in range(1, pieces)]
    side = draw(st.sampled_from(["tie", "above", "below"]))
    if side == "above":
        terms.append(math.ldexp(half, -draw(st.integers(1, 60))))
    elif side == "below":
        terms[1] -= math.ldexp(terms[1], -draw(st.integers(1, 52)))
    return draw(st.permutations(terms))


@settings(deadline=None, max_examples=300)
@given(st.lists(tie_terms(), min_size=1, max_size=6), st.integers(0, 8), st.booleans())
def test_tie_and_near_tie_rows_equal_fsum(rows, zeros, transpose):
    # Each row's channel sum is a tie; transposed, the frame sums are the
    # terms, so the sum over frames is the tie.
    width = max(len(r) for r in rows) + zeros
    block = np.zeros((len(rows), width))
    for i, terms in enumerate(rows):
        block[i, :len(terms)] = terms
    if transpose:
        block = block.T.copy()
    assert_fsum_values(block[None])
    assert_fsum_values(block.reshape(block.shape + (1,)))  # one channel


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 1, 32), (2, 19, 1), (1, 798, 32)])
def test_degenerate_shapes_equal_fsum(shape, rng):
    assert_fsum_values(np.zeros(shape))
    assert_fsum_values(-np.zeros(shape))   # -0.0 is not negative; fsum gives +0.0
    assert_fsum_values(rng.uniform(0, 5, shape))


@settings(deadline=None, max_examples=100)
@given(st.lists(arrays(np.float64, st.tuples(st.integers(1, 30), st.just(3)),
                       elements=st.floats(0.0, 1e6)).flatmap(with_zero_rows),
                min_size=1, max_size=5))
def test_zero_padded_segments_equal_fsum_of_their_own_frames(segments):
    frames = np.array([len(s) for s in segments])
    block = np.zeros((len(segments), frames.max(), 3))
    for row, s in zip(block, segments):
        row[:len(s)] = s
    got = segment_values(block, frames).tolist()
    assert [v.hex() for v in got] == [fsum_value(s).hex() for s in segments]


def test_segment_values_rejects_negative_scores():
    with pytest.raises(ValueError, match="nonnegative"):
        segment_values(np.array([[[1.0, -1e-300]]]))


def test_segment_values_rejects_nan_scores():
    with pytest.raises(ValueError, match="not NaN"):
        segment_values(np.array([[[np.nan, 1.0]]]))


def test_nan_scores_get_no_label():
    with pytest.raises(ValueError, match="not NaN"):
        decide_segment(FrameScoreMatrix([[np.nan, 1.0]], 10.0), 45.9)


def test_overflowing_sum_raises_like_fsum():
    with pytest.raises(OverflowError):
        segment_values(np.full((1, 2, 2), 1e308))

