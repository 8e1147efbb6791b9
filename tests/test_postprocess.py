import itertools
import math

import pytest
from hypothesis import given, strategies as st

from vadpipe.evaluate import clip_statistic
from vadpipe.pipeline import PipelineConfig
from vadpipe.postprocess import (VoteConfig, default_quorum, final_decision,
                                 vote_windows, vote_with_fallback, window_statistics)


def oracle_votes(labels, w, quorum):
    """Dumb reference: slide, slice, sum, compare."""
    return [int(sum(labels[t:t + w]) >= quorum) for t in range(len(labels) - w + 1)]


class TestDefaultQuorum:
    @pytest.mark.parametrize("w,expected", [(1, 1), (2, 2), (3, 3), (4, 3), (5, 4), (6, 4)])
    def test_matches_more_than_half_rule(self, w, expected):
        assert default_quorum(w) == expected
        if w > 1:
            # quorum is the smallest count strictly above ceil(w/2)
            assert expected == math.ceil(w / 2) + 1 or expected == w


class TestVoteWindows:
    def test_three_of_four_fires(self):
        assert vote_windows([1, 1, 1, 0], VoteConfig(4)) == [1]

    def test_two_of_four_does_not(self):
        assert vote_windows([1, 1, 0, 0], VoteConfig(4)) == [0]

    def test_window_one_is_identity(self):
        assert vote_windows([0, 1, 0], VoteConfig(1, quorum=1)) == [0, 1, 0]

    def test_w3_exhaustive_against_oracle(self):
        cfg = VoteConfig(3)
        for labels in itertools.product([0, 1], repeat=5):
            assert vote_windows(list(labels), cfg) == \
                oracle_votes(labels, 3, cfg.effective_quorum)

    def test_custom_quorum(self):
        assert vote_windows([1, 0, 1, 0], VoteConfig(4, quorum=2)) == [1]

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            vote_windows([1, 0], VoteConfig(4))

    def test_monotone_in_labels(self, rng):
        for _ in range(100):
            w = int(rng.integers(1, 6))
            t = int(rng.integers(w, 12))
            labels = list(rng.integers(0, 2, size=t))
            cfg = VoteConfig(w)
            before = vote_windows(labels, cfg)
            zeros = [i for i, v in enumerate(labels) if v == 0]
            if not zeros:
                continue
            labels[zeros[0]] = 1
            after = vote_windows(labels, cfg)
            assert all(b >= a for a, b in zip(before, after))
            assert max(after) >= max(before)


class TestVoteWithFallback:
    def test_delegates_when_long_enough(self):
        assert vote_with_fallback([1, 1, 1, 0, 0], VoteConfig(4)) == [1, 0]

    def test_short_input_scales_quorum(self):
        # W=4 quorum 3, T=2: scaled quorum = ceil(3*2/4) = 2
        assert vote_with_fallback([1, 1], VoteConfig(4)) == [1]
        assert vote_with_fallback([1, 0], VoteConfig(4)) == [0]

    def test_single_label(self):
        # scaled quorum = ceil(3/4) = 1
        assert vote_with_fallback([1], VoteConfig(4)) == [1]
        assert vote_with_fallback([0], VoteConfig(4)) == [0]

    def test_no_labels_get_no_vote(self):
        with pytest.raises(ValueError, match="no labels"):
            vote_with_fallback([], VoteConfig(4))


class TestFinalDecision:
    def test_any_window_speech(self):
        assert final_decision([0, 0, 1, 0]) == 1

    def test_all_zero(self):
        assert final_decision([0, 0, 0]) == 0

    def test_all_one(self):
        assert final_decision([1, 1]) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            final_decision([])

    def test_w1_reduces_to_or(self, rng):
        cfg = VoteConfig(1, quorum=1)
        for _ in range(20):
            labels = list(rng.integers(0, 2, size=int(rng.integers(1, 10))))
            assert final_decision(vote_with_fallback(labels, cfg)) == max(labels)


class TestVoteConfig:
    def test_rejects_zero_window(self):
        with pytest.raises(ValueError):
            VoteConfig(0)

    @pytest.mark.parametrize("quorum", [0, 5])
    def test_rejects_out_of_range_quorum(self, quorum):
        with pytest.raises(ValueError):
            VoteConfig(4, quorum=quorum)


vote_configs = st.integers(1, 8).flatmap(
    lambda w: st.builds(VoteConfig, st.just(w), st.none() | st.integers(1, w)))
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestVoteStatistic:
    @given(vote_configs, st.lists(finite_floats, min_size=1, max_size=60), st.data())
    def test_vote_says_speech_exactly_when_statistic_reaches_threshold(
            self, cfg, values, data):
        t = data.draw(finite_floats | st.sampled_from(values))
        labels = [int(v >= t) for v in values]
        windows = vote_with_fallback(labels, cfg)
        assert (window_statistics(values, cfg) >= t).astype(int).tolist() == windows
        # T < W votes once over all T labels, the quorum scaled (never below 1)
        w = min(cfg.window_w, len(values))
        quorum = max(1, math.ceil(cfg.effective_quorum * w / cfg.window_w))
        assert windows == oracle_votes(labels, w, quorum)
        assert final_decision(windows) == \
            int(clip_statistic(values, PipelineConfig(vote=cfg)) >= t)

    @given(vote_configs, finite_floats)
    def test_single_value_is_its_own_statistic(self, cfg, value):
        assert window_statistics([value], cfg).tolist() == [value]
        assert clip_statistic([value], PipelineConfig(vote=cfg)) == value

    def test_short_input_scales_quorum(self):
        # T = 2 < W = 4: one window, quorum ceil(3 * 2 / 4) = 2
        assert window_statistics([5.0, 9.0], VoteConfig(4)).tolist() == [5.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            window_statistics([], VoteConfig(4))
        with pytest.raises(ValueError):
            clip_statistic([], PipelineConfig())

    @pytest.mark.parametrize("values", [[math.nan], [50.0, math.nan, 60.0, 70.0, 80.0]])
    def test_nan_rejected(self, values):
        with pytest.raises(ValueError, match="NaN"):
            window_statistics(values, VoteConfig(4))
        with pytest.raises(ValueError, match="NaN"):
            clip_statistic(values, PipelineConfig())
