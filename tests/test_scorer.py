import numpy as np
import pytest

from vadpipe.preprocess import rms_normalize
from vadpipe.scorer import (FrameScoreMatrix, ReferenceScorer, ScoreDomainError,
                            ScoreFormatError, load_scores, mel_filterbank,
                            slice_scores, write_scores)

from conftest import make_buffer


def am_tone(duration_s=2.0, sr=16000, f0=180.0, am_hz=4.0, leading_silence_s=0.6):
    """Amplitude-modulated harmonic tone after a stretch of exact silence."""
    n = int(duration_s * sr)
    t = np.arange(n) / sr
    x = sum((1.0 / k) * np.sin(2 * np.pi * k * f0 * t) for k in range(1, 6))
    x *= 0.5 + 0.5 * np.sin(2 * np.pi * am_hz * t)
    x[: int(leading_silence_s * sr)] = 0.0
    return make_buffer(0.1 * x / np.max(np.abs(x)))


class TestMelFilterbank:
    def test_shape_and_nonnegativity(self):
        fb = mel_filterbank(32, 512, 16000)
        assert fb.shape == (32, 257)
        assert np.all(fb >= 0)

    def test_every_band_has_support(self):
        fb = mel_filterbank(32, 512, 16000)
        assert np.all(fb.sum(axis=1) > 0)


class TestReferenceScorer:
    def test_silence_scores_all_zero(self):
        m = ReferenceScorer().score(make_buffer(np.zeros(3200)))
        assert np.all(m.scores == 0.0)
        assert m.num_channels == 32

    def test_noise_scores_far_below_speech_fixture(self, rng):
        scorer = ReferenceScorer()
        noise = make_buffer(rng.standard_normal(32000) * 0.1)
        noise_aggr = np.percentile(scorer.score(noise).scores.sum(axis=1), 95)
        speech_aggr = np.percentile(scorer.score(am_tone()).scores.sum(axis=1), 95)
        assert noise_aggr <= 0.1 * speech_aggr

    def test_modulated_frames_outscore_steady_frames(self, rng):
        sr = 16000
        n = 32000
        t = np.arange(n) / sr
        noise = rng.standard_normal(n) * 0.02
        voiced = sum((1.0 / k) * np.sin(2 * np.pi * k * 170 * t) for k in range(1, 6))
        voiced *= (0.5 + 0.5 * np.sin(2 * np.pi * 4.0 * t)) * 0.1
        mask = np.zeros(n)
        mask[8000:16000] = 1.0  # only the second half-second is voiced
        m = ReferenceScorer().score(make_buffer(noise + voiced * mask))
        rows = m.scores.sum(axis=1)
        hop = int(sr * m.frame_duration_ms / 1000)
        voiced_rows = rows[8000 // hop + 2: 16000 // hop - 2]
        steady_rows = np.concatenate([rows[2: 8000 // hop - 2], rows[16000 // hop + 2: -4]])
        assert voiced_rows.mean() > 2.0 * steady_rows.mean()

    def test_deterministic(self, rng):
        buf = make_buffer(rng.standard_normal(8000) * 0.1)
        a = ReferenceScorer().score(buf)
        b = ReferenceScorer().score(buf)
        assert np.array_equal(a.scores, b.scores)

    def test_shift_covariance_by_one_frame(self):
        buf = am_tone(duration_s=2.0, leading_silence_s=0.6)
        hop = 160
        # length aligned so the frame grid tiles exactly
        aligned = make_buffer(buf.samples[:400 + 99 * hop])
        delayed = make_buffer(np.concatenate([np.zeros(hop), aligned.samples]))
        a = ReferenceScorer().score(aligned)
        b = ReferenceScorer().score(delayed)
        assert b.num_frames == a.num_frames + 1
        assert np.max(np.abs(b.scores[1:] - a.scores)) <= 1e-9

    def test_scaling_invariance_after_rms_normalize(self, rng):
        x = make_buffer(rng.standard_normal(8000) * 0.05)
        scaled = make_buffer(x.samples * 3.7)
        a = ReferenceScorer().score(rms_normalize(x, 0.1))
        b = ReferenceScorer().score(rms_normalize(scaled, 0.1))
        assert np.max(np.abs(a.scores - b.scores)) <= 1e-6


class TestFrameScoreMatrix:
    def test_rejects_negative_scores(self):
        with pytest.raises(ValueError):
            FrameScoreMatrix(np.array([[0.5, -0.1]]), 10.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FrameScoreMatrix(np.zeros((0, 4)), 10.0)

    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            FrameScoreMatrix(np.ones((2, 2)), 0.0)


class TestScoreFiles:
    def test_parse_documented_example(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("#channels=2 frame_ms=10\n1 0.0 0.0\n2 1.5 0.2\n")
        m = load_scores(path)
        assert m.num_frames == 2 and m.num_channels == 2
        assert np.array_equal(m.scores, [[0.0, 0.0], [1.5, 0.2]])
        assert m.frame_duration_ms == 10.0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("")
        with pytest.raises(ScoreFormatError):
            load_scores(path)

    def test_negative_score_is_domain_error(self, tmp_path):
        path = tmp_path / "n.txt"
        path.write_text("#channels=1 frame_ms=10\n1 -1.0\n")
        with pytest.raises(ScoreDomainError):
            load_scores(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("#channels=2 frame_ms=10\n1 0.5 0.5\n2 0.5\n")
        with pytest.raises(ScoreFormatError):
            load_scores(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("1 0.5\n2 0.5\n")
        with pytest.raises(ScoreFormatError):
            load_scores(path)

    def test_out_of_order_index(self, tmp_path):
        path = tmp_path / "o.txt"
        path.write_text("#channels=1 frame_ms=10\n2 0.5\n1 0.5\n")
        with pytest.raises(ScoreFormatError):
            load_scores(path)

    @pytest.mark.parametrize("frame_ms", ["inf", "nan", "0", "-5"])
    def test_bad_frame_ms_rejected(self, tmp_path, frame_ms):
        path = tmp_path / "f.txt"
        path.write_text(f"#channels=1 frame_ms={frame_ms}\n1 0.5\n")
        with pytest.raises(ScoreFormatError):
            load_scores(path)

    @pytest.mark.parametrize("channels", ["0", "-1"])
    def test_bad_channel_count_rejected(self, tmp_path, channels):
        path = tmp_path / "c.txt"
        path.write_text(f"#channels={channels} frame_ms=10\n1\n")
        with pytest.raises(ScoreFormatError):
            load_scores(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "ho.txt"
        path.write_text("#channels=1 frame_ms=10\n")
        with pytest.raises(ScoreFormatError):
            load_scores(path)

    def test_write_read_round_trip(self, tmp_path, rng):
        m = FrameScoreMatrix(rng.uniform(0, 5, size=(7, 3)), 10.0)
        path = tmp_path / "rt.txt"
        write_scores(m, path)
        back = load_scores(path)
        assert back.frame_duration_ms == 10.0
        assert np.allclose(back.scores, m.scores, atol=1e-8)


class TestSliceScores:
    def test_maps_time_to_rows(self):
        m = FrameScoreMatrix(np.arange(20, dtype=float).reshape(10, 2), 10.0)
        part = slice_scores(m, 20.0, 50.0)
        assert np.array_equal(part.scores, m.scores[2:5])

    def test_past_end_yields_zero_row(self):
        m = FrameScoreMatrix(np.ones((4, 2)), 10.0)
        part = slice_scores(m, 100.0, 140.0)
        assert part.num_frames == 1
        assert np.all(part.scores == 0.0)
