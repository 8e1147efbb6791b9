import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vadpipe import dsp, parallel
from vadpipe.audio_io import PIPELINE_RATE_HZ
from vadpipe.pipeline import PipelineConfig
from vadpipe.preprocess import rms_normalize
from vadpipe.scorer import (MAX_BANDS, MIN_FFT_LEN, NOISE_FLOOR_PERCENTILE, FrameScoreMatrix,
                            ReferenceScorer, ScoreDomainError, ScoreFormatError, load_scores,
                            _noise_floor, mel_filterbank, slice_scores, write_scores)

from conftest import make_buffer
import oracle


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

    def test_max_bands_is_the_most_with_support_at_the_pipeline_rate(self):
        fb = mel_filterbank(MAX_BANDS, MIN_FFT_LEN, PIPELINE_RATE_HZ)
        assert np.all(fb.sum(axis=1) > 0)
        fb = mel_filterbank(MAX_BANDS + 1, MIN_FFT_LEN, PIPELINE_RATE_HZ)
        assert not np.all(fb.sum(axis=1) > 0)


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


def scores_with_fft_len(scorer: ReferenceScorer, rows: np.ndarray, fft_len: int) -> np.ndarray:
    """ReferenceScorer.score_rows at 16 kHz spelled out, with the FFT length given."""
    frame_len = int(round(16 * scorer.frame_ms))
    frames = dsp.frame_rows(rows, frame_len, int(round(16 * scorer.hop_ms)))
    power = np.abs(np.fft.rfft(frames * np.hanning(frame_len), n=fft_len)) ** 2
    log_energy = np.log(power @ mel_filterbank(scorer.bands, fft_len, 16000).T + 1e-10)
    floor = np.percentile(log_energy, NOISE_FLOOR_PERCENTILE, axis=-2, keepdims=True)
    return np.maximum(log_energy - floor, 0.0)


def assert_floor_is_percentile(log_energy: np.ndarray):
    want = np.percentile(log_energy, NOISE_FLOOR_PERCENTILE, axis=-2, keepdims=True)
    got = _noise_floor(log_energy)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# The floor's input values: finite, and never -0.0. np.log never returns
# -0.0 (log(1.0) is +0.0), and a floor of -0.0 could not change
# log_energy - floor anyway. A sort and a partition may order a tie of -0.0
# and 0.0 either way, so with -0.0 the two could pick different zeros.
# Values within 1e300 keep b - a of the interpolation finite.
floor_values = st.floats(-1e300, 1e300, allow_nan=False).map(lambda v: v + 0.0)


@st.composite
def log_energies(draw):
    """(T, frames, bands) arrays; in some a share of the values (or all)
    come from a small pool, so that order statistics tie."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 2500)), draw(st.integers(1, MAX_BANDS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-30.0, 10.0, shape) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    ties = rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    pool = np.array(draw(st.lists(floor_values, min_size=1, max_size=6)))
    x[ties] = rng.choice(pool, np.count_nonzero(ties))
    return x


@settings(deadline=None)
@given(log_energies())
def test_noise_floor_is_np_percentile_bit_for_bit(log_energy):
    assert_floor_is_percentile(log_energy)


# Frame counts n with index (n - 1) / 10: 0 at n = 1, an interpolation over
# two values at n = 2, whole at n = 11, 21 and 801, and fractional parts
# below 0.5 (n = 3, 15) and at or above it (n = 16, 19, 799, the baseline's
# 8 s clip).
@pytest.mark.parametrize("frames", [1, 2, 3, 11, 15, 16, 19, 21, 799, 801])
def test_noise_floor_at_each_kind_of_index(rng, frames):
    assert_floor_is_percentile(rng.standard_normal((3, frames, 32)))
    assert_floor_is_percentile(rng.integers(-2, 3, (3, frames, 32)) * 0.7 + 0.0)


def test_stacked_mel_projection_is_row_by_row_bit_for_bit(rng):
    # numpy's stacked matmul runs one gemm per row, so a segment's log-mel
    # energies do not depend on which other rows share its block. Both the
    # split of a clip's rows across threads and run_pipeline's compacted
    # block of non-silent rows rest on this; it holds for the BLAS build
    # numpy is linked against, not by construction (see ROADMAP).
    filterbank = ReferenceScorer().filterbank()
    for t in range(1, 41):
        power = rng.random((t, 19, filterbank.shape[1])) ** 4
        stacked = power @ filterbank.T
        for row in range(t):
            assert stacked[row].tobytes() == (power[row:row + 1] @ filterbank.T)[0].tobytes()


class TestSilentFrames:
    """A row of at least 2 * MIN_CHUNK_FRAMES frames, as the baseline's
    whole clip, scores its frames of digital silence without transforming
    them, with the bits of tests/oracle.py, which transforms every frame."""

    @staticmethod
    def row_with_silence(rng, zero: float) -> np.ndarray:
        # 249 frames; two silent stretches, the second holding one nonzero
        # sample that every frame over it has inside, away from its ends
        x = rng.standard_normal(40000) * 0.1
        x[4000:16000] = zero
        x[20000:30000] = zero
        x[25000] = 0.05
        return x

    @pytest.fixture(autouse=True)
    def reset_threads(self):
        yield
        parallel.set_threads(None)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_silent_frames_skip_the_transform_with_the_same_bits(self, rng, monkeypatch,
                                                                 zero, threads):
        x = self.row_with_silence(rng, zero)
        want = oracle.score(x, PipelineConfig())
        silent = int((~oracle.frames_of(x, 400, 160).any(axis=1)).sum())
        assert len(want) == 249 and 60 < silent < 249 - 100
        transformed = []
        rfft_frames = dsp.rfft_frames
        monkeypatch.setattr(dsp, "rfft_frames", lambda frames, *a, **k: (
            transformed.append(frames.shape[-2]) or rfft_frames(frames, *a, **k)))
        parallel.set_threads(threads)
        got = ReferenceScorer().score_rows(x[None])
        assert got.shape == (1,) + want.shape and got[0].tobytes() == want.tobytes()
        assert sum(transformed) == len(want) - silent

    def test_a_silent_row_scores_zero(self):
        row = np.zeros((1, 40000))
        row[0, ::2] = -0.0
        assert ReferenceScorer().score_rows(row).tobytes() == np.zeros((1, 249, 32)).tobytes()

    def test_short_rows_and_blocks_are_not_scanned(self, rng, monkeypatch):
        # vote-mode rows (19 frames each), and blocks of several rows, take no
        # silence test: they run on the pool threads, and gained nothing from it
        scans = []
        monkeypatch.setattr(dsp, "silent_frames", lambda frames: scans.append(frames.shape))
        x = self.row_with_silence(rng, 0.0)
        ReferenceScorer().score_rows(x[:3200 * 12].reshape(12, 3200))
        ReferenceScorer().score_rows(np.stack([x, x]))
        ReferenceScorer().score_rows(x[None, :32000])   # 199 frames
        assert scans == []
        ReferenceScorer().score_rows(x[None, :32240])   # 200 frames
        assert scans == [(1, 200, 400)]


class TestFftLength:
    @pytest.mark.parametrize("frame_ms", [25.0, 32.0])
    def test_frames_that_fit_512_points_are_scored_as_before(self, rng, frame_ms):
        scorer = ReferenceScorer(frame_ms=frame_ms, hop_ms=8.0)
        rows = rng.standard_normal((3, 3200)) * 0.1
        assert scorer.filterbank() is mel_filterbank(32, 512, 16000)
        assert np.array_equal(scorer.score_rows(rows),
                              scores_with_fft_len(scorer, rows, 512))

    def test_a_40_ms_frame_is_transformed_whole(self, rng):
        scorer = ReferenceScorer(frame_ms=40.0)  # 640 samples at 16 kHz: 1024 points
        rows = rng.standard_normal((3, 3200)) * 0.1
        assert np.array_equal(scorer.score_rows(rows),
                              scores_with_fft_len(scorer, rows, 1024))
        # An impulse 600 samples in: of the first frame, only its last 128
        # samples reach it, so a 512-point crop would score that frame 0.
        impulse = np.zeros(3200)
        impulse[600] = 1.0
        assert scorer.score(make_buffer(impulse)).scores[0].max() > 0.0


class TestFrameScoreMatrix:
    def test_rejects_negative_scores(self):
        with pytest.raises(ValueError):
            FrameScoreMatrix(np.array([[0.5, -0.1]]), 10.0)

    def test_rejects_nan_scores(self):
        with pytest.raises(ValueError, match="not NaN"):
            FrameScoreMatrix(np.array([[0.5, np.nan]]), 10.0)

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


numbers = st.sampled_from(["0", "1", "2", "-1", "0.5", "1e-320", "1e999", "nan", "inf",
                           "-0", "x", "", "1_0", "\u0661", "3.0"]) | st.text(max_size=4)
score_lines = st.lists(numbers, min_size=1, max_size=4).map(" ".join)
# Any header over any rows; numbered rows under a good header; any text.
score_texts = st.one_of(
    st.builds(lambda channels, frame_ms, rows, sep: sep.join(
        [f"#channels={channels} frame_ms={frame_ms}", *rows]),
        numbers, numbers, st.lists(score_lines, max_size=4), st.sampled_from(["\n", "\r\n"])),
    st.builds(lambda rows: "#channels=1 frame_ms=10\n" + "".join(
        f"{i} {row}\n" for i, row in enumerate(rows, 1)), st.lists(score_lines, max_size=4)),
    st.text())


@settings(deadline=None)  # each example writes and reads a file
@given(st.one_of(score_texts.map(lambda text: text.encode()), st.binary(max_size=64)))
def test_load_scores_fuzz_raises_only_declared_errors(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("fuzz") / "s.txt"
    path.write_bytes(blob)
    try:
        matrix = load_scores(path)
    except (ScoreFormatError, ScoreDomainError):
        return
    assert np.all(np.isfinite(matrix.scores)) and np.all(matrix.scores >= 0)


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
