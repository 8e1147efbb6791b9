import threading
import warnings

import numpy as np
import pytest

from vadpipe import parallel, pipeline
from vadpipe.aggregate import aggregate_score, decide_segment, segment_values
from vadpipe.audio_io import MAX_SAMPLE_MAGNITUDE, AudioBuffer, ensure_rate
from vadpipe.preprocess import (PreprocessConfig, clip_noise_profile, energy_gate,
                                preprocess_rows_scratch, preprocess_segment, rms_normalize,
                                spectral_subtract)
from vadpipe.pipeline import (CLIP_ERRORS, MAX_SEGMENT_MS, MODES, PipelineConfig, run_configs,
                              run_pipeline, run_pipeline_on_scores, segment, segment_rows)
from vadpipe.scorer import (MAX_BANDS, MAX_FRAME_MS, FrameScoreMatrix, ReferenceScorer,
                            slice_scores)
from vadpipe.synth import (NOISE_KINDS, make_noise, mix_at_snr, speech_surrogate,
                           white_noise)

from conftest import make_buffer


class TestSegment:
    def test_one_second_makes_five_chunks(self):
        segs = segment(make_buffer(np.ones(16000)), 200.0)
        assert len(segs) == 5
        assert all(len(s) == 3200 for s in segs)

    def test_ceiling_rule_pads_final_segment(self):
        segs = segment(make_buffer(np.ones(15200)), 200.0)  # 0.95 s
        assert len(segs) == 5
        assert np.all(segs[4].samples[:2400] == 1.0)
        assert np.all(segs[4].samples[2400:] == 0.0)

    def test_short_clip_single_padded_segment(self):
        segs = segment(make_buffer(np.ones(100)), 200.0)
        assert len(segs) == 1
        assert len(segs[0]) == 3200

    def test_count_formula_randomized(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 100000))
            segs = segment(make_buffer(np.zeros(n)), 200.0)
            assert len(segs) == -(-n // 3200)

    def test_empty_rejected(self):
        from vadpipe.audio_io import AudioBuffer
        with pytest.raises(ValueError):
            segment(AudioBuffer(np.zeros(0), 16000), 200.0)

    @pytest.mark.parametrize("segment_ms", [0.01, 0.03])
    def test_segment_shorter_than_a_sample_rejected(self, segment_ms):
        # 0.03 ms at 16 kHz rounds to 0 samples, 0.04 ms to 1
        with pytest.raises(ValueError, match="no whole sample"):
            segment_rows(make_buffer(np.ones(1000)), segment_ms)
        assert segment_rows(make_buffer(np.ones(10)), 0.04).shape == (10, 1)

    def test_whole_segments_are_a_read_only_view_of_the_clip(self, rng):
        buf = make_buffer(rng.standard_normal(5 * 3200))
        rows = segment_rows(buf, 200.0)
        assert rows.shape == (5, 3200) and np.shares_memory(rows, buf.samples)
        assert not rows.flags.writeable and buf.samples.flags.writeable
        assert rows.tobytes() == buf.samples.tobytes()
        segs = segment(buf, 200.0)
        assert not any(np.shares_memory(s.samples, buf.samples) for s in segs)
        assert all(s.samples.flags.writeable for s in segs)

    @pytest.mark.parametrize("n", [1, 3199, 3201, 15200])
    def test_a_partial_segment_gets_a_fresh_array_with_a_zeroed_tail(self, rng, n):
        samples = rng.standard_normal(n)
        samples[-1] = -0.0
        buf = make_buffer(samples)
        rows = segment_rows(buf, 200.0)
        assert rows.shape == (-(-n // 3200), 3200) and not np.shares_memory(rows, buf.samples)
        want = np.zeros(rows.size)
        want[:n] = samples
        assert rows.tobytes() == want.tobytes()


class TestRunPipeline:
    @pytest.mark.parametrize("mode", ["baseline", "vad1", "vad2"])
    def test_silence_is_never_speech(self, mode):
        cfg = PipelineConfig(mode=mode, thresh=1.0)
        result = run_pipeline(make_buffer(np.zeros(16000)), cfg)
        assert result.decision.final == 0

    @pytest.mark.parametrize("mode", ["baseline", "vad1", "vad2"])
    def test_thresh_zero_is_always_speech(self, mode, rng):
        cfg = PipelineConfig(mode=mode, thresh=0.0)
        buf = make_buffer(rng.standard_normal(16000) * 0.1)
        assert run_pipeline(buf, cfg).decision.final == 1

    def test_baseline_single_decision(self, rng):
        cfg = PipelineConfig(mode="baseline", thresh=10.0)
        result = run_pipeline(make_buffer(rng.standard_normal(32000) * 0.1), cfg)
        assert len(result.segment_values) == 1
        assert result.decision.per_window == result.decision.per_segment

    def test_vote_modes_emit_per_segment_values(self, rng):
        cfg = PipelineConfig(mode="vad1", thresh=10.0)
        result = run_pipeline(make_buffer(rng.standard_normal(32000) * 0.1), cfg)
        assert len(result.segment_values) == 10
        assert len(result.decision.per_window) == 10 - cfg.vote.window_w + 1

    def test_deterministic(self, rng):
        buf = make_buffer(rng.standard_normal(32000) * 0.1)
        cfg = PipelineConfig(mode="vad2")
        a = run_pipeline(buf, cfg)
        b = run_pipeline(buf, cfg)
        assert a.segment_values == b.segment_values
        assert a.decision == b.decision

    def test_vad1_beats_baseline_on_bursty_clip(self):
        # noise, a 0.7 s voiced burst, then noise: the windowed statistic must
        # exceed the diluted whole-clip mean, so some thresholds separate them
        rng = np.random.default_rng(5)
        noise = white_noise(rng, duration_s=4.0, rms=0.03)
        burst_rng = np.random.default_rng(6)
        voiced = speech_surrogate(burst_rng, duration_s=4.0)
        clip = mix_at_snr(voiced, noise, 10.0)

        base = run_pipeline(clip, PipelineConfig(mode="baseline", thresh=0.0))
        from vadpipe.evaluate import clip_statistic
        vad1_cfg = PipelineConfig(mode="vad1", thresh=0.0)
        vad1 = run_pipeline(clip, vad1_cfg)
        base_stat = base.segment_values[0]
        vad1_stat = clip_statistic(vad1.segment_values, vad1_cfg)
        assert vad1_stat > base_stat  # the separating thresh interval is nonempty

        mid = (base_stat + vad1_stat) / 2
        assert run_pipeline(clip, PipelineConfig(mode="baseline", thresh=mid)).decision.final == 0
        assert run_pipeline(clip, PipelineConfig(mode="vad1", thresh=mid)).decision.final == 1


PLUS_ZERO = float.hex(0.0)
# Rows of the clip below that hold digital silence, some of it -0.0. The 24
# rows span more than one pipeline.ROW_BLOCK, and every block mixes silent
# and live rows on 1, 2, 3 or 5 threads.
SILENT_ROWS = (1, 2, 5, 6, 7, 12, 19, 20, 23)


def clip_with_silent_rows(silent_lead_in: bool) -> AudioBuffer:
    rng = np.random.default_rng(3)
    clip = mix_at_snr(speech_surrogate(rng, 4.8), white_noise(rng, 4.8), 5.0)
    rows = clip.samples.reshape(24, -1).copy()
    rows[list(SILENT_ROWS)] = 0.0
    rows[[2, 6, 20]] = -0.0
    if silent_lead_in:
        rows[0] = 0.0
    return make_buffer(rows.reshape(-1))


def values_row_by_row(buf: AudioBuffer, cfg: PipelineConfig) -> list[str]:
    """Each segment's value with every row run through the whole chain on
    its own, silent or not."""
    noise = clip_noise_profile(buf, cfg.preprocess)
    values = []
    for row in segment_rows(buf, cfg.segment_ms):
        rows = row[None]
        if cfg.preprocess_enabled:
            rows = preprocess_rows_scratch(rows, cfg.preprocess, noise)
        values.append(float.hex(float(segment_values(cfg.scoring.score_rows(rows))[0])))
    return values


class TestSilentRows:
    @pytest.mark.parametrize("mode", ["baseline", "vad1", "vad2"])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_a_silent_clip_scores_plus_zero(self, mode, zero):
        result = run_pipeline(make_buffer(np.full(16000, zero)), PipelineConfig(mode=mode))
        assert [float.hex(v) for v in result.segment_values] == \
            [PLUS_ZERO] * (1 if mode == "baseline" else 5)

    @pytest.mark.parametrize("mode, silent_lead_in, pre, silence_scores", [
        ("vad1", True, PreprocessConfig(), False),
        ("vad1", False, PreprocessConfig(), False),
        ("vad2", True, PreprocessConfig(), False),        # |N| = 0
        ("vad2", False, PreprocessConfig(beta=0.0), False),
        ("vad2", False, PreprocessConfig(stages=("energy_gate", "rms_normalize")), False),
        ("vad2", False, PreprocessConfig(), True),        # beta * |N| != 0
        ("vad2", False, PreprocessConfig(stages=("rms_normalize", "spectral_subtract")), True),
    ])
    def test_each_row_gets_the_bits_it_gets_alone(self, mode, silent_lead_in, pre,
                                                  silence_scores):
        # A silent row skips the chain only where the chain maps it to
        # +0.0; every live row of a block that holds silent ones keeps the
        # bits it gets when scored alone.
        buf = clip_with_silent_rows(silent_lead_in)
        cfg = PipelineConfig(mode=mode, preprocess=pre)
        got = [float.hex(v) for v in run_pipeline(buf, cfg).segment_values]
        assert got == values_row_by_row(buf, cfg)
        rows = segment_rows(buf, cfg.segment_ms)
        silent = [v for v, row in zip(got, rows) if not row.any()]
        assert len(silent) >= len(SILENT_ROWS)
        assert all((v == PLUS_ZERO) != silence_scores for v in silent)
        assert PLUS_ZERO not in [v for v, row in zip(got, rows) if row.any()]

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    @pytest.mark.parametrize("mode", ["vad1", "vad2"])
    def test_a_silent_chunk_beside_a_chunk_without_silence(self, mode, count):
        # On two threads the first row chunk is all silent and runs no
        # block, and the second has no silent row; each chunk compacts its
        # own rows, and the values are spread back once.
        rng = np.random.default_rng(5)
        clip = mix_at_snr(speech_surrogate(rng, 4.8), white_noise(rng, 4.8), 5.0)
        rows = clip.samples.reshape(24, -1).copy()
        rows[:12] = 0.0
        rows[3:12:4] = -0.0
        assert rows[12:].any(axis=-1).all()
        assert parallel.chunk_bounds(24, 2) == [(0, 12), (12, 24)]
        buf = make_buffer(rows.reshape(-1))
        cfg = PipelineConfig(mode=mode)
        want = values_row_by_row(buf, cfg)
        assert want[:12] == [PLUS_ZERO] * 12 and PLUS_ZERO not in want[12:]
        parallel.set_threads(count)
        try:
            assert [float.hex(v) for v in run_pipeline(buf, cfg).segment_values] == want
        finally:
            parallel.set_threads(None)


# The pipeline's entry points take only 16 kHz audio with finite samples
# (audio_io.require_pipeline_audio): their geometry is fixed in samples.
GUARDED = {
    "run_pipeline": lambda buf: run_pipeline(buf, PipelineConfig(mode="vad2")),
    "score": lambda buf: ReferenceScorer().score(buf),
    "spectral_subtract": lambda buf: spectral_subtract(buf, PreprocessConfig()),
    "energy_gate": lambda buf: energy_gate(buf, PreprocessConfig()),
    "rms_normalize": lambda buf: rms_normalize(buf, 0.1),
    "preprocess_segment": lambda buf: preprocess_segment(buf, PreprocessConfig()),
}
# The stages run_pipeline calls on a clip it has already checked read only
# its rate, so the clip's samples are scanned once.
RATE_GUARDED = {
    "clip_noise_profile": lambda buf: clip_noise_profile(buf, PreprocessConfig()),
    "segment_rows": lambda buf: segment_rows(buf, 200.0),
}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_audio_off_the_pipeline_rate_is_refused(name, rng):
    buf = AudioBuffer(rng.standard_normal(48000) * 0.1, 48000)
    with pytest.raises(ValueError, match="48000 Hz.*ensure_rate"):
        GUARDED[name](buf)
    GUARDED[name](ensure_rate(buf))


@pytest.mark.parametrize("name", sorted(RATE_GUARDED))
def test_clip_stages_refuse_audio_off_the_pipeline_rate(name, rng):
    buf = AudioBuffer(rng.standard_normal(48000) * 0.1, 48000)
    with pytest.raises(ValueError, match="48000 Hz.*ensure_rate"):
        RATE_GUARDED[name](buf)
    RATE_GUARDED[name](ensure_rate(buf))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", sorted(GUARDED))
def test_non_finite_samples_are_refused(name, bad, rng):
    samples = rng.standard_normal(16000) * 0.1
    samples[5000] = bad
    with pytest.raises(ValueError, match="must be finite"):
        GUARDED[name](make_buffer(samples))


@pytest.mark.parametrize("mode", ["baseline", "vad1", "vad2"])
def test_all_nan_clip_gets_no_label(mode):
    with pytest.raises(ValueError, match="must be finite"):
        run_pipeline(make_buffer(np.full(16000, np.nan)), PipelineConfig(mode=mode))


# Finite samples can still overflow a frame's power: at 1e200, vad2 used to
# label the clip 0 from all-zero values, and baseline and vad1 to fail on
# NaN scores. Such samples are refused up front (audio_io.MAX_SAMPLE_MAGNITUDE).
@pytest.mark.parametrize("mode", ["baseline", "vad1", "vad2"])
def test_overflowing_samples_get_no_label(mode, rng):
    with pytest.raises(ValueError, match="magnitude at most 1e\\+100"):
        run_pipeline(make_buffer(rng.standard_normal(16000) * 1e200), PipelineConfig(mode=mode))


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_overflowing_samples_are_refused(name, rng):
    with pytest.raises(ValueError, match="magnitude at most 1e\\+100"):
        GUARDED[name](make_buffer(rng.standard_normal(16000) * 1e200))


@pytest.mark.parametrize("mode", ["baseline", "vad1", "vad2"])
def test_samples_at_the_bound_run_without_overflow(mode, rng):
    x = rng.standard_normal(16000)
    buf = make_buffer(x * (MAX_SAMPLE_MAGNITUDE / np.abs(x).max()))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_pipeline(buf, PipelineConfig(mode=mode))
        scores = ReferenceScorer().score(buf).scores
    assert np.all(np.isfinite(result.segment_values))
    assert np.all(np.isfinite(scores))


# Label invariance under gain (ROADMAP item 5, the log floor): RMS
# normalization and the scorer's per-band percentile floor cancel a gain,
# except where band energies come near the scorer's absolute _LOG_FLOOR
# (1e-10). Band-limited signals reach it: babble's upper mel bands have
# median energies of 3e-5 down to 2e-12. With the floor at 1e-300 no label
# below changes.
GAINS = (0.1, 0.3, 3.0, 5.0, 10.0)
LOG_FLOOR_XFAIL = pytest.mark.xfail(
    strict=True, reason="the absolute _LOG_FLOOR does not scale with the gain")


@pytest.fixture(scope="module")
def gain_clips() -> dict[str, AudioBuffer]:
    clips = {"clean": speech_surrogate(np.random.default_rng([21, 0]), 8.0)}
    for k, kind in enumerate(NOISE_KINDS):
        rng = np.random.default_rng([21, 1, k])
        speech = speech_surrogate(rng, 8.0)
        clips[f"noisy_{kind}"] = mix_at_snr(speech, make_noise(kind, rng, 8.0, 16000, 0.05),
                                            5.0)
        rng = np.random.default_rng([21, 2, k])
        clips[f"noise_{kind}"] = make_noise(kind, rng, 8.0, 16000, rng.uniform(0.02, 0.12))
    return clips


@pytest.mark.parametrize("mode", [pytest.param("baseline", marks=LOG_FLOOR_XFAIL),
                                  pytest.param("vad1", marks=LOG_FLOOR_XFAIL), "vad2"])
def test_labels_do_not_depend_on_gain(gain_clips, mode):
    cfg = PipelineConfig(mode=mode, thresh=45.9)
    for name, clip in gain_clips.items():
        want = run_pipeline(clip, cfg).decision
        for gain in GAINS:
            got = run_pipeline(AudioBuffer(clip.samples * gain, clip.sample_rate_hz),
                               cfg).decision
            assert (got.per_segment, got.final) == (want.per_segment, want.final), (name, gain)


class TestRunPipelineOnScores:
    def test_baseline_whole_matrix(self):
        m = FrameScoreMatrix(np.full((40, 2), 0.5), 10.0)  # aggregate = 1.0
        cfg = PipelineConfig(mode="baseline", thresh=1.0, scorer_backend="score-file")
        assert run_pipeline_on_scores(m, cfg).decision.final == 1

    def test_baseline_value_is_the_whole_matrix_aggregate(self, rng):
        # the baseline's one span goes through the voting modes' block code
        m = FrameScoreMatrix(rng.exponential(1.0, (97, 5)), 10.0)
        result = run_pipeline_on_scores(m, PipelineConfig(mode="baseline"))
        assert [v.hex() for v in result.segment_values] == [aggregate_score(m).hex()]
        assert len(result.decision.per_window) == 1

    def test_segments_map_to_row_spans(self):
        # 60 rows of 10 ms = 600 ms = 3 segments of 200 ms
        scores = np.zeros((60, 1))
        scores[20:40] = 3.0  # exactly the middle segment
        m = FrameScoreMatrix(scores, 10.0)
        cfg = PipelineConfig(mode="vad1", thresh=2.0, scorer_backend="score-file")
        result = run_pipeline_on_scores(m, cfg)
        assert result.decision.per_segment == (0, 1, 0)

    # even spans; spans of 4 and 5 rows; one-row spans, the last past the end
    @pytest.mark.parametrize("frame_ms, segment_ms", [(10.0, 200.0), (7.0, 33.0), (12.5, 5.0)])
    def test_uneven_spans_match_each_segment_alone(self, frame_ms, segment_ms, rng):
        # aggregated as one zero-padded block, each segment gets its own
        # value bit for bit
        m = FrameScoreMatrix(rng.exponential(1.0, (97, 5)), frame_ms)
        cfg = PipelineConfig(mode="vad1", segment_ms=segment_ms, scorer_backend="score-file")
        got = run_pipeline_on_scores(m, cfg).segment_values
        want = [decide_segment(slice_scores(m, t * segment_ms, (t + 1) * segment_ms),
                               cfg.thresh).value for t in range(len(got))]
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_concentrated_speech_dilution_identity(self):
        # speech in k consecutive segments, zero elsewhere: the whole-matrix
        # aggregate is exactly (k/T) times the per-segment aggregate
        rows_per_seg, t_total, k = 20, 10, 3
        per_frame = 2.5
        scores = np.zeros((rows_per_seg * t_total, 1))
        scores[2 * rows_per_seg:(2 + k) * rows_per_seg] = per_frame
        m = FrameScoreMatrix(scores, 10.0)

        base_cfg = PipelineConfig(mode="baseline", thresh=0.0)
        vad1_cfg = PipelineConfig(mode="vad1", thresh=0.0)
        whole = run_pipeline_on_scores(m, base_cfg).segment_values[0]
        per_seg = run_pipeline_on_scores(m, vad1_cfg).segment_values
        assert whole == pytest.approx((k / t_total) * max(per_seg), rel=1e-12)

        # label divergence at a thresh between the two statistics
        mid = (whole + max(per_seg)) / 2
        assert run_pipeline_on_scores(
            m, PipelineConfig(mode="baseline", thresh=mid)).decision.final == 0
        assert run_pipeline_on_scores(
            m, PipelineConfig(mode="vad1", thresh=mid)).decision.final == 1

    def test_windowed_statistic_independent_of_clip_length(self):
        # appending silence changes T but not the best window
        from vadpipe.evaluate import clip_statistic
        rows_per_seg = 20
        cfg = PipelineConfig(mode="vad1", thresh=0.0)
        for t_total in (6, 10, 16):
            scores = np.zeros((rows_per_seg * t_total, 1))
            scores[:3 * rows_per_seg] = 1.5
            m = FrameScoreMatrix(scores, 10.0)
            values = run_pipeline_on_scores(m, cfg).segment_values
            assert clip_statistic(values, cfg) == pytest.approx(1.5, rel=1e-12)


def config_with(name, value) -> PipelineConfig:
    """A PipelineConfig with one setting changed, in the section that holds it."""
    if name in ("bands", "frame_ms", "hop_ms"):
        return PipelineConfig(scoring=ReferenceScorer(**{name: value}))
    return PipelineConfig(**{name: value})


class TestPipelineConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            PipelineConfig(mode="vad3")

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            PipelineConfig(scorer_backend="onnx")

    @pytest.mark.parametrize("name", ["segment_ms", "thresh", "frame_ms", "hop_ms"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            config_with(name, value)

    @pytest.mark.parametrize("name", ["segment_ms", "frame_ms", "hop_ms"])
    @pytest.mark.parametrize("value", [0.0, -5.0])
    def test_rejects_non_positive_lengths(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            config_with(name, value)

    @pytest.mark.parametrize("bands", [0, -1])
    def test_rejects_bands_below_one(self, bands):
        with pytest.raises(ValueError, match="bands must be >= 1"):
            config_with("bands", bands)

    def test_bands_have_a_maximum(self):
        assert config_with("bands", MAX_BANDS).scoring.bands == MAX_BANDS
        for bands in (MAX_BANDS + 1, 2_000_000):
            with pytest.raises(ValueError, match=f"bands must be at most {MAX_BANDS}"):
                config_with("bands", bands)

    @pytest.mark.parametrize("frame_ms,hop_ms", [(10.0, 20.0), (25.0, 25.000001)])
    def test_rejects_hop_longer_than_frame(self, frame_ms, hop_ms):
        with pytest.raises(ValueError, match="hop_ms must not exceed frame_ms"):
            ReferenceScorer(frame_ms=frame_ms, hop_ms=hop_ms)
        assert ReferenceScorer(frame_ms=frame_ms, hop_ms=frame_ms).hop_ms == frame_ms

    def test_frame_length_has_a_maximum(self):
        assert ReferenceScorer(frame_ms=MAX_FRAME_MS).frame_ms == MAX_FRAME_MS
        with pytest.raises(ValueError, match="frame_ms must be at most"):
            ReferenceScorer(frame_ms=1000.5)

    def test_segment_length_has_a_maximum(self):
        assert PipelineConfig(segment_ms=MAX_SEGMENT_MS).segment_ms == MAX_SEGMENT_MS
        for segment_ms in (MAX_SEGMENT_MS * (1 + 1e-15), 1e9):
            with pytest.raises(ValueError, match="segment_ms must be at most"):
                PipelineConfig(segment_ms=segment_ms)

    def test_mode_determines_stages(self):
        assert not PipelineConfig(mode="baseline").preprocess_enabled
        assert not PipelineConfig(mode="baseline").vote_enabled
        assert not PipelineConfig(mode="vad1").preprocess_enabled
        assert PipelineConfig(mode="vad1").vote_enabled
        assert PipelineConfig(mode="vad2").preprocess_enabled
        assert PipelineConfig(mode="vad2").vote_enabled


def _outcome(result) -> tuple:
    d = result.decision
    return np.array(result.segment_values).tobytes(), d.per_segment, d.per_window, d.final


class TestRunConfigs:
    """One clip under several configs: every config's row chunks go to the
    pool in one task list, and a declared error ends its own config only."""

    CFGS = [PipelineConfig(mode=m, thresh=45.9) for m in MODES]

    @pytest.fixture(autouse=True)
    def two_threads(self):
        parallel.set_threads(2)
        yield
        parallel.set_threads(None)

    @pytest.fixture(scope="class")
    def clip(self):
        rng = np.random.default_rng(5)
        return mix_at_snr(speech_surrogate(rng, 2.3), white_noise(rng, 2.3), 5.0)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_each_config_gets_what_run_pipeline_gives_it(self, clip, threads):
        parallel.set_threads(1)
        want = [_outcome(run_pipeline(clip, cfg)) for cfg in self.CFGS]
        parallel.set_threads(threads)
        ran = []
        got = run_configs(clip, self.CFGS, meanwhile=lambda: ran.append(threading.get_ident()))
        assert [_outcome(r) for r in got] == want
        assert ran == [threading.get_ident()]

    @pytest.mark.parametrize("error", CLIP_ERRORS)
    def test_a_declared_error_in_a_pool_task_ends_its_config_only(self, clip, monkeypatch,
                                                                 error):
        # pre-processing runs in vad2's row chunks only
        want = [_outcome(run_pipeline(clip, cfg)) for cfg in self.CFGS[:2]]

        def broken(*args, **kwargs):
            raise error("pre-processing failed")

        monkeypatch.setattr(pipeline, "preprocess_rows_scratch", broken)
        baseline, vad1, vad2 = run_configs(clip, self.CFGS)
        assert [_outcome(baseline), _outcome(vad1)] == want
        assert isinstance(vad2, error) and str(vad2) == "pre-processing failed"
        with pytest.raises(error, match="pre-processing failed"):
            run_pipeline(clip, self.CFGS[2])

    def test_a_declared_error_in_a_head_ends_its_config_only(self, clip, monkeypatch):
        # only vad2's head estimates a noise profile, on the calling thread
        want = [_outcome(run_pipeline(clip, cfg)) for cfg in self.CFGS[:2]]
        caller = threading.get_ident()

        def broken(buf, cfg):
            on_caller = threading.get_ident() == caller
            raise ValueError(f"noise profile failed on the caller: {on_caller}")

        monkeypatch.setattr(pipeline, "clip_noise_profile", broken)
        baseline, vad1, vad2 = run_configs(clip, self.CFGS)
        assert [_outcome(baseline), _outcome(vad1)] == want
        assert isinstance(vad2, ValueError) and str(vad2).endswith("caller: True")

    def test_bad_audio_is_every_configs_error_and_meanwhile_still_runs(self):
        ran = []
        results = run_configs(make_buffer(np.array([0.0, np.nan] * 4000)), self.CFGS,
                              meanwhile=lambda: ran.append(threading.get_ident()))
        assert [str(r) for r in results] == ["audio samples must be finite"] * 3
        assert ran == [threading.get_ident()]

    @pytest.mark.parametrize("error", [TypeError, RuntimeError])
    def test_a_program_error_in_a_pool_task_propagates(self, clip, monkeypatch, error):
        def broken(*args, **kwargs):
            raise error("stage is broken")

        monkeypatch.setattr(pipeline, "preprocess_rows_scratch", broken)
        with pytest.raises(error, match="stage is broken"):
            run_configs(clip, self.CFGS)
