"""The batched (T, seg_len) pipeline against per-segment computations.

Two references: the independent per-segment oracle in tests/oracle.py
(values within ORACLE_REL_TOL, labels exact), and a loop over the package's
own per-segment public functions, which are T = 1 views of the batched code
and must agree with run_pipeline bit for bit.
"""

import itertools

import numpy as np
import pytest

from vadpipe import pipeline, preprocess
from vadpipe.aggregate import decide_segment
from vadpipe.audio_io import AudioBuffer
from vadpipe.pipeline import PipelineConfig, run_pipeline, segment, segment_rows
from vadpipe.postprocess import final_decision, vote_with_fallback
from vadpipe.preprocess import (STAGE_NAMES, NoiseProfile, PreprocessConfig,
                                clip_noise_profile, preprocess_rows_scratch,
                                preprocess_segment)
from vadpipe.scorer import ReferenceScorer
from vadpipe.synth import mix_at_snr, speech_surrogate, white_noise

from conftest import SR, make_buffer
import oracle

ORACLE_REL_TOL = 1e-9
THRESH = 45.9


def noisy_clip(seconds: float, seed: int = 3, snr_db: float = 5.0) -> AudioBuffer:
    """A speech-in-white-noise mix; clips under 1 s are cut from 0.5 s in."""
    rng = np.random.default_rng(seed)
    length = max(seconds, 1.5)
    mix = mix_at_snr(speech_surrogate(rng, length, SR), white_noise(rng, length, SR), snr_db)
    start = 0 if seconds >= 1.0 else SR // 2
    return make_buffer(mix.samples[start:start + int(seconds * SR)])


def public_loop(buf: AudioBuffer, cfg: PipelineConfig) -> dict:
    """run_pipeline spelled out through the per-segment public functions."""
    scorer = cfg.make_scorer()
    if not cfg.vote_enabled:
        ss = decide_segment(scorer.score(buf), cfg.thresh)
        return {"values": [ss.value], "labels": (ss.label,), "windows": (ss.label,),
                "final": ss.label}
    segments = segment(buf, cfg.segment_ms)
    if cfg.preprocess_enabled:
        noise = clip_noise_profile(buf, cfg.preprocess)
        segments = [preprocess_segment(s, cfg.preprocess, noise=noise) for s in segments]
    scores = [decide_segment(scorer.score(s), cfg.thresh) for s in segments]
    labels = tuple(s.label for s in scores)
    windows = tuple(vote_with_fallback(labels, cfg.vote))
    return {"values": [s.value for s in scores], "labels": labels, "windows": windows,
            "final": final_decision(windows)}


def outcome(result) -> dict:
    d = result.decision
    return {"values": result.segment_values, "labels": d.per_segment,
            "windows": d.per_window, "final": d.final}


def assert_matches_oracle(buf: AudioBuffer, cfg: PipelineConfig) -> None:
    got = outcome(run_pipeline(buf, cfg))
    want = oracle.oracle_pipeline(buf.samples, cfg)
    assert got["labels"] == want["labels"]
    assert got["windows"] == want["windows"]
    assert got["final"] == want["final"]
    assert len(got["values"]) == len(want["values"])
    for g, w in zip(got["values"], want["values"]):
        assert abs(g - w) <= ORACLE_REL_TOL * max(1.0, abs(w)), (g, w)
    assert got == public_loop(buf, cfg)


def vad2(**pre) -> PipelineConfig:
    return PipelineConfig(mode="vad2", thresh=THRESH, preprocess=PreprocessConfig(**pre))


EDGE_CLIPS = {
    "not_a_multiple_of_seg_len": lambda: noisy_clip(2.37),
    "shorter_than_one_segment": lambda: noisy_clip(0.13),
    "shorter_than_noise_lead_in": lambda: noisy_clip(0.06),
    "shorter_than_one_fft": lambda: make_buffer(np.linspace(-0.3, 0.3, 300)),
    "one_sample": lambda: make_buffer([0.25]),
}


@pytest.mark.parametrize("mode", ["baseline", "vad1", "vad2"])
@pytest.mark.parametrize("clip", sorted(EDGE_CLIPS))
def test_edge_lengths(clip, mode):
    assert_matches_oracle(EDGE_CLIPS[clip](), PipelineConfig(mode=mode, thresh=THRESH))


def test_all_silent_rows_pass_the_rms_floor():
    samples = noisy_clip(2.0).samples.copy()
    samples[:4000] = 0.0           # silent lead-in: the noise profile is zero
    samples[9600:16000] = 0.0      # segments 3 and 4 stay silent throughout
    buf = make_buffer(samples)
    rows = segment_rows(buf, 200.0)
    cfg = PreprocessConfig()
    out = preprocess_rows_scratch(rows, cfg, clip_noise_profile(buf, cfg))
    assert np.all(out[3:5] == 0.0)
    assert np.sqrt(np.mean(out[6] ** 2)) == pytest.approx(cfg.target_rms)
    assert_matches_oracle(buf, vad2())
    assert_matches_oracle(buf, vad2(stages=("energy_gate", "rms_normalize")))


@pytest.mark.parametrize("theta", [0.0, 1e-4, 0.05, 10.0])
def test_absolute_theta(theta):
    assert_matches_oracle(noisy_clip(1.9), vad2(theta=theta, theta_relative=False))


STAGE_ORDERS = [order for k in range(len(STAGE_NAMES) + 1)
                for order in itertools.permutations(STAGE_NAMES, k)]


@pytest.mark.parametrize("stages", STAGE_ORDERS, ids=lambda s: "+".join(s) or "none")
def test_stage_subsets_and_orders(stages):
    assert_matches_oracle(noisy_clip(1.7, seed=5, snr_db=0.0), vad2(stages=stages))


@pytest.mark.parametrize("stages", STAGE_ORDERS, ids=lambda s: "+".join(s) or "none")
def test_rows_estimate_their_own_noise(stages):
    # Each row with the noise profile of its own leading frames, which is
    # also what preprocess_segment uses when given no profile.
    cfg = PreprocessConfig(stages=stages)
    buf = noisy_clip(1.1, seed=8)
    for row in segment_rows(buf, 200.0):
        # copied: preprocess_segment below reuses the scratch store
        got = preprocess_rows_scratch(row[None], cfg,
                                      clip_noise_profile(make_buffer(row), cfg))[0].copy()
        assert np.array_equal(got, preprocess_segment(make_buffer(row), cfg).samples)
        want = oracle.preprocess(row, cfg, oracle.noise_estimate(row, cfg))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# preprocess.STAGES is the one table of stages: the chain runs it, and the
# AudioBuffer functions are its T = 1 case, so the two cannot drift apart.
ONE_ROWS = {"noisy": lambda: noisy_clip(0.2, seed=9).samples, "silent": lambda: np.zeros(3200)}
PUBLIC_STAGES = {
    "spectral_subtract": lambda buf, cfg, noise: preprocess.spectral_subtract(buf, cfg, noise),
    "energy_gate": lambda buf, cfg, noise: preprocess.energy_gate(buf, cfg),
    "rms_normalize": lambda buf, cfg, noise: preprocess.rms_normalize(buf, cfg.target_rms),
}


def one_row_profiles(cfg):
    return {"clip": clip_noise_profile(noisy_clip(1.0), cfg),
            "zero": NoiseProfile(np.zeros(preprocess.FFT_LEN // 2 + 1))}


def test_stage_table_names_the_stages():
    assert tuple(preprocess.STAGES) == STAGE_NAMES == tuple(PUBLIC_STAGES)


@pytest.mark.parametrize("row", sorted(ONE_ROWS))
@pytest.mark.parametrize("name", STAGE_NAMES)
def test_public_stage_is_its_table_entry(name, row):
    cfg = PreprocessConfig()
    samples = ONE_ROWS[row]()
    for noise in one_row_profiles(cfg).values():
        want = preprocess.STAGES[name](samples[None], cfg, noise)[0].tobytes()
        assert PUBLIC_STAGES[name](make_buffer(samples), cfg, noise).samples.tobytes() == want


@pytest.mark.parametrize("stages", STAGE_ORDERS, ids=lambda s: "+".join(s) or "none")
def test_preprocess_segment_is_the_chain_on_one_row(stages):
    cfg = PreprocessConfig(stages=stages)
    for make in ONE_ROWS.values():
        samples = make()
        for noise in one_row_profiles(cfg).values():
            want = preprocess_rows_scratch(samples[None], cfg, noise)[0].tobytes()
            assert preprocess_segment(make_buffer(samples), cfg, noise).samples.tobytes() == want


def test_other_settings():
    buf = noisy_clip(3.3, seed=11, snr_db=10.0)
    for cfg in (PipelineConfig(mode="vad2", thresh=20.0, segment_ms=130.0),
                PipelineConfig(mode="vad1", thresh=20.0,
                               scoring=ReferenceScorer(bands=20, frame_ms=32.0, hop_ms=8.0)),
                vad2(alpha=3.0, beta=0.0, noise_frames=40, target_rms=0.5)):
        assert_matches_oracle(buf, cfg)


@pytest.mark.parametrize("block", [1, 3, 1000])
def test_row_block_size_does_not_change_results(monkeypatch, block):
    buf = noisy_clip(2.9, seed=4)
    cfgs = [PipelineConfig(mode=m, thresh=THRESH) for m in ("vad1", "vad2")]
    want = [outcome(run_pipeline(buf, cfg)) for cfg in cfgs]
    monkeypatch.setattr(pipeline, "ROW_BLOCK", block)
    assert [outcome(run_pipeline(buf, cfg)) for cfg in cfgs] == want


def test_preprocess_rows_rejects_non_2d():
    with pytest.raises(ValueError):
        preprocess.preprocess_rows_scratch(np.zeros(3200), PreprocessConfig(),
                                           NoiseProfile(np.zeros(257)))
