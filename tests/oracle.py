"""Per-segment reference for the batched pipeline.

This is the segment-at-a-time path the package used before its stages ran
over a whole (T, seg_len) array: every segment is framed, transformed,
subtracted, gated, normalized and scored on its own, with Python-level
overlap-add loops and the phase rebuilt as exp(1j * angle(X)). It shares
only the configuration classes, the mel filterbank and the vote with
vadpipe, so tests can hold run_pipeline against an independent computation.

It also holds dense references of two synthesis fills, `speech_surrogate`
and `unsteady_envelope`: they evaluate every term at every sample of the
clip in one pass, where vadpipe.synth adds each term only over the samples
it can change, so tests can demand the same bytes of both.
"""

from __future__ import annotations

import math

import numpy as np

from vadpipe.pipeline import PipelineConfig
from vadpipe.postprocess import final_decision, vote_with_fallback
from vadpipe.preprocess import SILENCE_RMS_FLOOR, PreprocessConfig
from vadpipe.scorer import NOISE_FLOOR_PERCENTILE, mel_filterbank

_DENOM_FLOOR = 1e-12
# The analysis geometry, written out here rather than read from vadpipe.
RATE_HZ = 16000
FFT_LEN = 512
FFT_HOP = 128
GATE_FRAME_LEN = 400
GATE_HOP = 160


def frames_of(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    n = 1 if len(x) <= frame_len else 1 + math.ceil((len(x) - frame_len) / hop)
    padded = np.zeros((n - 1) * hop + frame_len)
    padded[:len(x)] = x
    return np.array([padded[m * hop:m * hop + frame_len] for m in range(n)])


def hann(length: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


def stft(x: np.ndarray, fft_len: int, hop: int) -> np.ndarray:
    return np.fft.rfft(frames_of(x, fft_len, hop) * hann(fft_len), n=fft_len, axis=1)


def crossfade(length: int) -> np.ndarray:
    ramp = np.minimum(np.arange(1, length + 1), np.arange(length, 0, -1))
    return ramp / ramp.max()


def weighted_overlap_add(weighted: np.ndarray, den_win: np.ndarray, hop: int,
                         out_len: int) -> np.ndarray:
    """Add frames that already carry their synthesis window into zeros, one
    frame at a time, and divide each sample by its summed weights den_win
    (0 where that sum vanishes); cut or zero-padded to out_len."""
    frame_len = weighted.shape[1]
    total = (len(weighted) - 1) * hop + frame_len
    acc = np.zeros(total)
    den = np.zeros(total)
    for m in range(len(weighted)):
        acc[m * hop:m * hop + frame_len] += weighted[m]
        den[m * hop:m * hop + frame_len] += den_win
    out = np.where(den > _DENOM_FLOOR, acc / np.maximum(den, _DENOM_FLOOR), 0.0)
    result = np.zeros(out_len)
    result[:min(out_len, total)] = out[:out_len]
    return result


def istft(spec: np.ndarray, fft_len: int, hop: int, out_len: int) -> np.ndarray:
    win = hann(fft_len)
    return weighted_overlap_add(np.fft.irfft(spec, n=fft_len, axis=1) * win, win * win,
                                hop, out_len)


def overlap_add(frames: np.ndarray, hop: int, out_len: int) -> np.ndarray:
    # The cross-fade weights are strictly positive, so no sum vanishes.
    win = crossfade(frames.shape[1])
    return weighted_overlap_add(frames * win, win, hop, out_len)


def noise_estimate(x: np.ndarray, cfg: PreprocessConfig) -> np.ndarray:
    """Mean magnitude of the leading STFT frames of the whole input."""
    spec = stft(x, FFT_LEN, FFT_HOP)
    return np.abs(spec[:min(cfg.noise_frames, len(spec))]).mean(axis=0)


def spectral_subtract(x: np.ndarray, cfg: PreprocessConfig,
                      noise: np.ndarray | None) -> np.ndarray:
    if noise is None:
        noise = noise_estimate(x, cfg)
    pad = min(FFT_LEN, len(x) - 1)
    padded = np.pad(x, pad, mode="reflect") if pad else x
    spec = stft(padded, FFT_LEN, FFT_HOP)
    clean = np.maximum(np.abs(spec) - cfg.alpha * noise, cfg.beta * noise)
    out = istft(clean * np.exp(1j * np.angle(spec)), FFT_LEN, FFT_HOP, len(padded))
    return out[pad:pad + len(x)]


def energy_gate(x: np.ndarray, cfg: PreprocessConfig) -> np.ndarray:
    frames = frames_of(x, GATE_FRAME_LEN, GATE_HOP)
    energies = np.sum(frames ** 2, axis=1)
    theta = cfg.theta * float(energies.mean()) if cfg.theta_relative else cfg.theta
    return overlap_add(np.where((energies >= theta)[:, None], frames, 0.0), GATE_HOP, len(x))


def rms_normalize(x: np.ndarray, target: float) -> np.ndarray:
    rms = float(np.sqrt(np.mean(x ** 2)))
    if rms < SILENCE_RMS_FLOOR:
        return x.copy()
    return np.clip(x * (target / rms), -1.0, 1.0)


def preprocess(x: np.ndarray, cfg: PreprocessConfig, noise: np.ndarray | None) -> np.ndarray:
    for stage in cfg.stages:
        if stage == "spectral_subtract":
            x = spectral_subtract(x, cfg, noise)
        elif stage == "energy_gate":
            x = energy_gate(x, cfg)
        elif stage == "rms_normalize":
            x = rms_normalize(x, cfg.target_rms)
    return x


def score(x: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    frame_len = int(round(RATE_HZ * cfg.scoring.frame_ms / 1000.0))
    hop = int(round(RATE_HZ * cfg.scoring.hop_ms / 1000.0))
    fft_len = 512
    spectra = np.fft.rfft(frames_of(x, frame_len, hop) * np.hanning(frame_len),
                          n=fft_len, axis=1)
    power = np.abs(spectra) ** 2
    fb = mel_filterbank(cfg.scoring.bands, fft_len, RATE_HZ)
    log_energy = np.log(power @ fb.T + 1e-10)
    floor = np.percentile(log_energy, NOISE_FLOOR_PERCENTILE, axis=0)
    return np.maximum(log_energy - floor, 0.0)


def aggregate(scores: np.ndarray) -> float:
    return math.fsum(math.fsum(row) for row in scores.tolist()) / len(scores)


def oracle_pipeline(x: np.ndarray, cfg: PipelineConfig) -> dict:
    """Segment values, labels, window votes and final label, one segment at a time."""
    if not cfg.vote_enabled:
        value = aggregate(score(x, cfg))
        label = int(value >= cfg.thresh)
        return {"values": [value], "labels": (label,), "windows": (label,), "final": label}
    seg_len = int(round(RATE_HZ * cfg.segment_ms / 1000.0))
    padded = np.zeros(math.ceil(len(x) / seg_len) * seg_len)
    padded[:len(x)] = x
    segments = [padded[i:i + seg_len] for i in range(0, len(padded), seg_len)]
    if cfg.preprocess_enabled:
        noise = noise_estimate(x, cfg.preprocess)
        segments = [preprocess(s, cfg.preprocess, noise) for s in segments]
    values = [aggregate(score(s, cfg)) for s in segments]
    labels = tuple(int(v >= cfg.thresh) for v in values)
    windows = tuple(vote_with_fallback(labels, cfg.vote))
    return {"values": values, "labels": labels, "windows": windows,
            "final": final_decision(windows)}


# ---------------------------------------------------------------------------
# synthesis: every term at every sample, the random draws in vadpipe's order

def speech_surrogate(rng: np.random.Generator, duration_s: float, rate: int) -> np.ndarray:
    n = int(round(duration_s * rate))
    f0 = rng.uniform(120.0, 220.0)
    phases = [rng.uniform(0, 2 * np.pi) for _ in range(5)]
    am_phase = rng.uniform(0, 2 * np.pi)
    mask = np.zeros(n)
    edge = int(0.01 * rate)

    def add_burst(start_s: float, length_s: float) -> None:
        start = int(start_s * rate)
        stop = min(int((start_s + length_s) * rate), n)
        mask[start:stop] = 1.0
        if stop - start > 2 * edge:
            fade = 0.5 - 0.5 * np.cos(np.pi * np.arange(edge) / edge)
            mask[start:start + edge] *= fade
            mask[stop - edge:stop] *= fade[::-1]

    main_len = rng.uniform(1.0, 1.3)
    main_pos = rng.uniform(0.25, max(duration_s - main_len - 0.2, 0.3))
    add_burst(main_pos, main_len)
    tail_pos = main_pos + main_len + rng.uniform(0.5, 0.9)
    if rng.uniform() < 0.5 and tail_pos + 0.5 < duration_s:
        add_burst(tail_pos, rng.uniform(0.25, 0.45))
    syl_period = rng.uniform(0.14, 0.19)
    syl_phase = rng.uniform(0, 2 * np.pi)

    t = np.arange(n) / rate
    tone = np.zeros(n)
    for k, phase in enumerate(phases, start=1):
        tone += (1.0 / math.sqrt(k)) * np.sin(2.0 * np.pi * k * f0 * t + phase)
    am = 0.85 + 0.15 * np.sin(2.0 * np.pi * 4.0 * t + am_phase)
    syl = np.sin(2 * np.pi * t / syl_period + syl_phase)
    syl = np.clip((syl + 0.45) / 0.6, 0.0, 1.0)
    x = tone * am * mask * syl
    rms = math.sqrt(float(np.mean(x ** 2)))
    x *= rng.uniform(0.08, 0.2) / max(rms, 1e-12)
    return np.clip(x, -1.0, 1.0)


def unsteady_envelope(rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    depth_db = rng.uniform(0.5, 2.5)
    drift_hz = rng.uniform(0.08, 0.3)
    drift_phase = rng.uniform(0, 2 * np.pi)
    duration = n / rate
    swells = [(rng.uniform(0.0, duration), rng.uniform(0.05, 0.2),
               10.0 ** (rng.uniform(6.0, 13.0) / 20.0) - 1.0)
              for _ in range(int(rng.integers(1, max(2, int(1.6 * duration)))))]
    t = np.arange(n) / rate
    env = 10.0 ** (depth_db * np.sin(2 * np.pi * drift_hz * t + drift_phase) / 20.0)
    for center, width, gain in swells:
        env += gain * np.exp(-0.5 * ((t - center) / width) ** 2)
    return env
