"""Per-segment reference for the batched pipeline.

This is the segment-at-a-time path the package used before its stages ran
over a whole (T, seg_len) array: every segment is framed, transformed,
subtracted, gated, normalized and scored on its own, with Python-level
overlap-add loops and the phase rebuilt as exp(1j * angle(X)). It shares
only the configuration classes, the mel filterbank and the vote with
vadpipe, so tests can hold run_pipeline against an independent computation.
"""

from __future__ import annotations

import math

import numpy as np

from vadpipe.pipeline import PipelineConfig
from vadpipe.postprocess import final_decision, vote_with_fallback
from vadpipe.preprocess import SILENCE_RMS_FLOOR, PreprocessConfig
from vadpipe.scorer import NOISE_FLOOR_PERCENTILE, mel_filterbank

_DENOM_FLOOR = 1e-12


def frames_of(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    n = 1 if len(x) <= frame_len else 1 + math.ceil((len(x) - frame_len) / hop)
    padded = np.zeros((n - 1) * hop + frame_len)
    padded[:len(x)] = x
    return np.array([padded[m * hop:m * hop + frame_len] for m in range(n)])


def hann(length: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


def stft(x: np.ndarray, fft_len: int, hop: int) -> np.ndarray:
    return np.fft.rfft(frames_of(x, fft_len, hop) * hann(fft_len), n=fft_len, axis=1)


def istft(spec: np.ndarray, fft_len: int, hop: int, out_len: int) -> np.ndarray:
    frames = np.fft.irfft(spec, n=fft_len, axis=1)
    win = hann(fft_len)
    total = (len(frames) - 1) * hop + fft_len
    acc = np.zeros(total)
    den = np.zeros(total)
    for m in range(len(frames)):
        acc[m * hop:m * hop + fft_len] += frames[m] * win
        den[m * hop:m * hop + fft_len] += win * win
    out = np.where(den > _DENOM_FLOOR, acc / np.maximum(den, _DENOM_FLOOR), 0.0)
    result = np.zeros(out_len)
    result[:min(out_len, total)] = out[:out_len]
    return result


def overlap_add(frames: np.ndarray, hop: int, out_len: int) -> np.ndarray:
    frame_len = frames.shape[1]
    ramp = np.minimum(np.arange(1, frame_len + 1), np.arange(frame_len, 0, -1))
    win = ramp / ramp.max()
    total = (len(frames) - 1) * hop + frame_len
    acc = np.zeros(total)
    den = np.zeros(total)
    for m in range(len(frames)):
        acc[m * hop:m * hop + frame_len] += frames[m] * win
        den[m * hop:m * hop + frame_len] += win
    result = np.zeros(out_len)
    result[:min(out_len, total)] = (acc / np.maximum(den, _DENOM_FLOOR))[:out_len]
    return result


def noise_estimate(x: np.ndarray, cfg: PreprocessConfig) -> np.ndarray:
    """Mean magnitude of the leading STFT frames of the whole input."""
    spec = stft(x, cfg.fft_len, cfg.fft_hop)
    return np.abs(spec[:min(cfg.noise_frames, len(spec))]).mean(axis=0)


def spectral_subtract(x: np.ndarray, cfg: PreprocessConfig,
                      noise: np.ndarray | None) -> np.ndarray:
    if noise is None:
        noise = noise_estimate(x, cfg)
    pad = min(cfg.fft_len, len(x) - 1)
    padded = np.pad(x, pad, mode="reflect") if pad else x
    spec = stft(padded, cfg.fft_len, cfg.fft_hop)
    clean = np.maximum(np.abs(spec) - cfg.alpha * noise, cfg.beta * noise)
    out = istft(clean * np.exp(1j * np.angle(spec)), cfg.fft_len, cfg.fft_hop, len(padded))
    return out[pad:pad + len(x)]


def energy_gate(x: np.ndarray, cfg: PreprocessConfig, sr: int) -> np.ndarray:
    frame_len = int(round(sr * cfg.gate_frame_ms / 1000.0))
    hop = int(round(sr * cfg.gate_hop_ms / 1000.0))
    frames = frames_of(x, frame_len, hop)
    energies = np.sum(frames ** 2, axis=1)
    theta = cfg.theta * float(energies.mean()) if cfg.theta_relative else cfg.theta
    return overlap_add(np.where((energies >= theta)[:, None], frames, 0.0), hop, len(x))


def rms_normalize(x: np.ndarray, target: float) -> np.ndarray:
    rms = float(np.sqrt(np.mean(x ** 2)))
    if rms < SILENCE_RMS_FLOOR:
        return x.copy()
    return np.clip(x * (target / rms), -1.0, 1.0)


def preprocess(x: np.ndarray, cfg: PreprocessConfig, sr: int,
               noise: np.ndarray | None) -> np.ndarray:
    for stage in cfg.stages:
        if stage == "spectral_subtract":
            x = spectral_subtract(x, cfg, noise)
        elif stage == "energy_gate":
            x = energy_gate(x, cfg, sr)
        elif stage == "rms_normalize":
            x = rms_normalize(x, cfg.target_rms)
    return x


def score(x: np.ndarray, cfg: PipelineConfig, sr: int) -> np.ndarray:
    frame_len = int(round(sr * cfg.frame_ms / 1000.0))
    hop = int(round(sr * cfg.hop_ms / 1000.0))
    fft_len = 512
    spectra = np.fft.rfft(frames_of(x, frame_len, hop) * np.hanning(frame_len),
                          n=fft_len, axis=1)
    power = np.abs(spectra) ** 2
    fb = mel_filterbank(cfg.bands, fft_len, sr)
    log_energy = np.log(power @ fb.T + 1e-10)
    floor = np.percentile(log_energy, NOISE_FLOOR_PERCENTILE, axis=0)
    return np.maximum(log_energy - floor, 0.0)


def aggregate(scores: np.ndarray) -> float:
    return math.fsum(math.fsum(row) for row in scores.tolist()) / len(scores)


def oracle_pipeline(x: np.ndarray, sr: int, cfg: PipelineConfig) -> dict:
    """Segment values, labels, window votes and final label, one segment at a time."""
    if not cfg.vote_enabled:
        value = aggregate(score(x, cfg, sr))
        label = int(value >= cfg.thresh)
        return {"values": [value], "labels": (label,), "windows": (label,), "final": label}
    seg_len = int(round(sr * cfg.segment_ms / 1000.0))
    padded = np.zeros(math.ceil(len(x) / seg_len) * seg_len)
    padded[:len(x)] = x
    segments = [padded[i:i + seg_len] for i in range(0, len(padded), seg_len)]
    if cfg.preprocess_enabled:
        noise = noise_estimate(x, cfg.preprocess)
        segments = [preprocess(s, cfg.preprocess, sr, noise) for s in segments]
    values = [aggregate(score(s, cfg, sr)) for s in segments]
    labels = tuple(int(v >= cfg.thresh) for v in values)
    windows = tuple(vote_with_fallback(labels, cfg.vote))
    return {"values": values, "labels": labels, "windows": windows,
            "final": final_decision(windows)}
