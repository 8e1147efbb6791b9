"""Noise-removal chain: spectral subtraction, energy gating, RMS normalization.

Each stage is value-in/value-out, preserves buffer length, and maps silence
to silence, so stages compose in any order. Every stage runs row by row over
a (T, n) array of segments (`preprocess_rows`); the AudioBuffer functions
are its T = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer
from . import dsp

SILENCE_RMS_FLOOR = 1e-8

STAGE_NAMES = ("spectral_subtract", "energy_gate", "rms_normalize")


@dataclass(frozen=True)
class PreprocessConfig:
    """Tunables for the noise-removal stages.

    theta is an energy threshold in squared-amplitude units per frame when
    theta_relative is False; otherwise it is a fraction of the segment's
    mean frame energy, so one setting works across recording levels.
    """

    alpha: float = 1.5            # over-subtraction factor, >= 1
    beta: float = 0.3             # spectral floor, in [0, 1]
    theta: float = 0.1            # energy-gate threshold (see theta_relative)
    theta_relative: bool = True
    target_rms: float = 0.1
    noise_frames: int = 6         # leading frames used for the noise estimate
    stages: tuple[str, ...] = STAGE_NAMES
    gate_frame_ms: float = 25.0
    gate_hop_ms: float = 10.0
    fft_len: int = 512
    fft_hop: int = 128

    def __post_init__(self):
        if self.alpha < 1.0:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.theta < 0.0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")
        if self.target_rms <= 0.0:
            raise ValueError(f"target_rms must be positive, got {self.target_rms}")
        if self.noise_frames < 1:
            raise ValueError(f"noise_frames must be >= 1, got {self.noise_frames}")
        unknown = set(self.stages) - set(STAGE_NAMES)
        if unknown:
            raise ValueError(f"unknown stages: {sorted(unknown)}")


@dataclass(frozen=True)
class NoiseProfile:
    """Estimated noise magnitude per STFT bin."""

    magnitude_spectrum: np.ndarray

    def __post_init__(self):
        mags = np.asarray(self.magnitude_spectrum, dtype=np.float64)
        if mags.ndim != 1 or np.any(mags < 0):
            raise ValueError("noise magnitudes must be a 1-D nonnegative array")
        object.__setattr__(self, "magnitude_spectrum", mags)


def estimate_noise(spec: dsp.Stft, k: int) -> NoiseProfile:
    """Mean magnitude over the k leading frames, per bin."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > spec.num_frames:
        raise ValueError(f"k={k} exceeds available frames ({spec.num_frames})")
    return NoiseProfile(np.abs(spec.frames[:k]).mean(axis=0))


def subtract_magnitude(x_mag, alpha: float, noise_mag, beta: float):
    """Per-bin magnitude subtraction: max(|X| - alpha*|N|, beta*|N|)."""
    x_mag = np.asarray(x_mag, dtype=np.float64)
    noise_mag = np.asarray(noise_mag, dtype=np.float64)
    return np.maximum(x_mag - alpha * noise_mag, beta * noise_mag)


def _spectral_subtract(rows: np.ndarray, cfg: PreprocessConfig,
                       noise_mag: np.ndarray | None) -> np.ndarray:
    """Spectral subtraction of every row of a (T, n) array.

    noise_mag is one magnitude per bin for all rows; None estimates it per
    row from that row's own leading frames.
    """
    n = rows.shape[1]
    if noise_mag is None:
        spec = dsp.stft_rows(rows, cfg.fft_len, cfg.fft_hop)
        k = min(cfg.noise_frames, spec.shape[1])
        noise_mag = np.abs(spec[:, :k]).mean(axis=1, keepdims=True)
    pad = min(cfg.fft_len, n - 1)
    padded = np.pad(rows, ((0, 0), (pad, pad)), mode="reflect") if pad else rows
    spec = dsp.stft_rows(padded, cfg.fft_len, cfg.fft_hop)
    mag = np.abs(spec)
    clean = subtract_magnitude(mag, cfg.alpha, noise_mag, cfg.beta)
    # X * clean/|X| keeps the noisy phase; a zero bin has phase 0, so it
    # becomes the real value clean.
    zero = mag == 0.0
    spec *= np.divide(clean, mag, out=mag, where=~zero)
    np.copyto(spec, clean, where=zero)
    out = dsp.istft_rows(spec, cfg.fft_len, cfg.fft_hop, padded.shape[1])
    return out[:, pad:pad + n]


def spectral_subtract(buf: AudioBuffer, cfg: PreprocessConfig,
                      noise: NoiseProfile | None = None) -> AudioBuffer:
    """Subtract an estimated noise magnitude spectrum, keeping the noisy phase.

    When no profile is supplied, the noise is estimated from the leading
    frames of the buffer itself (clamped to however many frames exist).
    The signal is reflect-padded around the STFT so every original sample
    has full analysis-window coverage; otherwise modified edge frames get
    amplified by the tiny overlap-add weights there.
    """
    noise_mag = None if noise is None else noise.magnitude_spectrum
    return AudioBuffer(_spectral_subtract(buf.samples[None], cfg, noise_mag)[0],
                       buf.sample_rate_hz)


def _energy_gate(rows: np.ndarray, cfg: PreprocessConfig, sample_rate_hz: int,
                 frame_len: int | None = None, hop: int | None = None) -> np.ndarray:
    if frame_len is None:
        frame_len = int(round(sample_rate_hz * cfg.gate_frame_ms / 1000.0))
    if hop is None:
        hop = int(round(sample_rate_hz * cfg.gate_hop_ms / 1000.0))
    frames = dsp.frame_rows(rows, frame_len, hop)
    energies = np.sum(frames ** 2, axis=-1)
    theta = cfg.theta
    if cfg.theta_relative:  # a fraction of each row's own mean frame energy
        theta = theta * energies.mean(axis=-1, keepdims=True)
    gated = np.where((energies >= theta)[..., None], frames, 0.0)
    return dsp.overlap_add_rows(gated, hop, rows.shape[-1])


def energy_gate(buf: AudioBuffer, cfg: PreprocessConfig,
                frame_len: int | None = None, hop: int | None = None) -> AudioBuffer:
    """Zero frames whose energy falls below the threshold, then overlap-add."""
    return AudioBuffer(_energy_gate(buf.samples, cfg, buf.sample_rate_hz, frame_len, hop),
                       buf.sample_rate_hz)


def _rms_normalize(rows: np.ndarray, target: float) -> np.ndarray:
    # Rows below the silence floor get scale 1; their samples are far inside
    # [-1, 1], so the clip leaves them as they are.
    rms = np.sqrt(np.mean(rows ** 2, axis=-1, keepdims=True))
    scale = np.where(rms < SILENCE_RMS_FLOOR, 1.0,
                     target / np.maximum(rms, SILENCE_RMS_FLOOR))
    return np.clip(rows * scale, -1.0, 1.0)


def rms_normalize(buf: AudioBuffer, target: float) -> AudioBuffer:
    """Scale the signal so its RMS equals target, then clamp to [-1, 1].

    Buffers below the silence floor pass through unchanged; there is nothing
    meaningful to scale and the division would blow up.
    """
    if target <= 0.0:
        raise ValueError(f"target must be positive, got {target}")
    return AudioBuffer(_rms_normalize(buf.samples, target), buf.sample_rate_hz)


def clip_noise_profile(buf: AudioBuffer, cfg: PreprocessConfig) -> NoiseProfile:
    """Noise estimate from the leading frames of a whole clip.

    Estimating once per clip keeps segments that are entirely speech from
    subtracting their own content; the clip lead-in is the best stand-in
    for the background the paper's method assumes. Only the samples the
    leading frames cover are transformed.
    """
    lead_in = (cfg.noise_frames - 1) * cfg.fft_hop + cfg.fft_len
    spec = dsp.stft(AudioBuffer(buf.samples[:lead_in], buf.sample_rate_hz),
                    cfg.fft_len, cfg.fft_hop)
    return estimate_noise(spec, min(cfg.noise_frames, spec.num_frames))


def preprocess_rows(rows: np.ndarray, sample_rate_hz: int, cfg: PreprocessConfig,
                    noise: NoiseProfile | None = None) -> np.ndarray:
    """Run the configured stages in order over every row of a (T, n) array.

    `noise` feeds the spectral-subtraction stage; when omitted, each row
    estimates from its own leading frames.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise ValueError(f"expected a non-empty (T, n) array, got shape {rows.shape}")
    noise_mag = None if noise is None else noise.magnitude_spectrum
    for stage in cfg.stages:
        if stage == "spectral_subtract":
            rows = _spectral_subtract(rows, cfg, noise_mag)
        elif stage == "energy_gate":
            rows = _energy_gate(rows, cfg, sample_rate_hz)
        elif stage == "rms_normalize":
            rows = _rms_normalize(rows, cfg.target_rms)
    return rows


def preprocess_segment(seg: AudioBuffer, cfg: PreprocessConfig,
                       noise: NoiseProfile | None = None) -> AudioBuffer:
    """Run the configured stages in order over one segment (see preprocess_rows)."""
    if len(seg) == 0:
        raise ValueError("cannot preprocess an empty segment")
    return AudioBuffer(preprocess_rows(seg.samples[None], seg.sample_rate_hz, cfg, noise)[0],
                       seg.sample_rate_hz)
