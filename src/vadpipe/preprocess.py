"""Noise-removal chain: spectral subtraction, energy gating, RMS normalization.

Each stage is value-in/value-out and preserves buffer length, so stages
compose in any order. Whether the chain maps a row of zeros to zeros, so
that a caller may skip it, is keeps_silence's rule. With a zero profile
(NoiseProfile.zero, as a silent lead-in gives) the subtraction's gain is
exactly 1: spectral subtraction then runs the STFT pair alone, and its
frames of digital silence skip both transforms (dsp.silent_frames,
dsp.spread), with the full path's output bits.

`STAGES` is the one table of stages: it maps each stage name to a row
function that runs over a (T, n) array of segments and writes its output
to the thread's scratch store (`dsp.scratch`). The chain
(`preprocess_rows_scratch`) runs cfg.stages through it; the AudioBuffer
functions (spectral_subtract, energy_gate, rms_normalize,
preprocess_segment) are its T = 1 case and return copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .audio_io import AudioBuffer, require_pipeline_audio, require_pipeline_rate
from . import dsp
from .dsp import FFT_HOP, FFT_LEN

SILENCE_RMS_FLOOR = 1e-8
# The energy gate's 25 ms / 10 ms frames in samples at the pipeline rate.
GATE_FRAME_LEN = 400
GATE_HOP = 160

STAGE_NAMES = ("spectral_subtract", "energy_gate", "rms_normalize")


def require_finite(cfg, names: tuple[str, ...], positive: bool = False) -> None:
    """Raise ValueError unless each named field of cfg is a finite number,
    and a positive one if asked."""
    for name in names:
        value = getattr(cfg, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if positive and value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


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

    def __post_init__(self):
        require_finite(self, ("alpha", "theta"))
        require_finite(self, ("target_rms",), positive=True)
        if self.alpha < 1.0:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.theta < 0.0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")
        if self.noise_frames < 1:
            raise ValueError(f"noise_frames must be >= 1, got {self.noise_frames}")
        unknown = set(self.stages) - set(STAGE_NAMES)
        if unknown:
            raise ValueError(f"unknown stages: {sorted(unknown)}")


@dataclass(frozen=True)
class NoiseProfile:
    """Estimated noise magnitude per STFT bin; zero tells whether every bin
    is 0, as a silent lead-in gives, so spectral subtraction's gain is 1."""

    magnitude_spectrum: np.ndarray
    zero: bool = field(init=False)

    def __post_init__(self):
        mags = np.asarray(self.magnitude_spectrum, dtype=np.float64)
        if mags.ndim != 1 or np.any(mags < 0):
            raise ValueError("noise magnitudes must be a 1-D nonnegative array")
        object.__setattr__(self, "magnitude_spectrum", mags)
        object.__setattr__(self, "zero", not mags.any())


def keeps_silence(cfg: PreprocessConfig, noise: NoiseProfile) -> bool:
    """Whether the chain maps a row of zeros to zeros. The energy gate and
    RMS normalization always do; spectral subtraction does only when
    beta * |N|, the floor subtract_magnitude forms, is zero in every bin,
    as with a silent lead-in's profile or beta = 0, and otherwise lifts
    silence to that floor."""
    return "spectral_subtract" not in cfg.stages or not np.any(cfg.beta * noise.magnitude_spectrum)


def estimate_noise(spec: dsp.Stft, k: int) -> NoiseProfile:
    """Mean magnitude over the k leading frames, per bin."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > spec.num_frames:
        raise ValueError(f"k={k} exceeds available frames ({spec.num_frames})")
    return NoiseProfile(np.abs(spec.frames[:k]).mean(axis=0))


def subtract_magnitude(x_mag, alpha: float, noise_mag, beta: float, out=None):
    """Per-bin magnitude subtraction: max(|X| - alpha*|N|, beta*|N|)."""
    x_mag = np.asarray(x_mag, dtype=np.float64)
    noise_mag = np.asarray(noise_mag, dtype=np.float64)
    diff = np.subtract(x_mag, alpha * noise_mag, out=out)
    return np.maximum(diff, beta * noise_mag, out=out)


def _spectral_subtract(rows: np.ndarray, cfg: PreprocessConfig,
                       noise: NoiseProfile) -> np.ndarray:
    """Spectral subtraction of every row of a (T, n) array, with one noise
    profile for all rows.

    With a zero profile the gain max(|X| - alpha*0, beta*0)/|X| is exactly
    1, so the frames go through the STFT pair alone, and a frame whose
    padded samples are all zero skips both transforms (istft_rows' zero).
    The output has the full path's bits: that path only turns zero bins
    into +0.0 (see dsp.spread)."""
    t, n = rows.shape
    # Reflect-pad by pad samples on each side. Frames of the padded grid that
    # lie wholly inside the padding reach no kept sample and are skipped;
    # the kept samples' frames, and their order, are the full grid's.
    pad = min(FFT_LEN, n - 1)
    length = n + 2 * pad
    first = max(0, (pad - FFT_LEN) // FFT_HOP + 1)
    stop = min(dsp.num_frames_for(length, FFT_LEN, FFT_HOP), -(-(pad + n) // FFT_HOP))
    start = first * FFT_HOP
    span = (stop - first - 1) * FFT_HOP + FFT_LEN
    padded = dsp.scratch("spectral_subtract.padded", (t, max(length, start + span)))
    padded[:, :pad] = rows[:, pad:0:-1]
    padded[:, pad:pad + n] = rows
    padded[:, pad + n:length] = rows[:, n - 1 - pad:n - 1][:, ::-1]
    padded[:, length:] = 0.0
    frames = dsp.frame_view(padded[:, start:start + span], FFT_LEN, FFT_HOP)
    silent = dsp.silent_frames(frames) if noise.zero else None
    spec = dsp.rfft_frames(frames if silent is None else frames[~silent], FFT_LEN,
                           dsp.analysis_window(FFT_LEN), key="spectral_subtract.spectra")
    if not noise.zero:
        mag = np.abs(spec, out=dsp.scratch("spectral_subtract.mag", spec.shape))
        clean = subtract_magnitude(mag, cfg.alpha, noise.magnitude_spectrum, cfg.beta,
                                   out=dsp.scratch("spectral_subtract.clean", spec.shape))
        # X * clean/|X| keeps the noisy phase; a zero bin has phase 0, so it
        # becomes the real value clean. Only a row block with a zero bin
        # needs the masked pass.
        if mag.all():
            spec *= np.divide(clean, mag, out=mag)
        else:
            zero = mag == 0.0
            spec *= np.divide(clean, mag, out=mag, where=~zero)
            np.copyto(spec, clean, where=zero)
    out = dsp.istft_rows(spec, FFT_LEN, FFT_HOP, pad - start + n, key="spectral_subtract.out",
                         zero=silent)
    return out[:, pad - start:]


def spectral_subtract(buf: AudioBuffer, cfg: PreprocessConfig,
                      noise: NoiseProfile | None = None) -> AudioBuffer:
    """Subtract an estimated noise magnitude spectrum, keeping the noisy phase.

    When no profile is supplied, the buffer's own clip_noise_profile is used.
    The signal is reflect-padded around the STFT so every original sample
    has full analysis-window coverage; otherwise modified edge frames get
    amplified by the tiny overlap-add weights there.
    """
    require_pipeline_audio(buf)
    if noise is None:
        noise = clip_noise_profile(buf, cfg)
    return _one_row(_spectral_subtract, buf, cfg, noise)


def _energy_gate(rows: np.ndarray, cfg: PreprocessConfig, noise=None) -> np.ndarray:
    # dsp.overlap_add with the gate folded in: a gated frame's weighted
    # samples are 0.0, which is what weighting its zeroed samples gives.
    frames = dsp.frame_rows(rows, GATE_FRAME_LEN, GATE_HOP, key="energy_gate.grid")
    weighted = dsp.scratch("energy_gate.frames", frames.shape)
    energies = np.square(frames, out=weighted).sum(axis=-1)
    theta = cfg.theta
    if cfg.theta_relative:  # a fraction of each row's own mean frame energy
        theta = theta * energies.mean(axis=-1, keepdims=True)
    np.multiply(frames, dsp.crossfade_window(GATE_FRAME_LEN), out=weighted)
    weighted[~(energies >= theta)] = 0.0
    return dsp.weighted_overlap_add(weighted, GATE_HOP, rows.shape[-1], "crossfade",
                                    key="energy_gate.out")


def energy_gate(buf: AudioBuffer, cfg: PreprocessConfig) -> AudioBuffer:
    """Zero frames whose energy falls below the threshold, then overlap-add."""
    require_pipeline_audio(buf)
    return _one_row(_energy_gate, buf, cfg)


def _rms_normalize(rows: np.ndarray, cfg: PreprocessConfig, noise=None) -> np.ndarray:
    # Rows below the silence floor get scale 1; their samples are far inside
    # [-1, 1], so the clip leaves them as they are.
    squares = np.square(rows, out=dsp.scratch("rms_normalize.squares", rows.shape))
    rms = np.sqrt(np.mean(squares, axis=-1, keepdims=True))
    scale = np.where(rms < SILENCE_RMS_FLOOR, 1.0,
                     cfg.target_rms / np.maximum(rms, SILENCE_RMS_FLOOR))
    out = np.multiply(rows, scale, out=dsp.scratch("rms_normalize.out", rows.shape))
    return np.clip(out, -1.0, 1.0, out=out)


def rms_normalize(buf: AudioBuffer, target: float) -> AudioBuffer:
    """Scale the signal so its RMS equals target, then clamp to [-1, 1].

    Buffers below the silence floor pass through unchanged; there is nothing
    meaningful to scale and the division would blow up. A target that
    PreprocessConfig refuses as target_rms raises ValueError.
    """
    require_pipeline_audio(buf)
    return _one_row(_rms_normalize, buf, PreprocessConfig(target_rms=target))


# The one table of stages: name -> row function f(rows, cfg, noise), which
# runs over every row of a (T, n) array and returns its rows in scratch.
STAGES = {"spectral_subtract": _spectral_subtract, "energy_gate": _energy_gate,
          "rms_normalize": _rms_normalize}


def _one_row(stage, buf: AudioBuffer, cfg: PreprocessConfig, noise=None) -> AudioBuffer:
    """The T = 1 case of a row function (a STAGES entry or the whole chain):
    stage over buf's samples as one (1, n) row, copied out of scratch."""
    return AudioBuffer(stage(buf.samples[None], cfg, noise)[0].copy(), buf.sample_rate_hz)


def clip_noise_profile(buf: AudioBuffer, cfg: PreprocessConfig) -> NoiseProfile:
    """Noise estimate from the leading frames of a whole clip.

    Estimating once per clip keeps segments that are entirely speech from
    subtracting their own content; the clip lead-in is the best stand-in
    for the background the paper's method assumes. Only the samples the
    leading frames cover are transformed. It checks the rate only, as
    run_pipeline has checked the samples."""
    require_pipeline_rate(buf)
    lead_in = (cfg.noise_frames - 1) * FFT_HOP + FFT_LEN
    spec = dsp.stft(AudioBuffer(buf.samples[:lead_in], buf.sample_rate_hz))
    return estimate_noise(spec, min(cfg.noise_frames, spec.num_frames))


def preprocess_rows_scratch(rows: np.ndarray, cfg: PreprocessConfig,
                            noise: NoiseProfile) -> np.ndarray:
    """Run the configured stages in order over every row of a (T, n) array;
    `noise` feeds the spectral-subtraction stage of every row. The result is
    left in this thread's scratch store: it is valid until the thread's next
    pre-processing call."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise ValueError(f"expected a non-empty (T, n) array, got shape {rows.shape}")
    for stage in cfg.stages:
        rows = STAGES[stage](rows, cfg, noise)
    return rows


def preprocess_segment(seg: AudioBuffer, cfg: PreprocessConfig,
                       noise: NoiseProfile | None = None) -> AudioBuffer:
    """preprocess_rows_scratch over one segment, with the segment's own
    clip_noise_profile when given no profile."""
    require_pipeline_audio(seg)
    if len(seg) == 0:
        raise ValueError("cannot preprocess an empty segment")
    if noise is None:
        noise = clip_noise_profile(seg, cfg)
    return _one_row(preprocess_rows_scratch, seg, cfg, noise)
