"""Framing, windowing, and STFT/overlap-add primitives.

Reconstruction paths normalize by the accumulated synthesis-window energy
per sample, so any analysis/synthesis pair used here gives exact
pass-through when frames are left untouched.

The `*_rows` primitives work along the last axis with any leading batch
axes, so a clip's segments go through as one (T, n) array; the functions
taking an AudioBuffer are the one-signal case of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer

_DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class FrameGrid:
    """Overlapping frames of a signal, last frame zero-padded to full length."""

    frames: np.ndarray  # (num_frames, frame_len)
    hop: int

    def __post_init__(self):
        if self.frames.ndim != 2:
            raise ValueError("frames must be a 2-D array")
        if not 0 < self.hop <= self.frame_len:
            raise ValueError(f"need 0 < hop <= frame_len, got hop={self.hop}")

    @property
    def frame_len(self) -> int:
        return self.frames.shape[1]

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True)
class Stft:
    """One-sided complex spectra per frame: (num_frames, fft_len//2 + 1)."""

    frames: np.ndarray
    fft_len: int
    hop: int
    window: str  # "hann" or "rect"

    def __post_init__(self):
        if self.frames.ndim != 2 or self.frames.shape[1] != self.fft_len // 2 + 1:
            raise ValueError(
                f"expected {self.fft_len // 2 + 1} bins, got shape {self.frames.shape}"
            )

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


def num_frames_for(length: int, frame_len: int, hop: int) -> int:
    """Frame count with zero-padding: 1 + ceil((length - frame_len)/hop)."""
    if length <= frame_len:
        return 1
    return 1 + math.ceil((length - frame_len) / hop)


def frame_rows(rows: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Frames of the last axis, (..., n) -> (..., num_frames, frame_len), tail
    zero-padded. A read-only strided view: copy it before writing."""
    n = rows.shape[-1]
    if n == 0:
        raise ValueError("cannot frame an empty buffer")
    if not 0 < hop <= frame_len:
        raise ValueError(f"need 0 < hop <= frame_len, got hop={hop}, frame_len={frame_len}")
    count = num_frames_for(n, frame_len, hop)
    padded = np.zeros(rows.shape[:-1] + ((count - 1) * hop + frame_len,))
    padded[..., :n] = rows
    return np.lib.stride_tricks.sliding_window_view(padded, frame_len, axis=-1)[..., ::hop, :]


def frame_signal(buf: AudioBuffer, frame_len: int, hop: int) -> FrameGrid:
    """Slice a buffer into overlapping frames, zero-padding the tail."""
    return FrameGrid(np.ascontiguousarray(frame_rows(buf.samples, frame_len, hop)), hop)


def _analysis_window(name: str, length: int) -> np.ndarray:
    if name == "hann":
        # periodic form, the right one for overlap-add at hop = length/4
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)
    if name == "rect":
        return np.ones(length)
    raise ValueError(f"unknown window {name!r}")


def _crossfade_window(length: int) -> np.ndarray:
    # triangular but strictly positive, so normalized overlap-add is defined
    # at every sample a frame covers
    ramp = np.minimum(np.arange(1, length + 1), np.arange(length, 0, -1))
    return ramp / ramp.max()


def stft_rows(rows: np.ndarray, fft_len: int = 512, hop: int = 128,
              window: str = "hann") -> np.ndarray:
    """One-sided spectra of every frame of the last axis: (..., frames, bins)."""
    if fft_len <= 0 or fft_len & (fft_len - 1):
        raise ValueError(f"fft_len must be a power of two, got {fft_len}")
    if fft_len % hop:
        raise ValueError(f"hop {hop} must divide fft_len {fft_len}")
    frames = frame_rows(rows, fft_len, hop)
    return np.fft.rfft(frames * _analysis_window(window, fft_len), n=fft_len, axis=-1)


def stft(buf: AudioBuffer, fft_len: int = 512, hop: int = 128,
         window: str = "hann") -> Stft:
    """Forward STFT over zero-padded frames of the input."""
    return Stft(stft_rows(buf.samples, fft_len, hop, window), fft_len, hop, window)


def weighted_overlap_add(weighted: np.ndarray, hop: int, out_len: int,
                         den_win: np.ndarray) -> np.ndarray:
    """Overlap-add frames (..., num_frames, frame_len) that already carry
    their synthesis window, frame m at offset m * hop, and divide each sample
    by the summed den_win of the grid (0 where that sum vanishes).

    The sum runs as ceil(frame_len / hop) shifted adds of hop-wide pieces
    over all frames and rows at once. Piece r of frame m lands in block
    m + r; taking r from last to first adds every sample's frames in
    increasing m, the order of a frame-by-frame loop, so each row's result
    is bit-identical to that row overlap-added alone. The output is cut or
    zero-padded to out_len samples.
    """
    num, frame_len = weighted.shape[-2:]
    pieces = -(-frame_len // hop)
    blocks = num + pieces - 1
    acc = np.zeros(weighted.shape[:-2] + (blocks, hop))
    den = np.zeros((blocks, hop))
    for r in reversed(range(pieces)):
        lo = r * hop
        width = min(hop, frame_len - lo)
        acc[..., r:r + num, :width] += weighted[..., lo:lo + width]
        den[r:r + num, :width] += den_win[lo:lo + width]
    total = (num - 1) * hop + frame_len
    acc = acc.reshape(acc.shape[:-2] + (blocks * hop,))[..., :total]
    den = den.reshape(-1)[:total]
    acc /= np.maximum(den, _DENOM_FLOOR)
    acc[..., den <= _DENOM_FLOOR] = 0.0
    if out_len <= total:
        return acc[..., :out_len]
    result = np.zeros(acc.shape[:-1] + (out_len,))
    result[..., :total] = acc
    return result


def istft_rows(spectra: np.ndarray, fft_len: int, hop: int, out_len: int,
               window: str = "hann") -> np.ndarray:
    """Invert stft_rows: irfft per frame, then normalized overlap-add."""
    win = _analysis_window(window, fft_len)
    frames = np.fft.irfft(spectra, n=fft_len, axis=-1)
    frames *= win
    return weighted_overlap_add(frames, hop, out_len, win * win)


def istft(spec: Stft, out_len: int, sample_rate_hz: int = 16000) -> AudioBuffer:
    """Invert an STFT by weighted overlap-add with per-sample normalization."""
    return AudioBuffer(istft_rows(spec.frames, spec.fft_len, spec.hop, out_len, spec.window),
                       sample_rate_hz)


def overlap_add_rows(frames: np.ndarray, hop: int, out_len: int) -> np.ndarray:
    """Rebuild signals from (possibly modified) frames (..., num_frames, frame_len).

    Frames are weighted by a strictly positive triangular window and the sum
    is normalized by the accumulated weights of the full grid, which makes
    unmodified frames reconstruct the input exactly and zeroed frames
    cross-fade against their neighbors.
    """
    win = _crossfade_window(frames.shape[-1])
    return weighted_overlap_add(frames * win, hop, out_len, win)


def overlap_add(frames: np.ndarray, hop: int, out_len: int,
                sample_rate_hz: int = 16000) -> AudioBuffer:
    """overlap_add_rows for one signal's (num_frames, frame_len) frames."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError("frames must be a 2-D array")
    return AudioBuffer(overlap_add_rows(frames, hop, out_len), sample_rate_hz)
