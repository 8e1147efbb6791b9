"""Framing, windowing, and STFT/overlap-add primitives.

Reconstruction paths normalize by the accumulated synthesis-window energy
per sample, so any analysis/synthesis pair used here gives exact
pass-through when frames are left untouched.

The `*_rows` primitives work along the last axis with any leading batch
axes, so a clip's segments go through as one (T, n) array; the functions
taking an AudioBuffer are the one-signal case of the same code.

Large temporaries live in a per-thread scratch store (`scratch`) and are
reused from call to call. A function that takes `key` writes its result
there too when given one; without a key every result is a fresh array.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .audio_io import PIPELINE_RATE_HZ, AudioBuffer

_DENOM_FLOOR = 1e-12
# Scratch requests up to this size are kept for reuse; larger ones, such as
# a long file scored in one piece, are allocated per call and freed.
SCRATCH_LIMIT_BYTES = 4 << 20
_scratch = threading.local()


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

    def __post_init__(self):
        if self.frames.ndim != 2 or self.frames.shape[1] != self.fft_len // 2 + 1:
            raise ValueError(
                f"expected {self.fft_len // 2 + 1} bins, got shape {self.frames.shape}"
            )

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


def scratch(key: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """An array for the temporary named key, contents undefined.

    Each thread keeps one grow-only buffer per key, so the array stays valid
    only until this thread's next request for the same key: no array the
    package hands back to its caller may be a view of it.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes > SCRATCH_LIMIT_BYTES:
        return np.empty(shape, dtype)
    store = vars(_scratch)
    buf = store.get(key)
    if buf is None or buf.nbytes < nbytes:
        buf = store[key] = np.empty(nbytes, np.uint8)
    return buf[:nbytes].view(dtype).reshape(shape)


def _buffer(key: str | None, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    return np.empty(shape, dtype) if key is None else scratch(key, shape, dtype)


def num_frames_for(length: int, frame_len: int, hop: int) -> int:
    """Frame count with zero-padding: 1 + ceil((length - frame_len)/hop)."""
    if length <= frame_len:
        return 1
    return 1 + math.ceil((length - frame_len) / hop)


def frame_rows(rows: np.ndarray, frame_len: int, hop: int,
               key: str | None = None) -> np.ndarray:
    """Frames of the last axis, (..., n) -> (..., num_frames, frame_len), tail
    zero-padded. A read-only strided view of the padded signal (in scratch
    under key, if given): copy it before writing."""
    n = rows.shape[-1]
    if n == 0:
        raise ValueError("cannot frame an empty buffer")
    if not 0 < hop <= frame_len:
        raise ValueError(f"need 0 < hop <= frame_len, got hop={hop}, frame_len={frame_len}")
    count = num_frames_for(n, frame_len, hop)
    padded = _buffer(key, rows.shape[:-1] + ((count - 1) * hop + frame_len,))
    padded[..., :n] = rows
    padded[..., n:] = 0.0
    return frame_view(padded, frame_len, hop)


def frame_view(padded: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Every frame of the last axis that fits, as a read-only strided view."""
    return np.lib.stride_tricks.sliding_window_view(padded, frame_len, axis=-1)[..., ::hop, :]


def frame_signal(buf: AudioBuffer, frame_len: int, hop: int) -> FrameGrid:
    """Slice a buffer into overlapping frames, zero-padding the tail."""
    return FrameGrid(np.ascontiguousarray(frame_rows(buf.samples, frame_len, hop)), hop)


@functools.lru_cache(maxsize=16)
def analysis_window(length: int) -> np.ndarray:
    """The periodic Hann window, the right one for overlap-add at
    hop = length/4; built once per length, read-only."""
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)
    win.setflags(write=False)
    return win


@functools.lru_cache(maxsize=16)
def _crossfade_window(length: int) -> np.ndarray:
    # triangular but strictly positive, so normalized overlap-add is defined
    # at every sample a frame covers
    ramp = np.minimum(np.arange(1, length + 1), np.arange(length, 0, -1))
    win = ramp / ramp.max()
    win.setflags(write=False)
    return win


def rfft_frames(frames: np.ndarray, fft_len: int, window: np.ndarray,
                key: str | None = None) -> np.ndarray:
    """One-sided spectra of the windowed frames (..., frame_len), zero-padded
    to fft_len: (..., fft_len // 2 + 1)."""
    windowed = scratch("rfft_frames.windowed", frames.shape)
    np.multiply(frames, window, out=windowed)
    out = _buffer(key, frames.shape[:-1] + (fft_len // 2 + 1,), np.complex128)
    return np.fft.rfft(windowed, n=fft_len, axis=-1, out=out)


def check_stft_geometry(fft_len: int, hop: int) -> None:
    """Raise ValueError unless fft_len is a power of two that hop divides."""
    if fft_len <= 0 or fft_len & (fft_len - 1):
        raise ValueError(f"fft_len must be a power of two, got {fft_len}")
    if fft_len % hop:
        raise ValueError(f"hop {hop} must divide fft_len {fft_len}")


def stft_rows(rows: np.ndarray, fft_len: int = 512, hop: int = 128) -> np.ndarray:
    """One-sided spectra of every frame of the last axis: (..., frames, bins)."""
    check_stft_geometry(fft_len, hop)
    frames = frame_rows(rows, fft_len, hop, key="stft_rows.grid")
    return rfft_frames(frames, fft_len, analysis_window(fft_len))


def stft(buf: AudioBuffer, fft_len: int = 512, hop: int = 128) -> Stft:
    """Forward STFT over zero-padded frames of the input."""
    return Stft(stft_rows(buf.samples, fft_len, hop), fft_len, hop)


def _shifted_add(acc: np.ndarray, frames: np.ndarray, hop: int) -> np.ndarray:
    # Piece r of frame m lands in hop-wide block m + r of the zeroed acc;
    # taking r from last to first adds every sample's frames in increasing m.
    num, frame_len = frames.shape[-2:]
    for r in reversed(range(-(-frame_len // hop))):
        lo = r * hop
        width = min(hop, frame_len - lo)
        acc[..., r:r + num, :width] += frames[..., lo:lo + width]
    return acc.reshape(acc.shape[:-2] + (-1,))[..., :(num - 1) * hop + frame_len]


@functools.lru_cache(maxsize=64)
def _normaliser(weights: str, frame_len: int, hop: int, num: int):
    """(summed weights floored at _DENOM_FLOOR, samples where the sum
    vanishes or None) over a grid of num frames; read-only, built once."""
    den_win = (_crossfade_window(frame_len) if weights == "crossfade"
               else analysis_window(frame_len) ** 2)
    blocks = num - 1 + -(-frame_len // hop)
    den = _shifted_add(np.zeros((blocks, hop)), np.broadcast_to(den_win, (num, frame_len)), hop)
    vanishing = den <= _DENOM_FLOOR
    floored = np.maximum(den, _DENOM_FLOOR)
    floored.setflags(write=False)
    return floored, (vanishing if vanishing.any() else None)


def weighted_overlap_add(weighted: np.ndarray, hop: int, out_len: int, weights: str,
                         key: str | None = None) -> np.ndarray:
    """Overlap-add frames (..., num_frames, frame_len) that already carry
    their synthesis window, frame m at offset m * hop, and divide each sample
    by the summed weights of the grid (0 where that sum vanishes).

    weights names the per-frame weighting: "crossfade" for frames weighted
    by the cross-fade window, or "hann" for istft frames, whose weight is
    the square of the analysis window. The sum runs as ceil(frame_len / hop)
    shifted adds of hop-wide pieces over all frames and rows at once, adding
    every sample's frames in increasing order, as a frame-by-frame loop
    does, so each row's result is bit-identical to that row overlap-added
    alone. The output is cut or zero-padded to out_len samples.
    """
    num, frame_len = weighted.shape[-2:]
    acc = _buffer(key, weighted.shape[:-2] + (num - 1 + -(-frame_len // hop), hop))
    acc.fill(0.0)
    acc = _shifted_add(acc, weighted, hop)
    den, vanishing = _normaliser(weights, frame_len, hop, num)
    acc /= den
    if vanishing is not None:
        acc[..., vanishing] = 0.0
    total = acc.shape[-1]
    if out_len <= total:
        return acc[..., :out_len]
    result = np.zeros(acc.shape[:-1] + (out_len,))
    result[..., :total] = acc
    return result


def istft_rows(spectra: np.ndarray, fft_len: int, hop: int, out_len: int,
               key: str | None = None) -> np.ndarray:
    """Invert stft_rows: irfft per frame, then normalized overlap-add."""
    frames = scratch("istft_rows.frames", spectra.shape[:-1] + (fft_len,))
    np.fft.irfft(spectra, n=fft_len, axis=-1, out=frames)
    frames *= analysis_window(fft_len)
    return weighted_overlap_add(frames, hop, out_len, "hann", key)


def istft(spec: Stft, out_len: int, sample_rate_hz: int = PIPELINE_RATE_HZ) -> AudioBuffer:
    """Invert an STFT by weighted overlap-add with per-sample normalization."""
    return AudioBuffer(istft_rows(spec.frames, spec.fft_len, spec.hop, out_len), sample_rate_hz)


def overlap_add_rows(frames: np.ndarray, hop: int, out_len: int,
                     key: str | None = None) -> np.ndarray:
    """Rebuild signals from (possibly modified) frames (..., num_frames, frame_len).

    Frames are weighted by a strictly positive triangular window and the sum
    is normalized by the accumulated weights of the full grid, which makes
    unmodified frames reconstruct the input exactly and zeroed frames
    cross-fade against their neighbors.
    """
    weighted = scratch("overlap_add_rows.weighted", frames.shape)
    np.multiply(frames, _crossfade_window(frames.shape[-1]), out=weighted)
    return weighted_overlap_add(weighted, hop, out_len, "crossfade", key)


def overlap_add(frames: np.ndarray, hop: int, out_len: int,
                sample_rate_hz: int = PIPELINE_RATE_HZ) -> AudioBuffer:
    """overlap_add_rows for one signal's (num_frames, frame_len) frames."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError("frames must be a 2-D array")
    return AudioBuffer(overlap_add_rows(frames, hop, out_len), sample_rate_hz)
