"""Framing, windowing, and STFT/overlap-add primitives.

Reconstruction paths normalize by the accumulated synthesis-window energy
per sample, so any analysis/synthesis pair used here gives exact
pass-through when frames are left untouched.

The row primitives (`frame_rows`, `rfft_frames`, `istft_rows`,
`weighted_overlap_add`) work along the last axis with any leading batch axes,
so a clip's segments go through as one (T, n) array; `frame_signal`, `stft`,
`istft` and `overlap_add` are their one-signal entry points.

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
# stft's Hann geometry, which spectral subtraction and its noise estimate use.
FFT_LEN = 512
FFT_HOP = 128
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
    """Every frame of the last axis that fits, as a read-only strided view:
    sliding_window_view(padded, frame_len, axis=-1)[..., ::hop, :], built in
    one call."""
    *lead, length = padded.shape
    step = padded.strides[-1]
    return np.lib.stride_tricks.as_strided(
        padded, (*lead, (length - frame_len) // hop + 1, frame_len),
        (*padded.strides[:-1], hop * step, step), writeable=False)


def silent_frames(frames: np.ndarray) -> np.ndarray | None:
    """Which frames of (..., num_frames, frame_len) hold only +0.0 or -0.0
    samples, as a (..., num_frames) mask, or None when none does: the one
    test for digital silence. The frames are scanned, in one pass with no
    copy, only when some frame starts and ends on a zero, so frames of
    sounding audio cost a two-sample test."""
    silent = (frames[..., 0] == 0.0) & (frames[..., -1] == 0.0)
    if silent.any():
        silent &= ~frames.any(axis=-1)
        if silent.any():
            return silent
    return None


def spread(compact: np.ndarray, silent: np.ndarray | None,
           key: str | None = None) -> np.ndarray:
    """Compacted results put back in place: compact (count, ...) holds, in
    order, the results of the entries a silent_frames mask does not mark;
    the result, (*silent.shape, ...), has +0.0 at the marked ones (in
    scratch under key, if given). compact itself when silent is None.

    This is why skipping digital silence keeps every output bit. A skipped
    result is the one the work gives: a silent segment scores +0.0, a
    silent frame's power is +0.0 in every bin, and a frame of zero bins
    transforms to zeros, whose sign weighted_overlap_add erases. The other
    entries keep their bits in a compacted batch, as numpy transforms each
    frame, and a stacked matmul projects each row, on its own.
    """
    if silent is None:
        return compact
    out = _buffer(key, silent.shape + compact.shape[1:], compact.dtype)
    out[silent] = 0.0
    out[~silent] = compact
    return out


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
def crossfade_window(length: int) -> np.ndarray:
    """The overlap_add weighting: triangular but strictly positive, so
    normalized overlap-add is defined at every sample a frame covers;
    built once per length, read-only."""
    ramp = np.minimum(np.arange(1, length + 1), np.arange(length, 0, -1))
    win = ramp / ramp.max()
    win.setflags(write=False)
    return win


def rfft_frames(frames: np.ndarray, fft_len: int, window: np.ndarray,
                key: str | None = None) -> np.ndarray:
    """One-sided spectra of the windowed frames (..., frame_len), zero-padded
    to fft_len >= frame_len: (..., fft_len // 2 + 1).

    The frames are windowed into the head of an fft_len-wide buffer whose
    tail is zeroed, the padding rfft(n=fft_len) would do itself, so the
    spectra are the same bits."""
    frame_len = frames.shape[-1]
    windowed = scratch("rfft_frames.windowed", frames.shape[:-1] + (fft_len,))
    np.multiply(frames, window, out=windowed[..., :frame_len])
    windowed[..., frame_len:] = 0.0
    out = _buffer(key, frames.shape[:-1] + (fft_len // 2 + 1,), np.complex128)
    return np.fft.rfft(windowed, axis=-1, out=out)


def stft(buf: AudioBuffer, fft_len: int = FFT_LEN, hop: int = FFT_HOP) -> Stft:
    """Forward STFT over zero-padded frames of the input; fft_len must be a
    power of two that hop divides."""
    if fft_len <= 0 or fft_len & (fft_len - 1):
        raise ValueError(f"fft_len must be a power of two, got {fft_len}")
    if hop <= 0 or fft_len % hop:
        raise ValueError(f"hop {hop} must be positive and divide fft_len {fft_len}")
    frames = frame_rows(buf.samples, fft_len, hop, key="stft.grid")
    return Stft(rfft_frames(frames, fft_len, analysis_window(fft_len)), fft_len, hop)


def _shifted_add(acc: np.ndarray, frames: np.ndarray, hop: int) -> np.ndarray:
    # Piece r of frame m lands in hop-wide block m + r of acc (contents
    # undefined on entry); taking r from last to first adds every sample's
    # frames in increasing m, so the last piece lands first where it lands.
    num, frame_len = frames.shape[-2:]
    last = -(-frame_len // hop) - 1
    width = frame_len - last * hop
    acc[..., :last, :] = 0.0
    acc[..., last:, width:] = 0.0
    np.add(frames[..., last * hop:], 0.0, out=acc[..., last:, :width])
    for r in reversed(range(last)):
        acc[..., r:r + num, :] += frames[..., r * hop:(r + 1) * hop]
    return acc.reshape(acc.shape[:-2] + (-1,))[..., :(num - 1) * hop + frame_len]


@functools.lru_cache(maxsize=64)
def _normaliser(weights: str, frame_len: int, hop: int, num: int):
    """(summed weights floored at _DENOM_FLOOR, samples where the sum
    vanishes or None) over a grid of num frames; read-only, built once."""
    den_win = (crossfade_window(frame_len) if weights == "crossfade"
               else analysis_window(frame_len) ** 2)
    blocks = num - 1 + -(-frame_len // hop)
    den = _shifted_add(np.empty((blocks, hop)), np.broadcast_to(den_win, (num, frame_len)), hop)
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
    every sample's frames in increasing order, as a frame-by-frame loop into
    zeros does, so each row's result is bit-identical to that row
    overlap-added alone. The accumulator is not zero-filled first: the
    piece that lands first, each frame's last piece, is written as
    piece + 0.0, which has the bits of the loop's 0.0 + piece, signed zeros
    included (-0.0 becomes +0.0), and only the samples it does not cover are
    zeroed. So the accumulator never holds -0.0, and adding a zero of
    either sign leaves it as it is: frames that differ only in the signs of
    their zeros give the same bits. The output is cut or zero-padded to
    out_len samples.
    """
    if hop < 1 or out_len < 0:
        raise ValueError(f"need hop >= 1 and out_len >= 0, got hop={hop}, out_len={out_len}")
    num, frame_len = weighted.shape[-2:]
    acc = _buffer(key, weighted.shape[:-2] + (num - 1 + -(-frame_len // hop), hop))
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
               key: str | None = None, zero: np.ndarray | None = None) -> np.ndarray:
    """Invert stft: irfft per frame, then normalized overlap-add.

    zero, a (..., num_frames) mask, marks frames whose bins are all zero:
    spectra then holds only the other frames, in order, as (count, bins),
    and each marked frame skips the irfft and is overlap-added as +0.0,
    with the bits of transforming it (see spread)."""
    frames = scratch("istft_rows.frames", spectra.shape[:-1] + (fft_len,))
    np.fft.irfft(spectra, n=fft_len, axis=-1, out=frames)
    frames *= analysis_window(fft_len)
    return weighted_overlap_add(spread(frames, zero, "istft_rows.grid"), hop, out_len,
                                "hann", key)


def istft(spec: Stft, out_len: int) -> AudioBuffer:
    """Invert an STFT by weighted overlap-add with per-sample normalization."""
    return AudioBuffer(istft_rows(spec.frames, spec.fft_len, spec.hop, out_len),
                       PIPELINE_RATE_HZ)


def overlap_add(frames: np.ndarray, hop: int, out_len: int) -> AudioBuffer:
    """Rebuild a signal from (possibly modified) frames (num_frames, frame_len),
    weighted by crossfade_window and normalized by the summed weights of the
    grid: unmodified frames give the input back, zeroed ones cross-fade."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError("frames must be a 2-D array")
    weighted = frames * crossfade_window(frames.shape[-1])
    return AudioBuffer(weighted_overlap_add(weighted, hop, out_len, "crossfade"),
                       PIPELINE_RATE_HZ)
