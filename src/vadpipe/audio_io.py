"""WAV file ingestion/emission, sample-rate conversion, and the pipeline rate.

All pipeline audio is mono float64 in [-1, 1] at PIPELINE_RATE_HZ, the one
rate the stages work in (see require_pipeline_audio); ensure_rate converts
to it. Files are RIFF/WAVE, PCM 16-bit or IEEE float 32-bit (plain or
WAVE_FORMAT_EXTENSIBLE), one or two channels, at MIN_RATE_HZ to MAX_RATE_HZ;
anything else is rejected rather than guessed at.
"""

from __future__ import annotations

import functools
import math
import numbers
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import resample_poly

from . import parallel

PIPELINE_RATE_HZ = 16000

# resample splits its output into parallel chunks of at least this many
# samples: an 8 s clip at 16 kHz is 128,000.
MIN_RESAMPLE_CHUNK = 8192
# Taps in each polyphase branch of the resampling filter.
TAPS_PER_PHASE = 64
# The sample rates read_wav accepts, in Hz: telephone band to studio rate.
MIN_RATE_HZ = 8_000
MAX_RATE_HZ = 192_000
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# Bytes 2-15 of every KSDATAFORMAT_SUBTYPE GUID that wraps a plain format
# tag, {tag-0000-0010-8000-00aa00389b71}, as stored in the file.
_KSDATAFORMAT_SUFFIX = bytes.fromhex("0000 0000 1000 8000 00aa 00389b71")
# 16-bit scaling: times 1/32768 on read (a power of two, so the product is
# the exact quotient), clamp to [-32768, 32767] on write.
_PCM16_FULL_SCALE = 32768.0
# The largest sample magnitude the pipeline takes: far above any gain, and
# far below where a frame's power overflows (a 1e200 sample squares to inf).
MAX_SAMPLE_MAGNITUDE = 1e100


class WavFormatError(ValueError):
    """Raised when a file is not a well-formed RIFF/WAVE container."""


class UnsupportedCodecError(ValueError):
    """Raised when a WAV file uses an encoding this reader does not handle."""


class UnsupportedRateError(ValueError):
    """Raised when a WAV file's sample rate is outside MIN_RATE_HZ..MAX_RATE_HZ."""


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio: a 1-D float sample array plus its sample rate in Hz."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        if not isinstance(self.sample_rate_hz, numbers.Integral):
            raise ValueError(f"sample_rate_hz must be an integer, got {self.sample_rate_hz!r}")
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


def read_wav(path: str | Path) -> AudioBuffer:
    """Read a RIFF/WAVE file into a mono AudioBuffer.

    Stereo input is downmixed by channel mean. PCM16 samples are scaled by
    1/32768; float32 samples are clamped to [-1, 1], and NaN or infinite
    ones are rejected.
    """
    data = memoryview(Path(path).read_bytes())   # slices share the bytes
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise WavFormatError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            if fmt[0] == _WAVE_FORMAT_EXTENSIBLE:
                fmt = (_extensible_format(path, body),) + fmt[1:]
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise WavFormatError(f"{path}: data chunk shorter than declared")
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise WavFormatError(f"{path}: missing fmt or data chunk")

    audio_format, channels, rate, _byte_rate, _block_align, bits = fmt
    if rate == 0:
        raise WavFormatError(f"{path}: sample rate 0")
    if not MIN_RATE_HZ <= rate <= MAX_RATE_HZ:
        raise UnsupportedRateError(f"{path}: sample rate {rate} Hz outside the supported "
                                   f"{MIN_RATE_HZ}-{MAX_RATE_HZ} Hz")
    if channels not in (1, 2):
        raise UnsupportedCodecError(f"{path}: {channels} channels not supported")
    if audio_format == 1 and bits == 16:
        raw = np.frombuffer(payload[: len(payload) - len(payload) % 2], dtype="<i2")
        samples = np.multiply(raw, 1.0 / _PCM16_FULL_SCALE, dtype=np.float64)
    elif audio_format == 3 and bits == 32:
        raw = np.frombuffer(payload[: len(payload) - len(payload) % 4], dtype="<f4")
        if not np.all(np.isfinite(raw)):
            raise WavFormatError(f"{path}: non-finite float32 samples")
        samples = np.clip(raw.astype(np.float64), -1.0, 1.0)
    else:
        raise UnsupportedCodecError(
            f"{path}: format tag {audio_format} at {bits} bits not supported"
        )

    if channels == 2:
        samples = samples[: len(samples) - len(samples) % 2].reshape(-1, 2).mean(axis=1)
    return AudioBuffer(samples, rate)


def _extensible_format(path, body: bytes) -> int:
    """The format tag a WAVE_FORMAT_EXTENSIBLE fmt chunk names: the first two
    bytes of its sub-format GUID, when the rest is the standard suffix."""
    if len(body) < 40:
        raise WavFormatError(f"{path}: extensible fmt chunk shorter than 40 bytes")
    guid = body[24:40]
    if guid[2:] != _KSDATAFORMAT_SUFFIX:
        raise UnsupportedCodecError(f"{path}: unknown extensible sub-format {guid.hex()}")
    return struct.unpack_from("<H", guid)[0]


def write_wav(buf: AudioBuffer, path: str | Path) -> None:
    """Write a buffer as mono 16-bit PCM. Samples are clamped, not wrapped;
    NaN or infinite ones are rejected."""
    if not np.isfinite(buf.samples).all():
        raise ValueError(f"{path}: cannot write non-finite samples")
    quantized = np.multiply(buf.samples, _PCM16_FULL_SCALE)
    np.rint(quantized, out=quantized)
    np.clip(quantized, -32768, 32767, out=quantized)
    size = 2 * len(quantized)
    rate = buf.sample_rate_hz
    header = b"RIFF" + struct.pack("<I", 36 + size) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16)
    header += b"data" + struct.pack("<I", size)
    blob = bytearray(len(header) + size)
    blob[:len(header)] = header
    np.frombuffer(blob, "<i2", offset=len(header))[:] = quantized   # exact: whole, in range
    Path(path).write_bytes(blob)


@functools.lru_cache(maxsize=16)
def _design_resample_filter(up: int, down: int) -> np.ndarray:
    """Kaiser windowed-sinc lowpass for polyphase resampling.

    Each of the `up` polyphase branches gets TAPS_PER_PHASE taps and is
    normalized to unit DC gain so constant signals pass through exactly.
    Built once per ratio; the shared array is read-only.
    """
    n = TAPS_PER_PHASE * up + 1  # odd length => symmetric, integer group delay
    cutoff = min(1.0 / up, 1.0 / down)  # fraction of the upsampled Nyquist
    m = np.arange(n) - (n - 1) / 2
    h = cutoff * np.sinc(cutoff * m) * np.kaiser(n, beta=8.6)
    for phase in range(up):
        branch = h[phase::up]
        h[phase::up] = branch / (up * branch.sum())
    h.setflags(write=False)
    return h


def resample(buf: AudioBuffer, target_hz: int) -> AudioBuffer:
    """Band-limited resampling via a fixed polyphase windowed-sinc filter.

    The samples are scipy.signal.resample_poly's with this filter, bit for
    bit; resample_poly owns the filter's placement. Output ranges of at least
    MIN_RESAMPLE_CHUNK samples run as parallel chunks (parallel.map_chunks),
    each through resample_poly on the input slice that holds all its taps.
    """
    if target_hz <= 0:
        raise ValueError(f"target_hz must be positive, got {target_hz}")
    if len(buf) == 0:
        raise ValueError("cannot resample an empty buffer")

    g = math.gcd(buf.sample_rate_hz, target_hz)
    up, down = target_hz // g, buf.sample_rate_hz // g
    x = buf.samples
    n_out = -(-len(x) * up // down)
    h = _design_resample_filter(up, down)
    half_len = (len(h) - 1) // 2
    out = np.empty(n_out)

    def chunk(start: int, stop: int) -> None:
        # Output k sits at input k * down / up with taps half_len / up inputs either
        # side; a slice from a multiple of down keeps each output's filter phase.
        lo = max(0, (start * down - half_len) // up) // down * down
        hi = min(len(x), ((stop - 1) * down + half_len) // up + 1)
        skip = start - lo // down * up
        out[start:stop] = resample_poly(x[lo:hi], up, down, window=h)[skip:skip + stop - start]

    parallel.map_chunks(chunk, n_out, MIN_RESAMPLE_CHUNK)
    return AudioBuffer(out, target_hz)


def ensure_rate(buf: AudioBuffer) -> AudioBuffer:
    """Return `buf` unchanged if already at PIPELINE_RATE_HZ, else resample to it."""
    return buf if buf.sample_rate_hz == PIPELINE_RATE_HZ else resample(buf, PIPELINE_RATE_HZ)


def require_pipeline_rate(buf: AudioBuffer) -> None:
    """Raise ValueError unless buf is at PIPELINE_RATE_HZ."""
    if buf.sample_rate_hz != PIPELINE_RATE_HZ:
        raise ValueError(f"expected {PIPELINE_RATE_HZ} Hz audio, got {buf.sample_rate_hz} Hz: "
                         "convert it with audio_io.ensure_rate first")


def require_pipeline_audio(buf: AudioBuffer) -> None:
    """Raise ValueError unless buf is at PIPELINE_RATE_HZ, with finite
    samples of magnitude at most MAX_SAMPLE_MAGNITUDE."""
    require_pipeline_rate(buf)
    x = buf.samples
    # Extremes within the bound clear every sample (NaN fails both tests);
    # only a clip that fails is looked at sample by sample. Not np.dot: on a
    # clip that is a threaded BLAS call, whose threads contend with the
    # chunk pool's for the CPUs.
    if -MAX_SAMPLE_MAGNITUDE <= x.min(initial=0.0) and x.max(initial=0.0) <= MAX_SAMPLE_MAGNITUDE:
        return
    if not np.isfinite(x).all():
        raise ValueError("audio samples must be finite")
    peak = np.abs(x).max()
    if peak > MAX_SAMPLE_MAGNITUDE:
        raise ValueError(f"audio samples must have magnitude at most {MAX_SAMPLE_MAGNITUDE:g}, "
                         f"got {float(peak)}")
