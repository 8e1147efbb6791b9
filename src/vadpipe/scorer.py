"""Frame-level speech scorers.

Two interchangeable score sources feed the aggregation stage: a built-in
reference scorer (mel-band log-energy excess over a per-band noise floor)
and a text score-file backend for scores computed by an external model.
Scores are nonnegative per frame and channel.

The reference scorer gives a frame of digital silence (every sample +0.0 or
-0.0) the power +0.0 in every bin without windowing or transforming it
(dsp.silent_frames, dsp.spread). It looks for such frames only in a single
row of at least 2 * MIN_CHUNK_FRAMES frames, such as the baseline's whole
clip.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import PIPELINE_RATE_HZ, AudioBuffer, require_pipeline_audio
from .preprocess import require_finite
from . import dsp, parallel

_LOG_FLOOR = 1e-10
# Each band's noise floor is this percentile of its log energies over a
# row's frames, by numpy's 'linear' method (see _noise_floor).
NOISE_FLOOR_PERCENTILE = 10.0
# The scorer's FFT length: the smallest power of two that holds a whole
# frame, and at least this many points (a 25 ms frame at 16 kHz is 400).
MIN_FFT_LEN = 512
# The longest frame a scorer may ask for. Each frame is transformed whole, so
# memory grows with it: a one-second frame at 16 kHz takes 16,384 points.
MAX_FRAME_MS = 1000.0
# The most mel bands a scorer may ask for: more leave some band with no FFT
# bin at the pipeline rate and MIN_FFT_LEN points (longer frames add bins).
MAX_BANDS = 114
# ReferenceScorer.score_rows splits its rows' frames across threads only in
# chunks of at least this many: below ~100 frames per chunk the hand-off
# costs more than the second CPU saves (2-vCPU Xeon VM: 200 frames 0.99 ->
# 0.81 ms, 100 frames 0.51 -> 0.54 ms, 25 frames 0.12 -> 0.23 ms, medians).
MIN_CHUNK_FRAMES = 100


class ScoreFormatError(ValueError):
    """Score file is structurally malformed."""


class ScoreDomainError(ValueError):
    """Score file parses, but holds out-of-domain values."""


@dataclass(frozen=True)
class FrameScoreMatrix:
    """Nonnegative scores, one row per time frame and one column per channel.

    frame_duration_ms is the stride between rows, so row r covers
    [r * frame_duration_ms, (r + 1) * frame_duration_ms).
    """

    scores: np.ndarray
    frame_duration_ms: float

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 2 or scores.shape[0] < 1 or scores.shape[1] < 1:
            raise ValueError(f"scores must be a non-empty 2-D array, got {scores.shape}")
        if not np.all(scores >= 0):
            raise ValueError("scores must be nonnegative, not NaN")
        if self.frame_duration_ms <= 0:
            raise ValueError("frame_duration_ms must be positive")
        object.__setattr__(self, "scores", scores)

    @property
    def num_frames(self) -> int:
        return self.scores.shape[0]

    @property
    def num_channels(self) -> int:
        return self.scores.shape[1]


@functools.lru_cache(maxsize=16)
def mel_filterbank(num_bands: int, fft_len: int, sample_rate_hz: int) -> np.ndarray:
    """Triangular mel-spaced filters over the one-sided FFT bins.

    Built once per argument triple; the shared array is read-only.
    """
    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    nyquist = sample_rate_hz / 2.0
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), num_bands + 2))
    bin_freqs = np.arange(fft_len // 2 + 1) * sample_rate_hz / fft_len
    weights = np.zeros((num_bands, fft_len // 2 + 1))
    for b in range(num_bands):
        lo, mid, hi = edges_hz[b], edges_hz[b + 1], edges_hz[b + 2]
        up = (bin_freqs - lo) / max(mid - lo, 1e-9)
        down = (hi - bin_freqs) / max(hi - mid, 1e-9)
        weights[b] = np.clip(np.minimum(up, down), 0.0, None)
    weights.setflags(write=False)
    return weights


@dataclass(frozen=True)
class ReferenceScorer:
    """Deterministic stand-in for a model scorer.

    Per frame and mel band, the score is the log band energy in excess of
    that band's noise floor (a low percentile over the scored buffer), so
    steady backgrounds score near zero and modulated tonal content stands out.
    """

    bands: int = 32
    frame_ms: float = 25.0
    hop_ms: float = 10.0

    def __post_init__(self):
        require_finite(self, ("frame_ms", "hop_ms"), positive=True)
        if self.frame_ms > MAX_FRAME_MS:
            raise ValueError(f"frame_ms must be at most {MAX_FRAME_MS:g}, got {self.frame_ms:g}")
        if self.hop_ms > self.frame_ms:
            raise ValueError(f"hop_ms must not exceed frame_ms: {self.hop_ms} > {self.frame_ms}")
        if self.bands < 1:
            raise ValueError(f"bands must be >= 1, got {self.bands}")
        if self.bands > MAX_BANDS:
            raise ValueError(f"bands must be at most {MAX_BANDS}, got {self.bands}")
        # hop_ms <= frame_ms, so a hop of at least one sample means a frame
        # of at least one too.
        if self._geometry()[1] < 1:
            raise ValueError(f"hop_ms: a {self.hop_ms:g} ms hop at {PIPELINE_RATE_HZ} Hz "
                             "holds no whole sample")

    def _geometry(self) -> tuple[int, int, int]:
        """(frame_len, hop, fft_len) in samples at the pipeline rate."""
        frame_len = int(round(PIPELINE_RATE_HZ * self.frame_ms / 1000.0))
        return (frame_len, int(round(PIPELINE_RATE_HZ * self.hop_ms / 1000.0)),
                max(MIN_FFT_LEN, 1 << (frame_len - 1).bit_length()))

    def filterbank(self) -> np.ndarray:
        """This scorer's mel filterbank (see mel_filterbank)."""
        return mel_filterbank(self.bands, self._geometry()[2], PIPELINE_RATE_HZ)

    def score(self, seg: AudioBuffer) -> FrameScoreMatrix:
        """Scores of one whole buffer: score_rows' one-row case."""
        require_pipeline_audio(seg)
        return FrameScoreMatrix(self.score_rows(seg.samples[None])[0], self.hop_ms)

    def score_rows(self, rows: np.ndarray, filterbank: np.ndarray | None = None) -> np.ndarray:
        """Scores of every row of a (T, n) array: (T, frames, bands).

        Each row gets its own noise floor, exactly as if scored alone: each
        band's NOISE_FLOOR_PERCENTILE-th percentile of log energy over the
        row's frames, selected by sorting a band-major copy (_noise_floor).
        filterbank is this scorer's, when the caller has looked it up already.
        Rows of at least 2 * MIN_CHUNK_FRAMES frames, such as the baseline's
        whole clip, are windowed, transformed and projected onto the mel
        bands as parallel chunks of frames (parallel.map_chunks); only the
        noise floor and the excess over it run over all frames at once. The
        projection of a frame does not depend on which other frames share
        its chunk, so neither does the result: test_parallel's
        test_whole_clip_score_is_bit_for_bit_at_any_thread_count holds it
        to that.

        A single such row also finds its frames of digital silence on the
        calling thread (dsp.silent_frames). Each chunk transforms only its
        other frames, as one compacted batch, and dsp.spread gives the
        silent ones the power +0.0; the projection still runs over whole
        chunks, with the same bits (see dsp.spread).
        """
        frame_len, hop, fft_len = self._geometry()
        if filterbank is None:
            filterbank = self.filterbank()
        frames = dsp.frame_rows(rows, frame_len, hop, key="score_rows.grid")
        log_energy = dsp.scratch("score_rows.log_energy",
                                 frames.shape[:-1] + (filterbank.shape[0],))
        silent = None
        if len(rows) == 1 and frames.shape[1] >= 2 * MIN_CHUNK_FRAMES:
            silent = dsp.silent_frames(frames)

        def chunk(start, stop):
            part = frames[:, start:stop]
            quiet = None if silent is None else silent[:, start:stop]
            spectra = dsp.rfft_frames(part if quiet is None else part[~quiet], fft_len,
                                      _hanning(frame_len), key="score.spectra")
            power = np.abs(spectra, out=dsp.scratch("score_rows.power", spectra.shape))
            np.square(power, out=power)
            power = dsp.spread(power, quiet, "score_rows.power_grid")
            np.log(power @ filterbank.T + _LOG_FLOOR, out=log_energy[:, start:stop])

        parallel.map_chunks(chunk, frames.shape[1], MIN_CHUNK_FRAMES)
        return np.maximum(log_energy - _noise_floor(log_energy), 0.0)


def _noise_floor(log_energy: np.ndarray) -> np.ndarray:
    """np.percentile(log_energy, NOISE_FLOOR_PERCENTILE, axis=-2, keepdims=True),
    bit for bit on finite input without -0.0, at about a quarter of its cost:
    numpy's SIMD sort of a contiguous band-major copy, then the two order
    statistics of numpy's 'linear' method, interpolated as its _lerp does."""
    ordered = np.swapaxes(log_energy, -1, -2).copy()
    ordered.sort(axis=-1)
    n = ordered.shape[-1]
    index = (n - 1) * (NOISE_FLOOR_PERCENTILE / 100)
    lo = math.floor(index)
    gamma = index - lo
    a, b = ordered[..., lo], ordered[..., min(lo + 1, n - 1)]
    floor = b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma
    return floor[..., None, :]


@functools.lru_cache(maxsize=16)
def _hanning(length: int) -> np.ndarray:
    win = np.hanning(length)
    win.setflags(write=False)
    return win


def load_scores(path: str | Path) -> FrameScoreMatrix:
    """Parse the text score-file format.

    Layout: a header line `#channels=C frame_ms=M`, then one row per frame:
    `frame_index score_1 ... score_C`, indices consecutive from 1.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ScoreFormatError(f"{path}: not a text file ({exc.reason})") from exc
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ScoreFormatError(f"{path}: empty score file")
    header = lines[0]
    if not header.startswith("#"):
        raise ScoreFormatError(f"{path}: missing #channels/frame_ms header")
    fields = dict(part.split("=", 1) for part in header.lstrip("#").split() if "=" in part)
    try:
        channels = int(fields["channels"])
        frame_ms = float(fields["frame_ms"])
    except (KeyError, ValueError) as exc:
        raise ScoreFormatError(f"{path}: bad header {header!r}") from exc
    if channels < 1 or not (math.isfinite(frame_ms) and frame_ms > 0):
        raise ScoreFormatError(
            f"{path}: header needs channels >= 1 and a finite positive frame_ms: {header!r}")

    if len(lines) == 1:
        raise ScoreFormatError(f"{path}: no score rows")
    rows = []
    for lineno, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if len(parts) != channels + 1:
            raise ScoreFormatError(
                f"{path}: row {lineno} has {len(parts) - 1} scores, expected {channels}"
            )
        try:
            index = int(parts[0])
            values = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise ScoreFormatError(f"{path}: row {lineno} is not numeric") from exc
        if index != lineno:
            raise ScoreFormatError(f"{path}: frame index {index} out of order at row {lineno}")
        if any(v < 0 or not math.isfinite(v) for v in values):
            raise ScoreDomainError(f"{path}: negative or non-finite score at row {lineno}")
        rows.append(values)
    return FrameScoreMatrix(np.array(rows), frame_ms)


def write_scores(matrix: FrameScoreMatrix, path: str | Path) -> None:
    """Emit a matrix in the score-file format accepted by load_scores."""
    lines = [f"#channels={matrix.num_channels} frame_ms={matrix.frame_duration_ms:g}"]
    for i, row in enumerate(matrix.scores, start=1):
        lines.append(" ".join([str(i)] + [f"{v:.9g}" for v in row]))
    Path(path).write_text("\n".join(lines) + "\n")


def slice_scores(matrix: FrameScoreMatrix, start_ms: float, end_ms: float) -> FrameScoreMatrix:
    """Rows of a precomputed matrix covering [start_ms, end_ms).

    A span past the end of the matrix yields a single all-zero row, the
    score-domain equivalent of the zero-padding applied to audio segments.
    """
    first = int(round(start_ms / matrix.frame_duration_ms))
    last = int(round(end_ms / matrix.frame_duration_ms))
    rows = matrix.scores[first:max(last, first + 1)]
    if rows.shape[0] == 0:
        rows = np.zeros((1, matrix.num_channels))
    return FrameScoreMatrix(rows, matrix.frame_duration_ms)
