"""Frame-level speech scorers.

Two interchangeable score sources feed the aggregation stage: a built-in
reference scorer (mel-band log-energy excess over a per-band noise floor)
and a text score-file backend for scores computed by an external model.
Scores are nonnegative per frame and channel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import AudioBuffer
from . import dsp

_LOG_FLOOR = 1e-10
NOISE_FLOOR_PERCENTILE = 10.0


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
        if np.any(scores < 0):
            raise ValueError("scores must be nonnegative")
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
    fft_len: int = 512

    def score(self, seg: AudioBuffer) -> FrameScoreMatrix:
        return FrameScoreMatrix(self.score_rows(seg.samples[None], seg.sample_rate_hz)[0],
                                self.hop_ms)

    def score_rows(self, rows: np.ndarray, sample_rate_hz: int) -> np.ndarray:
        """Scores of every row of a (T, n) array: (T, frames, bands).

        Each row gets its own noise floor, exactly as if scored alone.
        """
        frame_len = int(round(sample_rate_hz * self.frame_ms / 1000.0))
        hop = int(round(sample_rate_hz * self.hop_ms / 1000.0))
        frames = dsp.frame_rows(rows, frame_len, hop)
        spectra = np.fft.rfft(frames * np.hanning(frame_len), n=self.fft_len, axis=-1)
        power = np.abs(spectra)
        np.square(power, out=power)
        fb = mel_filterbank(self.bands, self.fft_len, sample_rate_hz)
        log_energy = np.log(power @ fb.T + _LOG_FLOOR)
        floor = np.percentile(log_energy, NOISE_FLOOR_PERCENTILE, axis=-2, keepdims=True)
        return np.maximum(log_energy - floor, 0.0)


def load_scores(path: str | Path) -> FrameScoreMatrix:
    """Parse the text score-file format.

    Layout: a header line `#channels=C frame_ms=M`, then one row per frame:
    `frame_index score_1 ... score_C`, indices consecutive from 1.
    """
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
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
