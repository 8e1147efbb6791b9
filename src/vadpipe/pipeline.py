"""End-to-end detection: segment, preprocess, score, aggregate, vote.

Three named configurations cover the evaluation settings: `baseline` makes
one decision over the whole clip, `vad1` adds per-segment decisions with
sliding-window voting, and `vad2` additionally runs the noise-removal
preprocessing on every segment. A clip's segments travel as one zero-padded
(T, seg_len) array through pre-processing and scoring, split into one
contiguous chunk of rows per CPU (`parallel.map_chunks`), and each chunk
also reduces its rows' scores to their segment values; the results are the
same as running each segment on its own, on any number of CPUs. The
baseline's clip is the one-row case, a (1, n) array; a row of at least
2 * scorer.MIN_CHUNK_FRAMES frames also splits its frames across CPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import parallel
from .audio_io import PIPELINE_RATE_HZ, AudioBuffer, require_pipeline_audio, require_pipeline_rate
from .aggregate import segment_values
from .postprocess import VadDecision, VoteConfig, window_statistics
from .preprocess import (PreprocessConfig, clip_noise_profile, preprocess_rows_scratch,
                         require_finite)
from .scorer import FrameScoreMatrix, ReferenceScorer, slice_scores
# Unused here but kept importable from this module, where perfbench/tracing.py's
# PATCHES wraps each of them; ROADMAP item 1 step B retires PATCHES and deletes them.
from .aggregate import decide_segment  # noqa: F401
from .postprocess import final_decision, vote_with_fallback  # noqa: F401
from .preprocess import preprocess_segment  # noqa: F401

MODES = ("baseline", "vad1", "vad2")
SCORER_BACKENDS = ("reference", "score-file")
# Each thread's chunk of rows runs through pre-processing and scoring at most
# this many rows at a time. Rows are independent, so the block size changes
# no result. It bounds each stage's temporaries to ~2.3 MB for 200 ms rows at
# 16 kHz, inside the per-thread scratch store (dsp.SCRATCH_LIMIT_BYTES), so
# they are reused rather than mapped afresh; an 8 s clip on two CPUs runs as
# one block per thread. Blocks of 8 rows measured 10-25 % slower per clip
# (more numpy calls for the same work, 2-vCPU Xeon VM).
ROW_BLOCK = 20
# The longest segment a config may ask for. A clip is zero-padded to whole
# segments, so memory grows with them: at 16 kHz a one-minute row is 7.7 MB.
MAX_SEGMENT_MS = 60_000.0


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = "baseline"
    segment_ms: float = 200.0
    thresh: float = 50.0
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    vote: VoteConfig = field(default_factory=VoteConfig)
    scorer_backend: str = "reference"
    scoring: ReferenceScorer = field(default_factory=ReferenceScorer)

    def __post_init__(self):
        require_finite(self, ("thresh",))
        require_finite(self, ("segment_ms",), positive=True)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.scorer_backend not in SCORER_BACKENDS:
            raise ValueError(f"unknown scorer backend {self.scorer_backend!r}")
        if self.segment_ms > MAX_SEGMENT_MS:
            raise ValueError(f"segment_ms must be at most {MAX_SEGMENT_MS:g}, "
                             f"got {self.segment_ms:g}")
        _segment_len(self.segment_ms)

    @property
    def preprocess_enabled(self) -> bool:
        return self.mode == "vad2"

    @property
    def vote_enabled(self) -> bool:
        return self.mode != "baseline"

    def with_mode(self, mode: str) -> "PipelineConfig":
        return replace(self, mode=mode)

    # Unused here but kept: perfbench/workloads.py calls it.
    def make_scorer(self) -> ReferenceScorer:
        return self.scoring


@dataclass(frozen=True)
class PipelineResult:
    decision: VadDecision
    segment_values: list[float]


def _segment_len(segment_ms: float) -> int:
    seg_len = int(round(PIPELINE_RATE_HZ * segment_ms / 1000.0))
    if seg_len < 1:
        raise ValueError(f"segment_ms: a {segment_ms:g} ms segment at {PIPELINE_RATE_HZ} Hz "
                         "holds no whole sample")
    return seg_len


def segment_rows(buf: AudioBuffer, segment_ms: float) -> np.ndarray:
    """Non-overlapping segments of pipeline audio as the rows of a
    (T, seg_len) array, the last one zero-padded. It checks the rate only,
    as run_pipeline has checked the samples."""
    require_pipeline_rate(buf)
    if len(buf) == 0:
        raise ValueError("cannot segment an empty buffer")
    seg_len = _segment_len(segment_ms)
    rows = np.zeros((math.ceil(len(buf) / seg_len), seg_len))
    rows.reshape(-1)[: len(buf)] = buf.samples
    return rows


def segment(buf: AudioBuffer, segment_ms: float) -> list[AudioBuffer]:
    """Split into non-overlapping segments, zero-padding the last one."""
    return [AudioBuffer(row, buf.sample_rate_hz) for row in segment_rows(buf, segment_ms)]


def _decide(values: np.ndarray, cfg: PipelineConfig) -> PipelineResult:
    """Segment values, and their window vote statistics, against the threshold."""
    labels = (values >= cfg.thresh).astype(int).tolist()
    windows = (window_statistics(values, cfg.vote) >= cfg.thresh).astype(int).tolist()
    return PipelineResult(VadDecision(tuple(labels), tuple(windows), max(windows)),
                          values.tolist())


def run_pipeline(buf: AudioBuffer, cfg: PipelineConfig) -> PipelineResult:
    """Detect speech in one clip of pipeline audio (see require_pipeline_audio);
    the baseline's one row is the whole clip, a segment that is its own vote."""
    require_pipeline_audio(buf)
    scorer = cfg.scoring
    rows = segment_rows(buf, cfg.segment_ms) if cfg.vote_enabled else buf.samples[None]
    # Looked up here: the chunks run on pool threads, which must not call
    # anything a caller may have wrapped.
    noise = clip_noise_profile(buf, cfg.preprocess) if cfg.preprocess_enabled else None
    filterbank = scorer.filterbank()

    def value_chunk(start: int, stop: int) -> list[np.ndarray]:
        values = []
        for lo in range(start, stop, ROW_BLOCK):
            block = rows[lo:min(lo + ROW_BLOCK, stop)]
            if noise is not None:
                block = preprocess_rows_scratch(block, cfg.preprocess, noise)
            values.append(segment_values(scorer.score_rows(block, filterbank)))
        return values

    return _decide(np.concatenate([v for chunk in parallel.map_chunks(value_chunk, len(rows))
                                   for v in chunk]), cfg)


def run_pipeline_on_scores(matrix: FrameScoreMatrix,
                           cfg: PipelineConfig) -> PipelineResult:
    """Detect speech from an externally computed score matrix.

    Preprocessing does not apply here; the scores are already fixed. Segments
    map onto row spans of the matrix using its frame duration (the
    baseline's one span is the whole matrix), and are aggregated as one
    block zero-padded to the longest span.
    """
    count = math.ceil(matrix.num_frames * matrix.frame_duration_ms / cfg.segment_ms)
    spans = ([slice_scores(matrix, t * cfg.segment_ms, (t + 1) * cfg.segment_ms).scores
              for t in range(max(1, count))] if cfg.vote_enabled else [matrix.scores])
    frames = np.array([len(s) for s in spans])
    block = np.zeros((len(spans), frames.max(), matrix.num_channels))
    for row, span in zip(block, spans):
        row[:len(span)] = span
    return _decide(segment_values(block, frames), cfg)
