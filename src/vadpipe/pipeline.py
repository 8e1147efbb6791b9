"""End-to-end detection: segment, preprocess, score, aggregate, vote.

Three named configurations cover the evaluation settings: `baseline` makes
one decision over the whole clip, `vad1` adds per-segment decisions with
sliding-window voting, and `vad2` additionally runs the noise-removal
preprocessing on every segment. A clip's segments travel as one zero-padded
(T, seg_len) array through pre-processing and scoring; the results are the
same as running each segment on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .audio_io import AudioBuffer
from .aggregate import SegmentScore, decide_segment
from .postprocess import VadDecision, VoteConfig, final_decision, vote_with_fallback
# preprocess_segment is unused here but kept importable from this module:
# perfbench/tracing.py wraps each stage function in this namespace.
from .preprocess import (PreprocessConfig, clip_noise_profile, preprocess_rows,  # noqa: F401
                         preprocess_segment)
from .scorer import FrameScoreMatrix, ReferenceScorer, slice_scores

MODES = ("baseline", "vad1", "vad2")
SCORER_BACKENDS = ("reference", "score-file")
# Segments run through pre-processing and scoring this many rows at a time.
# Rows are independent, so the block size changes no result. At 8 rows each
# stage's temporaries stay near 1 MB and the allocator reuses them from block
# to block; whole-clip temporaries (~5 MB each for 40 rows) are mapped and
# page-faulted afresh on every call, which measured ~20 % slower for vad2
# (42 vs 34 ms per 8 s clip, median, 2-vCPU Xeon VM).
ROW_BLOCK = 8


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = "baseline"
    segment_ms: float = 200.0
    thresh: float = 50.0
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    vote: VoteConfig = field(default_factory=VoteConfig)
    scorer_backend: str = "reference"
    bands: int = 32
    frame_ms: float = 25.0
    hop_ms: float = 10.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.scorer_backend not in SCORER_BACKENDS:
            raise ValueError(f"unknown scorer backend {self.scorer_backend!r}")
        if self.segment_ms <= 0:
            raise ValueError(f"segment_ms must be positive, got {self.segment_ms}")

    @property
    def preprocess_enabled(self) -> bool:
        return self.mode == "vad2"

    @property
    def vote_enabled(self) -> bool:
        return self.mode != "baseline"

    def with_mode(self, mode: str) -> "PipelineConfig":
        return replace(self, mode=mode)

    def make_scorer(self) -> ReferenceScorer:
        return ReferenceScorer(bands=self.bands, frame_ms=self.frame_ms,
                               hop_ms=self.hop_ms)


@dataclass(frozen=True)
class PipelineResult:
    decision: VadDecision
    segment_scores: tuple[SegmentScore, ...]

    @property
    def segment_values(self) -> list[float]:
        return [s.value for s in self.segment_scores]


def segment_rows(buf: AudioBuffer, segment_ms: float) -> np.ndarray:
    """Non-overlapping segments as the rows of a (T, seg_len) array, the
    last one zero-padded."""
    if len(buf) == 0:
        raise ValueError("cannot segment an empty buffer")
    seg_len = int(round(buf.sample_rate_hz * segment_ms / 1000.0))
    rows = np.zeros((math.ceil(len(buf) / seg_len), seg_len))
    rows.reshape(-1)[: len(buf)] = buf.samples
    return rows


def segment(buf: AudioBuffer, segment_ms: float) -> list[AudioBuffer]:
    """Split into non-overlapping segments, zero-padding the last one."""
    return [AudioBuffer(row, buf.sample_rate_hz) for row in segment_rows(buf, segment_ms)]


def _decide(labels: list[int], scores: list[SegmentScore],
            cfg: PipelineConfig) -> PipelineResult:
    windows = vote_with_fallback(labels, cfg.vote)
    decision = VadDecision(tuple(labels), tuple(windows), final_decision(windows))
    return PipelineResult(decision, tuple(scores))


def run_pipeline(buf: AudioBuffer, cfg: PipelineConfig,
                 scorer: ReferenceScorer | None = None) -> PipelineResult:
    """Detect speech in one clip (expected to be at the pipeline rate)."""
    scorer = scorer or cfg.make_scorer()
    if not cfg.vote_enabled:
        ss = decide_segment(scorer.score(buf), cfg.thresh)
        decision = VadDecision((ss.label,), (ss.label,), ss.label)
        return PipelineResult(decision, (ss,))

    rows = segment_rows(buf, cfg.segment_ms)
    if cfg.preprocess_enabled:
        noise = clip_noise_profile(buf, cfg.preprocess)
    scores = []
    for start in range(0, len(rows), ROW_BLOCK):
        block = rows[start:start + ROW_BLOCK]
        if cfg.preprocess_enabled:
            block = preprocess_rows(block, buf.sample_rate_hz, cfg.preprocess, noise)
        scores.extend(decide_segment(FrameScoreMatrix(m, scorer.hop_ms), cfg.thresh)
                      for m in scorer.score_rows(block, buf.sample_rate_hz))
    return _decide([s.label for s in scores], scores, cfg)


def run_pipeline_on_scores(matrix: FrameScoreMatrix,
                           cfg: PipelineConfig) -> PipelineResult:
    """Detect speech from an externally computed score matrix.

    Preprocessing does not apply here; the scores are already fixed. Segments
    map onto row spans of the matrix using its frame duration.
    """
    if not cfg.vote_enabled:
        ss = decide_segment(matrix, cfg.thresh)
        decision = VadDecision((ss.label,), (ss.label,), ss.label)
        return PipelineResult(decision, (ss,))

    total_ms = matrix.num_frames * matrix.frame_duration_ms
    count = max(1, math.ceil(total_ms / cfg.segment_ms))
    scores = []
    for t in range(count):
        part = slice_scores(matrix, t * cfg.segment_ms, (t + 1) * cfg.segment_ms)
        scores.append(decide_segment(part, cfg.thresh))
    return _decide([s.label for s in scores], scores, cfg)
