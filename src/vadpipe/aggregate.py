"""Reduce a frame-score matrix to one scalar and one binary label.

The aggregate is the mean over frames of the per-frame channel sums,
computed with exact summation so results do not depend on platform
reduction order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scorer import FrameScoreMatrix


@dataclass(frozen=True)
class SegmentScore:
    """Aggregate score, the threshold it was compared against, and the label."""

    value: float
    label: int
    threshold_used: float


def aggregate_score(m: FrameScoreMatrix) -> float:
    """Mean over frames of the summed channel scores (division by D only)."""
    per_frame = [math.fsum(row) for row in m.scores.tolist()]
    return math.fsum(per_frame) / m.num_frames


def decide_segment(m: FrameScoreMatrix, thresh: float) -> SegmentScore:
    """Label 1 exactly when the aggregate reaches the threshold (inclusive)."""
    value = aggregate_score(m)
    return SegmentScore(value, int(value >= thresh), thresh)
