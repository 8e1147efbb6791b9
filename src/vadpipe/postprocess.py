"""Sliding-window majority voting over per-segment labels.

A window of W consecutive segment labels is speech when the vote count
reaches the quorum; the clip is speech when any window is. The default
quorum requires strictly more than half the votes (3 of 4 for W=4). Every
vote comes from one kernel, `window_statistics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dsp


def default_quorum(window_w: int) -> int:
    """Votes needed for 'more than half': ceil(W/2) + 1, capped at W."""
    return min(math.ceil(window_w / 2) + 1, window_w)


@dataclass(frozen=True)
class VoteConfig:
    window_w: int = 4
    quorum: int | None = None  # None selects default_quorum(window_w)

    def __post_init__(self):
        if self.window_w < 1:
            raise ValueError(f"window_w must be >= 1, got {self.window_w}")
        q = self.effective_quorum
        if not 1 <= q <= self.window_w:
            raise ValueError(f"quorum must be in [1, {self.window_w}], got {q}")

    @property
    def effective_quorum(self) -> int:
        return self.quorum if self.quorum is not None else default_quorum(self.window_w)


@dataclass(frozen=True)
class VadDecision:
    """Per-segment labels, per-window vote results, and the final clip label."""

    per_segment: tuple[int, ...]
    per_window: tuple[int, ...]
    final: int


def _window_and_quorum(t: int, cfg: VoteConfig) -> tuple[int, int]:
    """(window, quorum) of the vote over t labels: the configured pair when
    t >= W, else one window of all t labels with the quorum scaled
    proportionally (never below one vote)."""
    if t >= cfg.window_w:
        return cfg.window_w, cfg.effective_quorum
    return t, max(1, math.ceil(cfg.effective_quorum * t / cfg.window_w))


def window_statistics(values: Sequence[float], cfg: VoteConfig) -> np.ndarray:
    """Each window's quorum-th-largest value (see _window_and_quorum): the
    window's labels (v >= t) reach the quorum exactly when it is >= t."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0 or np.isnan(values).any():
        raise ValueError("nothing to vote over: no labels, or a NaN value")
    w, quorum = _window_and_quorum(len(values), cfg)
    return np.partition(dsp.frame_view(values, w, 1), w - quorum, axis=1)[:, w - quorum]


def vote_windows(labels: Sequence[int], cfg: VoteConfig) -> list[int]:
    """Vote over every length-W window (stride 1). Requires T >= W.

    Inputs shorter than one window are the caller's problem; see
    vote_with_fallback for the short-clip policy.
    """
    if len(labels) < cfg.window_w:
        raise ValueError(f"need at least {cfg.window_w} labels, got {len(labels)}")
    return vote_with_fallback(labels, cfg)


def vote_with_fallback(labels: Sequence[int], cfg: VoteConfig) -> list[int]:
    """vote_windows, degrading to one whole-input window when T < W."""
    return (window_statistics(labels, cfg) >= 1).astype(int).tolist()


def final_decision(window_labels: Sequence[int]) -> int:
    """Speech if any window voted speech."""
    if len(window_labels) == 0:
        raise ValueError("no window labels to decide over")
    return int(max(window_labels))
