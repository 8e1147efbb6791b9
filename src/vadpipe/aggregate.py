"""Reduce a frame-score matrix to one scalar and one binary label.

The aggregate is the mean over frames of the per-frame channel sums, each
sum correctly rounded, as `math.fsum` gives it, so results do not depend on
platform reduction order. `segment_values` computes them for a whole block
of segments at once in numpy: an error-free split of every term (Rump,
Ogita & Oishi 2008, "Accurate floating-point summation part I") and one
TwoSum (Knuth) give each sum as a double-double `hi + lo`, whose rounding is
the correctly rounded sum unless the sum lies within the double-double's
error bound of a rounding tie. Those few sums, mostly exact half-ulp ties,
are recomputed with `math.fsum`. A zero sum needs no `fsum`: nonnegative
terms add up to 0 only if every term is 0, and 0 is then the exact sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scorer import FrameScoreMatrix

# A double's exponent field, and one more than it: the power of two above x
# is ((x's bits & _EXPONENT_BITS) + _NEXT_BINADE) read back as a double.
_EXPONENT_BITS = np.int64(0x7FF0000000000000)
_NEXT_BINADE = np.int64(1 << 52)


@dataclass(frozen=True)
class SegmentScore:
    """Aggregate score, the threshold it was compared against, and the label."""

    value: float
    label: int
    threshold_used: float


def _exact_sums(x: np.ndarray) -> np.ndarray:
    """Correctly rounded sums over the last axis of a nonnegative array,
    each equal to math.fsum of its terms."""
    n = x.shape[-1]
    rows = x.reshape(-1, n)
    with np.errstate(over="ignore", invalid="ignore"):   # inf and NaN sums go to fsum
        total, exact = _double_double_sums(rows.T.copy())
    for i in np.flatnonzero(~exact).tolist():
        total[i] = math.fsum(rows[i].tolist())
    return total.reshape(x.shape[:-1])


def _double_double_sums(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums along axis 0 of nonnegative (n, sums) terms, which it overwrites,
    and a mask of the sums known to be correctly rounded."""
    n = len(terms)
    # Split each term p exactly into q + r: q = (sigma + p) - sigma is a
    # multiple of 2^-52 sigma, where sigma is a power of two above n + 2 times
    # the sum, so the q add up with no rounding in any order, and
    # |r| <= 2^-53 sigma (Rump, Ogita & Oishi 2008, ExtractVector).
    scaled = terms.sum(axis=0) * (n + 2)
    sigma = ((scaled.view(np.int64) & _EXPONENT_BITS) + _NEXT_BINADE).view(np.float64)
    q = terms + sigma
    q -= sigma
    terms -= q
    hi, lo = q.sum(axis=0), terms.sum(axis=0)
    total = hi + lo                    # TwoSum: total + residual = hi + lo exactly
    bv = total - hi
    residual = (hi - (total - bv)) + (lo - bv)
    # lo differs from the exact sum of the r by at most ~2 n^2 (n + 2) u^2
    # times the sum (u = 2^-53); the bound below is over 10x that. The sum
    # rounds to total when hi + lo and the true sum lie on the same side of
    # every rounding tie; non-finite and tie-near sums fail this test and go
    # to math.fsum. A zero sum fails it too, but is exact: the terms are
    # nonnegative, so their plain sum is 0 only if each term is, and then
    # q, r, hi, lo and total are all +0.0, the sum math.fsum gives.
    bound = total * (n ** 3 * 2.0 ** -100)
    half_gap = (total - np.nextafter(total, 0.0)) / 2
    return total, ((np.abs(residual) + bound < half_gap) & (scaled < np.inf)) | (scaled == 0)


def segment_values(scores: np.ndarray, frames: np.ndarray | None = None) -> np.ndarray:
    """Aggregates of a (..., frames, channels) score block: for each segment,
    the correctly rounded sum over frames of the correctly rounded channel
    sums, divided by the frame count. frames, when given, holds each
    segment's own frame count; its rows past that are zeros, which leave the
    sums unchanged."""
    if not np.all(scores >= 0):
        raise ValueError("scores must be nonnegative, not NaN")
    return _exact_sums(_exact_sums(scores)) / (scores.shape[-2] if frames is None else frames)


def aggregate_score(m: FrameScoreMatrix) -> float:
    """Mean over frames of the summed channel scores (division by D only)."""
    return float(segment_values(m.scores))


def decide_segment(m: FrameScoreMatrix | None, thresh: float,
                   value: float | None = None) -> SegmentScore:
    """Label 1 exactly when the aggregate reaches the threshold (inclusive).

    value, when given, is m's aggregate already computed by segment_values,
    and m may then be None.
    """
    if value is None:
        if m is None:
            raise TypeError("decide_segment needs a score matrix or a value")
        value = aggregate_score(m)
    if math.isnan(value):
        raise ValueError("segment value must not be NaN")
    return SegmentScore(value, int(value >= thresh), thresh)
