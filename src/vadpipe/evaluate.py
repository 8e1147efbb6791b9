"""Metrics and the batch evaluation harness.

Accuracy is reported per class (clean speech / noisy speech / non-speech).
For ROC analysis, both speech classes collapse into one positive class and
the sweep runs over a continuous per-clip statistic: the whole-clip
aggregate for the baseline, or the best sliding-window mean of segment
scores for the voting modes.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .audio_io import ensure_rate, read_wav
from .pipeline import PipelineConfig, run_pipeline
from .synth import Manifest

SPEECH_LABELS = ("clean_speech", "noisy_speech")
CLASS_ORDER = ("non_speech", "clean_speech", "noisy_speech")
_CLASS_TITLES = {"non_speech": "Non-Speech", "clean_speech": "Clean Speech",
                 "noisy_speech": "Noisy Speech"}


@dataclass(frozen=True)
class RocCurve:
    """Operating points ordered by descending threshold, plus trapezoid AUC."""

    points: tuple[tuple[float, float, float], ...]  # (threshold, tpr, fpr)
    auc: float


@dataclass(frozen=True)
class EvalReport:
    mode: str
    per_class_accuracy: dict[str, float]
    roc: RocCurve | None
    fpr_at_tpr: dict[float, float]
    num_clips: int
    errors: tuple[str, ...]


def class_accuracy(decisions: Sequence[tuple[int, str]]) -> dict[str, float]:
    """Fraction correct per class; speech classes expect 1, non-speech 0."""
    totals: dict[str, int] = {}
    correct: dict[str, int] = {}
    for final, true_class in decisions:
        expected = 1 if true_class in SPEECH_LABELS else 0
        totals[true_class] = totals.get(true_class, 0) + 1
        correct[true_class] = correct.get(true_class, 0) + int(final == expected)
    return {cls: correct[cls] / totals[cls] for cls in totals}


def roc_sweep(clip_scores: Sequence[tuple[float, int]],
              num_thresholds: int | None = None) -> RocCurve:
    """ROC over all distinct score thresholds (boundary-inclusive >= rule).

    num_thresholds, when given, subsamples the distinct scores evenly to cap
    the curve size; None keeps the exact curve.
    """
    scores = np.array([s for s, _ in clip_scores], dtype=np.float64)
    truths = np.array([t for _, t in clip_scores], dtype=np.int64)
    n_pos = int(truths.sum())
    n_neg = len(truths) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs both speech and non-speech clips")

    thresholds = np.unique(scores)[::-1]
    if num_thresholds is not None and 0 < num_thresholds < len(thresholds):
        idx = np.unique(np.linspace(0, len(thresholds) - 1, num_thresholds).round().astype(int))
        thresholds = thresholds[idx]

    points = [(math.inf, 0.0, 0.0)]
    for th in thresholds:
        predicted = scores >= th
        tpr = float(np.sum(predicted & (truths == 1))) / n_pos
        fpr = float(np.sum(predicted & (truths == 0))) / n_neg
        points.append((float(th), tpr, fpr))
    points.append((-math.inf, 1.0, 1.0))

    auc = 0.0
    for (_, tpr0, fpr0), (_, tpr1, fpr1) in zip(points, points[1:]):
        auc += (fpr1 - fpr0) * (tpr1 + tpr0) / 2.0
    return RocCurve(tuple(points), auc)


def fpr_at_tpr(curve: RocCurve, target_tpr: float) -> float:
    """Smallest FPR reaching the target TPR, interpolating between points."""
    if target_tpr > 1.0:
        raise ValueError(f"target_tpr must be <= 1, got {target_tpr}")
    if target_tpr <= 0.0:
        return 0.0
    prev_tpr, prev_fpr = 0.0, 0.0
    for _, tpr, fpr in curve.points:
        if tpr >= target_tpr:
            if tpr == prev_tpr:
                return fpr
            frac = (target_tpr - prev_tpr) / (tpr - prev_tpr)
            return prev_fpr + frac * (fpr - prev_fpr)
        prev_tpr, prev_fpr = tpr, fpr
    return 1.0


def clip_statistic(segment_values: Sequence[float], cfg: PipelineConfig) -> float:
    """Continuous per-clip score the ROC threshold sweeps over.

    For the voting modes this is the best quorum-th-largest segment score
    over all windows, which is exactly the statistic the vote thresholds:
    the pipeline's final label at threshold t equals (statistic >= t) for
    every t. A windowed mean would instead credit operating points a
    majority vote can never reach (one loud segment lifting a window).
    """
    if not cfg.vote_enabled:
        return segment_values[0]
    w = cfg.vote.window_w
    q = cfg.vote.effective_quorum
    if len(segment_values) < w:
        q = max(1, math.ceil(q * len(segment_values) / w))
        return sorted(segment_values)[-q]
    return max(sorted(segment_values[t:t + w])[-q]
               for t in range(len(segment_values) - w + 1))


def _evaluate_clip(task: tuple[str, Sequence[PipelineConfig]]) -> list[tuple]:
    """Worker: decode one clip once and run every config on it.

    Returns one outcome per config, ('ok', values, final) or ('error', msg,
    None). Any exception becomes that clip's error, so one bad clip cannot
    abort the whole evaluation.
    """
    path, cfgs = task
    try:
        buf = ensure_rate(read_wav(path))
    except Exception as exc:
        return [_clip_error(path, exc)] * len(cfgs)
    outcomes = []
    for cfg in cfgs:
        try:
            result = run_pipeline(buf, cfg)
            outcomes.append(("ok", result.segment_values, result.decision.final))
        except Exception as exc:
            outcomes.append(_clip_error(path, exc))
    return outcomes


def _clip_error(path: str, exc: Exception) -> tuple:
    return ("error", f"{path}: {type(exc).__name__}: {exc}", None)


def run_eval(manifest: Manifest, configs: Sequence[PipelineConfig],
             out_dir: str | Path | None = None, jobs: int = 1,
             tpr_targets: Sequence[float] = (0.99,)) -> list[EvalReport]:
    """Score every manifest clip under every config and assemble reports.

    Each clip is decoded once and scored under every config, in one task;
    with jobs > 1 one process pool serves the whole evaluation. The ROC
    sweep reuses the cached per-clip statistics. Output ordering and file
    bytes are independent of the worker count.
    """
    if not manifest.entries:
        raise ValueError("manifest has no entries")
    configs = list(configs)
    tasks = [(str(manifest.resolve(e)), configs) for e in manifest.entries]
    if jobs == 1:
        per_clip = [_evaluate_clip(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_clip = list(pool.map(_evaluate_clip, tasks, chunksize=8))

    reports = []
    for i, cfg in enumerate(configs):
        decisions = []
        stats = []
        errors = []
        for entry, outcomes in zip(manifest.entries, per_clip):
            status, payload, final = outcomes[i]
            if status == "error":
                errors.append(payload)
                continue
            decisions.append((final, entry.label))
            truth = 1 if entry.label in SPEECH_LABELS else 0
            stats.append((clip_statistic(payload, cfg), truth))

        accuracy = class_accuracy(decisions) if decisions else {}
        truths = {t for _, t in stats}
        roc = roc_sweep(stats) if truths == {0, 1} else None
        readouts = {t: fpr_at_tpr(roc, t) for t in tpr_targets} if roc else {}
        reports.append(EvalReport(cfg.mode, accuracy, roc, readouts,
                                  len(decisions), tuple(errors)))

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "accuracy.md").write_text(accuracy_table_markdown(reports))
        for report in reports:
            if report.roc is not None:
                write_roc_csv(report.roc, out / f"roc_{report.mode}.csv")
    return reports


def accuracy_table_markdown(reports: Sequence[EvalReport]) -> str:
    """Per-class accuracy table, one column per evaluated mode."""
    header = "| Type | " + " | ".join(r.mode for r in reports) + " |"
    rule = "|---" * (len(reports) + 1) + "|"
    lines = [header, rule]
    for cls in CLASS_ORDER:
        if not any(cls in r.per_class_accuracy for r in reports):
            continue
        cells = []
        for r in reports:
            acc = r.per_class_accuracy.get(cls)
            cells.append("n/a" if acc is None else f"{100.0 * acc:.1f}%")
        lines.append(f"| {_CLASS_TITLES[cls]} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def write_roc_csv(curve: RocCurve, path: str | Path) -> None:
    lines = ["threshold,tpr,fpr"]
    for threshold, tpr, fpr in curve.points:
        lines.append(f"{threshold:.9g},{tpr:.6f},{fpr:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")
