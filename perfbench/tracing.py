"""Spans recorded from outside vadpipe, around calls into its public functions.

`instrument(tracer)` swaps each function named in PATCHES for a wrapper that
records a span, at the module attribute the caller looks it up through, and
puts the originals back on exit. Spans stay in memory until `write_spans`.
Nothing here is active in an untraced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name). A function imported into several modules is
# patched in each namespace its callers resolve it through.
PATCHES = (
    ("vadpipe.audio_io", "read_wav", "audio_io.read_wav"),
    ("vadpipe.evaluate", "read_wav", "audio_io.read_wav"),
    ("vadpipe.audio_io", "ensure_rate", "audio_io.ensure_rate"),
    ("vadpipe.evaluate", "ensure_rate", "audio_io.ensure_rate"),
    ("vadpipe.audio_io", "resample", "audio_io.resample"),
    ("vadpipe.synth", "write_wav", "audio_io.write_wav"),
    ("vadpipe.pipeline", "segment", "pipeline.segment"),
    ("vadpipe.pipeline", "clip_noise_profile", "preprocess.clip_noise_profile"),
    ("vadpipe.preprocess", "clip_noise_profile", "preprocess.clip_noise_profile"),
    ("vadpipe.pipeline", "preprocess_segment", "preprocess.preprocess_segment"),
    ("vadpipe.preprocess", "spectral_subtract", "preprocess.spectral_subtract"),
    ("vadpipe.preprocess", "energy_gate", "preprocess.energy_gate"),
    ("vadpipe.preprocess", "rms_normalize", "preprocess.rms_normalize"),
    ("vadpipe.scorer", "mel_filterbank", "scorer.mel_filterbank"),
    ("vadpipe.scorer", "load_scores", "scorer.load_scores"),
    ("vadpipe.scorer", "write_scores", "scorer.write_scores"),
    ("vadpipe.pipeline", "slice_scores", "scorer.slice_scores"),
    ("vadpipe.pipeline", "decide_segment", "aggregate.decide_segment"),
    ("vadpipe.aggregate", "decide_segment", "aggregate.decide_segment"),
    ("vadpipe.pipeline", "vote_with_fallback", "postprocess.vote_with_fallback"),
    ("vadpipe.postprocess", "vote_with_fallback", "postprocess.vote_with_fallback"),
    ("vadpipe.pipeline", "final_decision", "postprocess.final_decision"),
    ("vadpipe.postprocess", "final_decision", "postprocess.final_decision"),
    ("vadpipe.evaluate", "run_eval", "evaluate.run_eval"),
    ("vadpipe.evaluate", "clip_statistic", "evaluate.clip_statistic"),
    ("vadpipe.evaluate", "roc_sweep", "evaluate.roc_sweep"),
    ("vadpipe.evaluate", "fpr_at_tpr", "evaluate.fpr_at_tpr"),
    ("vadpipe.evaluate", "class_accuracy", "evaluate.class_accuracy"),
    ("vadpipe.synth", "generate_corpus", "synth.generate_corpus"),
    ("vadpipe.synth", "speech_surrogate", "synth.speech_surrogate"),
    ("vadpipe.synth", "white_noise", "synth.white_noise"),
    ("vadpipe.synth", "pink_noise", "synth.pink_noise"),
    ("vadpipe.synth", "babble_noise", "synth.babble_noise"),
    ("vadpipe.synth", "mix_at_snr_with_stems", "synth.mix_at_snr"),
)

# run_pipeline* take the config as their second argument (`cfg`); their spans
# carry its mode so that the scorer spans below them can be told apart.
MODE_PATCHES = (
    ("vadpipe.evaluate", "run_pipeline", "pipeline.run_pipeline"),
    ("vadpipe.pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("vadpipe.pipeline", "run_pipeline_on_scores", "pipeline.run_pipeline_on_scores"),
)

LAYERS = ("audio_io", "pipeline", "preprocess", "scorer", "aggregate",
          "postprocess", "evaluate", "synth")


class Tracer:
    """Span store. Each span is [id, parent, name, start, end, phase, mode, op]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.phase = "run"   # "setup" or "run"
        self.mode: str | None = None
        self.op = 0          # spans of one measured operation share this id
        self.noise_stft_frames: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [len(self.spans), self._stack[-1] if self._stack else None, name,
                  time.perf_counter(), None, self.phase, self.mode, self.op]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def in_mode(self, mode: str | None):
        outer, self.mode = self.mode, mode
        try:
            yield
        finally:
            self.mode = outer

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][2] if self._stack else None


def _spanned(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return traced


def _mode_spanned(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        cfg = kwargs["cfg"] if "cfg" in kwargs else args[1]
        with tracer.in_mode(cfg.mode), tracer.span(name):
            return fn(*args, **kwargs)
    return traced


def _score_spanned(tracer: Tracer, fn):
    # The baseline, and score-file set-up, score a whole clip; the voting
    # modes score one segment per call.
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        whole_clip = tracer.mode in (None, "baseline")
        with tracer.span("scorer.score_clip" if whole_clip else "scorer.score"):
            return fn(*args, **kwargs)
    return traced


def _stft_counted(tracer: Tracer, fn):
    # Counts the frames the clip noise estimate's STFT computes; no span, so
    # spectral_subtract keeps its STFT time as self time.
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        spec = fn(*args, **kwargs)
        if tracer.current() == "preprocess.clip_noise_profile":
            tracer.noise_stft_frames.append(spec.num_frames)
        return spec
    return counted


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    saved = []

    def swap(owner, attr, wrapper):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    try:
        for module, attr, name in PATCHES:
            swap(importlib.import_module(module), attr,
                 lambda fn, name=name: _spanned(tracer, fn, name))
        for module, attr, name in MODE_PATCHES:
            swap(importlib.import_module(module), attr,
                 lambda fn, name=name: _mode_spanned(tracer, fn, name))
        scorer = importlib.import_module("vadpipe.scorer")
        swap(scorer.ReferenceScorer, "score", lambda fn: _score_spanned(tracer, fn))
        swap(importlib.import_module("vadpipe.dsp"), "stft",
             lambda fn: _stft_counted(tracer, fn))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part its child spans cover, in s."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[4] - s[3]
    return own


def span_stats(spans: list[list]) -> dict:
    """Self time per call (ms) by span name, run-phase self time by layer, call counts."""
    own = self_times(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    layer_run = defaultdict(float)
    run_calls = defaultdict(int)
    run_calls_by_mode = defaultdict(int)
    for s, t in zip(spans, own):
        total[s[2]] += t
        calls[s[2]] += 1
        if s[5] == "run":
            layer_run[s[2].split(".", 1)[0]] += t
            run_calls[s[2]] += 1
            run_calls_by_mode[(s[2], s[6])] += 1
    per_call_ms = {name: 1000.0 * total[name] / calls[name] for name in calls}
    return {"per_call_ms": per_call_ms, "calls": dict(calls),
            "layer_run_s": dict(layer_run), "run_calls": dict(run_calls),
            "run_calls_by_mode": dict(run_calls_by_mode)}


def write_spans(spans: list[list], path) -> None:
    """One JSON object per span; times in microseconds from the first span."""
    origin = spans[0][3] if spans else 0.0
    own = self_times(spans)
    with open(path, "w") as fh:
        for s, t in zip(spans, own):
            fh.write(json.dumps({
                "id": s[0], "parent": s[1], "name": s[2],
                "start_us": round((s[3] - origin) * 1e6, 1),
                "end_us": round((s[4] - origin) * 1e6, 1),
                "self_us": round(t * 1e6, 1),
                "phase": s[5], "mode": s[6], "op": s[7]}) + "\n")
