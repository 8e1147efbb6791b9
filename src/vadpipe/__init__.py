"""Noise-robust voice activity detection pipeline."""

from .audio_io import AudioBuffer, PIPELINE_RATE_HZ, read_wav, resample, write_wav
from .aggregate import SegmentScore, aggregate_score, decide_segment
from .pipeline import PipelineConfig, PipelineResult, run_pipeline, segment
from .postprocess import VadDecision, VoteConfig, final_decision, vote_windows
from .preprocess import (NoiseProfile, PreprocessConfig, energy_gate,
                         preprocess_segment, rms_normalize, spectral_subtract)
from .scorer import FrameScoreMatrix, ReferenceScorer, load_scores
from .synth import Manifest, generate_corpus, mix_at_snr, read_manifest

__version__ = "0.1.0"

# evaluate loads scipy.signal, which detect and synth never need: its names
# are looked up on first use.
_EVALUATE_NAMES = ("EvalReport", "RocCurve", "class_accuracy", "fpr_at_tpr", "roc_sweep",
                   "run_eval")


def __getattr__(name: str):
    if name in _EVALUATE_NAMES:
        from . import evaluate
        return getattr(evaluate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AudioBuffer", "PIPELINE_RATE_HZ", "read_wav", "resample", "write_wav",
    "SegmentScore", "aggregate_score", "decide_segment",
    "EvalReport", "RocCurve", "class_accuracy", "fpr_at_tpr", "roc_sweep", "run_eval",
    "PipelineConfig", "PipelineResult", "run_pipeline", "segment",
    "VadDecision", "VoteConfig", "final_decision", "vote_windows",
    "NoiseProfile", "PreprocessConfig", "energy_gate", "preprocess_segment",
    "rms_normalize", "spectral_subtract",
    "FrameScoreMatrix", "ReferenceScorer", "load_scores",
    "Manifest", "generate_corpus", "mix_at_snr", "read_manifest",
]
