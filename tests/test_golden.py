"""Golden outputs: per-clip segment values and decisions on a seeded corpus.

The golden file pins what `run_pipeline(ensure_rate(read_wav(path)), cfg)`
returns for every mode on a small synthetic corpus (one clean clip, nine
noisy clips covering white/pink/babble noise at 0, 5 and 10 dB, one
non-speech clip; 4.13 s each, so the last segment is zero-padded). Labels
must match exactly and values within GOLDEN_REL_TOL relative. A change that
moves them on purpose regenerates the file and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from vadpipe.audio_io import ensure_rate, read_wav
from vadpipe.pipeline import MODES, PipelineConfig, run_pipeline
from vadpipe.synth import generate_corpus

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "pipeline_seed7.json"
GOLDEN_REL_TOL = 1e-9
SEED = 7
COUNTS = (1, 9, 1)
SNRS_DB = (0.0, 5.0, 10.0)
DURATION_S = 4.13
THRESH = 45.9


def corpus_outputs(out_dir) -> dict:
    """Synthesize the corpus under out_dir and run every mode on every clip."""
    manifest = generate_corpus(out_dir, COUNTS, SNRS_DB, seed=SEED,
                               duration_s=DURATION_S, write_stems=False)
    clips = {}
    for entry in manifest.entries:
        buf = ensure_rate(read_wav(manifest.resolve(entry)))
        clips[entry.path] = {}
        for mode in MODES:
            result = run_pipeline(buf, PipelineConfig(mode=mode, thresh=THRESH))
            clips[entry.path][mode] = {
                "final": result.decision.final,
                "labels": list(result.decision.per_segment),
                "values": result.segment_values,
            }
    return {"seed": SEED, "counts": list(COUNTS), "snrs_db": list(SNRS_DB),
            "duration_s": DURATION_S, "thresh": THRESH, "clips": clips}


def close(got: float, want: float) -> bool:
    return abs(got - want) <= GOLDEN_REL_TOL * max(1.0, abs(want))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return corpus_outputs(tmp_path_factory.mktemp("golden_corpus"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_same_clips(outputs, golden):
    assert sorted(outputs["clips"]) == sorted(golden["clips"])


@pytest.mark.parametrize("mode", MODES)
def test_labels_exact(outputs, golden, mode):
    for name, want in golden["clips"].items():
        got = outputs["clips"][name][mode]
        assert got["labels"] == want[mode]["labels"], name
        assert got["final"] == want[mode]["final"], name


@pytest.mark.parametrize("mode", MODES)
def test_values_within_tolerance(outputs, golden, mode):
    for name, want in golden["clips"].items():
        got = outputs["clips"][name][mode]["values"]
        assert len(got) == len(want[mode]["values"]), name
        bad = [(i, g, w) for i, (g, w) in enumerate(zip(got, want[mode]["values"]))
               if not close(g, w)]
        assert not bad, f"{name}: {bad[:3]}"


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        data = corpus_outputs(tmp)
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
