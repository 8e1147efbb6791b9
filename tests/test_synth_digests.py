"""Pinned synthesis bytes: the SHA-256 of every file generate_corpus writes,
and of each generator's float64 samples (which the files quantize to 16 bits).

Synthesis fills each clip's samples as parallel chunks
(`parallel.map_chunks`), so every corpus here is written at one, two and
three threads, and once more at seven threads with chunks far shorter than
`synth.MIN_CHUNK_SAMPLES`, which puts their bounds at odd offsets. All of
them must give the pinned bytes. The corpora cover a clip shorter than one
chunk, lengths that are no multiple of it, all three noise kinds, stems,
and 16 and 48 kHz. A change that moves the bytes on purpose regenerates the
file and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_synth_digests.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from vadpipe import parallel, synth
from vadpipe.synth import (babble_noise, generate_corpus, pink_noise, speech_surrogate,
                           white_noise)

DIGESTS_PATH = Path(__file__).resolve().parent / "golden" / "synth_sha256.json"

# name -> generate_corpus keyword arguments. The noisy and the non-speech
# clips stride white, pink and babble, so three of each cover every kind.
CORPORA = {
    # 52,800 samples a clip, with the clean and noise stems of each mix
    "16k_stems": dict(counts=(1, 3, 3), snr_list=(0.0, 5.0, 10.0), seed=7,
                      duration_s=3.3, sample_rate_hz=16000, write_stems=True),
    # 72,000 samples a clip
    "48k": dict(counts=(1, 3, 3), snr_list=(5.0,), seed=11, duration_s=1.5,
                sample_rate_hz=48000, write_stems=False),
    # 8,000 samples a clip, fewer than one chunk
    "16k_short": dict(counts=(1, 3, 3), snr_list=(10.0,), seed=3, duration_s=0.5,
                      sample_rate_hz=16000, write_stems=True),
}


GENERATORS = {"speech": speech_surrogate, "white": white_noise, "pink": pink_noise,
              "babble": babble_noise}
# (seconds, rate): 52,800 and 72,000 samples, and 8,000, fewer than one chunk
SIGNALS = ((3.3, 16000), (1.5, 48000), (0.5, 16000))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def corpus_digests(out_dir, **kwargs) -> dict:
    out = Path(out_dir)
    generate_corpus(out, **kwargs)
    return {p.relative_to(out).as_posix(): sha256(p.read_bytes())
            for p in sorted(out.rglob("*")) if p.is_file()}


def sample_digests() -> dict:
    return {f"{name}-{seconds}s-{rate}Hz":
            sha256(gen(np.random.default_rng(5), seconds, rate).samples.tobytes())
            for name, gen in GENERATORS.items() for seconds, rate in SIGNALS}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS_PATH.read_text())


@pytest.fixture(autouse=True)
def reset_threads():
    yield
    parallel.set_threads(None)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(CORPORA))
def test_bytes_match_pinned_at_any_thread_count(pinned, tmp_path, name, threads):
    parallel.set_threads(threads)
    assert corpus_digests(tmp_path, **CORPORA[name]) == pinned[name]


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_bytes_match_pinned_with_odd_chunk_bounds(pinned, tmp_path, monkeypatch, name):
    monkeypatch.setattr(synth, "MIN_CHUNK_SAMPLES", 997)
    parallel.set_threads(7)
    assert corpus_digests(tmp_path, **CORPORA[name]) == pinned[name]


@pytest.mark.parametrize("threads,min_chunk", [(1, None), (2, None), (3, None), (7, 997)])
def test_samples_match_pinned(pinned, monkeypatch, threads, min_chunk):
    if min_chunk is not None:
        monkeypatch.setattr(synth, "MIN_CHUNK_SAMPLES", min_chunk)
    parallel.set_threads(threads)
    assert sample_digests() == pinned["samples"]


def test_corpora_cover_inline_and_uneven_chunks():
    kw = CORPORA["16k_short"]
    assert kw["duration_s"] * kw["sample_rate_hz"] < synth.MIN_CHUNK_SAMPLES
    for name in ("16k_stems", "48k"):
        kw = CORPORA[name]
        samples = round(kw["duration_s"] * kw["sample_rate_hz"])
        assert samples >= 3 * synth.MIN_CHUNK_SAMPLES, name   # three chunks at three threads
        assert samples % synth.MIN_CHUNK_SAMPLES, name


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: corpus_digests(Path(tmp) / name, **kw) for name, kw in CORPORA.items()}
    digests["samples"] = sample_digests()
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS_PATH}")
