"""Synthesis adds each term only where it can change a bit; the dense
references in tests/oracle.py add every term at every sample. Both must give
the same bytes, -0.0 included, and leave the rng in the same state, at any
duration, rate, thread count and chunk size.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vadpipe import parallel, synth

import oracle

examples = settings(deadline=None, max_examples=10)   # an example has up to 5.8M samples
seeds = st.integers(0, 2 ** 32 - 1)
durations = st.floats(0.5, 30.0)
rates = st.integers(8000, 192000)
threads = st.integers(1, 3)
min_chunks = st.integers(1, 4096)


def run_chunked(count, min_chunk, fn):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "MIN_CHUNK_SAMPLES", min_chunk)
        parallel.set_threads(count)
        try:
            return fn()
        finally:
            parallel.set_threads(None)


@examples
@given(seeds, durations, rates, threads, min_chunks)
def test_speech_surrogate_matches_dense_fill(seed, duration_s, rate, count, min_chunk):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = run_chunked(count, min_chunk, lambda: synth.speech_surrogate(rng, duration_s, rate))
    assert got.samples.tobytes() == oracle.speech_surrogate(ref_rng, duration_s, rate).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@examples
@given(seeds, durations, rates, threads, min_chunks)
def test_unsteady_envelope_matches_dense_fill(seed, duration_s, rate, count, min_chunk):
    n = int(round(duration_s * rate))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = run_chunked(count, min_chunk, lambda: synth._unsteady_envelope(rng, n, rate))
    assert got.tobytes() == oracle.unsteady_envelope(ref_rng, n, rate).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
