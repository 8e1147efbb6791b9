"""Synthesis adds each term only where it can change a bit; the dense
references in tests/oracle.py add every term at every sample. Both must give
the same bytes, -0.0 included, and leave the rng in the same state, at any
duration, rate, thread count and block size. Synthesis fills a clip in
blocks of synth.MIN_CHUNK_SAMPLES, so an example sets that size to cut its
clip into a drawn number of blocks, one to 4,096: sizes run from one sample
to the whole clip, and a clip of 5.8M samples still fills in under a second.
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
block_counts = st.integers(1, 4096)


def run_chunked(count, blocks, n, fn):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "MIN_CHUNK_SAMPLES", -(-n // blocks))
        parallel.set_threads(count)
        try:
            return fn()
        finally:
            parallel.set_threads(None)


@examples
@given(seeds, durations, rates, threads, block_counts)
def test_speech_surrogate_matches_dense_fill(seed, duration_s, rate, count, blocks):
    n = int(round(duration_s * rate))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = run_chunked(count, blocks, n, lambda: synth.speech_surrogate(rng, duration_s, rate))
    assert got.samples.tobytes() == oracle.speech_surrogate(ref_rng, duration_s, rate).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@examples
@given(seeds, durations, rates, threads, block_counts)
def test_unsteady_envelope_matches_dense_fill(seed, duration_s, rate, count, blocks):
    n = int(round(duration_s * rate))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = run_chunked(count, blocks, n, lambda: synth._unsteady_envelope(rng, np.ones(n), rate))
    assert got.tobytes() == oracle.unsteady_envelope(ref_rng, n, rate).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
