"""run_pipeline's per-CPU chunks, eval's clip threads and the per-thread
scratch store.

A clip's rows run as one chunk per thread of its budget, and a row of many
frames (the baseline's whole clip, or a long segment) splits its frames as
well. The outcome must not depend on the thread count, pool threads must
not call anything perfbench's tracer wraps, each eval clip thread and the
chunks it hands out must keep to its share of the CPUs, a forked process
must run its chunks on a pool of its own, and no result may share memory
with scratch.
"""

import functools
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from vadpipe import aggregate, dsp, evaluate, parallel, pipeline, preprocess, scorer
from vadpipe.audio_io import AudioBuffer, ensure_rate
from vadpipe.pipeline import MODES, PipelineConfig, run_pipeline, segment_rows
from vadpipe.preprocess import PreprocessConfig, clip_noise_profile
from vadpipe.synth import generate_corpus, mix_at_snr, speech_surrogate, white_noise

from conftest import SR

ROOT = Path(__file__).resolve().parent.parent
THRESH = 45.9


@pytest.fixture(autouse=True)
def reset_threads():
    yield
    parallel.set_threads(None)


def noisy(samples: int, rate: int = SR, seed: int = 2) -> AudioBuffer:
    rng = np.random.default_rng(seed)
    seconds = max(samples / rate, 0.5)
    mix = mix_at_snr(speech_surrogate(rng, seconds, rate), white_noise(rng, seconds, rate), 5.0)
    return AudioBuffer(mix.samples[:samples], rate)


def outcome(result) -> tuple:
    d = result.decision
    return result.segment_values, d.per_segment, d.per_window, d.final


def clean(seconds: float, seed: int = 2) -> AudioBuffer:
    """A clean speech clip: mostly digital silence, with a silent lead-in."""
    return speech_surrogate(np.random.default_rng(seed), seconds)


def negative_zeros(buf: AudioBuffer) -> AudioBuffer:
    return AudioBuffer(np.where(buf.samples == 0.0, -0.0, buf.samples), buf.sample_rate_hz)


CLIPS = {
    "fewer_rows_than_threads": lambda: noisy(3 * 3200 - 17),
    "one_row": lambda: noisy(3200),
    "shorter_than_one_segment": lambda: noisy(2080),
    # 1 + ceil((80720 - 400) / 160) = 503 baseline frames, a prime: chunks
    # of at least scorer.MIN_CHUNK_FRAMES for each thread count tried
    "uneven_baseline_frames": lambda: noisy(80720),
    "many_rows": lambda: noisy(int(4.13 * SR)),
    "48_khz": lambda: ensure_rate(noisy(int(1.7 * 48000), rate=48000)),
    # 34 of 40 200 ms rows and 2 of 4 2.5 s rows are all zeros, in blocks
    # that mix silent and live rows
    "digital_silence": lambda: clean(8.0),
    "digital_silence_negative_zeros": lambda: negative_zeros(clean(8.0)),
}


# 200 ms rows hold 19 frames and score inline in their row chunk; 2.5 s rows
# hold 249, so each row chunk splits their frames again (nested map_chunks).
SEGMENT_MS = (200.0, 2500.0)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("clip", sorted(CLIPS))
def test_outcome_independent_of_thread_count(clip, mode):
    buf = CLIPS[clip]()
    for segment_ms in SEGMENT_MS:
        cfg = PipelineConfig(mode=mode, thresh=THRESH, segment_ms=segment_ms)
        parallel.set_threads(1)
        want = outcome(run_pipeline(buf, cfg))
        for count in (2, 3, 5):
            parallel.set_threads(count)
            assert outcome(run_pipeline(buf, cfg)) == want, (segment_ms, count)


@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_whole_clip_score_is_bit_for_bit_at_any_thread_count(count):
    # score() transforms its frames as parallel chunks; the reference runs
    # them inline, on one thread. A clean clip's frames are mostly silent,
    # and each chunk transforms only the others.
    sc = scorer.ReferenceScorer()
    for clip, frames in (("uneven_baseline_frames", 503), ("digital_silence", 799)):
        buf = CLIPS[clip]()
        parallel.set_threads(1)
        want = sc.score_rows(buf.samples[None])[0]
        assert len(want) == frames and len(want) >= 2 * scorer.MIN_CHUNK_FRAMES
        parallel.set_threads(count)
        assert sc.score(buf).scores.tobytes() == want.tobytes(), clip


def test_noisy_clips_take_no_silence_scan_on_the_pool(monkeypatch):
    # Silence is looked for once per clip and mode, on the calling thread:
    # the scorer scans the baseline's row, run_pipeline the vote modes'
    # rows, and a noisy clip's row chunks on the pool make no call. vad2
    # scans only where pre-processing keeps silence silent, which a noisy
    # lead-in's floor beta * |N| prevents unless beta is 0.
    calls = []
    silent_frames = dsp.silent_frames
    monkeypatch.setattr(dsp, "silent_frames", lambda frames: (
        calls.append(threading.get_ident()) or silent_frames(frames)))
    parallel.set_threads(2)
    buf = noisy(int(4.13 * SR))
    cfgs = [PipelineConfig(mode=mode, thresh=THRESH) for mode in MODES]
    cfgs.append(PipelineConfig(mode="vad2", thresh=THRESH, preprocess=PreprocessConfig(beta=0.0)))
    for cfg in cfgs:
        calls.clear()
        run_pipeline(buf, cfg)
        scans = 0 if cfg.mode == "vad2" and cfg.preprocess.beta else 1
        assert calls == [threading.get_ident()] * scans, cfg


def test_chunk_bounds_cover_in_order():
    for count in range(1, 30):
        for parts in range(1, count + 1):
            bounds = parallel.chunk_bounds(count, parts)
            assert [b for b in bounds if b[1] > b[0]] == bounds
            assert [i for lo, hi in bounds for i in range(lo, hi)] == list(range(count))
            sizes = {hi - lo for lo, hi in bounds}
            assert max(sizes) - min(sizes) <= 1


def test_map_chunks_joins_in_order_and_propagates_errors():
    parallel.set_threads(3)
    assert list(parallel.map_chunks(lambda lo, hi: (lo, hi), 7)) == [(0, 2), (2, 4), (4, 7)]
    assert parallel.map_chunks(lambda lo, hi: (lo, hi), 0) == [(0, 0)]
    assert parallel.map_chunks(lambda lo, hi: (lo, hi), 7, min_chunk=3) == [(0, 3), (3, 7)]
    assert parallel.map_chunks(lambda lo, hi: (lo, hi), 7, min_chunk=8) == [(0, 7)]

    def fail_late(lo, hi):
        if lo > 0:
            raise RuntimeError("chunk failed")
        return lo

    with pytest.raises(RuntimeError, match="chunk failed"):
        parallel.map_chunks(fail_late, 9)


def test_submit_returns_at_once_and_join_gives_task_order():
    for budget in (1, 2, 3):
        parallel.set_threads(budget)
        first = parallel.submit([lambda i=i: (time.sleep(0.01), i)[1] for i in range(7)])
        second = parallel.submit([lambda i=i: (time.sleep(0.01), -i)[1] for i in range(5)])
        # joined out of order: the pool and the joiner run both batches
        assert second.join() == [0, -1, -2, -3, -4]
        assert first.join() == list(range(7))
        assert parallel.map_tasks([]) == []
        assert parallel.map_tasks([lambda: 5]) == [5]


def test_map_tasks_raises_after_every_started_task_has_finished(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "_pool", None)   # made afresh, with one thread
    parallel.set_threads(2)
    started, finished, unstarted = threading.Event(), threading.Event(), []

    def slow():
        started.set()
        time.sleep(0.3)
        finished.set()

    def fail():
        raise TypeError("task failed")

    # The pool thread starts the slow first task before the join; the
    # joiner then takes the failing last task from the back. The error
    # propagates once the slow task is done, and the task between them,
    # which nobody started, never runs.
    batch = parallel.submit([slow, lambda: unstarted.append(1), fail])
    assert started.wait(10)
    with pytest.raises(TypeError, match="task failed"):
        batch.join()
    assert finished.is_set() and unstarted == []
    # a failing pool task: the caller's own task still runs to its end
    finished.clear()
    with pytest.raises(TypeError, match="task failed"):
        parallel.map_tasks([fail, slow])
    assert finished.is_set()


def test_cancel_drops_unstarted_tasks_and_waits_for_started_ones(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "_pool", None)   # made afresh, with one thread
    parallel.set_threads(2)
    started, finished, ran = threading.Event(), threading.Event(), []

    def slow():
        started.set()
        time.sleep(0.2)
        finished.set()

    batch = parallel.submit([slow] + [lambda i=i: ran.append(i) for i in range(4)])
    assert started.wait(10)
    batch.cancel()
    assert finished.is_set()
    time.sleep(0.1)
    assert ran == [] and batch.running == 0


def _nested(fail: bool):
    def outer(lo, hi):
        if lo == 0:  # a pool thread has time to start the other outer chunk
            time.sleep(0.2)

        def inner(a, b):
            if fail and lo > 0 and a == 0:
                raise RuntimeError("inner chunk failed")
            return lo + a, lo + b

        return parallel.map_chunks(inner, hi - lo)

    return parallel.map_chunks(outer, 8)


def test_nested_map_chunks_joins_in_order_and_propagates_errors(monkeypatch):
    # On two threads the pool has one thread, which runs the second outer
    # chunk; its inner chunks cannot start on the pool, so it runs them
    # itself. When the first of them fails, the second must be cancelled
    # rather than waited on, or the call never returns.
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "_pool", None)   # made afresh, with one thread
    # the calls run on a thread of their own, so that a hang fails the test
    caller = ThreadPoolExecutor(max_workers=1, initializer=parallel.set_threads, initargs=(2,))
    try:
        assert caller.submit(_nested, False).result(timeout=60) == [
            [(0, 2), (2, 4)], [(4, 6), (6, 8)]]
        with pytest.raises(RuntimeError, match="inner chunk failed"):
            caller.submit(_nested, True).result(timeout=60)
    finally:
        caller.shutdown(wait=False)


def test_nested_map_tasks_while_two_batches_are_queued(monkeypatch):
    # Both batches are queued before either is joined, the first join runs
    # the second batch's tasks while it waits, and every task of both
    # submits and joins a batch of its own. A join waits only on tasks that
    # have started, so every join finishes.
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "_pool", None)   # made afresh, with one thread

    def outer(tag, i):
        time.sleep(0.01)
        return parallel.map_tasks([lambda j=j: (tag, i, j) for j in range(3)])

    def run():
        first = parallel.submit([functools.partial(outer, "a", i) for i in range(3)])
        second = parallel.submit([functools.partial(outer, "b", i) for i in range(3)])
        return first.join(second), second.join()

    # the calls run on a thread of their own, so that a hang fails the test
    caller = ThreadPoolExecutor(max_workers=1, initializer=parallel.set_threads, initargs=(2,))
    try:
        got = caller.submit(run).result(timeout=60)
    finally:
        caller.shutdown(wait=False)
    assert got == tuple([[(tag, i, j) for j in range(3)] for i in range(3)] for tag in "ab")


def test_concurrent_callers_get_their_own_results(monkeypatch):
    # More callers than CPUs, each setting its own budget of 2 or 4 and
    # chunking over a shared pool that the first caller at 4 grows midway,
    # with the interpreter switching threads often: a scratch array shared
    # across threads, a task run inside another batch's join, or a chunk
    # joined to the wrong call, changes some caller's values.
    clips = [noisy(int(sec * SR), seed=i) for i, sec in enumerate((2.9, 1.3, 4.1))]
    cfgs = [PipelineConfig(mode=m, thresh=THRESH) for m in MODES]
    jobs = [(clip, cfg) for clip in clips for cfg in cfgs] * 3
    parallel.set_threads(1)
    want = [outcome(run_pipeline(clip, cfg)) for clip, cfg in jobs]
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "_pool", None)   # made for a budget of 2: one thread

    def call(job, budget):
        parallel.set_threads(budget)
        if budget == 2:
            return outcome(run_pipeline(*job))
        # the callers at 4 plan the clip twice, the second ahead of the first's join
        clip, cfg = job
        (first,), (second,) = pipeline.run_clips([clip, clip], [cfg])
        assert outcome(first) == outcome(second)
        return outcome(first)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=5) as callers:
            futures = [callers.submit(call, job, (2, 4)[i % 2]) for i, job in enumerate(jobs)]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert got == want
    assert parallel._pool.size == 3


def test_threads_follow_the_affinity_mask(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert parallel.usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 6)
    assert parallel.threads() == 6
    parallel.set_threads(2)
    assert parallel.threads() == 2
    with ThreadPoolExecutor(max_workers=1) as other:   # a budget is its thread's own
        assert other.submit(parallel.threads).result() == 6


# ---------------------------------------------------------------------------
# pool threads call nothing the tracer wraps

def _tracer_patches():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return tracing.PATCHES + tracing.MODE_PATCHES


def test_wrapped_functions_run_on_the_calling_thread(monkeypatch, tmp_path):
    import importlib

    calls: dict[str, set] = {}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    for module, attr, name in _tracer_patches():
        owner = importlib.import_module(module)
        monkeypatch.setattr(owner, attr, recording(name, getattr(owner, attr)))
    monkeypatch.setattr(scorer.ReferenceScorer, "score",
                        recording("scorer.score", scorer.ReferenceScorer.score))
    monkeypatch.setattr(dsp, "stft", recording("dsp.stft", dsp.stft))

    parallel.set_threads(2)
    buf = noisy(int(2.3 * SR))
    for mode in MODES:
        pipeline.run_pipeline(buf, PipelineConfig(mode=mode, thresh=THRESH))
    # run_pipeline scores through score_rows and labels its values itself;
    # perfbench's replay calls score, whose 228 frames split across the
    # threads, and decide_segment on its matrix
    aggregate.decide_segment(scorer.ReferenceScorer().score(buf), THRESH)
    # eval at --jobs 1 decodes, resamples and plans each next 48 kHz clip
    # while the pool scores the ones before; vad2's row blocks are made slow,
    # so that two clips are in flight
    manifest = generate_corpus(tmp_path, (1, 1, 1), (5.0,), seed=3, duration_s=1.0,
                               sample_rate_hz=48000, write_stems=False)
    evaluate.run_eval(manifest, [PipelineConfig(mode=m, thresh=THRESH) for m in MODES])
    in_flight, most = [0], [0]
    plan, preprocess_rows = pipeline.plan_configs, pipeline.preprocess_rows_scratch

    def counted(buf, cfgs):
        batch, vote = plan(buf, cfgs)
        in_flight[0] += 1
        most[0] = max(most[0], in_flight[0])

        def voted(joined):
            in_flight[0] -= 1
            return vote(joined)
        return batch, voted

    def slow(block, cfg, noise):
        time.sleep(0.02)
        return preprocess_rows(block, cfg, noise)

    monkeypatch.setattr(pipeline, "plan_configs", counted)
    monkeypatch.setattr(pipeline, "preprocess_rows_scratch", slow)
    evaluate.run_eval(manifest, [PipelineConfig(mode=m, thresh=THRESH) for m in MODES])
    assert most[0] >= 2

    assert {"scorer.mel_filterbank", "scorer.score", "aggregate.decide_segment",
            "preprocess.clip_noise_profile", "dsp.stft", "pipeline.run_pipeline",
            "audio_io.read_wav", "audio_io.ensure_rate", "audio_io.resample"} <= set(calls)
    main = threading.get_ident()
    assert {name: ids for name, ids in calls.items() if ids != {main}} == {}


# ---------------------------------------------------------------------------
# eval clip threads

@pytest.mark.parametrize("jobs,share", [(2, 4), (3, 2), (5, 1)])
def test_eval_workers_get_their_share_of_the_cpus(monkeypatch, tmp_path, jobs, share):
    manifest = generate_corpus(tmp_path, (1, 0, 1), (5.0,), seed=3, duration_s=0.5,
                               write_stems=False)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 8)

    def report_budget(path):   # a declared clip error carries the budget out
        on_main = threading.current_thread() is threading.main_thread()
        raise ValueError(f"threads={parallel.threads()} main={on_main}")

    monkeypatch.setattr(evaluate, "read_wav", report_budget)
    (report,) = evaluate.run_eval(manifest, [PipelineConfig(mode="vad1")], jobs=jobs)
    assert len(report.errors) == 2
    assert all(f"ValueError: threads={share} main=False" in e for e in report.errors)
    assert parallel.threads() == 8   # the caller's own budget is untouched


def test_clip_threads_nested_chunks_keep_their_share(monkeypatch, tmp_path):
    # Two clip threads on eight CPUs get four chunk threads each. Their
    # chunks, and the chunks those split again, run under that budget on
    # whichever thread runs them, and the shared pool has a thread for every
    # chunk both clip threads hand out at once.
    manifest = generate_corpus(tmp_path, (1, 0, 1), (5.0,), seed=3, duration_s=0.5,
                               write_stems=False)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 8)
    monkeypatch.setattr(parallel, "_pool", None)

    def report_budgets(buf, cfgs):
        clip_thread = threading.get_ident()

        def outer(lo, hi):
            if lo == 0:  # pool threads have time to start the other chunks
                time.sleep(0.2)
            inner = parallel.map_chunks(lambda a, b: (threading.get_ident(), parallel.threads()), 8)
            return [(threading.get_ident(), parallel.threads())] + inner

        seen = [s for chunk in parallel.map_chunks(outer, 8) for s in chunk]
        pooled = any(ident != clip_thread for ident, _ in seen)
        return [ValueError(f"budgets={sorted({b for _, b in seen})} pooled={pooled} "
                           f"chunks={len(seen)}")] * len(cfgs)

    monkeypatch.setattr(evaluate, "run_configs", report_budgets)
    (report,) = evaluate.run_eval(manifest, [PipelineConfig(mode="vad1")], jobs=2)
    assert len(report.errors) == 2
    assert all("budgets=[4] pooled=True chunks=20" in e for e in report.errors), report.errors
    assert parallel._pool.size >= 2 * (4 - 1)


def _chunk_threads(conn):
    caller = threading.get_ident()

    def on_caller(lo, hi):
        # a pool thread has time to start the other chunk, and the caller to
        # take this one while the pool thread is busy with that
        time.sleep(0.5 if lo == 0 else 0.1)
        return threading.get_ident() == caller

    conn.send(parallel.map_chunks(on_caller, 2))
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_forked_child_runs_chunks_on_a_pool_of_its_own():
    # The inherited pool object has no threads in the child: a chunk
    # submitted to it never starts, and the caller would end up running it.
    parallel.set_threads(2)
    parallel.map_chunks(lambda lo, hi: time.sleep(0.05), 2)
    assert parallel._pool is not None
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_chunk_threads, args=(sender,))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        pytest.fail("forked child did not finish in 60 s")
    assert receiver.poll(0) and receiver.recv() == [True, False]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_forked_child_runs_chunks_while_the_parent_has_batches_in_flight(monkeypatch):
    # The parent forks while its one pool thread runs a task and more wait
    # queued: the child's pool is its own, and the parent's batch still
    # ends with every result.
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "_pool", None)   # made afresh, with one thread
    parallel.set_threads(2)
    started = threading.Event()

    def slow(i):
        started.set()
        time.sleep(0.3)
        return i

    batch = parallel.submit([functools.partial(slow, i) for i in range(3)])
    assert started.wait(10)
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_chunk_threads, args=(sender,))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        pytest.fail("forked child did not finish in 60 s")
    assert receiver.poll(0) and receiver.recv() == [True, False]
    assert batch.join() == [0, 1, 2]


# ---------------------------------------------------------------------------
# results never alias the scratch store

def _scratch_buffers():
    return list(vars(dsp._scratch).values())


def _public_results(x: np.ndarray, rows: np.ndarray) -> dict:
    buf = AudioBuffer(x, SR)
    cfg = PreprocessConfig()
    noise = clip_noise_profile(buf, cfg)
    spec = dsp.rfft_frames(dsp.frame_rows(rows, 512, 128), 512, dsp.analysis_window(512))
    sc = scorer.ReferenceScorer()
    return {
        "frame_rows": dsp.frame_rows(rows, 400, 160),
        "frame_signal": dsp.frame_signal(buf, 400, 400).frames,
        "rfft_frames": spec,
        "stft": dsp.stft(buf).frames,
        "istft_rows": dsp.istft_rows(spec, 512, 128, rows.shape[1]),
        "istft": dsp.istft(dsp.stft(buf), len(x)).samples,
        "weighted_overlap_add": dsp.weighted_overlap_add(
            dsp.frame_rows(rows, 400, 160) * dsp.crossfade_window(400), 160, rows.shape[1],
            "crossfade"),
        "overlap_add": dsp.overlap_add(dsp.frame_signal(buf, 400, 160).frames, 160,
                                       len(x)).samples,
        "spectral_subtract": preprocess.spectral_subtract(buf, cfg, noise).samples,
        "energy_gate": preprocess.energy_gate(buf, cfg).samples,
        "rms_normalize": preprocess.rms_normalize(buf, 0.1).samples,
        "preprocess_segment": preprocess.preprocess_segment(buf, cfg, noise).samples,
        "score": sc.score(buf).scores,
        "score_rows": sc.score_rows(rows),
    }


@pytest.mark.parametrize("threads", [1, 2])
def test_results_do_not_share_memory_with_scratch(threads):
    parallel.set_threads(threads)
    first_clip = noisy(int(1.3 * SR), seed=4)
    second_clip = noisy(int(1.3 * SR), seed=9)
    cfgs = [PipelineConfig(mode=m, thresh=THRESH) for m in MODES]
    first = _public_results(first_clip.samples, segment_rows(first_clip, 200.0))
    kept = {name: np.array(a) for name, a in first.items()}
    pipe_first = [run_pipeline(first_clip, c) for c in cfgs]
    pipe_kept = [outcome(r) for r in pipe_first]

    assert _scratch_buffers(), "the calling thread's scratch store is empty"
    for name, result in first.items():
        for buf in _scratch_buffers():
            assert not np.shares_memory(result, buf), name

    _public_results(second_clip.samples, segment_rows(second_clip, 200.0))
    for c in cfgs:
        run_pipeline(second_clip, c)
    for name, result in first.items():
        assert np.array_equal(result, kept[name]), name
    assert [outcome(r) for r in pipe_first] == pipe_kept


def test_scratch_keeps_small_requests_only():
    small = dsp.scratch("test.small", (4, 8))
    assert np.shares_memory(small, dsp.scratch("test.small", (8, 4)))
    assert np.shares_memory(small, dsp.scratch("test.small", (3,)))
    grown = dsp.scratch("test.small", (16, 16))
    assert grown.shape == (16, 16)
    assert np.shares_memory(grown, dsp.scratch("test.small", (4, 8)))
    count = dsp.SCRATCH_LIMIT_BYTES // 8 + 1
    large = dsp.scratch("test.large", (count,))
    assert not np.shares_memory(large, dsp.scratch("test.large", (count,)))
    assert "test.large" not in vars(dsp._scratch)
