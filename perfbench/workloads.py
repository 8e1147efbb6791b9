"""The four workloads: set-up, a timed closed loop, output checks, traced run.

Every workload is one caller in one process issuing its next operation only
after the previous one returned. Timing wraps calls into vadpipe's public
functions; nothing inside the package is changed. Decisions use the fixed
threshold THRESH.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import time
from pathlib import Path

from vadpipe import aggregate, audio_io, evaluate, pipeline, postprocess, preprocess, scorer, synth
from vadpipe.pipeline import PipelineConfig

import tracing

THRESH = 45.9
MODES = ("baseline", "vad1", "vad2")
SNRS_DB = (0.0, 5.0, 10.0)
CLIP_S = 8.0
SETUP_REPEATS = 3
GOLDEN_SEEDS = {7: "default", 11: "held-out"}
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
# A value matches its golden when |got - golden| <= VALUE_TOL * max(1, |golden|).
VALUE_TOL = 1e-6
# (clean, noisy, non-speech) clips per workload, full size and --small.
COUNTS = {
    "detect-wav": ((10, 10, 10), (2, 2, 2)),
    "detect-scores": ((10, 10, 10), (2, 2, 2)),
    # noisy-heavy, so the accuracy ordering rests on 24 noisy clips
    "eval-corpus": ((6, 24, 12), (1, 2, 2)),
    "synth-corpus": ((3, 3, 3), (1, 1, 1)),
}


class Bench:
    """One benchmark invocation: settings, scratch space, checks and counters."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 small: bool, work_dir: Path, write_golden: bool = False):
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.write_golden = write_golden
        self.tracer = tracing.Tracer() if trace else None
        self.counts = COUNTS[workload][1 if small else 0]
        self.golden_path = GOLDEN_DIR / f"{workload}-seed{seed}.json"
        self.golden = None
        if not write_golden and self.golden_path.exists():
            self.golden = json.loads(self.golden_path.read_text())
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.seen: dict = {}   # first output per (clip, mode); later visits must equal it
        self.setup_s: float | None = None
        self._dirs = 0

    def record(self, ops: int, problem: str | None) -> None:
        self.attempted += ops
        if problem:
            self.failed += ops
            if len(self.problems) < 20:
                self.problems.append(problem)

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.work_dir / f"{stem}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def setup(self, build):
        """Run build(dir) SETUP_REPEATS times, keep the median seconds as
        setup_s and return the last result.

        A traced run builds once, with the set-up spans marked as such.
        """
        if self.tracer is not None:
            self.tracer.phase = "setup"
            with tracing.instrument(self.tracer):
                out = self.fresh_dir("setup")
                result = build(out)
            self.tracer.phase = "run"
            flush(out)
            return result
        times = []
        previous = None
        for _ in range(SETUP_REPEATS):
            out = self.fresh_dir("setup")
            start = time.perf_counter()
            result = build(out)
            times.append(time.perf_counter() - start)
            if previous is not None:
                shutil.rmtree(previous)
            previous = out
        self.setup_s = statistics.median(times)
        flush(previous)
        return result


def flush(root: Path) -> None:
    """fsync every file under root, outside any timed region, so that the
    kernel's writeback of the set-up corpus does not compete with the loop."""
    for path in root.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


# ---------------------------------------------------------------------------
# summaries

def tail_percentile(samples: list[float]) -> tuple[float | None, int | None]:
    """(value, percentile): p90, or the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    if n <= 10:
        return None, None
    pct = 90 if n >= 100 else math.floor(100 * (n - 10) / n)
    rank = -(-pct * n // 100)  # nearest rank, ceil(pct * n / 100): n - rank >= 10 lie beyond
    return sorted(samples)[rank - 1], pct


def latency_entries(mode: str, seconds: list[float]) -> dict:
    tail, pct = tail_percentile(seconds)
    return {
        f"clip_ms_p50.{mode}": {"value": 1000 * statistics.median(seconds), "unit": "ms",
                                "samples": len(seconds)},
        f"clip_ms_p90.{mode}": {"value": None if tail is None else 1000 * tail, "unit": "ms",
                                "samples": len(seconds), "percentile": pct},
    }


def end_to_end(bench: Bench, op_seconds, clips_per_op, clips, wall) -> dict:
    """The metrics every workload reports, per clip of 8 s audio.

    clip_ms_p50 is the median over operations of ms per clip; clips_per_s
    counts clips finished over the whole loop; rtf is processing seconds
    per audio second, summed over the modes the workload runs.
    """
    return {
        "setup_s": bench.setup_s,
        "clip_ms_p50": 1000 * statistics.median(t / clips_per_op for t in op_seconds),
        "clips_per_s": clips / wall,
        "rtf": sum(op_seconds) / (clips * CLIP_S),
    }


def run_until(bench: Bench, count: int, step) -> tuple[int, float]:
    """Closed loop: step(i) until bench.seconds pass (at least once).

    When writing golden outputs, every one of the `count` items is visited.
    """
    start = time.perf_counter()
    deadline = start + bench.seconds
    i = 0
    while True:
        step(i)
        i += 1
        if time.perf_counter() >= deadline and (not bench.write_golden or i >= count):
            return i, time.perf_counter() - start


# ---------------------------------------------------------------------------
# output checks

def vote_oracle(labels, window: int, quorum: int) -> int:
    """Clip label from segment labels, written independently of vadpipe.postprocess."""
    if len(labels) < window:
        return int(sum(labels) >= max(1, math.ceil(quorum * len(labels) / window)))
    return int(any(sum(labels[t:t + window]) >= quorum
                   for t in range(len(labels) - window + 1)))


def close(got: float, want: float) -> bool:
    return abs(got - want) <= VALUE_TOL * max(1.0, abs(want))


def check_decision(bench: Bench, clip: str, cfg: PipelineConfig, result) -> None:
    """One (clip, mode) operation against invariants, earlier visits and the golden."""
    values = result.segment_values
    decision = result.decision
    labels = [int(v >= cfg.thresh) for v in values]
    if cfg.vote_enabled:
        final = vote_oracle(labels, cfg.vote.window_w, cfg.vote.effective_quorum)
    else:
        final = labels[0]
    key = (clip, cfg.mode)
    problem = None
    if list(decision.per_segment) != labels or decision.final != final:
        problem = f"{key}: labels disagree with values at threshold {cfg.thresh}"
    elif key in bench.seen and bench.seen[key] != {"final": decision.final, "values": values}:
        problem = f"{key}: output changed between visits"
    elif bench.golden is not None:
        want = bench.golden["clips"][clip][cfg.mode]
        if want["final"] != decision.final or len(want["values"]) != len(values) \
                or not all(close(g, w) for g, w in zip(values, want["values"])):
            problem = f"{key}: differs from golden"
    bench.seen.setdefault(key, {"final": decision.final, "values": values})
    bench.record(1, problem)


def golden_decisions(bench: Bench) -> dict:
    clips: dict = {}
    for (clip, mode), out in bench.seen.items():
        clips.setdefault(clip, {})[mode] = {
            "final": out["final"], "values": [float(f"{v:.12g}") for v in out["values"]]}
    return clips


# ---------------------------------------------------------------------------
# detect-wav

def _detect_corpus(bench: Bench, out: Path, rate: int = 16000):
    return synth.generate_corpus(out, bench.counts, SNRS_DB, seed=bench.seed,
                                 duration_s=CLIP_S, sample_rate_hz=rate, write_stems=False)


def _preprocess_stages(seg, pre, noise):
    out = seg
    for stage in pre.stages:
        if stage == "spectral_subtract":
            out = preprocess.spectral_subtract(out, pre, noise=noise)
        elif stage == "energy_gate":
            out = preprocess.energy_gate(out, pre)
        elif stage == "rms_normalize":
            out = preprocess.rms_normalize(out, pre.target_rms)
    return out


def replay(path: Path, cfg: PipelineConfig, tracer: tracing.Tracer):
    """run_pipeline(ensure_rate(read_wav(path)), cfg), stage by stage through
    the public functions, so each stage gets its own span.

    Returns (segment values, segment labels, window labels, final label).
    """
    with tracer.in_mode(cfg.mode):
        buf = audio_io.ensure_rate(audio_io.read_wav(path))
        clip_scorer = cfg.make_scorer()
        if not cfg.vote_enabled:
            ss = aggregate.decide_segment(clip_scorer.score(buf), cfg.thresh)
            return [ss.value], (ss.label,), (ss.label,), ss.label
        segments = pipeline.segment(buf, cfg.segment_ms)
        if cfg.preprocess_enabled:
            noise = preprocess.clip_noise_profile(buf, cfg.preprocess)
            segments = [_preprocess_stages(s, cfg.preprocess, noise) for s in segments]
        scores = [aggregate.decide_segment(clip_scorer.score(s), cfg.thresh) for s in segments]
        labels = tuple(s.label for s in scores)
        windows = tuple(postprocess.vote_with_fallback(labels, cfg.vote))
        return [s.value for s in scores], labels, windows, postprocess.final_decision(windows)


def outcome(result) -> tuple:
    """(segment values, segment labels, window labels, final label) of a PipelineResult."""
    d = result.decision
    return result.segment_values, d.per_segment, d.per_window, d.final


def detect_loop(bench: Bench, cfgs: dict, clips: list, op, traced_op) -> dict:
    """Closed loop shared by detect-wav and detect-scores: one clip per step,
    through every mode. A traced run follows each operation with traced_op
    on the same input, whose outcome must equal the untraced one bit for bit."""
    if bench.tracer is None:
        for cfg in cfgs.values():  # warm-up, untimed
            op(clips[0][1], cfg)
    times = {mode: [] for mode in cfgs}
    per_clip = []
    traced = 0.0

    def step(i):
        nonlocal traced
        name, path = clips[i % len(clips)]
        total = 0.0
        for mode, cfg in cfgs.items():
            result, seconds = op(path, cfg)
            times[mode].append(seconds)
            total += seconds
            check_decision(bench, name, cfg, result)
            if bench.tracer is not None:
                bench.tracer.op = i
                with tracing.instrument(bench.tracer):
                    start = time.perf_counter()
                    got = traced_op(path, cfg)
                    traced += time.perf_counter() - start
                bench.record(1, None if got == outcome(result)
                             else f"{(name, mode)}: traced run differs from untraced")
        per_clip.append(total)

    done, wall = run_until(bench, len(clips), step)
    if bench.tracer is not None:
        parity = "bit-for-bit" if bench.failed == 0 else "FAILED"
        return {"per_layer": {"clips": done, "vad1_clips": done if "vad1" in cfgs else 0,
                              "overhead": traced / sum(per_clip)},
                "report": {"traced_parity": parity}}
    report = {}
    for mode in cfgs:
        report.update(latency_entries(mode, times[mode]))
    return {"end_to_end": end_to_end(bench, per_clip, 1, done, wall),
            "report": report, "golden": {"clips": golden_decisions(bench)}}


def detect_wav(bench: Bench) -> dict:
    manifest = bench.setup(lambda out: _detect_corpus(bench, out))
    clips = [(e.path, manifest.resolve(e)) for e in manifest.entries]

    def op(path, cfg):
        start = time.perf_counter()
        result = pipeline.run_pipeline(audio_io.ensure_rate(audio_io.read_wav(path)), cfg)
        return result, time.perf_counter() - start

    cfgs = {m: PipelineConfig(mode=m, thresh=THRESH) for m in MODES}
    return detect_loop(bench, cfgs, clips, op,
                       lambda path, cfg: replay(path, cfg, bench.tracer))


# ---------------------------------------------------------------------------
# detect-scores

def _scores_corpus(bench: Bench, out: Path):
    manifest = _detect_corpus(bench, out)
    clip_scorer = scorer.ReferenceScorer()
    for entry in manifest.entries:
        path = manifest.resolve(entry)
        matrix = clip_scorer.score(audio_io.ensure_rate(audio_io.read_wav(path)))
        scorer.write_scores(matrix, path.with_suffix(".scores"))
    return manifest


def detect_scores(bench: Bench) -> dict:
    manifest = bench.setup(lambda out: _scores_corpus(bench, out))
    clips = [(e.path, manifest.resolve(e).with_suffix(".scores")) for e in manifest.entries]

    def op(path, cfg):
        start = time.perf_counter()
        result = pipeline.run_pipeline_on_scores(scorer.load_scores(path), cfg)
        return result, time.perf_counter() - start

    # vad2 is left out: preprocessing does not apply to precomputed scores
    cfgs = {m: PipelineConfig(mode=m, thresh=THRESH) for m in ("baseline", "vad1")}
    return detect_loop(bench, cfgs, clips, op, lambda path, cfg: outcome(op(path, cfg)[0]))


# ---------------------------------------------------------------------------
# eval-corpus

EVAL_RATE_HZ = 48000


def summarize_reports(reports) -> dict:
    return {r.mode: {"accuracy": r.per_class_accuracy,
                     "roc": [list(p) for p in r.roc.points[1:-1]] if r.roc else None,
                     "fpr_at_99tpr": r.fpr_at_tpr.get(0.99),
                     "clips": r.num_clips, "errors": list(r.errors)} for r in reports}


def expected_eval(golden: dict, names: list[str]) -> dict:
    """Per-mode accuracy and ROC points from golden per-clip outputs, computed
    independently of vadpipe.evaluate."""
    out = {}
    for mode in MODES:
        totals: dict = {}
        right: dict = {}
        stats = []
        for name in names:
            clip = golden["clips"][name]
            truth = int(clip["label"] != "non_speech")
            totals[clip["label"]] = totals.get(clip["label"], 0) + 1
            right[clip["label"]] = right.get(clip["label"], 0) + int(clip[mode]["final"] == truth)
            stats.append((clip[mode]["statistic"], truth))
        pos = sum(t for _, t in stats)
        neg = len(stats) - pos
        roc = []
        for th in sorted({s for s, _ in stats}, reverse=True):
            roc.append([th, sum(1 for s, t in stats if t and s >= th) / pos,
                        sum(1 for s, t in stats if not t and s >= th) / neg])
        out[mode] = {"accuracy": {c: right[c] / totals[c] for c in totals}, "roc": roc}
    return out


def check_eval(bench: Bench, summary: dict, first: dict | None, names: list[str]) -> None:
    """One run_eval call; each (clip, mode) pair is an operation."""
    ordering = paper_ordering(summary) if bench.golden is None and first is None else None
    for mode in MODES:
        got = summary[mode]
        problem = ordering
        if got["errors"] or got["clips"] != len(names):
            problem = f"{mode}: {len(got['errors'])} clip errors, {got['clips']} clips scored"
        elif first is not None and got != first[mode]:
            problem = f"{mode}: report changed between runs"
        elif bench.golden is not None:
            want = expected_eval(bench.golden, names)[mode]
            if got["accuracy"] != want["accuracy"] or len(got["roc"]) != len(want["roc"]) or not all(
                    close(g[0], w[0]) and g[1:] == w[1:] for g, w in zip(got["roc"], want["roc"])):
                problem = f"{mode}: report differs from golden"
        bench.record(len(names), problem)


def paper_ordering(summary: dict, strict: bool = False) -> str | None:
    """The paper's ordering of the three modes; None when it holds.

    The default form gates seeds without golden outputs: noisy-speech
    accuracy does not fall from baseline to vad1 to vad2, and every mode
    keeps non-speech accuracy >= 0.70. The strict form adds the acceptance
    gates' 5-point steps and FPR@99%TPR vad2 <= vad1 <= baseline. Those gates
    use 300 clips; with 24 noisy and 12 non-speech clips the strict form
    failed on 3 of 30 seeds of unchanged code, so it is reported, not gated.
    """
    noisy = [summary[m]["accuracy"].get("noisy_speech", 0.0) for m in MODES]
    fpr = [summary[m]["fpr_at_99tpr"] for m in MODES]
    if strict and not (noisy[2] >= noisy[1] + 0.05 and noisy[1] >= noisy[0] + 0.05):
        return f"noisy-speech accuracy steps below 5 points: {noisy}"
    if strict and not fpr[2] <= fpr[1] <= fpr[0]:
        return f"FPR@99%TPR not ordered vad2 <= vad1 <= baseline: {fpr}"
    if not noisy[0] <= noisy[1] <= noisy[2]:
        return f"noisy-speech accuracy not ordered baseline <= vad1 <= vad2: {noisy}"
    for mode in MODES:
        if summary[mode]["accuracy"].get("non_speech", 0.0) < 0.70:
            return f"{mode}: non-speech accuracy below 0.70"
    return None


def eval_corpus(bench: Bench) -> dict:
    cfgs = [PipelineConfig(mode=m, thresh=THRESH) for m in MODES]
    manifest = bench.setup(lambda out: _detect_corpus(bench, out, EVAL_RATE_HZ))
    names = [e.path for e in manifest.entries]
    nproc = os.cpu_count() or 1

    def op(jobs):
        out = bench.fresh_dir("reports")
        start = time.perf_counter()
        reports = evaluate.run_eval(manifest, cfgs, out_dir=out, jobs=jobs, tpr_targets=(0.99,))
        seconds = time.perf_counter() - start
        shutil.rmtree(out)
        return summarize_reports(reports), seconds

    if bench.tracer is not None:
        first, t_n = op(nproc)
        check_eval(bench, first, None, names)
        again, t_1 = op(1)
        check_eval(bench, again, first, names)
        with tracing.instrument(bench.tracer):
            traced, t_traced = op(1)
        check_eval(bench, traced, first, names)
        return {"per_layer": {"clips": len(names), "vad1_clips": len(names),
                              "overhead": t_traced / t_1,
                              "parallel_efficiency": t_1 / (nproc * t_n)},
                "report": {"jobs": nproc, "eval_jobs1_s": t_1, "eval_jobsN_s": t_n}}

    times = []
    summaries = []

    # The timed loop stays in one process: a pool of nproc workers on a
    # shared host measures its neighbours as much as vadpipe. The pool runs
    # once after the loop, for eval_clips_per_s, and in the traced run.
    def step(_):
        summary, seconds = op(1)
        check_eval(bench, summary, summaries[0] if summaries else None, names)
        summaries.append(summary)
        times.append(seconds)

    calls, wall = run_until(bench, 1, step)
    first = summaries[0]
    pooled, t_pool = op(nproc)  # one call through the pool, outside the gated loop
    check_eval(bench, pooled, first, names)
    report = {
        "eval_clips_per_s": {"value": len(names) * len(MODES) / t_pool, "unit": "1/s",
                             "counts": "(clip, mode) pairs", "jobs": nproc, "calls": 1},
        "eval_clips_per_s_jobs1": {"value": calls * len(names) * len(MODES) / wall,
                                   "unit": "1/s", "counts": "(clip, mode) pairs",
                                   "jobs": 1, "calls": calls},
        "paper_ordering_strict": paper_ordering(first, strict=True) or "holds",
    }
    for mode in MODES:
        report[f"noisy_acc.{mode}"] = {"value": first[mode]["accuracy"].get("noisy_speech"),
                                       "unit": "fraction"}
        report[f"non_speech_acc.{mode}"] = {"value": first[mode]["accuracy"].get("non_speech"),
                                            "unit": "fraction"}
        report[f"fpr_at_99tpr.{mode}"] = {"value": first[mode]["fpr_at_99tpr"], "unit": "fraction"}
    golden = None
    if bench.write_golden:
        golden = {"clips": {}}
        for entry in manifest.entries:
            golden["clips"][entry.path] = {"label": entry.label}
            buf = audio_io.ensure_rate(audio_io.read_wav(manifest.resolve(entry)))
            for cfg in cfgs:
                result = pipeline.run_pipeline(buf, cfg)
                golden["clips"][entry.path][cfg.mode] = {
                    "final": result.decision.final,
                    "statistic": evaluate.clip_statistic(result.segment_values, cfg)}
    return {"end_to_end": end_to_end(bench, times, len(names), calls * len(names), wall),
            "report": report, "golden": golden}


# ---------------------------------------------------------------------------
# synth-corpus

def file_digests(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def corpus_sha256(digests: dict) -> str:
    """One digest over every file of a corpus: relative path and content hash."""
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def synth_corpus(bench: Bench) -> dict:
    clips_per_op = sum(bench.counts)

    def build(out):
        # stems on, as the CLI writes them by default
        synth.generate_corpus(out, bench.counts, SNRS_DB, seed=bench.seed, duration_s=CLIP_S,
                              sample_rate_hz=16000, write_stems=True)
        return out

    reference_dir = bench.setup(build)
    reference = file_digests(reference_dir)
    manifest = (reference_dir / "manifest.tsv").read_text().splitlines()
    golden_problem = None
    if bench.golden is not None:
        # a --small corpus is a subset of the full one: same files, same manifest lines
        if any(bench.golden["files"].get(name) != digest
               for name, digest in reference.items() if name != "manifest.tsv") \
                or not set(manifest) <= set(bench.golden["manifest"]):
            golden_problem = "corpus differs from golden"
    bench.record(clips_per_op, golden_problem)

    def op():
        out = bench.fresh_dir("corpus")
        start = time.perf_counter()
        build(out)
        seconds = time.perf_counter() - start
        digests = file_digests(out)
        shutil.rmtree(out)
        return digests, seconds

    def check(digests):
        bench.record(clips_per_op, golden_problem if digests == reference
                     else "same seed gave different corpus bytes")

    if bench.tracer is not None:
        plain = traced = 0.0

        def trace_step(i):
            nonlocal plain, traced
            digests, seconds = op()
            plain += seconds
            check(digests)
            bench.tracer.op = i
            with tracing.instrument(bench.tracer):
                digests, seconds = op()
            traced += seconds
            check(digests)

        done, _ = run_until(bench, 1, trace_step)
        return {"per_layer": {"clips": done * clips_per_op, "vad1_clips": 0,
                              "overhead": traced / plain}, "report": {}}

    times = []

    def step(_):
        digests, seconds = op()
        check(digests)
        times.append(seconds)

    calls, wall = run_until(bench, 1, step)
    report = {"synth_clips_per_s": {"value": calls * clips_per_op / wall, "unit": "1/s"},
              "corpus_sha256": corpus_sha256(reference)}
    return {"end_to_end": end_to_end(bench, times, clips_per_op, calls * clips_per_op, wall),
            "report": report, "golden": {"files": reference, "manifest": manifest}}


WORKLOADS = {
    "detect-wav": detect_wav,
    "detect-scores": detect_scores,
    "eval-corpus": eval_corpus,
    "synth-corpus": synth_corpus,
}


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run

def per_layer_metrics(tracer: tracing.Tracer, counts: dict) -> dict:
    stats = tracing.span_stats(tracer.spans)
    per_call = stats["per_call_ms"]
    calls = stats["calls"]
    run_calls = stats["run_calls"]
    clips = counts["clips"]

    def ms(name):
        return per_call.get(name, 0.0)

    vote_total = sum(ms(n) * calls.get(n, 0) for n in
                     ("postprocess.vote_with_fallback", "postprocess.final_decision"))
    noise_frames = tracer.noise_stft_frames
    metrics = {
        "audio_io.read_wav.ms": ms("audio_io.read_wav"),
        "audio_io.resample.ms": ms("audio_io.resample"),
        "audio_io.decodes_per_clip": run_calls.get("audio_io.read_wav", 0) / clips,
        "audio_io.write_wav.ms": ms("audio_io.write_wav"),
        "pipeline.segment.ms": ms("pipeline.segment"),
        "preprocess.clip_noise_profile.ms": ms("preprocess.clip_noise_profile"),
        # computed: leading frames the estimate keeps / frames its STFT computes
        "preprocess.noise_stft_useful_ratio": (
            PipelineConfig().preprocess.noise_frames / statistics.mean(noise_frames)
            if noise_frames else 0.0),
        "preprocess.spectral_subtract.ms": ms("preprocess.spectral_subtract"),
        "preprocess.energy_gate.ms": ms("preprocess.energy_gate"),
        "preprocess.rms_normalize.ms": ms("preprocess.rms_normalize"),
        "scorer.score.ms": ms("scorer.score"),
        "scorer.score_clip.ms": ms("scorer.score_clip"),
        "scorer.mel_filterbank.ms": ms("scorer.mel_filterbank"),
        "scorer.mel_filterbank.builds_per_clip": (
            stats["run_calls_by_mode"].get(("scorer.mel_filterbank", "vad1"), 0)
            / counts["vad1_clips"] if counts["vad1_clips"] else 0.0),
        "scorer.load_scores.ms": ms("scorer.load_scores"),
        "scorer.slice_scores.ms": ms("scorer.slice_scores"),
        "aggregate.decide_segment.ms": ms("aggregate.decide_segment"),
        "postprocess.vote.ms": (vote_total / calls["postprocess.final_decision"]
                                if calls.get("postprocess.final_decision") else 0.0),
        "evaluate.clip_statistic.ms": ms("evaluate.clip_statistic"),
        "evaluate.roc_sweep.ms": ms("evaluate.roc_sweep"),
        "evaluate.parallel_efficiency": counts.get("parallel_efficiency", 0.0),
        "synth.speech_surrogate.ms": ms("synth.speech_surrogate"),
        "synth.white_noise.ms": ms("synth.white_noise"),
        "synth.pink_noise.ms": ms("synth.pink_noise"),
        "synth.babble_noise.ms": ms("synth.babble_noise"),
        "synth.mix_at_snr.ms": ms("synth.mix_at_snr"),
        "trace.overhead_ratio": counts["overhead"],
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_ms_per_clip"] = 1000 * stats["layer_run_s"].get(layer, 0.0) / clips
    return metrics
