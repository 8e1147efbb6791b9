import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vadpipe import parallel
from vadpipe.audio_io import PIPELINE_RATE_HZ, AudioBuffer, write_wav
from vadpipe.cli import (CONFIG_KEYS, build_parser, build_pipeline_config, format_config,
                         main, parse_config_file)
from vadpipe.pipeline import MAX_SEGMENT_MS, MODES, SCORER_BACKENDS, PipelineConfig
from vadpipe.postprocess import VoteConfig
from vadpipe.preprocess import STAGE_NAMES, PreprocessConfig
from vadpipe.scorer import (MAX_BANDS, MAX_FRAME_MS, FrameScoreMatrix, ReferenceScorer,
                            write_scores)

from conftest import make_buffer


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("clicorpus")
    assert main(["synth", "--clips", "9", "--snr", "0,10", "--seed", "4",
                 "--duration", "2.0", "--out", str(root)]) == 0
    return root


ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "vadpipe.cli", *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


def digest_dir(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestSynthCommand:
    def test_writes_corpus_and_manifest(self, corpus_dir):
        wavs = list(corpus_dir.glob("*.wav"))
        assert len(wavs) == 9
        lines = (corpus_dir / "manifest.tsv").read_text().strip().splitlines()
        assert len(lines) == 9

    def test_rerun_identical_bytes(self, tmp_path):
        args = ["synth", "--clips", "3", "--seed", "11", "--duration", "1.0"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert digest_dir(tmp_path / "a") == digest_dir(tmp_path / "b")

    def test_zero_clips_is_usage_error(self, tmp_path):
        assert main(["synth", "--clips", "0", "--out", str(tmp_path)]) == 2

    def test_missing_out_is_usage_error(self):
        assert main(["synth", "--clips", "3"]) == 2

    @pytest.mark.parametrize("value", ["0.2", "0", "-1", "nan", "1e9"])
    def test_bad_duration_is_usage_error(self, tmp_path, capsys, value):
        out = tmp_path / "c"
        assert main(["synth", "--clips", "1", "--duration", value, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "duration must be in [0.5, 600] s" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "5,nan"])
    def test_non_finite_snr_is_usage_error_before_any_file(self, tmp_path, capsys, value):
        out = tmp_path / "c"
        assert main(["synth", "--clips", "3", "--snr", value, "--duration", "1",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "SNR levels must be finite" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("value", ["4000", "-4000", "300.5", "5,-300.5"])
    def test_snr_beyond_the_bound_is_usage_error_before_any_file(self, tmp_path, capsys,
                                                                 value):
        out = tmp_path / "c"
        assert main(["synth", "--clips", "3", f"--snr={value}", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "SNR levels must be finite and at most 300 dB" in captured.err
        assert captured.out == "" and not out.exists()

    def test_negative_seed_is_usage_error_before_any_file(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert main(["synth", "--clips", "3", "--seed", "-1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "seed must be a non-negative integer, got -1" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("flag", ["--snr=4000", "--snr=-4000", "--seed=-1"])
    def test_extreme_snr_or_seed_exits_without_traceback(self, tmp_path, flag):
        out = tmp_path / "c"
        proc = run_cli("synth", "--clips", "3", flag, "--out", str(out))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and not out.exists()

    def test_zero_duration_exits_without_traceback_or_warning(self, tmp_path):
        proc = run_cli("synth", "--clips", "1", "--duration", "0", "--out", str(tmp_path / "c"))
        assert proc.returncode == 2
        assert "duration must be in" in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


class TestDetectCommand:
    def test_silence_is_not_speech(self, tmp_path, capsys):
        wav = tmp_path / "sil.wav"
        write_wav(make_buffer(np.zeros(16000)), wav)
        assert main(["detect", "--mode", "vad2", str(wav)]) == 0
        out = capsys.readouterr().out.strip()
        assert out == f"{wav}\t0"

    def test_mode_required(self, tmp_path):
        wav = tmp_path / "a.wav"
        write_wav(make_buffer(np.zeros(1000)), wav)
        assert main(["detect", str(wav)]) == 2

    def test_thresh_zero_labels_speech(self, tmp_path, capsys):
        wav = tmp_path / "n.wav"
        write_wav(make_buffer(np.random.default_rng(0).standard_normal(16000) * 0.1), wav)
        assert main(["detect", "--mode", "baseline", "--thresh", "0", str(wav)]) == 0
        assert capsys.readouterr().out.strip().endswith("\t1")

    def test_unreadable_file_fails_run(self, tmp_path, capsys):
        missing = tmp_path / "nope.wav"
        assert main(["detect", "--mode", "vad1", str(missing)]) == 1
        assert "nope.wav" in capsys.readouterr().err

    def test_segment_below_one_sample_is_usage_error(self, tmp_path):
        # 0.01 ms is 0.16 samples at 16 kHz: refused before any clip is read
        proc = run_cli("detect", "--mode", "vad1", "--segment-ms", "0.01",
                       str(tmp_path / "never_read.wav"))
        assert proc.returncode == 2
        assert "segment_ms: a 0.01 ms segment at 16000 Hz holds no whole sample" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "never_read" not in proc.stderr and proc.stdout == ""

    def test_segment_below_one_sample_is_refused_by_print_config(self, capsys):
        assert main(["detect", "--segment-ms", "0.01", "--print-config"]) == 2
        captured = capsys.readouterr()
        assert "holds no whole sample" in captured.err and captured.out == ""

    @pytest.mark.parametrize("flags", [
        ["--mode", "vad1", "--segment-ms", "inf"], ["--mode", "vad1", "--frame-ms", "inf"],
        ["--mode", "vad1", "--hop-ms", "inf"], ["--mode", "vad1", "--thresh", "nan"],
        ["--mode", "vad2", "--alpha", "nan"], ["--mode", "vad2", "--theta-abs", "nan"],
        ["--mode", "vad2", "--target-rms", "inf"],
    ])
    def test_non_finite_value_is_usage_error(self, tmp_path, capsys, flags):
        wav = tmp_path / "a.wav"
        write_wav(make_buffer(np.random.default_rng(1).standard_normal(32000) * 0.1), wav)
        assert main(["detect", *flags, str(wav)]) == 2
        captured = capsys.readouterr()
        assert "error" in captured.err and "must be finite" in captured.err
        assert captured.out == ""

    def test_non_finite_value_exits_without_traceback(self, tmp_path):
        wav = tmp_path / "a.wav"
        write_wav(make_buffer(np.zeros(32000)), wav)
        proc = run_cli("detect", "--mode", "vad1", "--segment-ms", "inf", str(wav))
        assert proc.returncode == 2
        assert "error" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag,value", [("--frame-ms", "0"), ("--hop-ms", "0"),
                                            ("--hop-ms", "-5"), ("--bands", "0")])
    def test_bad_scorer_geometry_is_usage_error(self, tmp_path, capsys, flag, value):
        # exit 2, not 1: the setting is refused before any clip is read
        assert main(["detect", "--mode", "vad2", flag, value,
                     str(tmp_path / "never_read.wav")]) == 2
        captured = capsys.readouterr()
        assert f"{flag[2:].replace('-', '_')} must be" in captured.err
        assert "never_read" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("flags,message", [
        (["--frame-ms", "10", "--hop-ms", "20"], "hop_ms must not exceed frame_ms"),
        (["--hop-ms", "25.5"], "hop_ms must not exceed frame_ms"),
        (["--segment-ms", "1e9"], "segment_ms must be at most 60000"),
        (["--frame-ms", "1e6"], "frame_ms must be at most 1000"),
        (["--bands", "2000000"], f"bands must be at most {MAX_BANDS}"),
    ])
    def test_setting_out_of_range_is_usage_error(self, tmp_path, capsys, flags, message):
        # refused before any clip is read, so no segment rows are allocated
        assert main(["detect", "--mode", "vad2", *flags, str(tmp_path / "never_read.wav")]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "never_read" not in captured.err and captured.out == ""

    def test_bad_scorer_geometry_exits_without_traceback(self, tmp_path):
        proc = run_cli("detect", "--mode", "vad2", "--hop-ms", "0", str(tmp_path / "a.wav"))
        assert proc.returncode == 2
        assert "hop_ms must be positive" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("frame_ms", ["0.02", "0.04"])
    def test_scorer_hop_below_one_sample_is_usage_error(self, tmp_path, frame_ms):
        # 0.02 ms is 0.32 samples at 16 kHz: refused before any clip is read
        proc = run_cli("detect", "--mode", "vad1", "--frame-ms", frame_ms, "--hop-ms", "0.02",
                       str(tmp_path / "never_read.wav"))
        assert proc.returncode == 2
        assert "holds no whole sample" in proc.stderr and "Traceback" not in proc.stderr
        assert "never_read" not in proc.stderr and proc.stdout == ""

    def test_json_lines_output(self, tmp_path, capsys):
        wav = tmp_path / "s.wav"
        write_wav(make_buffer(np.zeros(16000)), wav)
        assert main(["detect", "--mode", "vad1", "--json-lines", str(wav)]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["final"] == 0
        assert len(record["segments"]) == 5
        assert len(record["windows"]) == 2

    def test_manifest_input(self, corpus_dir, capsys):
        assert main(["detect", "--mode", "vad1",
                     "--manifest", str(corpus_dir / "manifest.tsv")]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 9

    def test_missing_manifest_is_usage_error(self, tmp_path, capsys):
        assert main(["detect", "--mode", "vad1", "--manifest", str(tmp_path / "none.tsv")]) == 2
        captured = capsys.readouterr()
        assert "none.tsv" in captured.err and captured.out == ""

    def test_malformed_manifest_is_usage_error(self, tmp_path, capsys):
        manifest = tmp_path / "bad.tsv"
        manifest.write_text("a.wav\tbogus\tNA\t1.000\n")
        assert main(["detect", "--mode", "vad1", "--manifest", str(manifest)]) == 2
        captured = capsys.readouterr()
        assert "unknown label 'bogus'" in captured.err and captured.out == ""

    def test_score_file_backend(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        # 2 channels of 30.0 per frame: every segment aggregates to 60.0
        write_scores(FrameScoreMatrix(np.full((60, 2), 30.0), 10.0), scores)
        assert main(["detect", "--mode", "vad1", "--scorer", "score-file",
                     "--thresh", "70", str(scores)]) == 0
        assert capsys.readouterr().out.strip().endswith("\t0")
        assert main(["detect", "--mode", "vad1", "--scorer", "score-file",
                     "--thresh", "10", str(scores)]) == 0
        assert capsys.readouterr().out.strip().endswith("\t1")

    def test_nan_wav_fails_clip(self, tmp_path, capsys):
        import struct
        wav = tmp_path / "nan.wav"
        payload = struct.pack("<4f", 0.1, float("nan"), 0.2, 0.3)
        wav.write_bytes(b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
                        + b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 16000, 64000, 4, 32)
                        + b"data" + struct.pack("<I", len(payload)) + payload)
        assert main(["detect", "--mode", "vad2", str(wav)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "non-finite" in out.err

    def test_unsupported_rate_fails_clip_without_traceback(self, tmp_path):
        # a 1 Hz WAV was once upsampled to 16 kHz and labelled
        wav = tmp_path / "one_hz.wav"
        write_wav(AudioBuffer(np.zeros(8), 1), wav)
        proc = run_cli("detect", "--mode", "vad1", str(wav))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith(f"error: {wav}: ")
        assert "sample rate 1 Hz outside the supported 8000-192000 Hz" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("mode", ["baseline", "vad1"])
    def test_bad_score_header_fails_clip(self, tmp_path, capsys, mode):
        scores = tmp_path / "inf.txt"
        scores.write_text("#channels=1 frame_ms=inf\n1 0.5\n2 0.5\n")
        assert main(["detect", "--mode", mode, "--scorer", "score-file", str(scores)]) == 1
        err = capsys.readouterr().err
        assert "inf.txt" in err and "frame_ms" in err

    def test_no_inputs_usage_error(self):
        assert main(["detect", "--mode", "vad1"]) == 2

    def test_memory_error_fails_clip(self, tmp_path, capsys, monkeypatch):
        # a clip too large for memory is that clip's error, not a traceback
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 119. GiB")

        monkeypatch.setattr(ReferenceScorer, "score_rows", out_of_memory)
        wav = tmp_path / "n.wav"
        write_wav(make_buffer(np.random.default_rng(0).standard_normal(16000) * 0.1), wav)
        assert main(["detect", "--mode", "vad1", str(wav)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {wav}: Unable to allocate 119. GiB\n"


class TestEvalCommand:
    def test_three_mode_report(self, corpus_dir, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        status = main(["eval", "--manifest", str(corpus_dir / "manifest.tsv"),
                       "--modes", "baseline,vad1,vad2", "--thresh", "45",
                       "--jobs", "1", "--out", str(out_dir)])
        assert status == 0
        printed = capsys.readouterr().out
        assert "| Type | baseline | vad1 | vad2 |" in printed
        for m in ("baseline", "vad1", "vad2"):
            assert (out_dir / f"roc_{m}.csv").read_text().startswith("threshold,tpr,fpr")

    def test_empty_manifest_usage_error(self, tmp_path):
        manifest = tmp_path / "empty.tsv"
        manifest.write_text("")
        assert main(["eval", "--manifest", str(manifest)]) == 2

    def test_unknown_mode_usage_error(self, corpus_dir):
        assert main(["eval", "--manifest", str(corpus_dir / "manifest.tsv"),
                     "--modes", "vad9"]) == 2


@pytest.mark.parametrize("command", ["eval", "roc"])
def test_jobs_defaults_to_the_usable_cpus(monkeypatch, command):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    assert build_parser().parse_args([command, "--manifest", "m.tsv"]).jobs == 3


@pytest.mark.parametrize("command", ["eval", "roc"])
class TestReportUsageErrors:
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one(self, corpus_dir, capsys, command, jobs):
        assert main([command, "--manifest", str(corpus_dir / "manifest.tsv"),
                     "--jobs", jobs]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_score_file_backend(self, corpus_dir, capsys, command):
        assert main([command, "--manifest", str(corpus_dir / "manifest.tsv"),
                     "--scorer", "score-file", "--jobs", "1"]) == 2
        captured = capsys.readouterr()
        assert "detect only" in captured.err and captured.out == ""


class TestRocCommand:
    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "1.5", "x"])
    def test_target_tpr_outside_unit_interval_is_usage_error(self, corpus_dir, capsys,
                                                             monkeypatch, value):
        def no_eval(*args, **kwargs):
            raise AssertionError("evaluation ran")

        monkeypatch.setattr("vadpipe.cli.run_eval", no_eval)
        assert main(["roc", "--manifest", str(corpus_dir / "manifest.tsv"),
                     "--target-tpr", value]) == 2
        captured = capsys.readouterr()
        assert "--target-tpr" in captured.err and captured.out == ""

    def test_prints_fpr_per_mode(self, corpus_dir, capsys):
        status = main(["roc", "--manifest", str(corpus_dir / "manifest.tsv"),
                       "--modes", "baseline,vad1", "--target-tpr", "0.99",
                       "--jobs", "1"])
        assert status == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("baseline\ttpr>=0.99\tfpr=")


class TestConfigHandling:
    def test_print_config_round_trips(self, tmp_path, capsys):
        assert main(["detect", "--mode", "vad2", "--alpha", "2.0", "--window", "5",
                     "--print-config"]) == 0
        text = capsys.readouterr().out
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(text)
        rebuilt = build_pipeline_config(parse_config_file(cfg_file))
        assert rebuilt.mode == "vad2"
        assert rebuilt.preprocess.alpha == 2.0
        assert rebuilt.vote.window_w == 5
        assert format_config(rebuilt) == text

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("mode = vad1\nthresh = 10\n")
        assert main(["detect", "--config", str(cfg_file), "--thresh", "99",
                     "--print-config"]) == 0
        text = capsys.readouterr().out
        assert "thresh = 99" in text
        assert "mode = vad1" in text

    def test_config_file_comments_and_unknown_keys(self, tmp_path):
        good = tmp_path / "good.txt"
        good.write_text("# comment\nalpha = 1.7\n\n")
        assert build_pipeline_config(parse_config_file(good)).preprocess.alpha == 1.7
        bad = tmp_path / "bad.txt"
        bad.write_text("gamma = 3\n")
        with pytest.raises(ValueError):
            parse_config_file(bad)

    def test_theta_abs_switches_mode(self):
        cfg = build_pipeline_config({"theta_abs": "0.5"})
        assert cfg.preprocess.theta == 0.5
        assert not cfg.preprocess.theta_relative
        rel = build_pipeline_config({})
        assert rel.preprocess.theta_relative

    def test_stages_none(self):
        cfg = build_pipeline_config({"stages": "none"})
        assert cfg.preprocess.stages == ()

    def test_defaults_match_documented_values(self):
        cfg = build_pipeline_config({})
        assert cfg.segment_ms == 200.0
        assert cfg.vote.window_w == 4
        assert cfg.vote.effective_quorum == 3
        assert cfg.preprocess.alpha == 1.5
        assert cfg.preprocess.noise_frames == 6


positive = st.floats(min_value=0.0, exclude_min=True, max_value=1e9,
                     allow_nan=False, allow_infinity=False)
# from one sample at the pipeline rate: a shorter hop is refused
frame_lengths = st.floats(min_value=1000.0 / PIPELINE_RATE_HZ, max_value=MAX_FRAME_MS)
pipeline_configs = st.builds(
    PipelineConfig,
    mode=st.sampled_from(MODES),
    # from one sample at the pipeline rate, as frame_lengths
    segment_ms=st.floats(min_value=1000.0 / PIPELINE_RATE_HZ, max_value=MAX_SEGMENT_MS),
    thresh=st.floats(allow_nan=False, allow_infinity=False),
    preprocess=st.builds(
        PreprocessConfig,
        alpha=st.floats(min_value=1.0, max_value=1e9),
        beta=st.floats(min_value=0.0, max_value=1.0),
        theta=st.floats(min_value=0.0, max_value=1e9),
        theta_relative=st.booleans(),
        target_rms=positive,
        noise_frames=st.integers(1, 64),
        stages=st.lists(st.sampled_from(STAGE_NAMES), unique=True).map(tuple)),
    vote=st.integers(1, 8).flatmap(
        lambda w: st.builds(VoteConfig, st.just(w), st.none() | st.integers(1, w))),
    scorer_backend=st.sampled_from(SCORER_BACKENDS),
    # the longer of two lengths is the frame: a hop may not exceed it
    scoring=st.builds(lambda bands, a, b: ReferenceScorer(bands, max(a, b), min(a, b)),
                      st.integers(1, MAX_BANDS), frame_lengths, frame_lengths),
)


class TestConfigTable:
    @settings(deadline=None)  # each example writes and reads a file
    @given(pipeline_configs)
    @example(PipelineConfig(preprocess=PreprocessConfig(alpha=1.23456789)))
    @example(PipelineConfig(thresh=0.1 + 0.2, segment_ms=1000.0 / PIPELINE_RATE_HZ))
    def test_format_parse_build_round_trips(self, tmp_path_factory, cfg):
        text = format_config(cfg)
        path = tmp_path_factory.mktemp("cfg") / "cfg.txt"
        path.write_text(text)
        rebuilt = build_pipeline_config(parse_config_file(path))
        assert format_config(rebuilt) == text
        # --print-config writes the quorum out, so the rebuilt one is explicit
        assert rebuilt == replace(cfg, vote=VoteConfig(cfg.vote.window_w,
                                                       cfg.vote.effective_quorum))

    def test_readme_defaults_are_the_printed_defaults(self):
        readme = (ROOT / "README.md").read_text()
        section = readme[readme.index("### Configuration"):readme.index("### File formats")]
        documented = {key: default.strip("`") for key, default in
                      re.findall(r"^\| `(\w+)` +\| (\S+) +\|", section, re.M)}
        printed = dict(line.split(" = ")
                       for line in format_config(build_pipeline_config({})).splitlines())
        assert documented == {key: printed.get(key, "-") for key in CONFIG_KEYS}
