import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from vadpipe.audio_io import write_wav
from vadpipe.cli import build_pipeline_config, format_config, main, parse_config_file
from vadpipe.scorer import FrameScoreMatrix, write_scores

from conftest import make_buffer


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("clicorpus")
    assert main(["synth", "--clips", "9", "--snr", "0,10", "--seed", "4",
                 "--duration", "2.0", "--out", str(root)]) == 0
    return root


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

    @pytest.mark.parametrize("mode", ["baseline", "vad1"])
    def test_bad_score_header_fails_clip(self, tmp_path, capsys, mode):
        scores = tmp_path / "inf.txt"
        scores.write_text("#channels=1 frame_ms=inf\n1 0.5\n2 0.5\n")
        assert main(["detect", "--mode", mode, "--scorer", "score-file", str(scores)]) == 1
        err = capsys.readouterr().err
        assert "inf.txt" in err and "frame_ms" in err

    def test_no_inputs_usage_error(self):
        assert main(["detect", "--mode", "vad1"]) == 2


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


class TestRocCommand:
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
