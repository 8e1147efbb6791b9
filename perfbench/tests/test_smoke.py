"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/tests -q

Each workload runs for one second on its --small corpus at the default
golden seed, untraced and traced. Every metric BENCHMARK.json names must be
printed with its unit, every output check must pass, and the traced
detect-wav replay must match run_pipeline bit for bit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# detect-scores and synth-corpus are runnable but not listed in BENCHMARK.json
# (see README.md)
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["detect-scores", "synth-corpus"]
# metrics the report line carries, by workload, beyond the end-to-end set
REPORTED = {
    "detect-wav": [f"clip_ms_{p}.{m}" for p in ("p50", "p90") for m in ("baseline", "vad1", "vad2")],
    "detect-scores": [f"clip_ms_{p}.{m}" for p in ("p50", "p90") for m in ("baseline", "vad1")],
    "eval-corpus": ["eval_clips_per_s", "eval_clips_per_s_jobs1", "noisy_acc.baseline",
                    "noisy_acc.vad1", "noisy_acc.vad2", "fpr_at_99tpr.vad2"],
    "synth-corpus": ["synth_clips_per_s"],
}


def run_bench(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_checks_pass(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    report = json.loads(report_line)["report"]
    result = json.loads(result_line)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["golden"] == "default"
    assert report["error_ratio"]["value"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        assert (ROOT / report["spans"]).is_file()
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        if workload in ("detect-wav", "detect-scores"):
            assert report["traced_parity"] == "bit-for-bit"
    else:
        for name in REPORTED[workload]:
            assert report[name]["unit"], name
        assert report["setup_s"]["unit"] == "s"
        assert report["clip_ms_p50"]["unit"] == "ms"


def test_incomplete_checkout_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
