"""vadpipe benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload detect-wav --seed 7 --seconds 35 --trace 0

Run from the root of a checkout: the package is imported from ./src, and the
metric names and units come from ./BENCHMARK.json. The last line printed is
one JSON object with `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1);
the line before it is the full report. Both, and the span file of a traced
run, are also written under .perfbench_out/. The exit status is 1 when any
output check failed and 2 when the checkout is incomplete.

--write-golden stores this seed's outputs as the golden file of the workload;
an intended change to them is explained in CHANGES.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: eval-corpus's traced run forks one worker per
# core, and each would otherwise start its own pool of BLAS threads.
THREAD_SETTINGS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_SETTINGS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": THREAD_SETTINGS,
        "file_writes": "timed writes go to the page cache, unsynced: disk speed is not measured",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny corpora, for the benchmark's own smoke test")
    parser.add_argument("--write-golden", action="store_true",
                        help="store this seed's outputs as the workload's golden file")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "vadpipe" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {SRC / 'vadpipe'} or {spec_path} is missing; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))

    import vadpipe
    import tracing
    import workloads

    if Path(vadpipe.__file__).resolve().parent != SRC / "vadpipe":
        print(f"perfbench: imported vadpipe from {vadpipe.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT_DIR / f"work-{stem}-{os.getpid()}"
    bench = workloads.Bench(args.workload, args.seed, args.seconds, bool(args.trace),
                            args.small, work_dir, args.write_golden)
    try:
        result = workloads.WORKLOADS[args.workload](bench)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "golden": workloads.GOLDEN_SEEDS.get(args.seed) if bench.golden else None,
        "error_ratio": {"value": bench.failed / max(bench.attempted, 1),
                        "unit": "failed/attempted"},
        "problems": bench.problems,
        "environment": environment(),
    }
    if args.trace:
        computed = workloads.per_layer_metrics(bench.tracer, result["per_layer"])
        wanted = spec["per_layer"]
        spans_path = OUT_DIR / f"spans-{stem}.jsonl"
        tracing.write_spans(bench.tracer.spans, spans_path)
        report["spans"] = str(spans_path.relative_to(ROOT))
        report["per_layer"] = computed  # a superset of BENCHMARK.json's list
    else:
        computed = result["end_to_end"]
        wanted = spec["end_to_end"]
        report["setup_s"] = {"value": computed["setup_s"], "unit": "s",
                             "repeats": workloads.SETUP_REPEATS}
        report["clip_ms_p50"] = {"value": computed["clip_ms_p50"], "unit": "ms"}
    report.update(result["report"])
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}

    line = {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"report": report, "result": line},
                                                     indent=1) + "\n")
    if args.write_golden:
        if bench.failed or not bench.attempted:
            print("perfbench: not writing golden outputs from a run with failures",
                  file=sys.stderr)
            return 1
        workloads.GOLDEN_DIR.mkdir(exist_ok=True)
        bench.golden_path.write_text(json.dumps(result["golden"], sort_keys=True) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
