"""Command-line entry point: synth, detect, eval, and roc subcommands.

Pipeline settings can come from a config file (one `key = value` per line,
`#` comments) and/or flags of the same name; flags win. `--print-config`
echoes the effective settings in the same format, so its output can be fed
back in as a config file.

Exit statuses: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import parallel
from .audio_io import ensure_rate, read_wav
from .pipeline import (CLIP_ERRORS, DEFAULT_TARGET_TPR, MODES, PipelineConfig, run_pipeline,
                       run_pipeline_on_scores)
from .postprocess import VoteConfig
from .preprocess import PreprocessConfig
from .scorer import ReferenceScorer, load_scores
from .synth import DEFAULT_DURATION_S, DEFAULT_SEED, DEFAULT_SNRS_DB, generate_corpus, read_manifest


def _show_float(x: float) -> str:
    """Shortest of `:g` and repr that reads back as exactly x."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def _parse_stages(text: str) -> tuple[str, ...]:
    if text.lower() == "none":
        return ()
    return tuple(s.strip() for s in text.split(",") if s.strip())


# (parse the text, show the value)
_STR = (str, str)
_INT = (int, str)
_FLOAT = (float, _show_float)
_QUORUM = (lambda text: None if text in ("", "default") else int(text), str)
_STAGES = (_parse_stages, lambda stages: ",".join(stages) or "none")

# Config key -> (PipelineConfig section, "" for its own fields; field; codec).
# Every key has a same-named CLI flag (dashes for underscores). Unset keys
# take the dataclasses' defaults. theta_rel and theta_abs both set theta;
# theta_abs wins and makes it absolute.
CONFIG_FIELDS = {
    "mode": ("", "mode", _STR),
    "segment_ms": ("", "segment_ms", _FLOAT),
    "thresh": ("", "thresh", _FLOAT),
    "window": ("vote", "window_w", _INT),
    "quorum": ("vote", "quorum", _QUORUM),
    "alpha": ("preprocess", "alpha", _FLOAT),
    "beta": ("preprocess", "beta", _FLOAT),
    "theta_rel": ("preprocess", "theta", _FLOAT),
    "theta_abs": ("preprocess", "theta", _FLOAT),
    "target_rms": ("preprocess", "target_rms", _FLOAT),
    "noise_frames": ("preprocess", "noise_frames", _INT),
    "stages": ("preprocess", "stages", _STAGES),
    "bands": ("scoring", "bands", _INT),
    "frame_ms": ("scoring", "frame_ms", _FLOAT),
    "hop_ms": ("scoring", "hop_ms", _FLOAT),
    "scorer": ("", "scorer_backend", _STR),
}
CONFIG_KEYS = tuple(CONFIG_FIELDS)
SECTIONS = {"preprocess": PreprocessConfig, "vote": VoteConfig, "scoring": ReferenceScorer}


def parse_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
        values[key] = value
    return values


def build_pipeline_config(values: dict[str, str]) -> PipelineConfig:
    """Construct a PipelineConfig from merged string settings."""
    fields: dict[str, dict] = {"": {}, **{section: {} for section in SECTIONS}}
    for key, (section, name, (parse, _)) in CONFIG_FIELDS.items():
        if key in values:
            fields[section][name] = parse(values[key])
    if "theta_abs" in values:
        fields["preprocess"]["theta_relative"] = False
    return PipelineConfig(**fields[""], **{section: cls(**fields[section])
                                           for section, cls in SECTIONS.items()})


def format_config(cfg: PipelineConfig) -> str:
    """Effective settings, re-ingestable via parse_config_file."""
    lines = []
    for key, (section, name, (_, show)) in CONFIG_FIELDS.items():
        owner = getattr(cfg, section) if section else cfg
        if key.startswith("theta_") and (key == "theta_rel") != owner.theta_relative:
            continue
        value = owner.effective_quorum if key == "quorum" else getattr(owner, name)
        lines.append(f"{key} = {show(value)}\n")
    return "".join(lines)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file of key = value lines")
    parser.add_argument("--print-config", action="store_true",
                        help="echo the effective config and exit")
    for key in CONFIG_KEYS:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None,
                            metavar="V", help=argparse.SUPPRESS)


def _merge_config(args: argparse.Namespace) -> dict[str, str]:
    values: dict[str, str] = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for key in CONFIG_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    return values


def _resolve_pipeline(args, parser) -> PipelineConfig | None:
    try:
        values = _merge_config(args)
        cfg = build_pipeline_config(values)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    if args.print_config:
        sys.stdout.write(format_config(cfg))
        return None
    if getattr(args, "require_mode", False) and "mode" not in values:
        parser.error("--mode is required (baseline, vad1, or vad2)")
    return cfg


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args, parser) -> int:
    if args.clips < 1:
        parser.error("--clips must be >= 1")
    base, rem = divmod(args.clips, 3)
    counts = (base + (rem > 0), base + (rem > 1), base)
    try:
        snrs = tuple(float(s) for s in args.snr.split(","))
        manifest = generate_corpus(args.out, counts, snr_list=snrs, seed=args.seed,
                                   duration_s=args.duration,
                                   write_stems=not args.no_stems)
    except ValueError as exc:
        parser.error(str(exc))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(manifest.entries)} clips to {args.out} "
          f"({counts[0]} clean, {counts[1]} noisy, {counts[2]} non-speech)")
    return 0


def _detect_one(path: str, cfg: PipelineConfig):
    if cfg.scorer_backend == "score-file":
        return run_pipeline_on_scores(load_scores(path), cfg)
    return run_pipeline(ensure_rate(read_wav(path)), cfg)


def cmd_detect(args, parser) -> int:
    cfg = _resolve_pipeline(args, parser)
    if cfg is None:
        return 0
    paths = list(args.inputs)
    if args.manifest:
        try:
            manifest = read_manifest(args.manifest)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        paths.extend(str(manifest.resolve(e)) for e in manifest.entries)
    if not paths:
        parser.error("no input files (pass paths or --manifest)")

    failed = 0
    for path in paths:
        try:
            result = _detect_one(path, cfg)
        except CLIP_ERRORS as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            failed += 1
            continue
        decision = result.decision
        if args.json_lines:
            print(json.dumps({
                "path": path,
                "final": decision.final,
                "segments": list(decision.per_segment),
                "windows": list(decision.per_window),
                "values": [round(v, 6) for v in result.segment_values],
            }))
        elif args.verbose:
            segs = "".join(map(str, decision.per_segment))
            wins = "".join(map(str, decision.per_window))
            print(f"{path}\t{decision.final}\tsegments={segs}\twindows={wins}")
        else:
            print(f"{path}\t{decision.final}")
    return 1 if failed else 0


def cmd_report(args, parser) -> int:
    """eval and roc: evaluate every mode over a manifest, then print
    args.report's view of the reports."""
    cfg = _resolve_pipeline(args, parser)
    if cfg is None:
        return 0
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes:
        parser.error("no modes given")
    try:
        configs = [dataclasses.replace(cfg, mode=m) for m in modes]
        manifest = read_manifest(args.manifest)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    # Imported here: evaluate loads scipy.signal, which detect, synth and
    # --print-config never need.
    from .evaluate import run_eval

    try:
        reports = run_eval(manifest, configs, out_dir=args.out, jobs=args.jobs,
                           tpr_targets=(args.target_tpr,))
    except ValueError as exc:
        parser.error(str(exc))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return args.report(reports, args)


def _print_eval(reports, args) -> int:
    from .evaluate import accuracy_table_markdown

    sys.stdout.write(accuracy_table_markdown(reports))
    for report in reports:
        if report.roc is not None:
            print(f"# {report.mode}: auc={report.roc.auc:.4f} "
                  f"clips={report.num_clips} errors={len(report.errors)}")
        for message in report.errors:
            print(f"error: {message}", file=sys.stderr)
    return 1 if any(r.errors for r in reports) else 0


def _print_roc(reports, args) -> int:
    for report in reports:
        if report.roc is None:
            print(f"error: {report.mode}: ROC needs both classes", file=sys.stderr)
            continue
        fpr = report.fpr_at_tpr[args.target_tpr]
        print(f"{report.mode}\ttpr>={args.target_tpr:.2f}\tfpr={fpr:.4f}")
        for message in report.errors:
            print(f"error: {message}", file=sys.stderr)
    return 1 if any(r.errors or r.roc is None for r in reports) else 0


# ---------------------------------------------------------------------------

def fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:   # NaN fails too
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vadpipe",
                                     description="Noise-robust voice activity detection")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a labeled synthetic corpus")
    p_synth.add_argument("--clips", type=int, required=True,
                         help="total clip count, split across the three classes")
    p_synth.add_argument("--snr", default=",".join(f"{s:g}" for s in DEFAULT_SNRS_DB),
                         help="comma-separated SNR levels in dB for noisy clips")
    p_synth.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_synth.add_argument("--duration", type=float, default=DEFAULT_DURATION_S, help="clip seconds")
    p_synth.add_argument("--no-stems", action="store_true",
                         help="skip writing clean/noise stems for noisy clips")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_detect = sub.add_parser("detect", help="label clips as speech / non-speech")
    p_detect.add_argument("inputs", nargs="*",
                          help="WAV files (or score files with --scorer score-file)")
    p_detect.add_argument("--manifest", help="score every clip in a manifest")
    p_detect.add_argument("--json-lines", action="store_true")
    p_detect.add_argument("--verbose", action="store_true")
    _add_config_flags(p_detect)
    p_detect.set_defaults(func=cmd_detect, require_mode=True)

    for name, report, help_text in (
            ("eval", _print_eval, "per-class accuracy tables and ROC curves"),
            ("roc", _print_roc, "FPR at a target TPR per mode")):
        p_report = sub.add_parser(name, help=help_text)
        p_report.add_argument("--manifest", required=True)
        p_report.add_argument("--modes", default=",".join(MODES))
        p_report.add_argument("--out", help="directory for accuracy.md and roc_<mode>.csv")
        p_report.add_argument("--jobs", type=int, default=parallel.usable_cpus())
        p_report.add_argument("--target-tpr", type=fraction, default=DEFAULT_TARGET_TPR)
        _add_config_flags(p_report)
        p_report.set_defaults(func=cmd_report, report=report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:   # --help, and parser.error in parse_args or inside a subcommand
        args = parser.parse_args(argv)
        return args.func(args, parser)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
