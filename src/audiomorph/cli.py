"""Command line front end.

One binary, five subcommands: perturb a single file, run a campaign from a
declarative config, calibrate the local keyword spotter, rank keywords for
the discontinuity relation, and re-render a finished report. Machine
output (JSON or TSV) goes to stdout; anything meant for humans goes to
stderr. Exit codes: 0 success, 1 usage or parameter error, 2 runtime
failure, 3 campaign filtered every seed out.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Optional

from . import __version__
from .audio import WavFormatError, content_digest, read_wav, write_wav
from .campaign import (
    CampaignConfig,
    export_retraining_set,
    replay_campaign,
    run_campaign,
)
from .errors import (
    AudiomorphError,
    CampaignError,
    ConfigError,
    DomainError,
    ParameterError,
)
from .perturb import Perturbation, normalize_kind
from .perturb.linguistic import (
    Transcript,
    benign_discontinuity_text,
    default_lexicon,
    homophone_substitute,
    load_lexicon,
    load_stopwords,
    load_transcript,
    render_text,
    select_keywords,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_NO_SEEDS = 3

# flag -> (parameter name, converter) per relation kind; one flag table so
# argparse can reject unknown flags while kinds validate their own subset
_KIND_FLAGS = {
    "time_stretch": {"factor": ("factor", float)},
    "time_shift": {"delta": ("delta_s", float)},
    "pan": {"position": ("position", float)},
    "surround": {"rotation": ("rotation_hz", float)},
    "pitch_shift": {"semitones": ("semitones", float)},
    "inject_noise": {"snr": ("target_snr_db", float), "seed": ("seed", int)},
    "repeat_segment": {
        "start": ("start_s", float),
        "end": ("end_s", float),
        "count": ("count", int),
    },
    "gain": {"db": ("db", float)},
    "compress": {"threshold": ("threshold_db", float), "ratio": ("ratio", float)},
    "ring_mod": {"carrier": ("carrier_hz", float)},
    "bass_boost": {"cutoff": ("cutoff_hz", float), "gain": ("gain_db", float)},
    "tremolo": {"rate": ("rate_hz", float), "depth": ("depth", float)},
    "distort": {"threshold": ("clip_threshold", float), "drive": ("drive", float)},
    "echo": {"delay": ("delay_s", float), "decay": ("decay", float), "taps": ("taps", int)},
    "reverb": {
        "intensity": ("intensity", float),
        "duration": ("duration_s", float),
        "seed": ("seed", int),
    },
    "discontinuity": {
        "targets": ("targets", str),
        "gap": ("gap_s", float),
        "repeats": ("repeats", int),
    },
    "discontinuity_text": {
        "targets": ("targets", str),
        "marker": ("marker", str),
        "repeats": ("repeats", int),
    },
    "homophone": {"targets": ("targets", str), "seed": ("seed", int)},
}

_ALL_FLAGS = sorted({flag for table in _KIND_FLAGS.values() for flag in table})

# flags a kind fills in itself when omitted
_OPTIONAL_DEFAULTS = {
    "homophone": {"seed": 0},
    "discontinuity_text": {"marker": "..."},
}

_TEXT_KINDS = {"discontinuity_text", "homophone"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for runtime
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="audiomorph", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("perturb", help="apply one relation to one file")
    p.add_argument("--mr", required=True, help="relation kind")
    for flag in _ALL_FLAGS:
        p.add_argument(f"--{flag}", default=None)
    p.add_argument("--transcript", default=None, help="aligned transcript (TSV)")
    p.add_argument("--lexicon", default=None, help="homophone lexicon (TSV)")
    p.add_argument("input")
    p.add_argument("output")

    c = sub.add_parser("campaign", help="run a campaign from a JSON config")
    c.add_argument(
        "config",
        help="campaign config JSON; with --replay, the replay output directory",
    )
    c.add_argument("--workers", type=int, default=None, help="cap the worker pool")
    c.add_argument("--replay", default=None, metavar="MANIFEST",
                   help="replay a recorded manifest instead of querying backends")
    c.add_argument("--export-split", type=float, default=None,
                   help="also export a retraining manifest with this split fraction")
    c.add_argument("--export-seed", type=int, default=0)

    k = sub.add_parser("keywords", help="rank corpus tokens by TF-IDF")
    k.add_argument("corpus", help="one document per line")
    k.add_argument("--stopwords", default=None)
    k.add_argument("-k", type=int, default=10)

    cal = sub.add_parser("calibrate", help="pick a spotter threshold")
    cal.add_argument("--templates", required=True, help="template directory")
    cal.add_argument("--clips", required=True,
                     help="TSV manifest: wav path <TAB> toxic|benign")
    cal.add_argument("--window", type=float, default=0.4)
    cal.add_argument("--hop", type=float, default=0.1)

    r = sub.add_parser("report", help="re-render a report JSON as TSV")
    r.add_argument("report")
    return parser


def _collect_params(args, kind: str) -> dict:
    table = _KIND_FLAGS[kind]
    params = {}
    extraneous = []
    for flag in _ALL_FLAGS:
        value = getattr(args, flag.replace("-", "_"))
        if value is None:
            continue
        if flag in table:
            name, convert = table[flag]
            try:
                params[name] = convert(value)
            except ValueError:
                raise _UsageError(f"--{flag} expects {convert.__name__}, got {value!r}")
        else:
            extraneous.append(f"--{flag}")
    if extraneous:
        raise _UsageError(f"{kind} does not take {', '.join(extraneous)}")
    defaults = _OPTIONAL_DEFAULTS.get(kind, {})
    for flag, value in defaults.items():
        params.setdefault(table[flag][0], value)
    missing = [
        f"--{flag}"
        for flag, (name, _) in table.items()
        if name not in params and flag not in defaults
    ]
    if missing:
        raise _UsageError(f"{kind} requires {', '.join(sorted(missing))}")
    return params


def _cmd_perturb(args) -> int:
    kind = normalize_kind(args.mr)
    if kind not in _KIND_FLAGS:
        raise _UsageError(
            f"unknown relation {args.mr!r}; choose from {', '.join(sorted(_KIND_FLAGS))}"
        )
    params = _collect_params(args, kind)
    if "targets" in params:
        params["targets"] = [t for t in params["targets"].split(",") if t]

    descriptor = {"kind": kind, "params": dict(params)}
    if kind in _TEXT_KINDS:
        transcript = load_transcript(args.input)
        if kind == "homophone":
            lexicon = load_lexicon(args.lexicon) if args.lexicon else default_lexicon()
            result = homophone_substitute(
                transcript, lexicon, params["targets"], seed=params["seed"]
            )
            out_t = result.transcript
        else:
            out_t = benign_discontinuity_text(
                transcript,
                params["targets"],
                stop_marker=params["marker"],
                repeats=params["repeats"],
            )
        _write_transcript(out_t, args.output)
        descriptor["output"] = args.output
        print(json.dumps(descriptor, sort_keys=True))
        print(render_text(out_t), file=sys.stderr)
        return EXIT_OK

    perturbation = Perturbation(kind, params)
    transcript = None
    if perturbation.needs_transcript:
        if not args.transcript:
            raise _UsageError(f"{kind} requires --transcript")
        transcript = load_transcript(args.transcript)
    perturbed = perturbation.apply(read_wav(args.input), transcript)
    write_wav(perturbed, args.output)
    descriptor["output"] = args.output
    descriptor["digest"] = content_digest(perturbed)
    print(json.dumps(descriptor, sort_keys=True))
    return EXIT_OK


def _write_transcript(t: Transcript, path) -> None:
    lines = []
    if t.alignment is not None:
        for token, (start, end) in zip(t.tokens, t.alignment):
            lines.append(f"{token}\t{start}\t{end}")
    else:
        lines.extend(t.tokens)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cmd_campaign(args) -> int:
    if args.replay:
        report = replay_campaign(args.replay, output_dir=_replay_dir(args))
    else:
        config = CampaignConfig.from_file(args.config)
        if args.workers is not None:
            if args.workers < 1:
                raise _UsageError("--workers must be >= 1")
            config = dataclasses.replace(config, workers=args.workers)
        report = run_campaign(config)

    if args.export_split is not None and not report.no_seeds:
        export_retraining_set(
            report.manifest,
            split=args.export_split,
            seed=args.export_seed,
            output_path=report.output_dir / "retraining.json",
        )

    print(
        json.dumps(
            {
                "report": str(report.report_json),
                "csv": str(report.report_csv),
                "manifest": str(report.manifest),
                "retained": report.seed_filter["retained"],
                "cells": len(report.cells),
            },
            sort_keys=True,
        )
    )
    _print_summary(report)
    if report.no_seeds:
        print("every seed was filtered out", file=sys.stderr)
        return EXIT_NO_SEEDS
    return EXIT_OK


def _replay_dir(args) -> Path:
    # --replay reuses the config positional as the replay output directory
    return Path(args.config)


def _print_summary(report) -> None:
    if not report.cells:
        return
    width = max(len(c.mr) for c in report.cells)
    for cell in report.cells:
        efr = "null" if cell.efr is None else f"{cell.efr:.1f}"
        print(
            f"{cell.mr:<{width}}  {cell.category:<8} {cell.backend:<12} "
            f"generated={cell.generated:<4} misclassified={cell.misclassified:<4} "
            f"unanswered={cell.unanswered:<4} efr={efr}",
            file=sys.stderr,
        )


def _cmd_keywords(args) -> int:
    try:
        text = Path(args.corpus).read_text(encoding="utf-8")
    except OSError as exc:
        raise CampaignError(f"cannot read corpus {args.corpus}: {exc}") from exc
    corpus = [
        Transcript(tuple(line.split()))
        for line in text.splitlines()
        if line.strip()
    ]
    stopwords = load_stopwords(args.stopwords) if args.stopwords else frozenset()
    scores = select_keywords(corpus, stopwords=stopwords, k=args.k)
    for entry in scores:
        print(f"{entry.token}\t{entry.tf_idf!r}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    from .backends.spotter import calibrate_threshold, load_templates

    templates = load_templates(args.templates)
    clips = []
    try:
        lines = Path(args.clips).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CampaignError(f"cannot read clip manifest {args.clips}: {exc}") from exc
    base = Path(args.clips).parent
    for i, line in enumerate(lines):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or parts[1] not in ("toxic", "benign"):
            raise ConfigError(
                f"clip manifest line {i + 1} must be 'path<TAB>toxic|benign', got {line!r}"
            )
        path = Path(parts[0])
        clips.append((read_wav(path if path.is_absolute() else base / path),
                      parts[1] == "toxic"))
    threshold, accuracy = calibrate_threshold(
        clips, templates, window_s=args.window, hop_s=args.hop
    )
    print(json.dumps({"threshold": threshold, "accuracy": accuracy}, sort_keys=True))
    print(f"threshold {threshold:.4f} separates with accuracy {accuracy:.3f}",
          file=sys.stderr)
    return EXIT_OK


def _cmd_report(args) -> int:
    try:
        payload = json.loads(Path(args.report).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CampaignError(f"cannot read report {args.report}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"report is not valid JSON: {exc}") from exc
    print("mr\tcategory\tbackend\tgenerated\tmisclassified\tunanswered\tefr")
    for cell in payload.get("cells", []):
        efr = cell["efr"]
        print(
            f"{cell['mr']}\t{cell['category']}\t{cell['backend']}\t"
            f"{cell['generated']}\t{cell['misclassified']}\t{cell['unanswered']}\t"
            f"{'' if efr is None else efr!r}"
        )
    print(f"version {payload.get('version', '?')}, "
          f"{len(payload.get('cells', []))} cells", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "perturb": _cmd_perturb,
    "campaign": _cmd_campaign,
    "keywords": _cmd_keywords,
    "calibrate": _cmd_calibrate,
    "report": _cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        field = f" (field: {exc.field})" if exc.field else ""
        print(f"config error: {exc}{field}", file=sys.stderr)
        return EXIT_USAGE
    except (ParameterError, DomainError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WavFormatError as exc:
        print(f"audio error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (CampaignError, AudiomorphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
