"""Command line front end.

One binary, four subcommands: perturb a single file, build the offline
desk corpus, run a campaign from a declarative config, and calibrate the
local keyword spotter. ``perturb --mr`` takes a relation in the JSON
``{"kind", "params"}`` form of a config's ``mrs`` entry or a manifest
case, checked by the same reader. Machine output (JSON) goes to stdout;
anything meant for humans goes to stderr. Exit codes: 0 success, 1 usage,
config, parameter or domain error, 2 runtime failure, 3 campaign filtered
every seed out.
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
    DEFAULT_WORKERS,
    CampaignConfig,
    check_export,
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
from .perturb import Perturbation
from .perturb.linguistic import load_transcript

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_NO_SEEDS = 3


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
    p.add_argument("--mr", required=True,
                   help='relation as a config\'s "mrs" entry: {"kind": ..., "params": {...}}')
    p.add_argument("--transcript", default=None, help="aligned transcript (TSV)")
    p.add_argument("input")
    p.add_argument("output")

    d = sub.add_parser("desk", help="build the offline desk corpus and its campaign.json")
    d.add_argument("root", help="directory for templates/, seeds/ and campaign.json")

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

    cal = sub.add_parser("calibrate", help="pick a spotter threshold")
    cal.add_argument("--templates", required=True, help="template directory")
    cal.add_argument("--clips", required=True,
                     help="TSV manifest: wav path <TAB> toxic|benign")
    cal.add_argument("--window", type=float, default=0.4)
    cal.add_argument("--hop", type=float, default=0.1)
    return parser


def _cmd_perturb(args) -> int:
    try:
        payload = json.loads(args.mr)
    except ValueError as exc:
        raise _UsageError(f"--mr must be a JSON relation descriptor: {exc}")
    perturbation = Perturbation.from_dict(payload)
    transcript = None
    if perturbation.needs_transcript:
        if not args.transcript:
            raise _UsageError(f"{perturbation.kind} requires --transcript")
        transcript = load_transcript(args.transcript)
    elif args.transcript:
        raise _UsageError(f"{perturbation.kind} does not take --transcript")
    perturbed = perturbation.apply(read_wav(args.input), transcript)
    write_wav(perturbed, args.output)
    descriptor = {**perturbation.describe(), "output": args.output,
                  "digest": content_digest(perturbed)}
    print(json.dumps(descriptor, sort_keys=True))
    return EXIT_OK


def _cmd_desk(args) -> int:
    from .deskcorpus import build_corpus

    # never rebuild over a config the user may have edited
    if (Path(args.root) / "campaign.json").exists():
        raise ConfigError(f"{args.root} already holds campaign.json; not rebuilding")
    print(json.dumps({"config": str(build_corpus(args.root))}))
    return EXIT_OK


def _cmd_campaign(args) -> int:
    if args.workers is not None and args.workers < 1:
        raise _UsageError("--workers must be >= 1")
    if args.export_split is not None:
        check_export(args.export_split, args.export_seed)
    if args.replay:
        # --replay reuses the config positional as the replay output directory
        report = replay_campaign(
            args.replay, output_dir=Path(args.config), workers=args.workers or DEFAULT_WORKERS
        )
    else:
        config = CampaignConfig.from_file(args.config)
        if args.workers is not None:
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


_COMMANDS = {
    "perturb": _cmd_perturb,
    "desk": _cmd_desk,
    "campaign": _cmd_campaign,
    "calibrate": _cmd_calibrate,
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
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
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
