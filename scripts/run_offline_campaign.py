#!/usr/bin/env python3
"""End-to-end offline experiment: build the synthetic desk corpus (unless the
config already exists), run a metamorphic campaign against the local keyword
spotter, print the per-cell error-finding rates, then replay the campaign from
its manifest and check the reports match byte for byte.

No network access is needed; the only backend is the bundled spotter.
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from audiomorph.campaign import (
    CampaignConfig,
    export_retraining_set,
    replay_campaign,
    run_campaign,
)
from audiomorph.cli import _print_summary
from audiomorph.deskcorpus import build_corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("root", help="working directory for corpus and campaign output")
    parser.add_argument("--base-seed", type=int, default=100)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--export-split",
        type=float,
        default=None,
        metavar="FRAC",
        help="also export a retraining set with this test fraction",
    )
    parser.add_argument("--export-seed", type=int, default=0)
    parser.add_argument(
        "--skip-replay-check", action="store_true", help="skip the determinism check"
    )
    args = parser.parse_args()

    root = Path(args.root)
    config_path = root / "campaign.json"
    if not config_path.exists():
        config_path = build_corpus(root, base_seed=args.base_seed)
        print(f"built corpus under {root}")

    config = CampaignConfig.from_file(config_path)
    if args.workers != config.workers:
        config = dataclasses.replace(config, workers=args.workers)

    started = time.perf_counter()
    report = run_campaign(config)
    elapsed = time.perf_counter() - started

    sf = report.seed_filter
    print(f"campaign finished in {elapsed:.2f}s")
    print(f"seed filter: {sf['retained']}/{sf['total']} retained")
    if report.no_seeds:
        print("every seed was filtered out; nothing to measure")
        return 3
    print(f"cells ({len(report.cells)}):", flush=True)
    _print_summary(report)
    print(f"report: {report.report_json}")

    if args.export_split is not None:
        out = report.output_dir / "retraining.json"
        rows = export_retraining_set(
            report.manifest, split=args.export_split, seed=args.export_seed,
            output_path=out,
        )
        print(f"exported {len(rows)} retraining rows to {out}")

    if not args.skip_replay_check:
        replay = replay_campaign(report.manifest, output_dir=root / "replay")
        same = (
            replay.report_json.read_bytes() == report.report_json.read_bytes()
            and replay.report_csv.read_bytes() == report.report_csv.read_bytes()
        )
        if not same:
            print("replay MISMATCH: reports differ from the original run")
            return 1
        print("replay check: reports byte-identical")

    return 0


if __name__ == "__main__":
    sys.exit(main())
