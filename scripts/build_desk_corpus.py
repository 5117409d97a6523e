#!/usr/bin/env python3
"""Synthesize the offline desk corpus: keyword templates, seed clips with the
keywords embedded in context noise, and a campaign config wired to the local
keyword spotter (threshold calibrated on the fly, its accuracy recorded in
calibration.json).

Everything derives from fixed RNG seeds, so two runs with the same --base-seed
produce bit-identical WAV files and an identical campaign.json.
"""

import argparse
import json
import sys
from pathlib import Path

from audiomorph.deskcorpus import build_corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "root", help="directory to write templates/, seeds/, campaign.json, calibration.json"
    )
    parser.add_argument(
        "--base-seed", type=int, default=100, help="RNG seed for clip synthesis"
    )
    args = parser.parse_args()

    config_path = build_corpus(args.root, base_seed=args.base_seed)
    config = json.loads(config_path.read_text(encoding="utf-8"))

    root = Path(args.root)
    templates = sorted(p.name for p in (root / "templates").glob("*.wav"))
    seeds = sorted(p.name for p in (root / "seeds").glob("*.wav"))

    print(f"config: {config_path}")
    print(f"templates ({len(templates)}): {', '.join(templates)}")
    print(f"seeds: {len(seeds)} across 3 categories")
    print(f"spotter threshold: {config['backends'][0]['threshold']!r}")
    calibration = json.loads((root / "calibration.json").read_text(encoding="utf-8"))
    print(f"calibration accuracy: {calibration['accuracy']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
