"""Regenerates pins.json: the sha256 of the corpus and of every output of
split, preprocess and quality, per workload, at the default seed and at a
held-out seed kept for confirming later claims.

Run from the repository root, only after a change that is meant to alter
outputs, and say in the change which outputs moved and why:

    python3 bench/pin.py
"""

from __future__ import annotations

import json
import sys

import checks
import corpus
import run

PINNED_SEEDS = (1, 7919)


def main() -> int:
    pins: dict[str, dict[str, dict]] = {}
    for name in corpus.WORKLOADS:
        for seed in PINNED_SEEDS:
            bench = run.Bench(name, seed)
            bench.pins = None
            bench.setup(1)
            d = bench.work / "chain"
            d.mkdir()
            bench.split(d)
            bench.preprocess(d)
            bench.quality(d)
            if bench.tally.failed:
                print(f"{name} seed {seed}: {bench.tally.failures}", file=sys.stderr)
                return 1
            pins.setdefault(name, {})[str(seed)] = {
                "corpus": corpus.tree_digest(bench.work / "corpus"),
                "manifest": checks.sha256((d / "manifest.csv").read_bytes()),
                "quality_csv": checks.sha256((d / "quality.csv").read_bytes()),
                "outputs": checks.output_digests(d / "out", bench.rel_paths),
            }
            print(f"pinned {name} seed {seed}")
    checks.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
