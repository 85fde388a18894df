#!/usr/bin/env python3
"""sha256 of every run's metrics.csv and trust_scores.jsonl on the hash gate.

Runs the 126 criterion-7 cells (``sweep.CRIT7_*``) and the determinism
config of ``verification`` at seeds 7 and 8, through ``sweep.run_sweep``, and
prints one JSON object mapping each cell to the hashes of its two
artifacts. A change that must keep results bit for bit prints the same
object as its parent:

    python3 scripts/artifact_hashes.py --jobs 2 > change.json
    (same command in a checkout of the parent) > parent.json
    diff parent.json change.json
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from robustfed.sweep import (
    CRIT7_ATTACKS,
    CRIT7_BASE,
    CRIT7_DEFENSES,
    CRIT7_SEEDS,
    SweepSpec,
    run_sweep,
)
from robustfed.verification import _determinism_config

ARTIFACTS = ("metrics.csv", "trust_scores.jsonl")
DETERMINISM_SEEDS = [7, 8]


def sweeps() -> dict[str, SweepSpec]:
    determinism = _determinism_config("")
    determinism.pop("output_path")
    return {
        "crit7": SweepSpec(
            base=CRIT7_BASE,
            defenses=[spec for _, spec in CRIT7_DEFENSES],
            attacks=[spec for _, spec in CRIT7_ATTACKS],
            seeds=list(CRIT7_SEEDS),
            max_runs=200,
        ),
        "determinism": SweepSpec(base=determinism, seeds=DETERMINISM_SEEDS),
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=1, help="parallel runs")
    args = parser.parse_args()

    hashes = {}
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in sweeps().items():
            for row in run_sweep(spec, Path(tmp) / name, jobs=args.jobs):
                cell = f"{name}/{row['defense']}/{row['attack']}/seed{row['seed']}"
                if row["status"] != "ok":
                    failed.append(f"{cell}: {row['error']}")
                    continue
                out = Path(row["output_dir"])
                hashes[cell] = {a: sha256(out / a) for a in ARTIFACTS if (out / a).exists()}
    print(json.dumps(hashes, indent=1, sort_keys=True))
    for line in failed:
        print(f"failed: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
