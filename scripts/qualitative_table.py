#!/usr/bin/env python3
"""Desk-scale worst-case comparison table.

Runs every defense against every attack on strongly label-skewed blobs
(3 seeds each) and writes runs.csv / summary.csv under the output directory.
The summary mirrors the defenses-by-attacks layout with a worst-case column.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from robustfed.sweep import CRIT7_SEEDS, crit7_sweep, run_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/qualitative_table", help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="parallel runs")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(CRIT7_SEEDS))
    args = parser.parse_args()

    rows = run_sweep(crit7_sweep(args.seeds), Path(args.out), jobs=args.jobs)
    failed = [r for r in rows if r["status"] != "ok"]
    print(f"{len(rows)} runs done ({len(failed)} failed); see {args.out}/summary.csv")
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
