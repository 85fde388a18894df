#!/usr/bin/env python3
"""Desk-scale worst-case comparison table.

Runs every defense against every attack on strongly label-skewed blobs
(3 seeds each) and writes runs.csv / summary.csv under the output directory.
The summary mirrors the defenses-by-attacks layout with a worst-case column.
``--iid`` or ``--alpha A`` runs the same grid at another skew level: they
replace only ``data.partition`` or ``data.alpha`` of the criterion-7 base.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from robustfed.sweep import CRIT7_SEEDS, SweepSpec, crit7_sweep, run_sweep


def skewed_sweep(seeds, iid: bool = False, alpha: float | None = None) -> SweepSpec:
    """The criterion-7 grid at ``seeds``, IID or at Dirichlet ``alpha`` if given."""
    spec = crit7_sweep(seeds)
    data = dict(spec.base["data"])
    if iid:
        data["partition"] = "iid"
    if alpha is not None:
        data["alpha"] = alpha
    spec.base = {**spec.base, "data": data}
    return spec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/qualitative_table", help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="parallel runs")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(CRIT7_SEEDS))
    skew = parser.add_mutually_exclusive_group()
    skew.add_argument("--iid", action="store_true", help="IID partition instead of Dirichlet")
    skew.add_argument("--alpha", type=float, help="Dirichlet concentration in place of the default")
    args = parser.parse_args()

    spec = skewed_sweep(args.seeds, args.iid, args.alpha)
    rows = run_sweep(spec, Path(args.out), jobs=args.jobs)
    failed = [r for r in rows if r["status"] != "ok"]
    print(f"{len(rows)} runs done ({len(failed)} failed); see {args.out}/summary.csv")
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
