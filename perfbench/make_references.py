#!/usr/bin/env python3
"""Regenerate perfbench/references.json from the current program.

    python3 perfbench/make_references.py

Grid workloads: the final accuracy of every (defense, attack, config seed)
cell. wide-aggregation: norm, fixed projections and prodigy's zeroed clients
of every (input family, set, defense) aggregate. Run this only at a commit
whose outputs are known good; the benchmark counts any difference from these
values as a failed operation.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path
from time import perf_counter

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import workloads as w  # noqa: E402
from robustfed import sweep  # noqa: E402
from robustfed.aggregators import AggregatorState  # noqa: E402


def grid_references(workload: str, work_dir: Path) -> dict:
    refs = {}
    for config_seed in w.CONFIG_SEEDS:
        for cell in w.block_cells(workload):
            key = w.cell_key(cell[0], cell[2], config_seed)
            seconds, row = w.run_cell(sweep, cell, config_seed, work_dir / "cell")
            if row["status"] != "ok":
                raise SystemExit(f"{workload} {key} failed: {row['error']}")
            refs[key] = float(row["final_accuracy"])
            print(f"{workload} {key} {refs[key]!r} {seconds:.3f}s", flush=True)
    return refs


def wide_references() -> dict:
    refs = {}
    basis = w.projection_basis()
    for family in range(w.WIDE_FAMILIES):
        run = w.WideRun(family, {})
        sets, defenses = run.build()
        for index, g in enumerate(sets):
            for dname, aggregator in defenses:
                key = w.wide_key(family, index, dname)
                t0 = perf_counter()
                result = aggregator(g, AggregatorState())
                print(f"wide-aggregation {key} {perf_counter() - t0:.3f}s", flush=True)
                refs[key] = w.wide_summary(result, basis)
    return refs


def main() -> int:
    work_dir = ROOT / ".perfbench_out" / "references"
    try:
        refs = {workload: grid_references(workload, work_dir) for workload in w.GRID_ATTACKS}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    refs["wide-aggregation"] = wide_references()
    with open(HERE / "references.json", "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
