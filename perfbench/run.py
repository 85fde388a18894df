#!/usr/bin/env python3
"""robustfed benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run one workload:
    python3 perfbench/run.py --workload omniscient-grid --seed 1 --seconds 20 --trace 0
Run every workload, each in its own process, untraced then traced:
    python3 perfbench/run.py --seed 1

The program is imported from ``src/`` beside this directory and nowhere else.
The last stdout line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md here for
the workloads and the layer -> metric -> workload map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent
DEFAULT_SECONDS = 20
IMPORT_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import robustfed.sweep, robustfed.aggregators; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Median import time of the program, each in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # a plain copy of the tree, maybe inside another repo
        return "unavailable"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def machine_info() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ[k] for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads or "library default",
        "commit": git_commit(),
    }


def run_one(args) -> int:
    if not (SRC / "robustfed" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import robustfed

    if Path(robustfed.__file__).resolve().parent != SRC / "robustfed":
        print(f"error: robustfed imported from {robustfed.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    references = json.loads((HERE / "references.json").read_text())
    setup_import_s = import_seconds()
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"run-{os.getpid()}"
    trace_csv = OUT / f"trace-{args.workload}-seed{args.seed}.csv" if args.trace else None
    try:
        outcome = workloads.run_workload(args.workload, args.seed, args.seconds, args.trace,
                                         work_dir, references, trace_csv)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = dict(outcome.metrics)
    if not args.trace:
        value, unit = metrics["setup_s"]
        metrics["setup_s"] = (value + setup_import_s, unit)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    correct = outcome.failed == 0 and not outcome.self_check

    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  "
          f"trace: {args.trace}")
    print("machine: " + json.dumps(machine_info()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<40} {outcome.failed / max(outcome.attempted, 1):>14.6g} "
          f"({outcome.failed}/{outcome.attempted})")
    if outcome.block_s:
        print("  blocks (s): " + " ".join(f"{b:.3f}" for b in outcome.block_s))
    for problem in outcome.problems:
        print(f"wrong output: {problem}")
    if outcome.self_check is not None:
        print("self-check: " + ("PASS" if not outcome.self_check else "FAIL"))
        for problem in outcome.self_check:
            print(f"self-check: {problem}")
    if trace_csv is not None:
        print(f"spans written to {trace_csv.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced."""
    from workloads import WORKLOADS

    status = 0
    for trace in (0, 1):
        for workload in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, timeout=600)
            status = status or done.returncode
    return status


def main() -> int:
    # One BLAS thread: the workloads are sequential, OpenBLAS threads only spin
    # on these small products, and a 2-CPU machine shared with other jobs gives
    # steadier timings with one busy CPU. Set the variable to override.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload; default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
