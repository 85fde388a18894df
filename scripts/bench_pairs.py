#!/usr/bin/env python3
"""Alternating pairs of benchmark runs, a parent tree against a change tree.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W \\
        --pairs 10 --seed0 S --out BENCH.json

Pair i runs ``perfbench/run.py --workload W --seed S+i --seconds X --trace T``
once in each tree, each run in its tree as working directory, where X is
``run_seconds`` of ``BENCHMARK.json``; the parent goes first in even pairs and
the change in odd ones. Give each tree its own clean checkout
(``git archive``), at paths of equal length: wide-aggregation's
``peak_rss_mb`` follows the path length, so trees whose resolved paths
differ in length are refused (exit 2) before any run. ``--workload`` may be
repeated.

The output holds every run's metrics, failed and attempted counts,
``peak_rss_mb`` and minor page faults (the ``ru_minflt`` of the run and its
children, from ``resource.getrusage(RUSAGE_CHILDREN)`` before and after it),
and per workload and metric the medians and quartiles
(``numpy.percentile``, linear) of each side, the pairs the change wins, the
difference of the medians against the parent's interquartile range, and the
relative change of the medians. Which way is better is read from
``BENCHMARK.json``. Each workload's section is keyed by the workload, the
first seed and the trace flag. The file is rewritten after every run, so an
interrupted session keeps the runs it made; a file that already exists keeps
the sections this call does not write.
"""

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def metric_specs(declared: dict) -> dict:
    """Per metric of BENCHMARK.json, its unit, its better direction and, for
    the end-to-end metrics, its bound."""
    return {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its last stdout line, the
    machine line and the self-check verdict, or the error of a run that
    printed no result; either way with the run's minor page faults."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=600 + 10 * seconds)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}",
                "minor_faults": faults}
    result["minor_faults"] = faults
    for line in lines:
        if line.startswith("machine: "):
            result["machine"] = json.loads(line[len("machine: "):])
        elif line.startswith("self-check: ") and "self_check" not in result:
            result["self_check"] = line[len("self-check: "):]
    return result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1)}


def summarize(runs: list[dict], specs: dict) -> dict:
    """Per-side counts and per-metric statistics of one workload's runs."""
    ok = [run for run in runs if "metrics" in run]
    pairs = sorted({run["pair"] for run in ok})
    value = {(run["pair"], run["side"]): run["metrics"] for run in ok}
    summary = {
        "failed": {s: sum(r["failed"] for r in ok if r["side"] == s) for s in SIDES},
        "attempted": {s: sum(r["attempted"] for r in ok if r["side"] == s) for s in SIDES},
        "incorrect_runs": {s: sum(not r["correct"] for r in ok if r["side"] == s) for s in SIDES},
        "runs_without_result": {s: sum("metrics" not in r for r in runs if r["side"] == s)
                                for s in SIDES},
        "peak_rss_mb": {s: [r["metrics"]["peak_rss_mb"]["value"] for r in ok
                            if r["side"] == s and "peak_rss_mb" in r["metrics"]] for s in SIDES},
        "minor_faults": {},
        "metrics": {},
    }
    for side in SIDES:
        faults = [r["minor_faults"] for r in ok if r["side"] == side and "minor_faults" in r]
        if faults:
            summary["minor_faults"][side] = {"runs": faults, **quartiles(faults)}
    names = [name for name in specs if any(name in metrics for metrics in value.values())]
    for name in names:
        spec = specs[name]
        both = [p for p in pairs if name in value.get((p, "parent"), {})
                and name in value.get((p, "change"), {})]
        if not both:
            continue
        got = {s: [value[p, s][name]["value"] for p in both] for s in SIDES}
        sign = 1.0 if spec["better"] == "higher" else -1.0
        stats = {s: quartiles(got[s]) for s in SIDES}
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        entry = {
            "unit": spec["unit"],
            "better": spec["better"],
            "pairs": len(both),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(got["parent"], got["change"])),
            **stats,
            "median_change_pct": 100.0 * (change - parent) / parent if parent else None,
            "median_gain_exceeds_parent_iqr": sign * (change - parent) > stats["parent"]["iqr"],
        }
        if "bound" in spec:
            entry["bound"] = spec["bound"]
            entry["worse_than_bound"] = bool(
                parent and -sign * (change - parent) / abs(parent) > spec["bound"])
        summary["metrics"][name] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent_tree, "change": args.change_tree}
    lengths = {side: len(str(tree.resolve())) for side, tree in trees.items()}
    if lengths["parent"] != lengths["change"]:
        print(f"bench_pairs: the trees' resolved paths differ in length (parent "
              f"{lengths['parent']}, change {lengths['change']}); wide-aggregation's "
              "peak_rss_mb follows the path length", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs, seconds = metric_specs(declared), declared["run_seconds"]
    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report["method"] = (
        "scripts/bench_pairs.py: pair i runs perfbench/run.py --seed seed0+i in each "
        "tree, the parent first in even pairs; quartiles are numpy.percentile, linear; "
        "a win is a pair whose change run is better than its parent run")
    sections = report.setdefault("workloads", {})
    status = 0
    for workload in args.workload:
        key = f"{workload} --seed0 {args.seed0}" + (" --trace 1" if args.trace else "")
        runs = []
        section = sections[key] = {
            "command": f"python3 perfbench/run.py --workload {workload} --seed <seed0+i> "
                       f"--seconds {seconds:g} --trace {args.trace}",
            "trees": {s: str(tree) for s, tree in trees.items()},
            "seeds": [args.seed0 + i for i in range(args.pairs)],
            "runs": runs,
        }
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                seed = args.seed0 + i
                result = run_benchmark(trees[side], workload, seed, seconds, args.trace)
                if "machine" in result:
                    report["machine"] = {k: v for k, v in result.pop("machine").items()
                                         if k != "commit"}
                metrics = result.pop("metrics", None)
                run = {"pair": i, "side": side, "position": position, "seed": seed, **result}
                if metrics is not None:
                    run["metrics"] = metrics
                else:
                    status = 1
                runs.append(run)
                section["summary"] = summarize(runs, specs)
                args.out.write_text(json.dumps(report, indent=1) + "\n")
                print(f"{workload} pair {i} {side}: "
                      + (run.get("error") or f"{len(metrics)} metrics"), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
