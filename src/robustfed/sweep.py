"""Grid sweeps over defenses, attacks, seeds, and client counts.

One training run per grid point, parallelizable across points only, so each
run keeps its per-config determinism. Summary cells are recomputed purely
from the per-run rows and mirror the defenses-by-attacks tables with a
worst-case-across-attacks column per defense.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    check_keys,
    check_value,
    config_from_dict,
    config_to_dict,
    load_json,
)
from .runner import execute_run

RUNS_COLUMNS = (
    "defense",
    "attack",
    "n_clients",
    "n_byzantine",
    "seed",
    "final_accuracy",
    "worst_round_accuracy",
    "status",
    "error",
    "output_dir",
)

DEFAULT_MAX_RUNS = 500
# Each sweep axis and the experiment key it sets, outermost axis first.
AXES = {
    "n_values": "n_clients",
    "f_values": "n_byzantine",
    "defenses": "defense",
    "attacks": "attack",
    "seeds": "seed",
}

# The criterion-7 grid: each defense against each attack on strongly
# label-skewed blobs, over three seeds. tests/test_acceptance.py and the
# scripts (through ``crit7_sweep``) run it; perfbench/workloads.py keeps its own
# frozen copy, which tests/test_runner_sweep.py holds equal to this one.
CRIT7_BASE = {
    "n_clients": 10,
    "n_byzantine": 3,
    "eval_every": 10,
    "model": {"kind": "mlp", "hidden": 64},
    "data": {
        "n_classes": 10,
        "dim": 20,
        "per_class": 200,
        "separation": 4.0,
        "test_per_class": 100,
        "partition": "dirichlet",
        "alpha": 0.1,
    },
    "schedule": {"rounds": 300, "local_iters": 1, "batch_size": 32},
}
CRIT7_DEFENSES = (
    ("no_defense", {"kind": "average"}),
    ("nnm+median", {"kind": "median", "nnm": True}),
    ("nnm+trimmed_mean", {"kind": "trimmed_mean", "nnm": True}),
    ("nnm+geomed", {"kind": "geomed", "nnm": True}),
    ("nnm+krum", {"kind": "krum", "nnm": True}),
    ("nnm+cclip", {"kind": "cclip", "nnm": True}),
    ("prodigy", {"kind": "prodigy"}),
)
CRIT7_ATTACKS = (
    ("none", {"kind": "none"}),
    ("alie", {"kind": "alie", "z": 1.0}),
    ("foe_0.1", {"kind": "foe", "eps": 0.1}),
    ("foe_100", {"kind": "foe", "eps": 100.0}),
    ("label_flip", {"kind": "label_flip"}),
    ("sign_flip", {"kind": "sign_flip"}),
)
CRIT7_SEEDS = (1, 2, 3)


@dataclass
class SweepSpec:
    """Base config plus named axes; the grid is their Cartesian product."""

    base: dict
    defenses: list[dict] = field(default_factory=list)
    attacks: list[dict] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    f_values: list[int] = field(default_factory=list)
    n_values: list[int] = field(default_factory=list)
    max_runs: int = DEFAULT_MAX_RUNS


def crit7_sweep(seeds) -> SweepSpec:
    """The criterion-7 grid at ``seeds``."""
    return SweepSpec(
        base=CRIT7_BASE,
        defenses=[spec for _, spec in CRIT7_DEFENSES],
        attacks=[spec for _, spec in CRIT7_ATTACKS],
        seeds=list(seeds),
        max_runs=200,
    )


def parse_sweep(text: str) -> SweepSpec:
    document = check_keys(load_json(text), "", ("base", "axes", "max_runs"))
    if "base" not in document:
        raise ConfigError("base: required key missing")
    axes = document.get("axes")
    axes = {} if axes is None else check_keys(axes, "axes", AXES)
    return SweepSpec(
        base=check_value(dict, document["base"], "base"),
        max_runs=check_value(int, document.get("max_runs", DEFAULT_MAX_RUNS), "max_runs"),
        **{name: check_value(list, axes.get(name, []), f"axes.{name}") for name in AXES},
    )


def expand_grid(spec: SweepSpec, sweep_dir: Path) -> list[ExperimentConfig]:
    """Materialize one validated config per grid point, each with its own
    output directory under the sweep root."""
    axes = [getattr(spec, axis) or [None] for axis in AXES]
    total = math.prod(len(values) for values in axes)
    if total > spec.max_runs:
        raise ConfigError(f"grid of {total} runs exceeds max_runs={spec.max_runs}")

    configs = []
    for index, point in enumerate(itertools.product(*axes)):
        document = json.loads(json.dumps(spec.base))  # deep copy
        for key, value in zip(AXES.values(), point):
            if value is not None:
                document[key] = value
        document["output_path"] = str(sweep_dir / "points" / f"point{index:04d}")
        configs.append(config_from_dict(document))
    return configs


def _run_point(payload: dict) -> dict:
    """Worker body; failures are reported as rows, never raised."""
    cfg = config_from_dict(payload)
    row = dict.fromkeys(RUNS_COLUMNS, "")
    row.update(
        defense=cfg.defense.label(),
        attack=cfg.attack.label(),
        n_clients=cfg.n_clients,
        n_byzantine=cfg.n_byzantine,
        seed=cfg.seed,
        status="ok",
        output_dir=cfg.output_path,
    )
    try:
        summary = execute_run(cfg)
        row["final_accuracy"] = repr(summary.final_accuracy)
        row["worst_round_accuracy"] = repr(summary.worst_round_accuracy)
    except Exception as err:  # noqa: BLE001 - the sweep must survive bad cells
        row["status"] = "error"
        row["error"] = f"{type(err).__name__}: {err}"
        traceback.print_exc()
    return row


def run_sweep(spec: SweepSpec, sweep_dir: Path, jobs: int = 1) -> list[dict]:
    """Execute the grid, write runs.csv and summary.csv, return the run rows."""
    sweep_dir = Path(sweep_dir)
    sweep_dir.mkdir(parents=True, exist_ok=True)
    configs = expand_grid(spec, sweep_dir)
    payloads = [config_to_dict(cfg) for cfg in configs]

    if jobs <= 1:
        rows = [_run_point(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_point, payloads))

    with open(sweep_dir / "runs.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RUNS_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    header, summary_rows = build_summary(rows)
    with open(sweep_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(summary_rows)
    return rows


def build_summary(rows: list[dict]) -> tuple[list[str], list[list]]:
    """Aggregate run rows into defense-by-attack cells.

    Cells hold mean and population std of final accuracy over seeds; the last
    column is each defense row's minimum cell mean across attacks. Pure
    function of the rows so the table can be recomputed offline from runs.csv.
    """
    attacks = sorted({row["attack"] for row in rows})
    groups: dict[tuple, dict[str, list[float]]] = {}
    for row in rows:
        if row["status"] != "ok":
            continue
        key = (row["defense"], int(row["n_clients"]), int(row["n_byzantine"]))
        cell = groups.setdefault(key, {})
        cell.setdefault(row["attack"], []).append(float(row["final_accuracy"]))

    header = ["defense", "n_clients", "n_byzantine"]
    for attack in attacks:
        header += [f"{attack}_mean", f"{attack}_std"]
    header.append("worst_case")

    out = []
    for key in sorted(groups):
        defense, n, f = key
        row: list = [defense, n, f]
        means = []
        for attack in attacks:
            values = groups[key].get(attack, [])
            if values:
                mean = float(np.mean(values))
                std = float(np.std(values))
                row += [repr(mean), repr(std)]
                means.append(mean)
            else:
                row += ["", ""]
        row.append(repr(min(means)) if means else "")
        out.append(row)
    return header, out
