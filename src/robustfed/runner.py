"""Single-run execution: training plus on-disk artifacts.

Metric CSVs contain only deterministic values so reruns of the same config
are byte-identical; wall-clock timings go to a separate file.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from .config import ExperimentConfig, config_to_dict
from .engine import TrainResult, run_training

OUTPUT_DIR_ENV = "ROBUSTFED_OUTPUT_DIR"

METRICS_COLUMNS = ("round", "gamma", "global_loss", "test_accuracy", "degenerate_flag")
TIMINGS_COLUMNS = ("round", "agg_wall_ms", "client_ms", "attack_ms", "eval_ms")


@dataclass
class RunArtifacts:
    output_dir: Path
    final_accuracy: float
    final_loss: float
    worst_round_accuracy: float
    wall_time_s: float


def default_output_dir() -> Path:
    """The directory ``ROBUSTFED_OUTPUT_DIR`` names, otherwise ./out."""
    return Path(os.environ.get(OUTPUT_DIR_ENV, "out"))


def resolve_output_dir(cfg: ExperimentConfig) -> Path:
    """Config path wins; otherwise ``default_output_dir()``."""
    if cfg.output_path:
        return Path(cfg.output_path)
    return default_output_dir()


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def write_metrics_csv(result: TrainResult, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_COLUMNS)
        for rec in result.records:
            writer.writerow(
                [
                    rec.round_idx,
                    repr(rec.gamma),
                    _fmt(rec.global_loss),
                    _fmt(rec.test_accuracy),
                    int(rec.degenerate),
                ]
            )


def write_timings_csv(result: TrainResult, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TIMINGS_COLUMNS)
        for rec in result.records:
            writer.writerow([rec.round_idx] + [repr(getattr(rec, c)) for c in TIMINGS_COLUMNS[1:]])


def write_trust_jsonl(result: TrainResult, path: Path) -> None:
    with open(path, "w") as fh:
        for rec in result.records:
            if rec.trust is None:
                continue
            line = {"round": rec.round_idx, **rec.trust.to_dict()}
            fh.write(json.dumps(line) + "\n")


def execute_run(cfg: ExperimentConfig) -> RunArtifacts:
    """Train once and write metrics.csv, timings.csv, summary.json, and the
    trust-score sidecar (when the defense produces trust scores)."""
    start = time.perf_counter()
    result = run_training(cfg)
    wall = time.perf_counter() - start

    out_dir = resolve_output_dir(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(result, out_dir / "metrics.csv")
    write_timings_csv(result, out_dir / "timings.csv")
    if any(rec.trust is not None for rec in result.records):
        write_trust_jsonl(result, out_dir / "trust_scores.jsonl")

    evaluated = [rec.test_accuracy for rec in result.records if rec.test_accuracy is not None]
    worst = min(evaluated) if evaluated else result.final_accuracy
    summary = {
        "final_accuracy": result.final_accuracy,
        "final_loss": result.final_loss,
        "worst_round_accuracy": worst,
        "rounds": cfg.schedule.rounds,
        "wall_time_s": wall,
        "config": config_to_dict(cfg),
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return RunArtifacts(
        output_dir=out_dir,
        final_accuracy=result.final_accuracy,
        final_loss=result.final_loss,
        worst_round_accuracy=worst,
        wall_time_s=wall,
    )
