"""Single-run execution: training plus on-disk artifacts.

Each file is written from one record type, a column (or key) per field in
declaration order (``record_keys``): metrics.csv from ``engine.RoundOutcome``,
deterministic, so reruns of the same config are byte-identical; timings.csv
from ``engine.PhaseTimes``, the wall-clock phase times, kept apart; and
summary.json from ``RunSummary``. trust_scores.jsonl holds each round
outcome's trust scores.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path

from .config import ExperimentConfig, config_to_dict
from .engine import PhaseTimes, RoundOutcome, TrainResult, run_training

OUTPUT_DIR_ENV = "ROBUSTFED_OUTPUT_DIR"


@dataclass
class RunSummary:
    """One run's summary.json, and the directory its files went to."""

    final_accuracy: float
    final_loss: float
    worst_round_accuracy: float
    rounds: int
    wall_time_s: float
    config: dict
    output_dir: Path = field(metadata={"key": None})


def default_output_dir() -> Path:
    """The directory ``ROBUSTFED_OUTPUT_DIR`` names, otherwise ./out."""
    return Path(os.environ.get(OUTPUT_DIR_ENV, "out"))


def resolve_output_dir(cfg: ExperimentConfig) -> Path:
    """Config path wins; otherwise ``default_output_dir()``."""
    if cfg.output_path:
        return Path(cfg.output_path)
    return default_output_dir()


def record_keys(cls) -> tuple[attrgetter, tuple[str, ...]]:
    """A getter of the fields of record type ``cls`` that its file holds, in
    declaration order, and their names there: a field's metadata "key"
    renames it, and key None leaves it out."""
    keys = {f.name: f.metadata.get("key", f.name) for f in fields(cls)}
    kept = {name: key for name, key in keys.items() if key is not None}
    return attrgetter(*kept), tuple(kept.values())


def _cell(value):
    """A CSV cell: a float as its repr, a flag as 0 or 1, None as empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return int(value)
    return repr(float(value)) if isinstance(value, float) else value


def write_csv(cls, records, path: Path) -> None:
    """A header of ``cls``'s ``record_keys``, then one row per record."""
    get, header = record_keys(cls)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(value) for value in get(rec)] for rec in records)


def write_trust_jsonl(result: TrainResult, path: Path) -> None:
    with open(path, "w") as fh:
        for rec in result.records:
            if rec.trust is None:
                continue
            line = {"round": rec.round_idx, **rec.trust.to_dict()}
            fh.write(json.dumps(line) + "\n")


def execute_run(cfg: ExperimentConfig) -> RunSummary:
    """Train once and write metrics.csv, timings.csv, summary.json, and the
    trust-score sidecar (when the defense produces trust scores)."""
    start = time.perf_counter()
    result = run_training(cfg)
    wall = time.perf_counter() - start

    out_dir = resolve_output_dir(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(RoundOutcome, result.records, out_dir / "metrics.csv")
    write_csv(PhaseTimes, result.timings, out_dir / "timings.csv")
    if any(rec.trust is not None for rec in result.records):
        write_trust_jsonl(result, out_dir / "trust_scores.jsonl")

    evaluated = [rec.test_accuracy for rec in result.records if rec.test_accuracy is not None]
    summary = RunSummary(
        final_accuracy=result.final_accuracy,
        final_loss=result.final_loss,
        worst_round_accuracy=min(evaluated, default=result.final_accuracy),
        rounds=cfg.schedule.rounds,
        wall_time_s=wall,
        config=config_to_dict(cfg),
        output_dir=out_dir,
    )
    get, keys = record_keys(RunSummary)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(dict(zip(keys, get(summary))), fh, indent=2)
        fh.write("\n")
    return summary
