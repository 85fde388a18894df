import csv
import importlib
import json
import math
import re
from pathlib import Path

import pytest

from robustfed.config import ConfigError, config_from_dict
from robustfed.runner import execute_run
from robustfed.sweep import (
    CRIT7_ATTACKS,
    CRIT7_BASE,
    CRIT7_DEFENSES,
    CRIT7_SEEDS,
    SweepSpec,
    build_summary,
    expand_grid,
    parse_sweep,
    run_sweep,
)

BASE = {
    "n_clients": 6,
    "n_byzantine": 2,
    "seed": 5,
    "eval_every": 4,
    "data": {
        "n_classes": 4,
        "dim": 6,
        "per_class": 60,
        "separation": 4.0,
        "test_per_class": 20,
        "partition": "iid",
    },
    "schedule": {"rounds": 12, "batch_size": 8},
    "attack": {"kind": "alie", "z": 1.0},
    "defense": {"kind": "prodigy"},
}


def run_config(tmp_path, name="run", **overrides):
    doc = json.loads(json.dumps(BASE))
    doc.update(overrides)
    doc["output_path"] = str(tmp_path / name)
    return config_from_dict(doc)


def test_run_writes_expected_artifacts(tmp_path):
    cfg = run_config(tmp_path)
    artifacts = execute_run(cfg)
    out = artifacts.output_dir
    assert (out / "metrics.csv").exists()
    assert (out / "timings.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "trust_scores.jsonl").exists()

    with open(out / "metrics.csv") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ["round", "gamma", "global_loss", "test_accuracy", "degenerate_flag"]
    assert len(rows) == 12  # one per round
    evaluated = [r for r in rows if r["test_accuracy"] != ""]
    assert len(evaluated) >= math.ceil(12 / cfg.eval_every)

    with open(out / "timings.csv") as fh:
        reader = csv.DictReader(fh)
        timings = list(reader)
    assert reader.fieldnames == ["round", "agg_wall_ms", "client_ms", "attack_ms", "eval_ms"]
    assert [int(r["round"]) for r in timings] == list(range(12))
    assert all(float(r[col]) >= 0.0 for r in timings for col in reader.fieldnames[1:])
    assert all(float(r["client_ms"]) > 0.0 and float(r["attack_ms"]) > 0.0 for r in timings)

    lines = (out / "trust_scores.jsonl").read_text().strip().splitlines()
    assert len(lines) == 12
    first = json.loads(lines[0])
    assert len(first["final"]) == 6

    summary = json.loads((out / "summary.json").read_text())
    assert list(summary) == [
        "final_accuracy",
        "final_loss",
        "worst_round_accuracy",
        "rounds",
        "wall_time_s",
        "config",
    ]
    assert summary["config"]["n_clients"] == 6


def test_no_trust_sidecar_for_plain_average(tmp_path):
    cfg = run_config(tmp_path, defense={"kind": "average"})
    artifacts = execute_run(cfg)
    assert not (artifacts.output_dir / "trust_scores.jsonl").exists()


def test_rerun_metrics_byte_identical(tmp_path):
    a = execute_run(run_config(tmp_path, "a")).output_dir
    b = execute_run(run_config(tmp_path, "b")).output_dir
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "trust_scores.jsonl").read_bytes() == (b / "trust_scores.jsonl").read_bytes()


def test_output_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("ROBUSTFED_OUTPUT_DIR", str(tmp_path / "envout"))
    cfg = run_config(tmp_path)
    cfg.output_path = ""
    artifacts = execute_run(cfg)
    assert artifacts.output_dir == Path(tmp_path / "envout")
    assert (artifacts.output_dir / "metrics.csv").exists()


def sweep_spec(**overrides) -> SweepSpec:
    spec = SweepSpec(
        base=json.loads(json.dumps(BASE)),
        defenses=[{"kind": "average"}, {"kind": "median", "nnm": True}],
        attacks=[{"kind": "none"}, {"kind": "alie", "z": 1.0}, {"kind": "sign_flip"}],
        seeds=[1, 2, 3],
    )
    for key, value in overrides.items():
        setattr(spec, key, value)
    return spec


def test_sweep_grid_arithmetic_and_summary(tmp_path):
    rows = run_sweep(sweep_spec(), tmp_path / "sweep", jobs=1)
    assert len(rows) == 2 * 3 * 3  # defenses x attacks x seeds
    assert all(r["status"] == "ok" for r in rows)

    header, summary_rows = build_summary(rows)
    assert len(summary_rows) == 2  # one per defense cell group
    assert header[-1] == "worst_case"

    with open(tmp_path / "sweep" / "summary.csv") as fh:
        table = list(csv.DictReader(fh))
    for line in table:
        means = [
            float(line[c]) for c in line if c.endswith("_mean") and line[c] != ""
        ]
        assert float(line["worst_case"]) == pytest.approx(min(means))

    # std cells aggregate exactly the three seeds
    by_key = {(r["defense"], r["attack"]): [] for r in rows}
    for r in rows:
        by_key[(r["defense"], r["attack"])].append(float(r["final_accuracy"]))
    assert all(len(v) == 3 for v in by_key.values())


def test_summary_recomputable_offline_from_runs_csv(tmp_path):
    run_sweep(sweep_spec(), tmp_path / "sweep", jobs=1)
    with open(tmp_path / "sweep" / "runs.csv") as fh:
        rows = list(csv.DictReader(fh))
    header, summary_rows = build_summary(rows)
    with open(tmp_path / "sweep" / "summary.csv") as fh:
        reader = csv.reader(fh)
        disk_header = next(reader)
        disk_rows = list(reader)
    assert disk_header == header
    assert [[str(v) for v in row] for row in summary_rows] == disk_rows


def test_sweep_points_have_unique_dirs(tmp_path):
    run_sweep(sweep_spec(), tmp_path / "sweep", jobs=2)
    points = sorted((tmp_path / "sweep" / "points").glob("point*/metrics.csv"))
    assert len(points) == 18


def test_sweep_survives_failing_cells(tmp_path):
    # per-class count too small for the dirichlet min-shard guard -> runtime failure
    base = json.loads(json.dumps(BASE))
    base["data"]["partition"] = "dirichlet"
    base["data"]["alpha"] = 0.05
    base["data"]["per_class"] = 30
    base["data"]["min_shard"] = 18
    spec = SweepSpec(base=base, seeds=[1], attacks=[{"kind": "none"}, {"kind": "sign_flip"}])
    rows = run_sweep(spec, tmp_path / "sweep", jobs=1)
    assert len(rows) == 2
    statuses = {r["status"] for r in rows}
    assert "error" in statuses
    failed = [r for r in rows if r["status"] == "error"]
    assert all(r["error"] for r in failed)
    assert (tmp_path / "sweep" / "runs.csv").exists()


def test_sweep_cap_enforced(tmp_path):
    spec = sweep_spec(max_runs=5)
    with pytest.raises(ConfigError, match="max_runs"):
        expand_grid(spec, tmp_path)


def test_parse_sweep_rejects_unknown_axes():
    with pytest.raises(ConfigError):
        parse_sweep('{"base": {"n_clients": 6, "n_byzantine": 2}, "axes": {"foo": []}}')
    spec = parse_sweep(
        '{"base": {"n_clients": 6, "n_byzantine": 2}, "axes": {"seeds": [1, 2]}, "max_runs": 9}'
    )
    assert spec.seeds == [1, 2]
    assert spec.max_runs == 9


@pytest.mark.parametrize(
    "text, message",
    [
        ("{", "invalid JSON"),
        ("[]", "top level: expected an object"),
        ('{"base": {}, "extra": 1}', "top level: unknown keys"),
        ('{"axes": {}}', "base: required key missing"),
        ('{"base": [1]}', "base: expected an object"),
        ('{"base": {}, "axes": [1]}', "axes: expected an object"),
        ('{"base": {}, "axes": {"seeds": 3}}', "axes.seeds: expected a list"),
        ('{"base": {}, "max_runs": true}', "max_runs: expected an integer"),
    ],
)
def test_parse_sweep_errors_name_their_path(text, message):
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        parse_sweep(text)


def test_expand_grid_applies_axes(tmp_path):
    spec = sweep_spec(n_values=[6], f_values=[1, 2])
    configs = expand_grid(spec, tmp_path)
    assert len(configs) == 2 * 3 * 3 * 2
    assert {c.n_byzantine for c in configs} == {1, 2}
    assert all(c.output_path for c in configs)
    assert len({c.output_path for c in configs}) == len(configs)


def test_benchmark_grid_copy_matches_criterion_7(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    assert workloads.CRIT7_BASE == CRIT7_BASE
    assert workloads.DEFENSES == CRIT7_DEFENSES
    grid_attacks = [cell for cells in workloads.GRID_ATTACKS.values() for cell in cells]
    assert sorted(name for name, _ in grid_attacks) == sorted(name for name, _ in CRIT7_ATTACKS)
    assert dict(grid_attacks) == dict(CRIT7_ATTACKS)
    assert workloads.CONFIG_SEEDS == CRIT7_SEEDS
