import json

import pytest

import robustfed.cli as cli
from robustfed.verification import CheckResult

CONFIG = {
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
        "partition": "dirichlet",
        "alpha": 0.5,
    },
    "schedule": {"rounds": 10, "batch_size": 8},
    "defense": {"kind": "prodigy"},
}


def write_config(tmp_path, extra=None, name="config.json"):
    doc = json.loads(json.dumps(CONFIG))
    if extra:
        doc.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_run_subcommand(tmp_path, capsys):
    path = write_config(tmp_path, {"output_path": str(tmp_path / "out")})
    code = cli.main(["run", "--config", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "final_accuracy=" in out
    assert (tmp_path / "out" / "metrics.csv").exists()


def test_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n_clients": 10, "n_byzantine": 7}')
    assert cli.main(["run", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 1


def test_runtime_error_exit_code(tmp_path, capsys):
    # valid config whose dirichlet split cannot satisfy the min-shard guard
    path = write_config(
        tmp_path,
        {
            "data": {
                "n_classes": 4,
                "dim": 6,
                "per_class": 20,
                "partition": "dirichlet",
                "alpha": 0.05,
                "min_shard": 12,
            },
            "schedule": {"rounds": 5, "batch_size": 4},
        },
    )
    assert cli.main(["run", "--config", str(path)]) == 2
    assert "runtime error" in capsys.readouterr().err


def test_non_finite_config_number_exit_code(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "output_path": str(tmp_path / "out"),
            "schedule": {"rounds": 5, "batch_size": 8, "gamma_hi": float("nan")},
        },
    )
    assert "NaN" in path.read_text()
    assert cli.main(["run", "--config", str(path)]) == 1
    assert "schedule.gamma_hi: expected a finite number" in capsys.readouterr().err


def test_defense_count_error_exit_code(tmp_path, capsys):
    # a config error at parse time, not a runtime error at round 0
    path = write_config(
        tmp_path,
        {"output_path": str(tmp_path / "out"), "n_clients": 3, "n_byzantine": 1,
         "defense": {"kind": "krum"}},
    )
    assert cli.main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "defense: krum needs N >= f + 3, got N=3, f=1" in err
    assert not (tmp_path / "out").exists()


def test_verify_exit_codes(monkeypatch, capsys):
    ok = [CheckResult("alpha", True, "fine", 0.1), CheckResult("beta", True, "fine", 0.2)]
    monkeypatch.setattr(cli, "run_all_checks", lambda: ok)
    assert cli.main(["verify"]) == 0
    assert "PASS" in capsys.readouterr().out

    bad = [CheckResult("alpha", True, "fine", 0.1), CheckResult("beta", False, "broken", 0.2)]
    monkeypatch.setattr(cli, "run_all_checks", lambda: bad)
    assert cli.main(["verify"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out and "broken" in out


def test_partition_preview(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["partition-preview", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "partition=dirichlet" in out
    lines = [line for line in out.splitlines() if line and line[0].isdigit()]
    assert len(lines) == 6  # one histogram row per client


def test_sweep_subcommand(tmp_path, capsys):
    base = json.loads(json.dumps(CONFIG))
    base["data"]["partition"] = "iid"
    sweep_doc = {
        "base": base,
        "axes": {"defenses": [{"kind": "average"}], "seeds": [1, 2]},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep_doc))
    code = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "sw")])
    assert code == 0
    assert (tmp_path / "sw" / "summary.csv").exists()
    assert "2 runs" in capsys.readouterr().out


def test_sweep_with_failed_runs_exit_code(tmp_path, capsys):
    # a dirichlet split this skewed cannot give every client a full shard
    base = json.loads(json.dumps(CONFIG))
    base.update(n_clients=4, n_byzantine=1)
    base["data"].update(n_classes=2, per_class=40, alpha=0.01)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"base": base, "axes": {"seeds": [1, 2]}}))
    code = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "sw")])
    assert code == 2
    assert (tmp_path / "sw" / "runs.csv").exists()
    assert (tmp_path / "sw" / "summary.csv").exists()
    out = capsys.readouterr().out
    assert "2 runs (2 failed)" in out
    assert out.count("FAILED") == 2
