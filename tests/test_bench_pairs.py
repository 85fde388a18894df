import importlib
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def pairs(monkeypatch):
    """scripts/bench_pairs.py, with each benchmark run replaced by a canned
    result, so that only the alternation and the summary are under test.
    Returns the module and the list of (tree name, seed, seconds) runs made."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    module = importlib.import_module("bench_pairs")
    made = []

    def canned(tree, workload, seed, seconds, trace):
        made.append((tree.name, seed, seconds))
        if tree.name == "broken":
            return {"error": "exit 1: boom"}
        change = tree.name == "change"
        # the change is 2 ms faster in every pair but the last, and uses 1 MB more
        faster = change and seed < 4
        return {
            "correct": True,
            "attempted": 10,
            "failed": 1 if change else 0,
            "minor_faults": 1000 * (seed + 1) + (500 if change else 0),
            "machine": {"cpu": "test", "commit": "abc"},
            "metrics": {
                "agg_ms_p50": {"value": 10.0 + seed - (2.0 if faster else 0.0), "unit": "ms"},
                "rounds_per_s": {"value": 100.0, "unit": "1/s"},
                "peak_rss_mb": {"value": 70.0 + change, "unit": "MB"},
            },
        }

    monkeypatch.setattr(module, "run_benchmark", canned)
    return module, made


def run(module, tmp_path, *trees, extra=()):
    out = tmp_path / "bench.json"
    paths = [tmp_path / tree for tree in trees]
    argv = [*map(str, paths), "--workload", "local-grid", "--pairs", "5", "--seed0", "0",
            "--out", str(out), *extra]
    return module.main(argv), json.loads(out.read_text())


def test_pairs_alternate_and_summarize(pairs, tmp_path):
    module, made = pairs
    status, report = run(module, tmp_path, "parent", "change")
    assert status == 0
    assert [(tree, seed) for tree, seed, _ in made] == [
        ("parent", 0), ("change", 0), ("change", 1), ("parent", 1), ("parent", 2),
        ("change", 2), ("change", 3), ("parent", 3), ("parent", 4), ("change", 4)]
    # every run lasts the benchmark's own run length
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert {run_seconds for *_, run_seconds in made} == {seconds}
    assert report["machine"] == {"cpu": "test"}
    section = report["workloads"]["local-grid --seed0 0"]
    assert f"--seconds {seconds:g} " in section["command"]
    assert section["seeds"] == [0, 1, 2, 3, 4]
    assert len(section["runs"]) == 10
    summary = section["summary"]
    assert summary["failed"] == {"parent": 0, "change": 5}
    assert summary["attempted"] == {"parent": 50, "change": 50}
    assert summary["peak_rss_mb"] == {"parent": [70.0] * 5, "change": [71.0] * 5}
    faults = summary["minor_faults"]
    assert faults["parent"]["runs"] == [1000, 2000, 3000, 4000, 5000]
    assert (faults["parent"]["median"], faults["parent"]["iqr"]) == (3000.0, 2000.0)
    assert faults["change"]["runs"] == [1500, 2500, 3500, 4500, 5500]
    assert faults["change"]["median"] == 3500.0

    agg = summary["metrics"]["agg_ms_p50"]
    # parent 10..14; change 8, 9, 10, 11, 14: lower is better, so 4 of 5 pairs won
    assert (agg["better"], agg["pairs"], agg["change_wins"]) == ("lower", 5, 4)
    assert (agg["parent"]["median"], agg["parent"]["iqr"]) == (12.0, 2.0)
    assert agg["change"]["median"] == 10.0
    assert agg["median_change_pct"] == pytest.approx(-100.0 / 6)
    assert agg["median_gain_exceeds_parent_iqr"] is False  # a gain of 2, not more than 2
    assert agg["worse_than_bound"] is False

    rounds = summary["metrics"]["rounds_per_s"]
    assert (rounds["better"], rounds["change_wins"]) == ("higher", 0)  # ties win nothing
    rss = summary["metrics"]["peak_rss_mb"]
    assert (rss["better"], rss["change_wins"], rss["bound"]) == ("lower", 0, 0.1)
    assert rss["worse_than_bound"] is False  # 1/70 is inside the 10 % bound


def test_a_run_without_result_is_counted_and_fails(pairs, tmp_path):
    module, _ = pairs
    status, report = run(module, tmp_path, "parent", "broken")
    assert status == 1
    summary = report["workloads"]["local-grid --seed0 0"]["summary"]
    assert summary["runs_without_result"] == {"parent": 0, "change": 5}
    assert summary["metrics"] == {}


def test_other_sections_in_the_file_are_kept(pairs, tmp_path):
    module, _ = pairs
    (tmp_path / "bench.json").write_text(json.dumps({"workloads": {"local-grid --seed0 9": 1}}))
    _, report = run(module, tmp_path, "parent", "change", extra=("--trace", "1"))
    assert set(report["workloads"]) == {"local-grid --seed0 9", "local-grid --seed0 0 --trace 1"}


def test_trees_at_unequal_path_lengths_are_refused(pairs, tmp_path, capsys):
    """wide-aggregation's peak_rss_mb follows the checkout's path length, so
    trees whose resolved paths differ in length exit 2 before any run and
    write nothing; the message names both lengths."""
    module, made = pairs
    out = tmp_path / "bench.json"
    parent, change = tmp_path / "parent", tmp_path / "changed"
    argv = [str(parent), str(change), "--workload", "local-grid", "--pairs", "2",
            "--seed0", "0", "--out", str(out)]
    assert module.main(argv) == 2
    assert made == [] and not out.exists()
    message = capsys.readouterr().err
    assert f"parent {len(str(parent.resolve()))}, change {len(str(change.resolve()))}" in message


def test_a_run_records_its_minor_faults(monkeypatch, tmp_path):
    """The faults of one run are the growth of the children's ru_minflt
    across it, whether or not the run printed a result."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    module = importlib.import_module("bench_pairs")
    counts = iter([100, 350, 350, 400])
    monkeypatch.setattr(
        module.resource, "getrusage", lambda who: SimpleNamespace(ru_minflt=next(counts))
    )
    outputs = iter(['machine: {"cpu": "test"}\n{"correct": true, "metrics": {}}\n', ""])

    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout=next(outputs), stderr="boom")

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    result = module.run_benchmark(tmp_path, "local-grid", 0, 1.0, 0)
    assert (result["minor_faults"], result["machine"]) == (250, {"cpu": "test"})
    assert module.run_benchmark(tmp_path, "local-grid", 0, 1.0, 0) == {
        "error": "exit 0: boom", "minor_faults": 50}
