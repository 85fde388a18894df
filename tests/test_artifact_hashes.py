import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def gate(monkeypatch):
    """scripts/artifact_hashes.py, with its runs replaced by the committed
    reference's hashes, so that only the comparison is under test."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    module = importlib.import_module("artifact_hashes")
    reference = json.loads((ROOT / "HASHES.json").read_text())
    reference["fingerprint"] = module.fingerprint()
    hashes = json.loads(json.dumps(reference["hashes"]))
    monkeypatch.setattr(module, "all_hashes", lambda jobs: (hashes, []))
    return module, reference


def check(module, reference, tmp_path) -> int:
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    return module.main(["--check", str(path)])


def test_reference_on_this_fingerprint_passes(gate, tmp_path, capsys):
    module, reference = gate
    assert check(module, reference, tmp_path) == 0
    assert f"{len(reference['hashes'])} of {len(reference['hashes'])}" in capsys.readouterr().out


def test_changed_hash_fails_and_is_named(gate, tmp_path, capsys):
    module, reference = gate
    key = sorted(reference["hashes"])[0]
    reference["hashes"][key] = {"metrics.csv": "0" * 64}
    assert check(module, reference, tmp_path) == 1
    assert f"differs: {key}" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["numpy", "python", "machine", "cpu_features"])
def test_reference_from_another_fingerprint_never_passes(gate, tmp_path, capsys, monkeypatch, key):
    module, reference = gate
    monkeypatch.setattr(module, "all_hashes", lambda jobs: pytest.fail("ran the sweeps"))
    reference["fingerprint"][key] = ["other"]
    assert check(module, reference, tmp_path) == 2
    assert "does not apply" in capsys.readouterr().out
