import importlib
from pathlib import Path

import pytest

from robustfed.config import config_to_dict
from robustfed.sweep import CRIT7_BASE, CRIT7_SEEDS, crit7_sweep, expand_grid

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def table(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return importlib.import_module("qualitative_table")


def documents(spec, tmp_path):
    return [config_to_dict(cfg) for cfg in expand_grid(spec, tmp_path)]


@pytest.mark.parametrize(
    "override, changed",
    [({"iid": True}, {"partition": "iid"}), ({"alpha": 0.3}, {"alpha": 0.3}), ({}, {})],
    ids=["iid", "alpha", "default"],
)
def test_skew_override_changes_only_its_data_key(table, tmp_path, override, changed):
    before = str(CRIT7_BASE)
    default = documents(crit7_sweep(CRIT7_SEEDS), tmp_path)
    skewed = documents(table.skewed_sweep(CRIT7_SEEDS, **override), tmp_path)
    assert str(CRIT7_BASE) == before  # the shared base is not edited
    assert len(skewed) == len(default) == 7 * 6 * 3
    for got, want in zip(skewed, default):
        assert got["data"] == {**want["data"], **changed}
        assert {**got, "data": None} == {**want, "data": None}
