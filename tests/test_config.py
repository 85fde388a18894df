import pytest

from robustfed.attacks import ALIE_MIN_Z, AttackSpec
from robustfed.config import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    parse_config,
)


def test_minimal_document_materializes_defaults():
    cfg = parse_config('{"n_clients": 10, "n_byzantine": 3}')
    assert cfg.schedule.gamma_hi == 0.05
    assert cfg.schedule.gamma_lo == 0.005
    assert cfg.schedule.momentum == 0.0
    assert cfg.schedule.switch_frac == pytest.approx(2.0 / 3.0)
    assert cfg.model.kind == "softmax_linear"
    assert cfg.model.input_dim == cfg.data.dim
    assert cfg.model.l2_reg == 1e-2
    assert cfg.data.min_shard == 2 * cfg.schedule.batch_size
    assert cfg.eval_every == 10


def test_invalid_json_and_non_object():
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config("{not json")
    with pytest.raises(ConfigError, match="expected an object"):
        parse_config("[1, 2]")


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="top level"):
        parse_config('{"n_clients": 10, "n_byzantine": 3, "bogus": 1}')
    with pytest.raises(ConfigError, match="defense"):
        parse_config('{"n_clients": 10, "n_byzantine": 3, "defense": {"kind": "average", "oops": 1}}')
    with pytest.raises(ConfigError, match="schedule"):
        parse_config('{"n_clients": 10, "n_byzantine": 3, "schedule": {"lr": 0.1}}')


def test_byzantine_majority_rejected():
    message = r"^n_byzantine: adversarial model requires f < N/2, got N=10, f=5$"
    with pytest.raises(ConfigError, match=message):
        parse_config('{"n_clients": 10, "n_byzantine": 5}')


def test_trimmed_mean_overtrimming_rejected():
    # trimmed mean trims f per side, so f < N/2 is what leaves it a value
    doc = '{"n_clients": 10, "n_byzantine": 5, "defense": {"kind": "trimmed_mean"}}'
    with pytest.raises(ConfigError, match="f < N/2"):
        parse_config(doc)


@pytest.mark.parametrize(
    "key, value",
    [("trim_q", "3"), ("weiszfeld_nu", "0.1"), ("weiszfeld_rounds", "3"), ("clip_tau", "10.0"),
     ("clip_iters", "3")],
)
def test_removed_defense_keys_rejected(key, value):
    doc = f'{{"n_clients": 10, "n_byzantine": 3, "defense": {{"kind": "geomed", "{key}": {value}}}}}'
    with pytest.raises(ConfigError, match=rf"^defense: unknown keys \['{key}'\]"):
        parse_config(doc)


def test_attack_without_byzantines_rejected():
    with pytest.raises(ConfigError, match="n_byzantine=0"):
        parse_config('{"n_clients": 10, "n_byzantine": 0, "attack": {"kind": "alie"}}')


def test_searched_alie_z_below_its_bound_rejected_with_path():
    """Each ALIE grid point runs the whole defense every round, and the grid
    holds floor(8 / z) of them, so a searched z below ALIE_MIN_Z is refused;
    without the search one point is used, whatever z."""
    doc = '{{"n_clients": 10, "n_byzantine": 3, "attack": {{"kind": "alie", "z": {z}{search}}}}}'
    for z in ("1e-6", "1e-12", "0.05", "0.09"):
        with pytest.raises(ConfigError, match="^attack.z: the alie search needs z >= 0.1"):
            parse_config(doc.format(z=z, search=""))
        assert parse_config(doc.format(z=z, search=', "search": false')).attack.z == float(z)
    assert parse_config(doc.format(z=ALIE_MIN_Z, search="")).attack.z == ALIE_MIN_Z
    # a config built in code meets the same check in its frozen AttackSpec
    with pytest.raises(ValueError, match="^the alie search needs z >= 0.1, got 0.05"):
        AttackSpec(kind="alie", z=0.05)


def test_model_data_dimension_mismatch_rejected():
    doc = (
        '{"n_clients": 10, "n_byzantine": 3,'
        ' "model": {"kind": "softmax_linear", "input_dim": 7, "n_classes": 10}}'
    )
    with pytest.raises(ConfigError, match="input_dim"):
        parse_config(doc)


def test_wrong_types_reported_with_path():
    with pytest.raises(ConfigError, match="n_clients"):
        parse_config('{"n_clients": "ten", "n_byzantine": 3}')
    with pytest.raises(ConfigError, match="attack.z"):
        parse_config('{"n_clients": 10, "n_byzantine": 3, "attack": {"kind": "alie", "z": "big"}}')
    with pytest.raises(ConfigError, match="defense: unknown aggregator kind"):
        parse_config('{"n_clients": 10, "n_byzantine": 3, "defense": {"kind": "mystery"}}')


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_seed_outside_64_bits_rejected(seed):
    """The stream keys are 64-bit words, so a seed outside [0, 2**64) would
    run the streams of another seed (-1 those of 2**64 - 1)."""
    with pytest.raises(ConfigError, match=rf"^seed: {seed} outside \[0, 2\*\*64\)"):
        config_from_dict({"n_clients": 10, "n_byzantine": 3, "seed": seed})


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seed_range_ends_accepted(seed):
    assert config_from_dict({"n_clients": 10, "n_byzantine": 3, "seed": seed}).seed == seed


def test_unknown_partition_rejected_with_its_kinds():
    document = {"n_clients": 10, "n_byzantine": 3, "data": {"partition": "shards"}}
    message = r"^data: unknown partition 'shards', expected one of \('iid', 'dirichlet'\)"
    with pytest.raises(ConfigError, match=message):
        config_from_dict(document)


def test_min_shard_must_cover_a_batch():
    doc = '{"n_clients": 10, "n_byzantine": 3, "data": {"min_shard": 4}, "schedule": {"batch_size": 16}}'
    with pytest.raises(ConfigError, match="min_shard"):
        parse_config(doc)


def test_iid_feasibility_checked_at_parse_time():
    doc = (
        '{"n_clients": 10, "n_byzantine": 3,'
        ' "data": {"per_class": 10}, "schedule": {"batch_size": 16}}'
    )
    with pytest.raises(ConfigError, match="per_class"):
        parse_config(doc)


def test_roundtrip_through_dict():
    doc = {
        "n_clients": 8,
        "n_byzantine": 2,
        "seed": 11,
        "model": {"kind": "mlp", "hidden": 16},
        "data": {"partition": "dirichlet", "alpha": 0.3, "per_class": 64},
        "schedule": {"rounds": 12, "batch_size": 4, "momentum": 0.9},
        "attack": {"kind": "foe", "eps": 0.5, "search": False},
        "defense": {"kind": "geomed", "nnm": True},
    }
    cfg = config_from_dict(doc)
    echoed = config_to_dict(cfg)
    again = config_from_dict(echoed)
    assert config_to_dict(again) == echoed
    assert again.defense.nnm_enabled and again.defense.kind == "geomed"
    assert again.attack.search is False
    assert again.model.hidden == 16


@pytest.mark.parametrize(
    "section, key, literal, siblings",
    [
        ("schedule", "gamma_hi", "NaN", ""),
        ("schedule", "momentum", "-Infinity", ""),
        ("attack", "z", "NaN", '"kind": "alie", '),
        ("attack", "eps", "Infinity", '"kind": "foe", '),
        ("data", "alpha", "NaN", '"partition": "dirichlet", '),
        ("model", "l2_reg", "Infinity", ""),
        ("data", "separation", "1e400", ""),  # overflows to inf when parsed
        pytest.param("data", "separation", "1" + "0" * 400, "", id="integer-beyond-float-range"),
    ],
)
def test_non_finite_numbers_rejected_with_path(section, key, literal, siblings):
    doc = f'{{"n_clients": 10, "n_byzantine": 3, "{section}": {{{siblings}"{key}": {literal}}}}}'
    with pytest.raises(ConfigError, match=rf"^{section}\.{key}: expected a finite number"):
        parse_config(doc)
