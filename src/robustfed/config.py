"""Experiment configuration: dataclasses, JSON parsing, cross-field checks.

Parsing is fail-closed: unknown keys are rejected and every violated
constraint is reported with its JSON path, so nothing out of range ever
reaches the training engine.

Every section is parsed and echoed from its dataclass fields. A field's
annotation is the JSON type of its key (``int``, ``float`` as a finite
number, ``bool``, ``str``, a nested section, or one of those ``| None``), its
default is the key's default, a field without a default is a required key,
and ``metadata={"json": ...}`` names a key that differs from the field.
"""

from __future__ import annotations

import functools
import json
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

from .aggregators import Aggregator, AggregatorSpec
from .attacks import AttackSpec
from .datasim import PARTITION_KINDS
from .models import ModelSpec
from .prodigy import check_honest_majority


class ConfigError(ValueError):
    """Invalid or unresolvable experiment configuration."""


@dataclass
class DataConfig:
    """Synthetic dataset generation plus the client partition scheme."""

    n_classes: int = 10
    dim: int = 20
    per_class: int = 200
    separation: float = 4.0
    test_per_class: int = 50
    partition: str = "iid"
    alpha: float = 0.1
    min_shard: int | None = None  # resolved to 2 * batch_size when left unset

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("n_classes must be at least 2")
        if self.dim < self.n_classes:
            raise ValueError(f"dim={self.dim} too small for {self.n_classes} class anchors")
        if self.per_class < 1 or self.test_per_class < 1:
            raise ValueError("per_class and test_per_class must be positive")
        if self.partition not in PARTITION_KINDS:
            raise ValueError(
                f"unknown partition {self.partition!r}, expected one of {PARTITION_KINDS}"
            )
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


@dataclass
class TrainSchedule:
    """Round count, local iteration plan, momentum, and the two-step learning rate."""

    rounds: int = 300
    local_iters: int = 1
    batch_size: int = 16
    momentum: float = 0.0
    gamma_hi: float = 0.05
    gamma_lo: float = 0.005
    switch_frac: float = 2.0 / 3.0

    def __post_init__(self):
        if self.rounds < 0:
            raise ValueError("rounds must be nonnegative")
        if self.local_iters < 1:
            raise ValueError("local_iters must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError("momentum must lie in [0, 1]")
        if self.gamma_hi <= 0 or self.gamma_lo <= 0:
            raise ValueError("learning rates must be positive")
        if not 0.0 <= self.switch_frac <= 1.0:
            raise ValueError("switch_frac must lie in [0, 1]")


@dataclass
class ExperimentConfig:
    """Everything one training run needs, seed included."""

    n_clients: int
    n_byzantine: int
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelSpec | None = None  # after data: omitted model keys derive from it
    schedule: TrainSchedule = field(default_factory=TrainSchedule)
    attack: AttackSpec = field(default_factory=AttackSpec)
    defense: AggregatorSpec = field(default_factory=AggregatorSpec)
    seed: int = 0
    eval_every: int = 10
    output_path: str = ""


def _model_defaults(data: DataConfig) -> dict:
    """The model keys a config may omit: a softmax-linear model sized to ``data``."""
    return {"kind": "softmax_linear", "input_dim": data.dim, "n_classes": data.n_classes}


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Materialize remaining defaults and enforce cross-field invariants."""
    if cfg.n_clients < 1:
        raise ConfigError("n_clients: must be at least 1")
    if cfg.n_byzantine < 0:
        raise ConfigError("n_byzantine: must be nonnegative")
    try:
        check_honest_majority(cfg.n_clients, cfg.n_byzantine)
    except ValueError as err:
        raise ConfigError(f"n_byzantine: {err}") from None
    if cfg.attack.kind != "none" and cfg.n_byzantine < 1:
        raise ConfigError(f"attack.kind: {cfg.attack.kind!r} configured but n_byzantine=0")
    if cfg.eval_every < 1:
        raise ConfigError("eval_every: must be at least 1")
    if not 0 <= cfg.seed < 2**64:  # stream keys are 64-bit words: other seeds would alias
        raise ConfigError(f"seed: {cfg.seed} outside [0, 2**64)")

    if cfg.model is None:
        cfg.model = ModelSpec(**_model_defaults(cfg.data))
    if cfg.model.input_dim != cfg.data.dim:
        raise ConfigError(
            f"model.input_dim: {cfg.model.input_dim} does not match data.dim={cfg.data.dim}"
        )
    if cfg.model.n_classes != cfg.data.n_classes:
        raise ConfigError(
            f"model.n_classes: {cfg.model.n_classes} does not match "
            f"data.n_classes={cfg.data.n_classes}"
        )

    if cfg.data.min_shard is None:
        cfg.data.min_shard = 2 * cfg.schedule.batch_size
    if cfg.data.min_shard < cfg.schedule.batch_size:
        raise ConfigError(
            f"data.min_shard: {cfg.data.min_shard} cannot cover one batch of "
            f"{cfg.schedule.batch_size}"
        )
    total = cfg.data.n_classes * cfg.data.per_class
    if cfg.data.partition == "iid" and total // cfg.n_clients < cfg.data.min_shard:
        raise ConfigError(
            f"data.per_class: iid split of {total} samples over {cfg.n_clients} clients "
            f"cannot reach min_shard={cfg.data.min_shard}"
        )

    try:
        Aggregator(cfg.defense, cfg.n_clients, cfg.n_byzantine)
    except ValueError as err:
        raise ConfigError(f"defense: {err}") from None
    return cfg


@functools.cache
def _schema(cls) -> tuple:
    """(JSON key, field name, type, nullable, required, section) for each
    field of ``cls``.

    ``X | None`` gives type X with nullable set; section marks a nested
    dataclass. Resolving the annotations costs far more than a parse, hence
    the cache.
    """
    hints = typing.get_type_hints(cls)
    schema = []
    for f in fields(cls):
        args = [a for a in typing.get_args(hints[f.name]) if a is not type(None)]
        kind = args[0] if args else hints[f.name]
        schema.append((
            f.metadata.get("json", f.name),
            f.name,
            kind,
            bool(args),
            f.default is MISSING and f.default_factory is MISSING,
            is_dataclass(kind),
        ))
    return tuple(schema)


_TYPE_NAMES = {
    int: "an integer", float: "a finite number", bool: "a boolean", str: "a string",
    list: "a list", dict: "an object",
}


def check_value(kind: type, value, at: str, nullable: bool = False):
    """``value`` as JSON type ``kind`` (ints coerced to float for a float
    field), or a ConfigError naming the JSON path ``at``."""
    if nullable and value is None:
        return None
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:  # false for NaN, ±inf and ints beyond float range
            return float(value)
    elif isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    expected = _TYPE_NAMES[kind] + (" or null" if nullable else "")
    raise ConfigError(f"{at}: expected {expected}, got {value!r}")


def check_keys(mapping, path: str, keys) -> dict:
    """``mapping`` if it is a JSON object holding only ``keys``, else a ConfigError."""
    where = path or "top level"
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = sorted(set(mapping) - set(keys))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    return mapping


def _parse(cls, mapping, path: str, given: dict | None = None):
    """Build ``cls`` from the JSON object at ``path``, one key per field.

    An omitted key, or a null section, keeps the field's default; ``given``
    holds defaults the class itself cannot know. Constructor errors are
    reported under ``path``, or under the key named by the error's ``key``.
    """
    schema = _schema(cls)
    check_keys(mapping, path, [key for key, *_ in schema])
    kwargs = dict(given or {})
    for key, name, kind, nullable, required, section in schema:
        at = f"{path}.{key}" if path else key
        if key not in mapping or (mapping[key] is None and section):
            if required and name not in kwargs:
                raise ConfigError(f"{at}: required key missing")
        elif kind is ModelSpec:
            data = kwargs.get("data") or DataConfig()
            kwargs[name] = _parse(kind, mapping[key], at, _model_defaults(data))
        elif section:
            kwargs[name] = _parse(kind, mapping[key], at)
        else:
            kwargs[name] = check_value(kind, mapping[key], at, nullable)
    try:
        return cls(**kwargs)
    except ValueError as err:
        at = f"{path}.{err.key}" if hasattr(err, "key") else path
        raise ConfigError(f"{at}: {err}") from None


def config_from_dict(document: dict, path: str = "") -> ExperimentConfig:
    """Parse a plain-dict experiment document into a fully validated config."""
    return validate_config(_parse(ExperimentConfig, document, path))


def load_json(text: str):
    """``json.loads``, with a syntax error raised as a ConfigError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON: {err}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse a JSON document into a fully validated ExperimentConfig."""
    return config_from_dict(load_json(text))


def config_to_dict(cfg) -> dict:
    """Round-trippable plain-dict form of a config or one of its sections,
    used for echoing and sweep workers."""
    return {
        key: config_to_dict(getattr(cfg, name)) if section else getattr(cfg, name)
        for key, name, *_, section in _schema(type(cfg))
    }
