"""The three benchmark workloads, their inputs and their output checks.

Grid workloads run criterion-7 sweep cells through ``sweep.run_sweep(jobs=1)``,
one cell per call. A block is seven cells: every defense once, defense i
against attack i mod 3, so every attack appears too. Every block of every run
is the same fraction of the grid, which keeps the work mix fixed; the workload
seed only picks the config seed. Blocks repeat until the run has measured for
``seconds``. The wide workload calls ``Aggregator`` directly on pre-built
N=100, d=10 000 gradient sets.

Every function that touches the program reaches it through a module attribute
(``sweep.run_sweep``, ``engine.build_clients``, ...) so that the tracer's
patches apply.
"""

from __future__ import annotations

import csv
import importlib
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Tracer, per_layer_metrics, self_check

# Copy of the criterion-7 base config (tests/test_acceptance.py); the benchmark
# owns its inputs so that a change to the program cannot change them.
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
ROUNDS = CRIT7_BASE["schedule"]["rounds"]

DEFENSES = (
    ("no_defense", {"kind": "average"}),
    ("nnm+median", {"kind": "median", "nnm": True}),
    ("nnm+trimmed_mean", {"kind": "trimmed_mean", "nnm": True}),
    ("nnm+geomed", {"kind": "geomed", "nnm": True}),
    ("nnm+krum", {"kind": "krum", "nnm": True}),
    ("nnm+cclip", {"kind": "cclip", "nnm": True}),
    ("prodigy", {"kind": "prodigy"}),
)
GRID_ATTACKS = {
    "omniscient-grid": (
        ("alie", {"kind": "alie", "z": 1.0}),
        ("foe_0.1", {"kind": "foe", "eps": 0.1}),
        ("foe_100", {"kind": "foe", "eps": 100.0}),
    ),
    "local-grid": (
        ("none", {"kind": "none"}),
        ("sign_flip", {"kind": "sign_flip"}),
        ("label_flip", {"kind": "label_flip"}),
    ),
}
CONFIG_SEEDS = (1, 2, 3)

WIDE_N, WIDE_D, WIDE_F = 100, 10_000, 20
WIDE_FAMILIES = 8
WIDE_SETS = 3
WIDE_Z = 1.0
PROJECTION_SEED = 20250911
REL_TOL = 1e-10

SETUP_REPEATS = 5
WARM_UP_ROUNDS = 10


@dataclass
class Outcome:
    """What one workload run measured; ``metrics`` maps name -> (value, unit)."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    block_s: list = field(default_factory=list)
    self_check: list | None = None  # traced runs only; empty means passed

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(problem)


def _median_setup(fn) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


# --- grid workloads -----------------------------------------------------------


def config_seed(seed: int) -> int:
    return CONFIG_SEEDS[seed % len(CONFIG_SEEDS)]


def block_cells(workload: str) -> list[tuple]:
    """Seven (defense name, spec, attack name, spec) cells; defense i meets attack i mod 3."""
    attacks = GRID_ATTACKS[workload]
    return [(dname, dspec, *attacks[i % len(attacks)]) for i, (dname, dspec) in enumerate(DEFENSES)]


def cell_key(dname: str, aname: str, config_seed: int) -> str:
    return f"{dname}/{aname}/seed{config_seed}"


def cell_spec(sweep, cell, config_seed: int, base=CRIT7_BASE):
    dname, dspec, aname, aspec = cell
    return sweep.SweepSpec(base=base, defenses=[dspec], attacks=[aspec], seeds=[config_seed])


def run_cell(sweep, cell, config_seed: int, cell_dir: Path) -> tuple[float, dict]:
    """One sweep cell; returns its wall time and its runs.csv row."""
    spec = cell_spec(sweep, cell, config_seed)
    t0 = perf_counter()
    rows = sweep.run_sweep(spec, cell_dir, jobs=1)
    return perf_counter() - t0, rows[0]


def _agg_wall_ms(row: dict) -> list[float]:
    with open(Path(row["output_dir"]) / "timings.csv", newline="") as fh:
        return [float(r["agg_wall_ms"]) for r in csv.DictReader(fh)]


def _check_cell(cell, config_seed, row, references) -> str | None:
    key = cell_key(cell[0], cell[2], config_seed)
    if row["status"] != "ok":
        return f"{key}: {row['error']}"
    expected = references.get(key)
    if expected is None:
        return f"{key}: no reference accuracy"
    if float(row["final_accuracy"]) != expected:
        return f"{key}: final accuracy {row['final_accuracy']} != reference {expected!r}"
    return None


class GridRun:
    def __init__(self, workload, seed, work_dir, references):
        self.sweep = importlib.import_module("robustfed.sweep")
        self.engine = importlib.import_module("robustfed.engine")
        self.workload = workload
        self.config_seed = config_seed(seed)
        self.work_dir = work_dir
        self.references = references
        self.outcome = Outcome()
        self.cell_s: list[float] = []
        self.agg_ms: list[float] = []
        self.rounds = 0
        self.blocks = 0

    def setup(self) -> float:
        """Median time of config expansion plus client/data construction for a block."""
        def once():
            for k, cell in enumerate(block_cells(self.workload)):
                spec = cell_spec(self.sweep, cell, self.config_seed)
                (cfg,) = self.sweep.expand_grid(spec, self.work_dir / f"setup{k}")
                self.engine.build_clients(cfg)
        return _median_setup(once)

    def warm_up(self) -> None:
        """Every cell of the block for a few rounds, untimed, so that lazy
        initialisation and allocator growth fall outside the first block."""
        base = {**CRIT7_BASE, "schedule": {**CRIT7_BASE["schedule"], "rounds": WARM_UP_ROUNDS}}
        for k, cell in enumerate(block_cells(self.workload)):
            self.sweep.run_sweep(cell_spec(self.sweep, cell, self.config_seed, base),
                                 self.work_dir / f"warm-up{k}", jobs=1)

    def block(self, _index: int) -> float:
        """Run one block of cells; checks run outside the timed cells."""
        wall = 0.0
        for k, cell in enumerate(block_cells(self.workload)):
            cell_dir = self.work_dir / f"block{self.blocks}-cell{k}"
            seconds, row = run_cell(self.sweep, cell, self.config_seed, cell_dir)
            wall += seconds
            self.cell_s.append(seconds)
            problem = _check_cell(cell, self.config_seed, row, self.references)
            if row["status"] == "ok":
                self.rounds += ROUNDS
                try:
                    self.agg_ms += _agg_wall_ms(row)
                except (OSError, KeyError, ValueError) as err:
                    problem = problem or f"timings.csv unreadable: {err}"
            self.outcome.record(problem)
            shutil.rmtree(cell_dir, ignore_errors=True)
        self.blocks += 1
        return wall

    def end_to_end(self, setup_s: float) -> dict:
        return {
            "rounds_per_s": (self.rounds / sum(self.cell_s), "1/s"),
            "run_s_p50": (statistics.median(self.cell_s), "s"),
            "agg_calls_per_s": (1e3 / statistics.fmean(self.agg_ms), "1/s"),
            "agg_ms_p50": (statistics.median(self.agg_ms), "ms"),
            "setup_s": (setup_s, "s"),
        }


# --- wide-aggregation workload -------------------------------------------------


def wide_family(seed: int) -> int:
    return seed % WIDE_FAMILIES


def wide_vectors(family: int, index: int) -> np.ndarray:
    """f colluding copies of an ALIE vector (mean - z*std) above N-f Gaussian honest rows."""
    rng = np.random.default_rng([family, index])
    center = 0.5 * rng.standard_normal(WIDE_D)
    honest = center + rng.standard_normal((WIDE_N - WIDE_F, WIDE_D))
    alie = honest.mean(axis=0) - WIDE_Z * honest.std(axis=0)
    return np.vstack([np.tile(alie, (WIDE_F, 1)), honest])


def projection_basis() -> np.ndarray:
    u = np.random.default_rng(PROJECTION_SEED).standard_normal((3, WIDE_D))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def wide_summary(result, basis: np.ndarray) -> dict:
    """Compact fingerprint of one aggregate: norm, fixed projections, zeroed clients."""
    summary = {
        "norm": float(np.linalg.norm(result.vector)),
        "proj": [float(p) for p in basis @ result.vector],
    }
    if result.trust is not None:
        summary["zeroed"] = [int(i) for i in np.flatnonzero(result.trust.final == 0.0)]
    return summary


def wide_key(family: int, index: int, dname: str) -> str:
    return f"family{family}/set{index}/{dname}"


def _check_wide(key, got, expected) -> str | None:
    if expected is None:
        return f"{key}: no reference"
    scale = REL_TOL * max(expected["norm"], 1e-300)
    off = [abs(a - b) for a, b in zip([got["norm"], *got["proj"]],
                                      [expected["norm"], *expected["proj"]])]
    if max(off) > scale:
        return f"{key}: aggregate off by {max(off):.3e} (allowed {scale:.3e})"
    if got.get("zeroed") != expected.get("zeroed"):
        return f"{key}: zeroed clients {got.get('zeroed')} != {expected.get('zeroed')}"
    return None


class WideRun:
    def __init__(self, seed, references):
        self.aggregators = importlib.import_module("robustfed.aggregators")
        self.geometry = importlib.import_module("robustfed.geometry")
        self.family = wide_family(seed)
        self.references = references
        self.basis = projection_basis()
        self.outcome = Outcome()
        self.call_ms: list[float] = []
        self.pass_s: list[float] = []
        self.sets = []
        self.defenses = []

    def build(self):
        agg = self.aggregators
        sets = [self.geometry.GradientSet(wide_vectors(self.family, k)) for k in range(WIDE_SETS)]
        defenses = [(dname, agg.Aggregator(agg.AggregatorSpec(
            kind=spec["kind"], nnm_enabled=spec.get("nnm", False)), WIDE_N, WIDE_F))
            for dname, spec in DEFENSES]
        return sets, defenses

    def setup(self) -> float:
        """Median time of input generation plus GradientSet and Aggregator construction."""
        seconds = _median_setup(self.build)
        self.sets, self.defenses = self.build()
        return seconds

    def warm_up(self) -> None:
        for _, aggregator in self.defenses:
            aggregator(self.sets[0], self.aggregators.AggregatorState())

    def block(self, index: int) -> float:
        """One pass of the seven defenses over one input set."""
        g = self.sets[index % WIDE_SETS]
        wall = 0.0
        for dname, aggregator in self.defenses:
            state = self.aggregators.AggregatorState()
            t0 = perf_counter()
            try:
                result = aggregator(g, state)
            except Exception as err:  # noqa: BLE001 - a crash is a counted failure
                result, problem = None, f"{dname}: {type(err).__name__}: {err}"
            seconds = perf_counter() - t0
            wall += seconds
            self.call_ms.append(seconds * 1e3)
            if result is not None:
                key = wide_key(self.family, index % WIDE_SETS, dname)
                problem = _check_wide(key, wide_summary(result, self.basis),
                                      self.references.get(key))
            self.outcome.record(problem)
        self.pass_s.append(wall)
        return wall

    def end_to_end(self, setup_s: float) -> dict:
        calls_per_s = len(self.call_ms) / (sum(self.call_ms) / 1e3)
        return {
            # with no training, one server round is one aggregator call
            "rounds_per_s": (calls_per_s, "1/s"),
            "run_s_p50": (statistics.median(self.pass_s), "s"),
            "agg_calls_per_s": (calls_per_s, "1/s"),
            "agg_ms_p50": (statistics.median(self.call_ms), "ms"),
            "setup_s": (setup_s, "s"),
        }


# --- driver ---------------------------------------------------------------------


WORKLOADS = ("omniscient-grid", "local-grid", "wide-aggregation")


def run_workload(workload, seed, seconds, trace, work_dir, references, trace_csv=None):
    """Untraced: repeat blocks for ``seconds`` and report end-to-end metrics.
    Traced: pair an untraced and a traced run of the same block for
    ``seconds`` and report per-layer metrics plus the tracing overhead."""
    if workload == "wide-aggregation":
        run = WideRun(seed, references["wide-aggregation"])
    else:
        run = GridRun(workload, seed, work_dir, references[workload])
    setup_s = run.setup()
    run.warm_up()

    start = perf_counter()
    i = 0
    if not trace:
        while i == 0 or perf_counter() - start < seconds:
            run.outcome.block_s.append(run.block(i))
            i += 1
        run.outcome.metrics = run.end_to_end(setup_s)
        return run.outcome

    tracer = Tracer()
    plain = traced = 0.0
    while i == 0 or perf_counter() - start < seconds:
        # alternate which side goes first so that order effects cancel
        if i % 2:
            with tracer.install():
                traced += run.block(i)
        plain += run.block(i)
        if not i % 2:
            with tracer.install():
                traced += run.block(i)
        i += 1
    run.outcome.metrics = per_layer_metrics(tracer, i, traced, traced / plain - 1.0)
    run.outcome.self_check = self_check(tracer, workload)
    if trace_csv is not None:
        tracer.write_csv(trace_csv)
    return run.outcome
