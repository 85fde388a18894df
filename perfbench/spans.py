"""Span tracing from outside the program, per-layer metrics and the self-check.

The tracer wraps public functions of the robustfed modules. Modules import
each other's functions with ``from .x import name``, so one function can be
bound under several module names; ``Tracer.install`` rebinds every binding it
finds in a loaded ``robustfed`` module, and restores them on exit. Methods
(``Aggregator.__call__``, ``GradientSet.__init__``) are patched on the class,
which every binding shares.

Each span is ``[name, start, end, parent, error]`` with ``perf_counter``
seconds; spans stay in memory until ``write_csv`` at the end of the run. Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import csv
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

# (span name, module, attribute). Aggregator calls are named per call:
# "aggregators.search" inside an open craft_attack span, else "aggregators.final".
FUNCTION_TARGETS = (
    ("sweep.run_sweep", "robustfed.sweep", "run_sweep"),
    ("sweep.run_point", "robustfed.sweep", "_run_point"),
    ("runner.execute_run", "robustfed.runner", "execute_run"),
    ("engine.run_training", "robustfed.engine", "run_training"),
    ("engine.build_clients", "robustfed.engine", "build_clients"),
    ("datasim.generate_blobs", "robustfed.datasim", "generate_blobs"),
    ("datasim.partition", "robustfed.datasim", "partition"),
    ("engine.client_update", "robustfed.engine", "client_update"),
    ("models.model_gradient", "robustfed.models", "model_gradient"),
    ("models.evaluate", "robustfed.models", "evaluate"),
    ("attacks.craft_attack", "robustfed.attacks", "craft_attack"),
    ("aggregators.nnm_mix", "robustfed.aggregators", "nnm_mix"),
    ("prodigy.prodigy_aggregate", "robustfed.prodigy", "prodigy_aggregate"),
    ("prodigy.proximity_scores", "robustfed.prodigy", "proximity_scores"),
    ("prodigy.dissimilarity_scores", "robustfed.prodigy", "dissimilarity_scores"),
    ("geometry.pairwise_sq_distances", "robustfed.geometry", "pairwise_sq_distances"),
    ("geometry.neighbor_order", "robustfed.geometry", "neighbor_order"),
    ("geometry.vector_set_stats", "robustfed.geometry", "vector_set_stats"),
)
CRAFT = "attacks.craft_attack"
SEARCH = "aggregators.search"
FINAL = "aggregators.final"
GRADIENT_SET = "geometry.GradientSet"
PAIRWISE = "geometry.pairwise_sq_distances"

# Span names each workload must reach (at least one call per traced block)
# and must bypass (no call at all). A renamed or re-routed function shows up
# here instead of silently reading zero.
_GRID_REACHED = (
    "sweep.run_sweep", "sweep.run_point", "runner.execute_run", "engine.run_training",
    "engine.build_clients", "datasim.generate_blobs", "datasim.partition",
    "engine.client_update", "models.model_gradient", "models.evaluate", CRAFT, FINAL,
    "aggregators.nnm_mix", "prodigy.prodigy_aggregate", "prodigy.proximity_scores",
    "prodigy.dissimilarity_scores", PAIRWISE, "geometry.neighbor_order",
    "geometry.vector_set_stats", GRADIENT_SET,
)
_AGGREGATION_LAYERS = (
    FINAL, "aggregators.nnm_mix", "prodigy.prodigy_aggregate", "prodigy.proximity_scores",
    "prodigy.dissimilarity_scores", PAIRWISE, "geometry.neighbor_order",
    "geometry.vector_set_stats", GRADIENT_SET,
)
REACHED = {
    "omniscient-grid": _GRID_REACHED + (SEARCH,),
    "local-grid": _GRID_REACHED,
    "wide-aggregation": _AGGREGATION_LAYERS,
}
BYPASSED = {
    "omniscient-grid": (),
    # local attacks pass through craft_attack but never search
    "local-grid": (SEARCH,),
    "wide-aggregation": tuple(
        name for name, _, _ in FUNCTION_TARGETS if name not in _AGGREGATION_LAYERS
    ) + (SEARCH,),
}

PER_LAYER_UNITS = {
    "attacks.craft_attack.calls": "count",
    "attacks.craft_attack.self_ms": "ms",
    "attacks.search_aggs_per_craft": "ratio",
    "aggregators.search.calls": "count",
    "aggregators.search.ms": "ms",
    "aggregators.final.calls": "count",
    "aggregators.final.ms": "ms",
    "aggregators.nnm_mix.ms": "ms",
    "aggregators.degenerate": "count",
    "geometry.pairwise_sq_distances.calls": "count",
    "geometry.pairwise_sq_distances.ms": "ms",
    "geometry.pairwise_sq_distances.gflop": "GFLOP",
    "geometry.neighbor_order.ms": "ms",
    "geometry.vector_set_stats.calls": "count",
    "geometry.vector_set_stats.ms": "ms",
    "geometry.GradientSet.calls": "count",
    "geometry.GradientSet.ms": "ms",
    "prodigy.prodigy_aggregate.ms": "ms",
    "prodigy.proximity_scores.ms": "ms",
    "prodigy.dissimilarity_scores.ms": "ms",
    "models.model_gradient.calls": "count",
    "models.model_gradient.ms": "ms",
    "models.evaluate.calls": "count",
    "models.evaluate.ms": "ms",
    "engine.client_update.self_ms": "ms",
    "engine.run_training.self_ms": "ms",
    "engine.build_clients.ms": "ms",
    "datasim.generate_blobs.ms": "ms",
    "datasim.partition.ms": "ms",
    "runner.write_artifacts.ms": "ms",
    "sweep.run_point.self_ms": "ms",
    "phase.attack_pct": "%",
    "phase.client_pct": "%",
    "phase.final_agg_pct": "%",
    "phase.eval_pct": "%",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


def _robustfed_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "robustfed" or name.startswith("robustfed."))]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open_crafts = 0
        self.pairwise_flop = 0.0
        self.problems: list[str] = []

    def _call(self, name, fn, args, kwargs):
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, ""]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            rec[4] = type(err).__name__
            raise
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn):
        call = self._call
        if name == CRAFT:
            def wrapper(*args, **kwargs):
                self.open_crafts += 1
                try:
                    return call(name, fn, args, kwargs)
                finally:
                    self.open_crafts -= 1
        elif name == PAIRWISE:
            def wrapper(*args, **kwargs):
                n, d = args[0].vectors.shape
                self.pairwise_flop += 3.0 * n * n * d  # subtract, square, sum per pair
                return call(name, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return call(name, fn, args, kwargs)
        return wrapper

    @contextmanager
    def install(self):
        """Patch every binding of every target; restore all of them on exit."""
        from robustfed.aggregators import Aggregator
        from robustfed.geometry import GradientSet

        patched = []

        def patch(owner, attr, new):
            patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        try:
            modules = _robustfed_modules()
            for name, module_name, attr in FUNCTION_TARGETS:
                original = getattr(importlib.import_module(module_name), attr, None)
                if original is None:
                    self.problems.append(f"{module_name}.{attr} not found")
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    for bound, value in list(vars(module).items()):
                        if value is original:
                            patch(module, bound, wrapper)

            agg_call = Aggregator.__call__
            call = self._call

            def aggregator_call(agg, *args, **kwargs):
                return call(SEARCH if self.open_crafts else FINAL, agg_call, (agg, *args), kwargs)

            patch(Aggregator, "__call__", aggregator_call)
            patch(GradientSet, "__init__", self._wrap(GRADIENT_SET, GradientSet.__init__))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("id", "name", "start_s", "end_s", "parent", "error"))
            for i, (name, start, end, parent, error) in enumerate(self.spans):
                writer.writerow((i, name, repr(start), repr(end), parent, error))

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms, self ms and errors by type."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, error), covered in zip(self.spans, child):
            entry = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["ms"] += (end - start) * 1e3
            entry["self_ms"] += (end - start - covered) * 1e3
            if error:
                entry[error] = entry.get(error, 0) + 1
        return out


def per_layer_metrics(tracer: Tracer, blocks: int, wall_s: float, overhead: float) -> dict:
    """Per-layer (value, unit) per traced block, with phase shares of the block wall time."""
    t = tracer.totals()

    def get(name, key):
        return t.get(name, {}).get(key, 0) / blocks

    craft_calls = get(CRAFT, "calls")
    values = {
        "attacks.craft_attack.calls": craft_calls,
        "attacks.craft_attack.self_ms": get(CRAFT, "self_ms"),
        "attacks.search_aggs_per_craft": get(SEARCH, "calls") / craft_calls if craft_calls else 0.0,
        "aggregators.search.calls": get(SEARCH, "calls"),
        "aggregators.search.ms": get(SEARCH, "ms"),
        "aggregators.final.calls": get(FINAL, "calls"),
        "aggregators.final.ms": get(FINAL, "ms"),
        "aggregators.nnm_mix.ms": get("aggregators.nnm_mix", "ms"),
        "aggregators.degenerate": get(SEARCH, "DegenerateRoundError")
        + get(FINAL, "DegenerateRoundError"),
        "geometry.pairwise_sq_distances.calls": get(PAIRWISE, "calls"),
        "geometry.pairwise_sq_distances.ms": get(PAIRWISE, "ms"),
        "geometry.pairwise_sq_distances.gflop": tracer.pairwise_flop / 1e9 / blocks,
        "geometry.neighbor_order.ms": get("geometry.neighbor_order", "ms"),
        "geometry.vector_set_stats.calls": get("geometry.vector_set_stats", "calls"),
        "geometry.vector_set_stats.ms": get("geometry.vector_set_stats", "ms"),
        "geometry.GradientSet.calls": get(GRADIENT_SET, "calls"),
        "geometry.GradientSet.ms": get(GRADIENT_SET, "ms"),
        "prodigy.prodigy_aggregate.ms": get("prodigy.prodigy_aggregate", "ms"),
        "prodigy.proximity_scores.ms": get("prodigy.proximity_scores", "ms"),
        "prodigy.dissimilarity_scores.ms": get("prodigy.dissimilarity_scores", "ms"),
        "models.model_gradient.calls": get("models.model_gradient", "calls"),
        "models.model_gradient.ms": get("models.model_gradient", "ms"),
        "models.evaluate.calls": get("models.evaluate", "calls"),
        "models.evaluate.ms": get("models.evaluate", "ms"),
        "engine.client_update.self_ms": get("engine.client_update", "self_ms"),
        "engine.run_training.self_ms": get("engine.run_training", "self_ms"),
        "engine.build_clients.ms": get("engine.build_clients", "ms"),
        "datasim.generate_blobs.ms": get("datasim.generate_blobs", "ms"),
        "datasim.partition.ms": get("datasim.partition", "ms"),
        # execute_run minus run_training is the metrics/timings/summary writing
        "runner.write_artifacts.ms": get("runner.execute_run", "self_ms"),
        "sweep.run_point.self_ms": get("sweep.run_point", "self_ms"),
        "trace.spans": len(tracer.spans) / blocks,
        "trace.overhead_pct": overhead * 100.0,
    }
    block_ms = wall_s * 1e3 / blocks
    for metric, name in (("phase.attack_pct", CRAFT), ("phase.client_pct", "engine.client_update"),
                         ("phase.final_agg_pct", FINAL), ("phase.eval_pct", "models.evaluate")):
        values[metric] = 100.0 * get(name, "ms") / block_ms
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER_UNITS.items()}


def self_check(tracer: Tracer, workload: str) -> list[str]:
    """Problems found: missing patch targets, unreached or unexpectedly reached layers."""
    t = tracer.totals()
    problems = sorted(set(tracer.problems))
    problems += [f"{name}: no calls, but {workload} must reach it"
                 for name in REACHED[workload] if t.get(name, {}).get("calls", 0) == 0]
    problems += [f"{name}: {t[name]['calls']} calls, but {workload} must bypass it"
                 for name in BYPASSED[workload] if t.get(name, {}).get("calls", 0) > 0]
    return problems
