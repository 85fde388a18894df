"""Property battery cross-checking the library against reference oracles.

Each check is deterministic, runs at desk scale, and reports one verdict.
The CLI `verify` command runs the whole battery; the acceptance test suite
reuses the same functions with the same tolerances.

A check is a function ``check_<words>`` under the ``_check`` decorator. Its
body returns ``(passed, detail)``; the decorator times the body and returns
a ``CheckResult`` named by the function: ``check_worked_examples`` reports
as ``worked-examples``.
"""

from __future__ import annotations

import functools
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import oracles
from .aggregators import (
    AGGREGATOR_KINDS,
    CLIP_ITERS,
    CLIP_TAU,
    WEISZFELD_NU,
    WEISZFELD_ROUNDS,
    Aggregator,
    AggregatorSpec,
    AggregatorState,
    centered_clip,
    coordinate_median,
    geometric_median,
    krum,
    nnm_mix,
    trimmed_mean,
)
from .attacks import AttackSpec, alie_candidates, craft_attack, foe_candidates, honest_summary
from .config import config_from_dict
from .datasim import LabeledDataset, PartitionSpec, generate_blobs, partition
from .engine import run_training
from .geometry import GradientSet
from .models import ModelSpec, model_gradient, model_loss
from .prodigy import DegenerateRoundError, prodigy_aggregate
from .runner import execute_run
from .seeding import derived_rng
from .sweep import SweepSpec, run_sweep


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check(body: Callable[..., tuple[bool, str]]) -> Callable[..., CheckResult]:
    """Time ``body`` and name its verdict after the function."""
    name = body.__name__.removeprefix("check_").replace("_", "-")

    @functools.wraps(body)
    def check(*args, **kwargs) -> CheckResult:
        start = time.perf_counter()
        passed, detail = body(*args, **kwargs)
        return CheckResult(name, passed, detail, time.perf_counter() - start)

    return check


@_check
def check_prodigy_oracle_equivalence(instances: int = 1000) -> tuple[bool, str]:
    """Library output vs literal-transcription oracle over the small-N grid."""
    rng = derived_rng(2024, "prodigy-oracle")
    worst = 0.0
    cases = 0
    for n, f in ((5, 2), (6, 2), (7, 2), (7, 3)):
        for d in (1, 2, 4):
            for _ in range(instances):
                vectors = rng.standard_normal((n, d))
                agg, _ = prodigy_aggregate(GradientSet(vectors.copy()), f)
                ref, _ = oracles.ref_prodigy(vectors, f)
                if ref is None:
                    return False, "oracle hit degenerate round"
                worst = max(worst, float(np.max(np.abs(agg - ref))))
                cases += 1
    return worst <= 1e-10, f"{cases} instances, max deviation {worst:.3e} (tol 1e-10)"


@_check
def check_prodigy_exact_f_filtering(instances: int = 10000, n: int = 10, f: int = 3) -> tuple[bool, str]:
    """Continuous random inputs are tie-free, so exactly f scores must be zeroed."""
    rng = derived_rng(2024, "prodigy-filtering")
    bad = 0
    for _ in range(instances):
        vectors = rng.standard_normal((n, 4))
        _, scores = prodigy_aggregate(GradientSet(vectors), f)
        if int(np.sum(scores.final == 0.0)) != f:
            bad += 1
    return bad == 0, f"{instances} instances, {bad} with zero-count != {f}"


@_check
def check_prodigy_convex_combination(instances: int = 1000) -> tuple[bool, str]:
    """Weights nonnegative and summing to 1 within 1e-12; output inside the
    coordinate-wise bounding box of the inputs."""
    rng = derived_rng(2024, "prodigy-convexity")
    worst_sum = 0.0
    box_violations = 0
    for _ in range(instances):
        n, f, d = 8, 3, 3
        vectors = rng.standard_normal((n, d))
        agg, scores = prodigy_aggregate(GradientSet(vectors), f)
        weights = scores.final / scores.final.sum()
        if (weights < 0).any():
            return False, "negative weight"
        worst_sum = max(worst_sum, abs(float(weights.sum()) - 1.0))
        lo, hi = vectors.min(axis=0), vectors.max(axis=0)
        if ((agg < lo - 1e-12) | (agg > hi + 1e-12)).any():
            box_violations += 1
    passed = worst_sum <= 1e-12 and box_violations == 0
    return passed, f"max |sum(w)-1| = {worst_sum:.3e}, {box_violations} bounding-box violations"


@_check
def check_prodigy_positive_homogeneity(instances: int = 1000) -> tuple[bool, str]:
    """||rule(c*g) - c*rule(g)|| <= 1e-9 * c * max_k ||g_k|| for c in {0.5, 2, 10}."""
    rng = derived_rng(2024, "prodigy-homogeneity")
    worst_ratio = 0.0
    for _ in range(instances):
        n, f, d = 7, 2, 4
        vectors = rng.standard_normal((n, d))
        base, _ = prodigy_aggregate(GradientSet(vectors.copy()), f)
        scale_ref = float(np.max(np.linalg.norm(vectors, axis=1)))
        for c in (0.5, 2.0, 10.0):
            scaled, _ = prodigy_aggregate(GradientSet(c * vectors), f)
            deviation = float(np.linalg.norm(scaled - c * base))
            worst_ratio = max(worst_ratio, deviation / (c * scale_ref))
    return worst_ratio <= 1e-9, f"max scaled deviation ratio {worst_ratio:.3e} (tol 1e-9)"


@_check
def check_prodigy_permutation_equivariance(instances: int = 1000) -> tuple[bool, str]:
    """Relabeling clients must permute the scores and leave the aggregate bit-equal."""
    rng = derived_rng(2024, "prodigy-permutation")
    for _ in range(instances):
        n, f, d = 8, 3, 3
        vectors = rng.standard_normal((n, d))
        perm = rng.permutation(n)
        base_agg, base_scores = prodigy_aggregate(GradientSet(vectors.copy()), f)
        perm_agg, perm_scores = prodigy_aggregate(GradientSet(vectors[perm]), f)
        if not np.array_equal(base_agg, perm_agg):
            return False, "aggregate changed bits"
        if not np.array_equal(base_scores.final[perm], perm_scores.final):
            return False, "scores did not permute"
    return True, f"{instances} instances bit-identical"


@_check
def check_baseline_oracle_equivalence(instances: int = 1000) -> tuple[bool, str]:
    """Every comparison rule vs its naive transcription on N <= 7, d <= 4."""
    rng = derived_rng(2024, "baseline-oracle")
    worst = {name: 0.0 for name in ("median", "trimmed_mean", "geomed", "krum", "cclip", "nnm")}

    def track(name: str, got, want):
        worst[name] = max(worst[name], float(np.max(np.abs(got - want))))

    for _ in range(instances):
        n = int(rng.integers(5, 8))
        d = int(rng.integers(1, 5))
        f = int(rng.integers(1, (n - 1) // 2 + 1))
        vectors = rng.standard_normal((n, d))
        g = GradientSet(vectors.copy())

        track("median", coordinate_median(g), oracles.ref_median(vectors))
        q = min(f, (n - 1) // 2)
        track("trimmed_mean", trimmed_mean(g, q), oracles.ref_trimmed_mean(vectors, q))
        track(
            "geomed",
            geometric_median(g, WEISZFELD_NU, WEISZFELD_ROUNDS),
            oracles.ref_geometric_median(vectors, WEISZFELD_NU, WEISZFELD_ROUNDS),
        )
        if n >= f + 3:
            track("krum", krum(g, f), oracles.ref_krum(vectors, f))
        center = rng.standard_normal(d)
        track(
            "cclip",
            centered_clip(g, AggregatorState(center.copy()), CLIP_TAU, CLIP_ITERS),
            oracles.ref_centered_clip(vectors, center, CLIP_TAU, CLIP_ITERS),
        )
        track("nnm", nnm_mix(g, f).vectors, np.stack(oracles.ref_nnm(vectors, f)))
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    return max(worst.values()) <= 1e-10, f"max deviations: {detail} (tol 1e-10)"


@_check
def check_worked_examples() -> tuple[bool, str]:
    """The hand-derived fixed-point examples must reproduce exactly."""
    failures = []

    def expect(label: str, got, want, tol: float = 1e-12):
        got = np.atleast_1d(np.asarray(got, dtype=float))
        want = np.atleast_1d(np.asarray(want, dtype=float))
        if got.shape != want.shape or np.max(np.abs(got - want)) > tol:
            failures.append(f"{label}: got {got}, want {want}")

    scalars = GradientSet(np.array([[0.0], [1.0], [2.0], [3.0], [10.0]]))
    expect("median-odd", coordinate_median(scalars), [2.0])
    expect("median-even", coordinate_median(GradientSet(np.array([[0.0], [1.0], [2.0], [3.0]]))), [1.5])
    expect(
        "median-2d",
        coordinate_median(GradientSet(np.array([[0.0, 10.0], [1.0, 0.0], [2.0, 5.0]]))),
        [1.0, 5.0],
    )
    expect("trimmed-q1", trimmed_mean(scalars, 1), [2.0])
    pair_and_far = GradientSet(np.array([[0.0], [0.0], [3.0]]))
    expect("geomed-smoothed", geometric_median(pair_and_far, WEISZFELD_NU, WEISZFELD_ROUNDS), [3.0 / 17.0])
    expect("krum-f1", krum(scalars, 1), [1.0])
    single = GradientSet(np.array([[30.0]]))
    expect("cclip-single-30", centered_clip(single, None, CLIP_TAU, CLIP_ITERS), [30.0])
    expect("nnm-f1", nnm_mix(GradientSet(np.array([[0.0], [1.0], [5.0]])), 1).vectors, [[0.5], [0.5], [3.0]])

    agg, scores = prodigy_aggregate(scalars, 2)
    expect("prodigy-aggregate", agg, [20.0 / 19.0], tol=1e-10)
    expect("prodigy-threshold", scores.threshold, 1.0 / 20.0, tol=1e-10)
    expect(
        "prodigy-composites",
        scores.composite,
        [0.25, 1.0, 1.0 / 3.0, 1.0 / 20.0, 7.0 / 832.0],
        tol=1e-9,
    )
    expect("prodigy-proximity", scores.proximity, [0.25, 1.0, 1.0, 0.25, 1.0 / 64.0], tol=1e-9)
    expect(
        "prodigy-dissimilarity",
        scores.dissimilarity,
        [1.0, 1.0, 1.0 / 3.0, 0.2, 7.0 / 13.0],
        tol=1e-9,
    )
    expect("prodigy-zeroed", scores.final, [0.25, 1.0, 1.0 / 3.0, 0.0, 0.0], tol=1e-9)

    expect("alie-grid-z2", alie_candidates(2.0), [0.5, 1.0, 1.5, 2.0])
    expect("alie-grid-z1", alie_candidates(1.0), [0.25 * m for m in range(1, 9)])
    expect("alie-grid-z8", alie_candidates(8.0), [2.0])
    expect("foe-grid", foe_candidates(0.1), [0.01 * m for m in range(1, 11)], tol=1e-15)

    return not failures, "; ".join(failures) or "all fixed-point examples reproduced"


@_check
def check_gradient_finite_differences(pairs: int = 100) -> tuple[bool, str]:
    """Analytic gradient vs central differences for both model families."""
    rng = derived_rng(2024, "gradient-fd")
    worst = 0.0
    specs = (
        ModelSpec("softmax_linear", input_dim=6, n_classes=4, l2_reg=1e-2),
        ModelSpec("mlp", input_dim=6, n_classes=4, l2_reg=1e-2, hidden=5),
    )
    for spec in specs:
        for _ in range(pairs):
            theta = rng.standard_normal(spec.param_dim)
            features = rng.standard_normal((12, spec.input_dim))
            labels = rng.integers(0, spec.n_classes, size=12)
            batch = LabeledDataset(features, labels, spec.n_classes)
            analytic = model_gradient(spec, theta, batch)

            def objective(th):
                return model_loss(spec, th, batch) + 0.5 * spec.l2_reg * float(th @ th)

            numeric = oracles.ref_fd_gradient(objective, theta, step=1e-5)
            rel = float(np.linalg.norm(analytic - numeric)) / max(
                float(np.linalg.norm(analytic)), 1e-12
            )
            worst = max(worst, rel)
    return worst <= 1e-5, f"max relative error {worst:.3e} (tol 1e-5)"


def _search_defenses(n: int, f: int) -> list[tuple[str, Aggregator]]:
    specs = [AggregatorSpec(kind=kind) for kind in AGGREGATOR_KINDS]
    specs += [AggregatorSpec(kind, nnm_enabled=True) for kind in AGGREGATOR_KINDS if kind != "prodigy"]
    return [(spec.label(), Aggregator(spec, n, f)) for spec in specs]


@_check
def check_attack_search_optimality(rounds_per_defense: int = 16) -> tuple[bool, str]:
    """The chosen grid point must attain the maximum aggregate deviation found
    by an exhaustive re-scan, for both searched attacks and every defense."""
    rng = derived_rng(2024, "attack-search")
    n, f, d = 10, 3, 5
    total = 0
    for attack in (AttackSpec(kind="alie", z=1.0), AttackSpec(kind="foe", eps=100.0)):
        for label, aggregator in _search_defenses(n, f):
            state = AggregatorState()
            defense = lambda gs: aggregator(gs, state)  # noqa: E731
            for _ in range(rounds_per_defense):
                honest = rng.standard_normal((n - f, d))
                crafted, _ = craft_attack(attack, honest, f, defense)
                mean, std = honest_summary(honest)

                def deviation(vec):
                    stacked = np.vstack([np.tile(vec, (f, 1)), honest])
                    try:
                        agg = defense(GradientSet(stacked)).vector
                    except DegenerateRoundError:
                        return -np.inf
                    return float(np.linalg.norm(agg - mean))

                chosen_dev = deviation(crafted[0])
                if attack.kind == "alie":
                    grid_vecs = [mean - zv * std for zv in alie_candidates(attack.z)]
                else:
                    grid_vecs = [-ev * mean for ev in foe_candidates(attack.eps)]
                best = max(deviation(v) for v in grid_vecs)
                if chosen_dev < best:
                    return False, f"{attack.kind} vs {label}: chosen {chosen_dev:.6e} < grid max {best:.6e}"
                total += 1
    return True, f"{total} searched rounds all optimal"


@_check
def check_complexity_scaling(dim: int = 10_000, reps: int = 5) -> tuple[bool, str]:
    """Doubling N from 50 to 100 should land in the quadratic-cost window [3, 6]."""
    rng = derived_rng(2024, "complexity")

    def mean_time(n: int) -> float:
        f = n // 5
        g = GradientSet(rng.standard_normal((n, dim)))
        prodigy_aggregate(g, f)  # warmup
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            prodigy_aggregate(g, f)
            times.append(time.perf_counter() - t0)
        return float(np.mean(times))

    t50 = mean_time(50)
    t100 = mean_time(100)
    ratio = t100 / t50
    return (
        3.0 <= ratio <= 6.0,
        f"mean wall time N=50: {t50 * 1e3:.1f} ms, N=100: {t100 * 1e3:.1f} ms, ratio {ratio:.2f}",
    )


def _determinism_config(out_dir: str, seed: int = 7) -> dict:
    return {
        "n_clients": 6,
        "n_byzantine": 2,
        "seed": seed,
        "eval_every": 5,
        "output_path": out_dir,
        "data": {
            "n_classes": 5,
            "dim": 10,
            "per_class": 60,
            "separation": 4.0,
            "test_per_class": 20,
            "partition": "dirichlet",
            "alpha": 0.5,
        },
        "schedule": {"rounds": 30, "batch_size": 8},
        "attack": {"kind": "alie", "z": 1.0},
        "defense": {"kind": "prodigy"},
    }


@_check
def check_metrics_determinism() -> tuple[bool, str]:
    """Same config twice (and twice more inside a 2-process sweep) must yield
    byte-identical metric CSVs and trust sidecars."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = []
        for tag in ("a", "b"):
            cfg = config_from_dict(_determinism_config(str(tmp / tag)))
            execute_run(cfg)
            paths.append(tmp / tag)
        metrics = [(p / "metrics.csv").read_bytes() for p in paths]
        trust = [(p / "trust_scores.jsonl").read_bytes() for p in paths]
        if metrics[0] != metrics[1]:
            return False, "rerun changed metrics.csv"
        if trust[0] != trust[1]:
            return False, "rerun changed trust sidecar"

        base = _determinism_config("")
        base.pop("output_path")
        spec = SweepSpec(base=base, seeds=[7, 7])
        run_sweep(spec, tmp / "sweep", jobs=2)
        point_files = sorted((tmp / "sweep" / "points").glob("*/metrics.csv"))
        contents = [p.read_bytes() for p in point_files]
        if len(contents) != 2 or contents[0] != contents[1]:
            return False, "parallel sweep workers disagreed"
        if contents[0] != metrics[0]:
            return False, "sweep output differs from direct run"
    return True, "4 executions byte-identical"


@_check
def check_training_smoke() -> tuple[bool, str]:
    """No attack, plain averaging, IID shards: the linear model must clear 95%
    accuracy on well-separated blobs within 300 rounds."""
    cfg = config_from_dict(
        {
            "n_clients": 10,
            "n_byzantine": 0,
            "seed": 11,
            "data": {"partition": "iid"},
            "schedule": {"rounds": 300},
            "defense": {"kind": "average"},
        }
    )
    accuracy = run_training(cfg).final_accuracy
    return accuracy >= 0.95, f"final accuracy {accuracy:.3f} (need >= 0.95)"


@_check
def check_partition_properties() -> tuple[bool, str]:
    """Shards are disjoint, their union is the input multiset, and alpha=0.1
    label skew shows up as clearly sub-uniform per-client label entropy."""
    data = generate_blobs(10, 12, 80, 2.0, seed=3)

    def union_matches(shards) -> bool:
        combined = np.vstack(
            [np.column_stack([s.features, s.labels.astype(float)]) for s in shards]
        )
        original = np.column_stack([data.features, data.labels.astype(float)])
        order_a = np.lexsort(combined.T)
        order_b = np.lexsort(original.T)
        return (
            combined.shape == original.shape
            and bool(np.array_equal(combined[order_a], original[order_b]))
            and sum(s.n_samples for s in shards) == data.n_samples
        )

    def label_entropy(shard) -> float:
        hist = shard.label_histogram().astype(float)
        p = hist[hist > 0] / hist.sum()
        return float(-(p * np.log(p)).sum())

    iid_shards = partition(data, PartitionSpec("iid", 10, min_shard=1), seed=5)
    if not union_matches(iid_shards):
        return False, "iid union/disjointness broken"

    entropies_skewed = []
    for draw in range(30):
        shards = partition(data, PartitionSpec("dirichlet", 10, alpha=0.1, min_shard=1), seed=100 + draw)
        if not union_matches(shards):
            return False, f"dirichlet union broken at draw {draw}"
        entropies_skewed += map(label_entropy, shards)

    mean_skewed = float(np.mean(entropies_skewed))
    mean_iid = float(np.mean([label_entropy(s) for s in iid_shards]))
    limit = 0.6 * float(np.log(10))
    passed = mean_skewed <= limit and mean_skewed < mean_iid - 0.5
    return (
        passed,
        f"mean label entropy alpha=0.1: {mean_skewed:.3f}, iid: {mean_iid:.3f}, "
        f"skew limit {limit:.3f}",
    )


ALL_CHECKS = (
    check_prodigy_oracle_equivalence,
    check_prodigy_exact_f_filtering,
    check_prodigy_convex_combination,
    check_prodigy_positive_homogeneity,
    check_prodigy_permutation_equivariance,
    check_baseline_oracle_equivalence,
    check_worked_examples,
    check_gradient_finite_differences,
    check_attack_search_optimality,
    check_complexity_scaling,
    check_metrics_determinism,
    check_training_smoke,
    check_partition_properties,
)


def run_all_checks() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
