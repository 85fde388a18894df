"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines for
passing criteria too. The qualitative-table criterion (7) trains the full
defense/attack grid once in a module fixture and is by far the slowest part.
"""

import time

import numpy as np
import pytest

from robustfed.config import config_from_dict
from robustfed.engine import run_training
from robustfed.sweep import CRIT7_ATTACKS as ATTACKS
from robustfed.sweep import CRIT7_BASE
from robustfed.sweep import CRIT7_DEFENSES as DEFENSES
from robustfed.sweep import CRIT7_SEEDS as SEEDS
from robustfed.verification import (
    check_attack_search_optimality,
    check_baseline_oracle_equivalence,
    check_complexity_scaling,
    check_gradient_finite_differences,
    check_metrics_determinism,
    check_prodigy_convex_combination,
    check_prodigy_exact_f_filtering,
    check_prodigy_oracle_equivalence,
    check_prodigy_permutation_equivariance,
    check_prodigy_positive_homogeneity,
    check_worked_examples,
)


def report(criterion: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"\n[ACCEPTANCE] {criterion}: {verdict} — {detail}")


def run_check(criterion: str, check) -> None:
    result = check()
    report(criterion, result.passed, f"{result.detail} ({result.seconds:.1f}s)")
    assert result.passed, f"{criterion}: {result.detail}"


def test_criterion_1_prodigy_oracle_equivalence():
    result = check_prodigy_oracle_equivalence(instances=1000)
    report(
        "criterion-1 prodigy-oracle-equivalence",
        result.passed and result.seconds < 30,
        f"{result.detail} in {result.seconds:.1f}s (budget 30s)",
    )
    assert result.passed, result.detail
    assert result.seconds < 30, f"oracle sweep took {result.seconds:.1f}s, budget is 30s"


def test_criterion_2_exact_f_filtering():
    run_check(
        "criterion-2 exact-f-filtering",
        lambda: check_prodigy_exact_f_filtering(instances=10000, n=10, f=3),
    )


def test_criterion_3_convexity_homogeneity_permutation():
    for name, check in (
        ("convex-combination", lambda: check_prodigy_convex_combination(instances=1000)),
        ("positive-homogeneity", lambda: check_prodigy_positive_homogeneity(instances=1000)),
        ("permutation-equivariance", lambda: check_prodigy_permutation_equivariance(instances=1000)),
    ):
        run_check(f"criterion-3 {name}", check)


def test_criterion_4_baseline_oracle_equivalence():
    run_check(
        "criterion-4 baseline-oracles", lambda: check_baseline_oracle_equivalence(instances=1000)
    )
    run_check("criterion-4 worked-examples", check_worked_examples)


def test_criterion_5_gradient_finite_differences():
    run_check("criterion-5 gradient-fd", lambda: check_gradient_finite_differences(pairs=100))


def test_criterion_6_attack_search_optimality():
    # 16 rounds per (attack, defense) pair over 13 defenses > 200 rounds per attack
    run_check(
        "criterion-6 attack-search-optimality",
        lambda: check_attack_search_optimality(rounds_per_defense=16),
    )


# --- criterion 7: qualitative table reproduction at desk scale -----------------

def table_config(defense: dict, attack: dict, seed: int) -> dict:
    return {**CRIT7_BASE, "seed": seed, "attack": attack, "defense": defense}


@pytest.fixture(scope="module")
def qualitative_table():
    start = time.perf_counter()
    table = {}
    per_seed = {}
    for dname, dspec in DEFENSES:
        means = {}
        seed_accs = {}
        for aname, aspec in ATTACKS:
            accs = [
                run_training(config_from_dict(table_config(dspec, aspec, seed))).final_accuracy
                for seed in SEEDS
            ]
            means[aname] = float(np.mean(accs))
            seed_accs[aname] = accs
        table[dname] = means
        per_seed[dname] = seed_accs
    elapsed = time.perf_counter() - start

    header = f"{'defense':<18}" + "".join(f"{a:>11}" for a, _ in ATTACKS)
    lines = [header]
    for dname, means in table.items():
        lines.append(f"{dname:<18}" + "".join(f"{means[a]:11.3f}" for a, _ in ATTACKS))
    print("\n[ACCEPTANCE] criterion-7 table (mean final accuracy over 3 seeds):")
    print("\n".join(lines))
    print(f"[ACCEPTANCE] criterion-7 grid runtime: {elapsed:.0f}s")
    return table, elapsed, per_seed


def seed_detail(accs: list[float]) -> str:
    """Per-seed final accuracies of one cell, e.g. 'seeds 1/2/3: 0.814/0.855/0.500'."""
    return f"seeds {'/'.join(map(str, SEEDS))}: " + "/".join(f"{a:.3f}" for a in accs)


def test_criterion_7_runtime_budget(qualitative_table):
    _, elapsed, _ = qualitative_table
    report("criterion-7 runtime", elapsed <= 900, f"{elapsed:.0f}s (budget 900s)")
    assert elapsed <= 900


def test_criterion_7a_no_defense_collapses_under_foe100(qualitative_table):
    table, _, per_seed = qualitative_table
    accuracy = table["no_defense"]["foe_100"]
    chance = 0.10
    # Collapse is one-sided. Against the plain average the FoE deviation
    # ||agg - honest mean|| = (3 + 3 eps) / 10 * ||mean|| grows with eps, so the
    # search picks eps = 100 every round and the aggregate is -29.3 x the honest
    # mean: sustained gradient ascent on the cross-entropy. On a balanced test
    # set that drives accuracy below chance, not onto it (0.001-0.007 final per
    # seed, 0.001-0.004 already at the first evaluation). Landing at chance
    # would need the numerical divergence of a deep net, and non-finite logits
    # are rejected here rather than scored. So only the upper edge of the chance
    # band is a claim of the average rule under this attack; a run that does
    # not collapse (foe eps=0.1 ends near 0.87) still fails.
    passed = accuracy <= chance + 0.05
    detail = f"final accuracy {accuracy:.3f} ({seed_detail(per_seed['no_defense']['foe_100'])})"
    report(
        "criterion-7a no-defense foe(100) collapses to random guess or below",
        passed,
        f"{detail}; bound chance {chance:.2f} + 0.05",
    )
    assert passed, (
        f"no-defense foe(100) did not collapse: {detail} is above "
        f"chance + 0.05 = {chance + 0.05:.2f}"
    )


def test_criterion_7b_prodigy_within_15_points_of_no_attack(qualitative_table):
    table, _, per_seed = qualitative_table
    own = table["prodigy"]["none"]
    gaps = {a: own - table["prodigy"][a] for a, _ in ATTACKS if a != "none"}
    passed = all(gap <= 0.15 for gap in gaps.values())
    detail = ", ".join(f"{a}: {g * 100:+.1f}pts" for a, g in gaps.items())
    seeds = "; ".join(f"{a} {seed_detail(per_seed['prodigy'][a])}" for a, _ in ATTACKS)
    report(
        "criterion-7b prodigy within 15 points of own no-attack",
        passed,
        f"no-attack {own:.3f}; gaps {detail}; per-seed final accuracy: {seeds}",
    )
    assert passed, f"attack gaps exceed 15 points: {detail}; per-seed final accuracy: {seeds}"


def test_criterion_7c_prodigy_best_worst_case(qualitative_table):
    table, _, per_seed = qualitative_table
    worst_attack = {
        dname: min((a for a in means if a != "none"), key=means.__getitem__)
        for dname, means in table.items()
    }
    worst = {dname: table[dname][a] for dname, a in worst_attack.items()}
    passed = all(worst["prodigy"] >= w for d, w in worst.items() if d != "prodigy")
    detail = ", ".join(f"{d}: {w:.3f}" for d, w in worst.items())
    seeds = "; ".join(
        f"{d} {a} {seed_detail(per_seed[d][a])}" for d, a in worst_attack.items()
    )
    report(
        "criterion-7c prodigy highest worst-case",
        passed,
        f"{detail}; worst cell per-seed final accuracy: {seeds}",
    )
    assert passed, f"worst-case accuracies: {detail}; worst cell per-seed final accuracy: {seeds}"


def test_criterion_8_complexity_scaling():
    run_check("criterion-8 complexity-scaling", lambda: check_complexity_scaling(dim=10_000))


def test_criterion_9_determinism():
    run_check("criterion-9 metrics-determinism", check_metrics_determinism)
