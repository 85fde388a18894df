import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustfed import aggregators
from robustfed.aggregators import AggregationResult, Aggregator, AggregatorSpec, average, nnm_mix
from robustfed.attacks import (
    ALIE_MIN_Z,
    LOCAL_ATTACK_KINDS,
    AttackSpec,
    alie_candidates,
    craft_attack,
    foe_candidates,
    honest_summary,
)
from robustfed.geometry import GradientSet, pairwise_sq_distances
from robustfed.prodigy import DegenerateRoundError


def test_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec(kind="mystery")
    with pytest.raises(ValueError):
        AttackSpec(kind="alie", z=0.0)
    # each searched grid point runs the whole defense; refused in code as in configs
    with pytest.raises(ValueError, match="the alie search needs z >= 0.1, got 0.05"):
        AttackSpec(kind="alie", z=0.05)
    assert AttackSpec(kind="alie", z=0.05, search=False).z == 0.05
    with pytest.raises(ValueError):
        AttackSpec(kind="foe", eps=-1.0)
    assert AttackSpec(kind="foe", eps=100.0).label() == "foe(eps=100)"


def test_honest_summary_examples():
    mean, std = honest_summary(np.array([[1.0], [3.0]]))
    assert mean.tolist() == [2.0]
    assert std.tolist() == [1.0]
    _, single_std = honest_summary(np.array([[4.0, -2.0]]))
    assert single_std.tolist() == [0.0, 0.0]
    v = np.array([1.0, 2.0])
    _, pair_std = honest_summary(np.stack([v, v]))
    assert pair_std.tolist() == [0.0, 0.0]


def test_alie_grids():
    assert alie_candidates(2.0) == [0.5, 1.0, 1.5, 2.0]
    assert alie_candidates(1.0) == [0.25 * m for m in range(1, 9)]
    assert alie_candidates(8.0) == [2.0]
    assert alie_candidates(9.0) == [2.0]  # literal grid would be empty; capped singleton
    assert len(alie_candidates(ALIE_MIN_Z)) == 80
    with pytest.raises(ValueError, match="z must be at least 0.1"):
        alie_candidates(1e-12)  # 8e12 candidates, each a whole defense per round


def test_foe_grid():
    grid = foe_candidates(0.1)
    assert len(grid) == 10
    assert grid[-1] == pytest.approx(0.1)
    assert np.allclose(grid, [0.01 * m for m in range(1, 11)])


def _avg_defense(gs: GradientSet) -> AggregationResult:
    return AggregationResult(average(gs))


def test_sign_flip_negates_local():
    local = np.array([[3.0]])
    honest = np.array([[1.0], [2.0]])
    spec = AttackSpec(kind="sign_flip")
    crafted, ran_on = craft_attack(spec, honest, 1, _avg_defense, local)
    assert crafted.tolist() == [[-3.0]]
    assert ran_on is None


def test_label_flip_and_none_pass_through():
    local = np.array([[3.0], [4.0]])
    honest = np.array([[1.0], [2.0], [5.0]])
    for kind in ("label_flip", "none"):
        crafted, ran_on = craft_attack(
            AttackSpec(kind=kind), honest, 2, _avg_defense, local
        )
        assert np.array_equal(crafted, local)
        assert ran_on is None


def test_local_attacks_require_byz_updates():
    honest = np.array([[1.0], [2.0]])
    for kind in LOCAL_ATTACK_KINDS:
        with pytest.raises(ValueError):
            craft_attack(AttackSpec(kind=kind), honest, 1, _avg_defense)


def test_foe_without_search_uses_eps_directly():
    honest = np.array([[1.0], [3.0]])
    spec = AttackSpec(kind="foe", eps=0.1, search=False)
    crafted, ran_on = craft_attack(spec, honest, 1, _avg_defense)
    assert crafted.tolist() == [[-0.2]]
    assert ran_on is None


def test_alie_grid_argmax_against_average():
    # honest scalars {1, 3}: mean 2, std 1; candidate aggregates are 2 - z*/3,
    # so the deviation |z*/3| peaks at the largest grid value z* = 2 and the
    # byzantine ends up sending mean - 2*std = 0
    honest = np.array([[1.0], [3.0]])
    crafted, _ = craft_attack(AttackSpec(kind="alie", z=2.0), honest, 1, _avg_defense)
    assert crafted.tolist() == [[0.0]]


def test_colluders_send_identical_vectors():
    rng = np.random.default_rng(5)
    honest = rng.standard_normal((5, 3))
    krum = Aggregator(AggregatorSpec("krum"), 8, 3)
    for spec in (AttackSpec(kind="alie", z=1.0), AttackSpec(kind="foe", eps=100.0)):
        crafted, _ = craft_attack(spec, honest, 3, _avg_defense)
        assert crafted.shape == (3, 3)
        assert np.array_equal(crafted[0], crafted[1])
        assert np.array_equal(crafted[0], crafted[2])
        # krum runs on the chosen set itself, whose supplier returns its matrix
        crafted, ran_on = craft_attack(spec, honest, 3, lambda gs: krum(gs, keep=True))
        chosen = GradientSet(np.vstack([crafted, honest]))
        assert np.array_equal(ran_on.vectors, chosen.vectors)
        assert np.array_equal(ran_on.distances(), pairwise_sq_distances(chosen))


def test_search_needs_defense_handle():
    honest = np.array([[1.0], [3.0]])
    with pytest.raises(ValueError):
        craft_attack(AttackSpec(kind="alie", z=1.0), honest, 1, defense=None)


def test_degenerate_defense_rounds_score_minus_inf():
    honest = np.array([[1.0], [3.0]])
    calls = []

    def defense(gs: GradientSet) -> AggregationResult:
        calls.append(gs)
        # all grid points degenerate except the last one
        if len(calls) < len(foe_candidates(0.1)):
            raise DegenerateRoundError(None)
        return _avg_defense(gs)

    crafted, _ = craft_attack(AttackSpec(kind="foe", eps=0.1), honest, 1, defense)
    # only the non-degenerate grid point (the last, eps* = eps) can be chosen
    assert crafted.tolist() == [[-0.2]]


def test_all_degenerate_still_returns_a_vector():
    honest = np.array([[1.0], [3.0]])

    def defense(gs: GradientSet) -> AggregationResult:
        raise DegenerateRoundError(None)

    crafted, _ = craft_attack(AttackSpec(kind="foe", eps=0.1), honest, 1, defense)
    assert crafted.shape == (1, 1)
    # falls back to the first grid point
    assert crafted[0, 0] == pytest.approx(-0.02, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["alie", "foe"]))
def test_search_optimality_exhaustive(seed, kind):
    rng = np.random.default_rng(seed)
    honest = rng.standard_normal((6, 3))
    spec = AttackSpec(kind=kind, z=1.0, eps=0.5)
    crafted, _ = craft_attack(spec, honest, 2, _avg_defense)
    mean, std = honest_summary(honest)

    def deviation(vec):
        stacked = np.vstack([np.tile(vec, (2, 1)), honest])
        return float(np.linalg.norm(average(GradientSet(stacked)) - mean))

    grid = (
        [mean - zv * std for zv in alie_candidates(1.0)]
        if kind == "alie"
        else [-ev * mean for ev in foe_candidates(0.5)]
    )
    chosen = deviation(crafted[0])
    assert all(chosen >= deviation(v) for v in grid)


def test_non_finite_candidates_score_minus_inf():
    # FoE at eps=100 against an honest mean of 1e307: only the first grid
    # point, -1e308, is finite; the others overflow and must not abort
    honest = np.array([[1e307], [1e307]])
    calls = []

    def defense(gs: GradientSet) -> AggregationResult:
        calls.append(gs.vectors.copy())
        return _avg_defense(gs)

    with np.errstate(over="ignore"):
        crafted, _ = craft_attack(AttackSpec(kind="foe", eps=100.0), honest, 1, defense)
    assert crafted.tolist() == [[-1e308]]
    assert len(calls) == 1


def test_non_finite_choice_raises_the_mixed_set_error():
    # every FoE grid point overflows, so the chosen first point is non-finite;
    # the error names the first byzantine row, as the mixed set's check does
    honest = np.array([[1.7e308]])
    with np.errstate(over="ignore"), pytest.raises(
        ValueError, match="non-finite update component from client 0"
    ):
        craft_attack(AttackSpec(kind="foe", eps=100.0), honest, 2, _avg_defense)


def test_an_overflowing_mix_scores_minus_inf():
    """FoE at eps=100 against an honest column 0 of 1e306: from eps* = 60 on,
    the three byzantine copies that open each byzantine row's mix overflow
    it. Those candidates are degenerate rounds, scored -inf, and the search
    goes on to choose among the others."""
    rng = np.random.default_rng(8)
    honest = rng.standard_normal((7, 4))
    honest[:, 0] = 1e306
    nnm_median = Aggregator(AggregatorSpec("median", nnm_enabled=True), 10, 3)
    errors = []

    def defense(gs: GradientSet) -> AggregationResult:
        try:
            return nnm_median(gs, keep=True)
        except DegenerateRoundError as err:
            errors.append(str(err))
            raise

    crafted, ran_on = craft_attack(AttackSpec(kind="foe", eps=100.0), honest, 3, defense)
    assert errors == ["nearest-neighbor mixing overflowed in mixed row 0"] * 5
    mean = honest.mean(axis=0)

    def deviation(vec):
        aggregate = nnm_median(GradientSet(np.vstack([vec, honest]))).vector
        return float(np.linalg.norm(aggregate - mean))

    scored = [np.tile(-ev * mean, (3, 1)) for ev in foe_candidates(100.0)[:5]]
    best = max(range(5), key=lambda i: (deviation(scored[i]), -i))
    assert np.array_equal(crafted, scored[best])
    fresh = GradientSet(np.vstack([crafted, honest]))
    assert np.array_equal(ran_on.vectors, nnm_mix(fresh, 3).vectors)


def test_a_non_finite_aggregate_scores_minus_inf(monkeypatch):
    """A candidate whose aggregate is non-finite is a degenerate round, so
    the search does not choose it, however far its aggregate lies. Against
    the average the last FoE grid point, eps* = eps, drags farthest."""
    honest = np.array([[1.0, 2.0], [3.0, 5.0]])
    mean_rule = Aggregator(AggregatorSpec("average"), 3, 1)
    calls = []
    original = aggregators.average

    def inf_for_the_second_candidate(g):
        calls.append(None)
        aggregate = original(g)
        if len(calls) == 2:
            aggregate[0] = np.inf
        return aggregate

    monkeypatch.setattr(aggregators, "average", inf_for_the_second_candidate)
    spec = AttackSpec(kind="foe", eps=0.1)
    crafted, ran_on = craft_attack(spec, honest, 1, lambda gs: mean_rule(gs, keep=True))
    assert len(calls) == len(foe_candidates(0.1))
    assert np.array_equal(crafted, [-foe_candidates(0.1)[-1] * honest.mean(axis=0)])
    assert np.array_equal(ran_on.vectors, np.vstack([crafted, honest]))
