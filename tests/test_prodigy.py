import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustfed.geometry import GradientSet, neighbor_order, pairwise_sq_distances
from robustfed.oracles import ref_prodigy
from robustfed.prodigy import (
    DegenerateRoundError,
    dissimilarity_scores,
    prodigy_aggregate,
    proximity_scores,
)

SCALARS = np.array([[0.0], [1.0], [2.0], [3.0], [10.0]])


def _order(vectors):
    return neighbor_order(pairwise_sq_distances(GradientSet(vectors)))


def _sorted_distances(vectors):
    return _order(vectors)[1]


def test_proximity_worked_example():
    scores = proximity_scores(_sorted_distances(SCALARS), 2)
    assert np.allclose(scores, [0.25, 1.0, 1.0, 0.25, 1.0 / 64.0], rtol=1e-9)


def test_proximity_identical_updates_hits_guard():
    vectors = np.tile(np.array([2.0, -1.0]), (5, 1))
    scores = proximity_scores(_sorted_distances(vectors), 2)
    assert np.allclose(scores, 1e12)
    assert np.all(np.isfinite(scores))


@settings(max_examples=50, deadline=None)
@given(st.floats(0.1, 50.0), st.integers(0, 2**32 - 1))
def test_proximity_inverse_square_scaling(c, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((6, 3))
    base = proximity_scores(_sorted_distances(vectors), 2)
    scaled = proximity_scores(_sorted_distances(c * vectors), 2)
    assert np.allclose(scaled, base / c**2, rtol=1e-6)


def test_dissimilarity_worked_example():
    scores = dissimilarity_scores(GradientSet(SCALARS), *_order(SCALARS), 2)
    assert np.allclose(scores, [1.0, 1.0, 1.0 / 3.0, 0.2, 7.0 / 13.0], rtol=1e-9)


def test_dissimilarity_identical_neighborhood_is_zero():
    vectors = np.array([[1.0], [1.0], [5.0], [6.0], [7.0]])
    scores = dissimilarity_scores(GradientSet(vectors), *_order(vectors), 2)
    assert scores[0] == 0.0 and scores[1] == 0.0


@settings(max_examples=50, deadline=None)
@given(st.floats(0.1, 50.0), st.integers(0, 2**32 - 1))
def test_dissimilarity_scale_invariant(c, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((6, 3))
    base = dissimilarity_scores(GradientSet(vectors), *_order(vectors), 2)
    scaled = dissimilarity_scores(GradientSet(c * vectors), *_order(c * vectors), 2)
    assert np.allclose(scaled, base, rtol=1e-6)


def test_aggregate_worked_example():
    agg, scores = prodigy_aggregate(GradientSet(SCALARS), 2)
    assert np.allclose(agg, [20.0 / 19.0], atol=1e-10)
    assert np.allclose(scores.composite, [0.25, 1.0, 1.0 / 3.0, 0.05, 7.0 / 832.0], rtol=1e-9)
    assert scores.threshold == pytest.approx(0.05, abs=1e-10)
    assert scores.final[3] == 0.0 and scores.final[4] == 0.0
    assert np.all(scores.final[:3] > 0)


def test_f1_reduces_to_proximity_filtering():
    vectors = np.array([[0.0], [1.0], [2.0], [30.0]])
    agg, scores = prodigy_aggregate(GradientSet(vectors), 1)
    assert np.all(scores.dissimilarity == 1.0)
    assert np.array_equal(scores.composite, scores.proximity)
    # the far client has the smallest proximity score, so it is the one zeroed
    assert scores.final[3] == 0.0
    assert np.sum(scores.final == 0) == 1


def test_degenerate_round_all_identical():
    vectors = np.tile(np.array([1.0, 2.0]), (5, 1))
    with pytest.raises(DegenerateRoundError) as err:
        prodigy_aggregate(GradientSet(vectors), 2)
    assert np.all(err.value.scores.final == 0.0)


def test_at_least_f_zeroed_under_composite_ties():
    # two colluding pairs produce tied zero dissimilarity; the <= rule zeroes both pairs
    vectors = np.array([[0.0], [0.0], [5.0], [5.0], [9.0], [12.0], [20.0]])
    agg, scores = prodigy_aggregate(GradientSet(vectors), 2)
    assert np.sum(scores.final == 0) >= 2
    assert np.all(scores.final[[0, 1, 2, 3]] == 0.0)


def test_trust_scores_json_roundtrip():
    _, scores = prodigy_aggregate(GradientSet(SCALARS), 2)
    payload = json.loads(json.dumps(scores.to_dict()))
    assert set(payload) == {"proximity", "dissimilarity", "composite", "final", "threshold"}
    assert len(payload["final"]) == 5
    assert payload["threshold"] == pytest.approx(0.05, abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_matches_literal_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 9))
    f = int(rng.integers(1, (n - 1) // 2 + 1))
    d = int(rng.integers(1, 5))
    vectors = rng.standard_normal((n, d))
    agg, scores = prodigy_aggregate(GradientSet(vectors.copy()), f)
    expected, info = ref_prodigy(vectors, f)
    assert expected is not None
    assert np.allclose(agg, expected, atol=1e-10)
    assert np.allclose(scores.final, info["final"], rtol=1e-9, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_convex_combination_weights(seed):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((8, 3))
    agg, scores = prodigy_aggregate(GradientSet(vectors), 3)
    weights = scores.final / scores.final.sum()
    assert np.all(weights >= 0)
    assert abs(weights.sum() - 1.0) <= 1e-12
    assert np.all(agg <= vectors.max(axis=0) + 1e-12)
    assert np.all(agg >= vectors.min(axis=0) - 1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.5, 2.0, 10.0]))
def test_positive_homogeneity(seed, c):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((7, 2))
    base, _ = prodigy_aggregate(GradientSet(vectors.copy()), 2)
    scaled, _ = prodigy_aggregate(GradientSet(c * vectors), 2)
    bound = 1e-9 * c * float(np.max(np.linalg.norm(vectors, axis=1)))
    assert float(np.linalg.norm(scaled - c * base)) <= bound


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_permutation_equivariance_bit_exact(seed):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((8, 3))
    perm = rng.permutation(8)
    base_agg, base_scores = prodigy_aggregate(GradientSet(vectors.copy()), 3)
    perm_agg, perm_scores = prodigy_aggregate(GradientSet(vectors[perm]), 3)
    assert np.array_equal(base_agg, perm_agg)
    assert np.array_equal(base_scores.composite[perm], perm_scores.composite)
    assert np.array_equal(base_scores.final[perm], perm_scores.final)
