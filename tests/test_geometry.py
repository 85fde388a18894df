import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustfed.geometry import (
    GradientSet,
    check_finite,
    neighbor_order,
    pairwise_sq_distances,
    vector_set_stats,
)
from robustfed.oracles import ref_pairwise_sq, ref_sorted_neighbors


def vector_sets(max_n=8, max_d=5):
    return st.integers(2, max_n).flatmap(
        lambda n: st.integers(1, max_d).flatmap(
            lambda d: st.lists(
                st.lists(st.floats(-100, 100, allow_nan=False), min_size=d, max_size=d),
                min_size=n,
                max_size=n,
            )
        )
    )


def test_pairwise_scalar_example():
    g = GradientSet(np.array([[0.0], [1.0], [2.0]]))
    expected = [[0, 1, 4], [1, 0, 1], [4, 1, 0]]
    assert np.array_equal(pairwise_sq_distances(g), np.array(expected, dtype=float))


def test_pairwise_single_vector():
    g = GradientSet(np.array([[3.0, 4.0]]))
    assert np.array_equal(pairwise_sq_distances(g), np.zeros((1, 1)))


def test_pairwise_identical_vectors():
    v = np.array([1.5, -2.0, 0.25])
    g = GradientSet(np.stack([v, v]))
    assert np.array_equal(pairwise_sq_distances(g), np.zeros((2, 2)))


def test_nonfinite_input_names_client():
    """Row k is client k in a round set; a block starting at client 5 names
    its row 1 as client 6."""
    vectors = np.array([[0.0], [np.nan], [2.0]])
    with pytest.raises(ValueError, match="client 1$"):
        GradientSet(vectors)
    with pytest.raises(ValueError, match="client 6$"):
        check_finite(vectors, first_client=5)


@settings(max_examples=150, deadline=None)
@given(vector_sets())
def test_pairwise_matches_naive_oracle(rows):
    g = GradientSet(np.array(rows))
    entries = pairwise_sq_distances(g)
    expected = np.array(ref_pairwise_sq(rows))
    assert np.allclose(entries, expected, rtol=1e-12, atol=1e-12)
    assert np.array_equal(entries, entries.T)
    assert np.all(np.diag(entries) == 0.0)
    assert np.all(entries >= 0.0)


def test_neighbor_tie_broken_by_lower_index():
    g = GradientSet(np.array([[0.0], [1.0], [2.0]]))
    indices, sorted_distances = neighbor_order(pairwise_sq_distances(g))
    # middle client is equidistant from both ends; lower index comes first
    assert indices[1].tolist() == [0, 2]
    assert sorted_distances[1].tolist() == [1.0, 1.0]


def test_neighbor_order_example():
    g = GradientSet(np.array([[0.0], [1.0], [4.0]]))
    indices, sorted_distances = neighbor_order(pairwise_sq_distances(g))
    assert indices[0].tolist() == [1, 2]
    assert sorted_distances[0].tolist() == [1.0, 16.0]


def test_neighbor_order_two_clients():
    g = GradientSet(np.array([[0.0], [5.0]]))
    indices, _ = neighbor_order(pairwise_sq_distances(g))
    assert indices[0].tolist() == [1]
    assert indices[1].tolist() == [0]


@settings(max_examples=100, deadline=None)
@given(vector_sets())
def test_neighbor_order_matches_oracle_and_permutes(rows):
    g = GradientSet(np.array(rows))
    indices, sorted_distances = neighbor_order(pairwise_sq_distances(g))
    n = len(rows)
    for k in range(n):
        expected = ref_sorted_neighbors(rows, k)
        assert indices[k].tolist() == [idx for _, idx in expected]
        assert sorted(indices[k].tolist()) == [j for j in range(n) if j != k]
        assert np.all(np.diff(sorted_distances[k]) >= 0)


@settings(max_examples=100, deadline=None)
@given(vector_sets(), st.randoms(use_true_random=False))
def test_neighbor_order_permutation_equivariant(rows, rnd):
    n = len(rows)
    perm = list(range(n))
    rnd.shuffle(perm)
    base_indices, base_distances = neighbor_order(pairwise_sq_distances(GradientSet(np.array(rows))))
    permuted, _ = neighbor_order(
        pairwise_sq_distances(GradientSet(np.array([rows[p] for p in perm])))
    )
    # relabeling clients relabels the orderings identically, up to distance ties
    inverse = np.argsort(perm)
    for new_k in range(n):
        old_k = perm[new_k]
        if len(set(base_distances[old_k].tolist())) == n - 1:
            assert [perm[j] for j in permuted[new_k]] == base_indices[old_k].tolist()


def test_stats_scalar_pair():
    mean, spread = vector_set_stats(np.array([[0.0], [1.0]]))
    assert mean.tolist() == [0.5]
    assert spread == 0.5


def test_stats_singleton_and_constant():
    v = np.array([2.0, -1.0])
    assert vector_set_stats(v[None, :])[1] == 0.0
    mean, spread = vector_set_stats(np.stack([v, v, v]))
    assert np.array_equal(mean, v)
    assert spread == 0.0


def test_stats_empty_rejected():
    # empty sets, empty batches, and arrays that are neither a set nor a batch
    for shape in [(0, 3), (0, 2, 3), (2, 0, 3), (3,), (2, 2, 2, 2)]:
        with pytest.raises(ValueError):
            vector_set_stats(np.empty(shape))


@settings(max_examples=150, deadline=None)
@given(vector_sets())
def test_spread_bounded_by_max_pairwise_distance(rows):
    arr = np.array(rows)
    _, spread = vector_set_stats(arr)
    max_sq = ref_pairwise_sq(rows)
    bound = max(max(row) for row in max_sq)
    assert spread**2 <= bound + 1e-9 * (1.0 + bound)

