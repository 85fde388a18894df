"""The vectorized geometry kernels against per-client loop references.

The loop functions below are the earlier implementations of the same
kernels. The vectorized kernels keep every floating-point operation and its
order, so results must be equal bit for bit, not within a tolerance; the
tolerance-based checks against independent oracles live in the other test
files.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustfed import aggregators, prodigy
from robustfed.aggregators import Aggregator, AggregatorSpec, krum, nnm_mix
from robustfed.geometry import (
    GATHER_BYTES,
    DistanceMatrix,
    GradientSet,
    NeighborOrder,
    neighbor_order,
    pairwise_sq_distances,
    vector_set_stats,
)
from robustfed.prodigy import (
    DegenerateRoundError,
    ProdigyParams,
    dissimilarity_scores,
    prodigy_aggregate,
)


def loop_pairwise_sq_distances(g: GradientSet) -> DistanceMatrix:
    n = g.n_clients
    out = np.empty((n, n), dtype=np.float64)
    for k in range(n):
        diff = g.vectors - g.vectors[k]
        out[k] = np.einsum("ij,ij->i", diff, diff)
    return DistanceMatrix(out)


def loop_neighbor_order(m: DistanceMatrix) -> NeighborOrder:
    n = m.n_clients
    if n < 2:
        return NeighborOrder(
            indices=np.empty((n, 0), dtype=np.intp),
            distances=np.empty((n, 0), dtype=np.float64),
        )
    indices = np.empty((n, n - 1), dtype=np.intp)
    distances = np.empty((n, n - 1), dtype=np.float64)
    for k in range(n):
        others = np.concatenate([np.arange(k), np.arange(k + 1, n)])
        row = m.entries[k, others]
        order = np.argsort(row, kind="stable")
        indices[k] = others[order]
        distances[k] = row[order]
    return NeighborOrder(indices=indices, distances=distances)


def loop_vector_set_stats(subset):
    arr = np.asarray(subset, dtype=np.float64)
    mean = arr.mean(axis=0)
    diff = arr - mean
    spread = float(np.sqrt(np.einsum("ij,ij->i", diff, diff).mean()))
    return mean, spread


def loop_dissimilarity_scores(g: GradientSet, order: NeighborOrder, p: ProdigyParams):
    n, f = p.n_clients, p.n_byzantine
    if f == 1:
        return np.ones(n)
    scores = np.empty(n)
    for k in range(n):
        members = np.concatenate(([k], order.indices[k, : f - 1]))
        mean, spread = loop_vector_set_stats(g.vectors[members])
        scores[k] = spread / (float(np.linalg.norm(mean)) + p.epsilon_guard)
    return scores


def loop_nnm_mix(g: GradientSet, f: int) -> GradientSet:
    n = g.n_clients
    order = loop_neighbor_order(loop_pairwise_sq_distances(g))
    mixed = np.empty_like(g.vectors)
    for k in range(n):
        members = np.concatenate(([k], order.indices[k, : n - f - 1]))
        mixed[k] = g.vectors[members].mean(axis=0)
    return GradientSet(mixed, g.client_ids.copy())


def loop_kernels():
    """Route prodigy and the aggregators through the loop references."""
    stack = ExitStack()
    for module in (prodigy, aggregators):
        stack.enter_context(
            mock.patch.object(module, "pairwise_sq_distances", loop_pairwise_sq_distances)
        )
        stack.enter_context(mock.patch.object(module, "neighbor_order", loop_neighbor_order))
    stack.enter_context(
        mock.patch.object(prodigy, "dissimilarity_scores", loop_dissimilarity_scores)
    )
    stack.enter_context(mock.patch.object(aggregators, "nnm_mix", loop_nnm_mix))
    return stack


def prodigy_outcome(g, p):
    try:
        vector, trust = prodigy_aggregate(g, p)
    except DegenerateRoundError as err:
        vector, trust = None, err.scores
    parts = (trust.proximity, trust.dissimilarity, trust.composite, trust.final)
    return vector, parts, trust.threshold


def assert_kernels_exact(vectors: np.ndarray) -> None:
    """Every kernel and every rule built on them, for each admissible f."""
    g = GradientSet(vectors)
    n = g.n_clients

    entries = pairwise_sq_distances(g).entries
    assert np.array_equal(entries, loop_pairwise_sq_distances(g).entries)
    order = neighbor_order(DistanceMatrix(entries))
    expected = loop_neighbor_order(DistanceMatrix(entries))
    assert np.array_equal(order.indices, expected.indices)
    assert np.array_equal(order.distances, expected.distances)

    for f in range(n):
        assert np.array_equal(nnm_mix(g, f).vectors, loop_nnm_mix(g, f).vectors)
    for f in range(n - 2):
        with loop_kernels():
            reference = krum(g, f)
        assert np.array_equal(krum(g, f), reference)
    for f in range(1, (n + 1) // 2):
        p = ProdigyParams(n, f)
        assert np.array_equal(
            dissimilarity_scores(g, order, p), loop_dissimilarity_scores(g, order, p)
        )
        with loop_kernels():
            ref_vector, ref_parts, ref_threshold = prodigy_outcome(g, p)
        vector, parts, threshold = prodigy_outcome(g, p)
        assert (vector is None) == (ref_vector is None)
        if vector is not None:
            assert np.array_equal(vector, ref_vector)
        for got, want in zip(parts, ref_parts):
            assert np.array_equal(got, want)
        assert threshold == ref_threshold


@st.composite
def sets_with_duplicates(draw, max_n=12, max_d=40):
    """Row sets drawn from a smaller pool of distinct rows, so distances and
    scores tie."""
    n = draw(st.integers(2, max_n))
    d = draw(st.integers(1, max_d))
    pool_size = draw(st.integers(1, n))
    row = st.lists(st.floats(-100, 100, allow_nan=False), min_size=d, max_size=d)
    pool = draw(st.lists(row, min_size=pool_size, max_size=pool_size))
    picks = draw(st.lists(st.integers(0, pool_size - 1), min_size=n, max_size=n))
    return np.array([pool[i] for i in picks], dtype=np.float64)


@settings(max_examples=150, deadline=None)
@given(sets_with_duplicates())
def test_kernels_match_loops_on_tied_sets(vectors):
    assert_kernels_exact(vectors)


@pytest.mark.parametrize("n", [2, 3])
def test_kernels_match_loops_on_two_and_three_clients(n):
    # The last upper-triangle rows hold one or two vectors.
    rng = np.random.default_rng(n)
    assert_kernels_exact(rng.standard_normal((n, 1994)))
    assert_kernels_exact(np.tile(rng.standard_normal(7), (n, 1)))


@pytest.mark.parametrize("seed", range(12))
def test_kernels_match_loops_on_random_sets(seed):
    """Up to 41 clients with duplicated rows; every f from 1 to N = 2f+1."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 42))
    d = int(rng.choice([1, 17, 300, 1994]))
    pool = rng.standard_normal((int(rng.integers(n // 2, n + 1)), d)) * rng.uniform(0.1, 10.0)
    assert_kernels_exact(pool[rng.integers(0, len(pool), size=n)])


def test_kernels_match_loops_at_wide_scale():
    """N=100, d=10 000: every dissimilarity block holds one client."""
    n, d, f = 100, 10_000, 20
    rng = np.random.default_rng(7)
    honest = rng.standard_normal((n - f, d))
    byz = honest.mean(axis=0) - honest.std(axis=0)
    g = GradientSet(np.vstack([np.tile(byz, (f, 1)), honest]))
    assert f * d * 8 > GATHER_BYTES

    entries = pairwise_sq_distances(g).entries
    assert np.array_equal(entries, loop_pairwise_sq_distances(g).entries)
    order = neighbor_order(DistanceMatrix(entries))
    expected = loop_neighbor_order(DistanceMatrix(entries))
    assert np.array_equal(order.indices, expected.indices)
    assert np.array_equal(order.distances, expected.distances)
    p = ProdigyParams(n, f)
    assert np.array_equal(
        dissimilarity_scores(g, order, p), loop_dissimilarity_scores(g, order, p)
    )
    assert np.array_equal(nnm_mix(g, f).vectors, loop_nnm_mix(g, f).vectors)

    for spec in (AggregatorSpec("prodigy"), AggregatorSpec("krum", nnm_enabled=True)):
        with loop_kernels():
            reference = Aggregator(spec, n, f)(g)
        result = Aggregator(spec, n, f)(g)
        assert np.array_equal(result.vector, reference.vector)
        if result.trust is not None:
            assert np.array_equal(result.trust.final, reference.trust.final)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 20), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_batched_stats_equal_separate_calls(b, m, d, seed):
    batch = np.random.default_rng(seed).standard_normal((b, m, d)) * 10.0
    stats = vector_set_stats(batch)
    assert stats.mean.shape == (b, d)
    assert stats.spread.shape == (b,)
    for i in range(b):
        single = vector_set_stats(batch[i])
        assert isinstance(single.spread, float)
        assert np.array_equal(stats.mean[i], single.mean)
        assert stats.spread[i] == single.spread
        mean, spread = loop_vector_set_stats(batch[i])
        assert np.array_equal(single.mean, mean)
        assert single.spread == spread
