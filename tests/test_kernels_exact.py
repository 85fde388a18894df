"""The vectorized kernels against per-client loop references.

The loop functions below are the earlier implementations of the same
kernels: the geometry kernels, the attack search that built every candidate
set and its distances afresh, and the model gradient, client update and
round loop that ran one client at a time. The ``whole_*`` functions are
the earlier rules that reduced a set in whole-set expressions, which the
rules now run a tile at a time on wide sets. The vectorized kernels keep
every floating-point operation and its order, so results must be equal bit
for bit, not within a tolerance; the tolerance-based checks against
independent oracles live in the other test files.
"""

import tracemalloc
from collections import Counter
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustfed import aggregators, geometry, prodigy
from robustfed.aggregators import (
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
from robustfed.attacks import (
    LOCAL_ATTACK_KINDS,
    _CandidateSets,
    _grid_search,
    alie_candidates,
    craft_attack,
    foe_candidates,
)
from robustfed.config import TrainSchedule, config_from_dict, validate_config
from robustfed.datasim import LabeledDataset, flip_labels, generate_blobs
from robustfed.engine import (
    LocalClients,
    client_shards,
    client_update,
    lr_schedule,
    run_training,
)
from robustfed.geometry import (
    GATHER_BYTES,
    GradientSet,
    neighbor_order,
    pairwise_sq_distances,
    vector_set_stats,
)
from robustfed.models import ModelSpec, evaluate, init_params, model_gradient
from robustfed.prodigy import (
    EPSILON_GUARD,
    DegenerateRoundError,
    dissimilarity_scores,
    prodigy_aggregate,
)
from robustfed.seeding import stream_generators, stream_id


def loop_pairwise_sq_distances(g: GradientSet) -> np.ndarray:
    n = g.n_clients
    out = np.empty((n, n), dtype=np.float64)
    for k in range(n):
        diff = g.vectors - g.vectors[k]
        out[k] = np.einsum("ij,ij->i", diff, diff)
    return out


def loop_neighbor_order(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = len(m)
    if n < 2:
        return np.empty((n, 0), dtype=np.intp), np.empty((n, 0), dtype=np.float64)
    indices = np.empty((n, n - 1), dtype=np.intp)
    distances = np.empty((n, n - 1), dtype=np.float64)
    for k in range(n):
        others = np.concatenate([np.arange(k), np.arange(k + 1, n)])
        row = m[k, others]
        order = np.argsort(row, kind="stable")
        indices[k] = others[order]
        distances[k] = row[order]
    return indices, distances


def loop_vector_set_stats(subset):
    arr = np.asarray(subset, dtype=np.float64)
    mean = arr.mean(axis=0)
    diff = arr - mean
    spread = float(np.sqrt(np.einsum("ij,ij->i", diff, diff).mean()))
    return mean, spread


def loop_dissimilarity_scores(g: GradientSet, indices, sorted_distances, f: int):
    n = g.n_clients
    if f == 1:
        return np.ones(n)
    scores = np.empty(n)
    for k in range(n):
        members = np.concatenate(([k], indices[k, : f - 1]))
        mean, spread = loop_vector_set_stats(g.vectors[members])
        scores[k] = spread / (float(np.linalg.norm(mean)) + EPSILON_GUARD)
    return scores


def whole_coordinate_median(g: GradientSet) -> np.ndarray:
    ordered = np.sort(g.vectors, axis=0)
    mid = g.n_clients // 2
    if g.n_clients % 2:
        return ordered[mid].copy()
    return (ordered[mid - 1] + ordered[mid]) / 2


def whole_trimmed_mean(g: GradientSet, q: int) -> np.ndarray:
    n = g.n_clients
    if q == 0:
        return g.vectors.mean(axis=0)
    ordered = np.sort(g.vectors, axis=0)
    return ordered[q : n - q].mean(axis=0)


def whole_geometric_median(g: GradientSet, nu: float, rounds: int) -> np.ndarray:
    v = g.vectors.mean(axis=0)
    for _ in range(rounds):
        residuals = g.vectors - v
        with np.errstate(over="ignore"):
            residual_norms = np.linalg.norm(residuals, axis=1)
        if not np.isfinite(residual_norms).all():
            scale = np.abs(residuals).max(axis=1)
            scaled = residuals / np.where(scale > 0, scale, 1.0)[:, None]
            residual_norms = scale * np.linalg.norm(scaled, axis=1)
        weights = 1.0 / np.maximum(nu, residual_norms)
        v = (weights @ g.vectors) / weights.sum()
    return v


def whole_centered_clip(g: GradientSet, state, tau: float, iters: int) -> np.ndarray:
    if state is not None and state.prev_aggregate is not None:
        center = np.array(state.prev_aggregate, dtype=np.float64)
    else:
        center = np.zeros(g.dim)
    for _ in range(iters):
        residuals = g.vectors - center
        norms = np.linalg.norm(residuals, axis=1)
        factors = np.ones(g.n_clients)
        over = norms > tau
        factors[over] = tau / norms[over]
        center = center + (factors[:, None] * residuals).mean(axis=0)
    return center


def whole_trust_weighted_mean(g: GradientSet, scores) -> np.ndarray:
    final = scores.final
    canonical = np.argsort(final, kind="stable")
    total = final[canonical].sum()
    if total == 0.0:
        raise DegenerateRoundError(scores)
    weighted = final[canonical, None] * g.vectors[canonical]
    return weighted.sum(axis=0) / total


def loop_nnm_mix(g: GradientSet, f: int) -> GradientSet:
    n = g.n_clients
    indices, _ = loop_neighbor_order(loop_pairwise_sq_distances(g))
    mixed = np.empty_like(g.vectors)
    for k in range(n):
        members = np.concatenate(([k], indices[k, : n - f - 1]))
        mixed[k] = g.vectors[members].mean(axis=0)
    return GradientSet(mixed)


@contextmanager
def loop_kernels():
    """Route prodigy and the aggregators through the loop references.

    Yields the number of calls into each reference, by its name. A block
    must assert that the references it depends on ran (``assert_ran``):
    a rule that no longer reaches a patched name would otherwise compare
    the fast kernel with itself.
    """
    calls = Counter()

    def counted(reference):
        def wrapper(*args, **kwargs):
            calls[reference.__name__] += 1
            return reference(*args, **kwargs)

        return wrapper

    with ExitStack() as stack:
        stack.enter_context(
            mock.patch.object(geometry, "pairwise_sq_distances", counted(loop_pairwise_sq_distances))
        )
        order = counted(loop_neighbor_order)
        for module in (prodigy, aggregators):
            stack.enter_context(mock.patch.object(module, "neighbor_order", order))
        stack.enter_context(
            mock.patch.object(prodigy, "dissimilarity_scores", counted(loop_dissimilarity_scores))
        )
        stack.enter_context(
            mock.patch.object(prodigy, "trust_weighted_mean", counted(whole_trust_weighted_mean))
        )
        stack.enter_context(mock.patch.object(aggregators, "nnm_mix", counted(loop_nnm_mix)))
        yield calls


def assert_ran(calls: Counter, *references) -> None:
    missing = [ref.__name__ for ref in references if calls[ref.__name__] == 0]
    assert not missing, f"loop references not reached: {missing}"


KRUM_REFERENCES = (loop_pairwise_sq_distances, loop_neighbor_order)
PRODIGY_REFERENCES = KRUM_REFERENCES + (loop_dissimilarity_scores, whole_trust_weighted_mean)


def prodigy_outcome(g, f):
    try:
        vector, trust = prodigy_aggregate(g, f)
    except DegenerateRoundError as err:
        vector, trust = None, err.scores
    parts = (trust.proximity, trust.dissimilarity, trust.composite, trust.final)
    return vector, parts, trust.threshold


def same_bits(got, want) -> bool:
    """Equal shape and bits: unlike ``np.array_equal``, +0.0 and -0.0 differ."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def wide_path():
    """Every set with d > 1 takes the wide path inside this context."""
    return mock.patch.object(geometry, "GATHER_BYTES", 0)


def assert_rules_exact(g: GradientSet) -> None:
    """The rules that reduce a wide set in tiles against their whole-set
    expressions: the median, every trim count, geomed, and cclip from zero
    and from a warm start near half the rows."""
    n = g.n_clients
    assert same_bits(coordinate_median(g), whole_coordinate_median(g))
    for q in range((n + 1) // 2):
        assert same_bits(trimmed_mean(g, q), whole_trimmed_mean(g, q))
    assert same_bits(
        geometric_median(g, WEISZFELD_NU, WEISZFELD_ROUNDS),
        whole_geometric_median(g, WEISZFELD_NU, WEISZFELD_ROUNDS),
    )
    for state in (None, AggregatorState(g.vectors[n // 2 :].mean(axis=0))):
        assert same_bits(
            centered_clip(g, state, CLIP_TAU, CLIP_ITERS),
            whole_centered_clip(g, state, CLIP_TAU, CLIP_ITERS),
        )


def assert_kernels_exact(vectors: np.ndarray) -> None:
    """Every kernel and every rule built on them, for each admissible f."""
    g = GradientSet(vectors)
    n = g.n_clients
    assert_rules_exact(g)

    entries = pairwise_sq_distances(g)
    assert same_bits(entries, loop_pairwise_sq_distances(g))
    order = neighbor_order(entries)
    expected = loop_neighbor_order(entries)
    assert np.array_equal(order[0], expected[0])
    assert same_bits(order[1], expected[1])

    for f in range(n):
        assert same_bits(nnm_mix(g, f).vectors, loop_nnm_mix(g, f).vectors)
    for f in range(n - 2):
        with loop_kernels() as calls:
            reference = krum(g, f)
        assert_ran(calls, *KRUM_REFERENCES)
        assert same_bits(krum(g, f), reference)
    for f in range(1, (n + 1) // 2):
        assert same_bits(
            dissimilarity_scores(g, *order, f), loop_dissimilarity_scores(g, *order, f)
        )
        with loop_kernels() as calls:
            ref_vector, ref_parts, ref_threshold = prodigy_outcome(g, f)
        assert_ran(calls, *PRODIGY_REFERENCES)
        vector, parts, threshold = prodigy_outcome(g, f)
        assert (vector is None) == (ref_vector is None)
        if vector is not None:
            assert same_bits(vector, ref_vector)
        for got, want in zip(parts, ref_parts):
            assert same_bits(got, want)
        assert same_bits(threshold, ref_threshold)  # bits: a NaN threshold equals itself


def assert_both_paths_exact(vectors: np.ndarray) -> None:
    """``assert_kernels_exact`` on the path the set's size picks, then on the
    wide path."""
    assert_kernels_exact(vectors)
    with wide_path():
        assert_kernels_exact(vectors)


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
    assert_both_paths_exact(vectors)


@pytest.mark.parametrize("n", [2, 3])
def test_kernels_match_loops_on_two_and_three_clients(n):
    # The last upper-triangle rows hold one or two vectors.
    rng = np.random.default_rng(n)
    assert_both_paths_exact(rng.standard_normal((n, 1994)))
    assert_both_paths_exact(np.tile(rng.standard_normal(7), (n, 1)))


@pytest.mark.parametrize("seed", range(12))
def test_kernels_match_loops_on_random_sets(seed):
    """Up to 41 clients with duplicated rows; every f from 1 to N = 2f+1."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 42))
    d = int(rng.choice([1, 17, 300, 1994]))
    pool = rng.standard_normal((int(rng.integers(n // 2, n + 1)), d)) * rng.uniform(0.1, 10.0)
    assert_both_paths_exact(pool[rng.integers(0, len(pool), size=n)])


# --- the wide path: rows that look like copies, and d = 1 ---------------------


def test_wide_path_on_rows_that_differ_in_the_sign_of_a_zero():
    """Rows that differ only in the sign of a zero are equal and share their
    results. numpy's sums start from +0.0, so even a one-member mean
    (f = N-1) of a -0.0 reads +0.0, and in-place mixing must do the same."""
    rng = np.random.default_rng(21)
    row = rng.standard_normal(9)
    row[3] = 0.0
    flipped = row.copy()
    flipped[3] = -0.0
    with wide_path():
        assert_kernels_exact(np.array([row, flipped, row, flipped]))
        assert_kernels_exact(np.array([flipped, row, rng.standard_normal(9)]))
    signed = np.array([[0.0], [-0.0], [-0.0], [0.0], [1.5], [-0.0], [-0.0], [-0.0], [2.5]])
    assert_both_paths_exact(signed)


def test_wide_path_with_a_zero_distance_non_copy_between_copies():
    """Rows 0 and 2 are copies, and row 1 differs from them by 2^-600 in one
    coordinate, which squares to 0. Row 1 ranks second in row 0's
    neighborhood and third in row 2's, and these values make (a + b) + a and
    (a + a) + b differ, so the two copies mix to different rows."""
    rng = np.random.default_rng(22)
    a = rng.standard_normal(6)
    a[0] = np.ldexp(4688127974501598.0, -600)
    b = a.copy()
    b[0] = np.ldexp(4688127974501599.0, -600)
    assert ((a + b) + a)[0] != ((a + a) + b)[0]
    others = rng.standard_normal((3, 6))
    with wide_path():
        assert pairwise_sq_distances(GradientSet(np.array([a, b])))[0, 1] == 0.0
        assert_kernels_exact(np.array([a, b, a]))
        assert_kernels_exact(np.vstack([[a, b, a], others, [b, a]]))


def test_wide_path_computes_the_distances_of_a_zero_distance_non_copy():
    """Row 1 is at distance 0 from the copies 0 and 2, yet its distance to
    row 3 differs from theirs in the last bits, so it keeps its own sweep."""
    a = np.full(4, 0.5)
    a[0] = np.ldexp(5.0, -502)
    b, c = a.copy(), a.copy()
    b[0] += np.ldexp(1.0, -540)
    c[0] += np.ldexp(1.0, -500)
    vectors = np.array([a, b, a, c])
    entries = loop_pairwise_sq_distances(GradientSet(vectors))
    assert entries[0, 1] == 0.0 and entries[0, 3] != entries[1, 3]
    with wide_path():
        assert_kernels_exact(vectors)


@pytest.mark.parametrize("n, d", [(1, 4), (2, 5), (7, 40), (12, 3000)])
def test_wide_path_on_a_set_of_copies_only(n, d):
    row = np.random.default_rng(n).standard_normal(d)
    with wide_path():
        assert_kernels_exact(np.tile(row, (n, 1)))


def test_one_dimensional_sets_keep_the_gathered_pairwise_sums():
    """At d = 1 numpy sums a neighborhood's contiguous member axis pairwise,
    eight-way unrolled from 8 members on, an order that in-place adds in rank
    order do not follow; d = 1 is never wide."""
    rng = np.random.default_rng(23)
    vectors = rng.standard_normal((16, 1)) * 1e3
    vectors[[4, 9, 13]] = vectors[2]
    with wide_path():
        assert not geometry.wide_set(GradientSet(vectors))
    assert_both_paths_exact(vectors)


# --- the distance sweep in tiles ---------------------------------------------


def tiles_of(rows: int, d: int):
    """Inside this context, d-dimensional sets sweep their distances in tiles
    of ``rows`` rows, and sets of more than 3 * rows rows are wide."""
    patch = mock.patch.object(geometry, "GATHER_BYTES", 3 * rows * d * 8)
    with patch:
        assert geometry.tile_rows(GradientSet(np.zeros((1, d)))) == rows
    return patch


@settings(max_examples=100, deadline=None)
@given(sets_with_duplicates(max_n=14), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_kernels_match_loops_on_tied_sets_in_any_tile(vectors, rows, seed):
    """Tied rows with signed zeros, in one tile or up to seven, whose last
    tile of rows or columns may hold one; N = 2f+1 and d = 1 among them."""
    rng = np.random.default_rng(seed)
    zeros = rng.random(vectors.shape) < 0.3
    vectors[zeros] = np.copysign(0.0, rng.standard_normal(zeros.sum()))
    with tiles_of(rows, vectors.shape[1]):
        assert_kernels_exact(vectors)


@pytest.mark.parametrize("d", [30, 10_000])
@pytest.mark.parametrize("rows", [2, 3, 4, 5])
def test_distance_tiles_with_one_row_tails(rows, d):
    """N = 1 mod the tile: the last tile holds one row, and the last anchor of
    every tile of anchors has one row left in its own tile. Above 8192
    columns a one-row einsum sums in another order than a row of a larger
    one, so there a one-row sweep would change bits."""
    rng = np.random.default_rng(rows)
    for n in (rows + 1, 3 * rows + 1):
        vectors = rng.standard_normal((n, d))
        vectors[n // 2] = vectors[0]
        with tiles_of(rows, d):
            assert_kernels_exact(vectors)


def test_distance_tiles_with_copies_across_anchor_tiles():
    """Two copy groups whose members lie in different tiles of anchors, one
    of them led by a row of the last tile."""
    rng = np.random.default_rng(31)
    vectors = rng.standard_normal((14, 20))
    vectors[[4, 7, 13]] = vectors[0]
    vectors[[3, 11]] = vectors[2]
    vectors[12] = vectors[10]
    with tiles_of(3, 20):
        assert geometry.wide_set(GradientSet(vectors))
        assert np.array_equal(
            geometry.equal_rows(vectors), [0, 1, 2, 2, 0, 5, 6, 0, 8, 9, 10, 2, 10, 0]
        )
        assert_kernels_exact(vectors)


def test_distance_tiles_on_copies_that_differ_in_the_sign_of_a_zero():
    rng = np.random.default_rng(32)
    row = rng.standard_normal(12)
    row[[2, 7]] = 0.0
    flipped = row.copy()
    flipped[7] = -0.0
    vectors = np.vstack([rng.standard_normal((9, 12)), [row, flipped, row, flipped, row]])
    vectors[[1, 4]] = flipped
    with tiles_of(2, 12):
        assert np.array_equal(geometry.equal_rows(vectors)[[1, 4, 9, 10, 11, 12, 13]], [1] * 7)
        assert_kernels_exact(vectors)
    with tiles_of(4, 12):
        assert_kernels_exact(vectors)


def test_distance_tiles_on_an_underflowing_non_copy():
    """Row 5 differs from row 1 by 1e-170 in one coordinate: their distance
    underflows to 0 and their sums are equal, yet they are not copies."""
    rng = np.random.default_rng(33)
    vectors = rng.standard_normal((11, 16))
    vectors[1, 0] = 1e-160
    vectors[[5, 8]] = vectors[1]
    vectors[5, 0] += 1e-170
    assert vectors[5, 0] != vectors[1, 0]
    assert vectors[5].sum() == vectors[1].sum()
    with tiles_of(3, 16):
        assert pairwise_sq_distances(GradientSet(vectors))[1, 5] == 0.0
        assert np.array_equal(geometry.equal_rows(vectors)[[1, 5, 8]], [1, 5, 1])
        assert_kernels_exact(vectors)


@pytest.mark.parametrize("rows", [2, 3])
def test_distance_tiles_on_overflowing_distances(rows):
    """Rows scaled by 1e200: most squared differences overflow to inf."""
    rng = np.random.default_rng(34)
    vectors = rng.standard_normal((10, 8))
    vectors[[3, 9]] = vectors[6]
    vectors *= 1e200
    entries = loop_pairwise_sq_distances(GradientSet(vectors))
    assert np.isinf(entries).sum() > 50
    with tiles_of(rows, 8), np.errstate(over="ignore", invalid="ignore"):
        assert_kernels_exact(vectors)


def test_equal_rows_group_copies_whose_sums_overflow():
    """Row sums that overflow to inf, or to NaN through partial sums of
    opposite sign, still group the copies and only them."""
    rng = np.random.default_rng(35)
    nan_row, inf_row = rng.standard_normal((2, 16))
    nan_row[[0, 8]], nan_row[[1, 9]], inf_row[[0, 8]] = 1.5e308, -1.5e308, 1.5e308
    other_nan = nan_row.copy()
    other_nan[5] += 1.0
    vectors = np.vstack([[nan_row, inf_row, other_nan, nan_row, inf_row], rng.standard_normal((2, 16))])
    g = GradientSet(vectors)
    with tiles_of(2, 16), np.errstate(over="ignore", invalid="ignore"):
        sums = vectors.sum(axis=1)
        assert np.isnan(sums[[0, 2, 3]]).all() and np.isinf(sums[[1, 4]]).all()
        assert geometry.wide_set(g)
        assert np.array_equal(geometry.equal_rows(vectors), [0, 1, 2, 0, 1, 5, 6])
        assert same_bits(pairwise_sq_distances(g), loop_pairwise_sq_distances(g))


def test_kernels_match_loops_at_wide_scale():
    """N=100, d=10 000: every dissimilarity block holds one client."""
    n, d, f = 100, 10_000, 20
    rng = np.random.default_rng(7)
    honest = rng.standard_normal((n - f, d))
    byz = honest.mean(axis=0) - honest.std(axis=0)
    g = GradientSet(np.vstack([np.tile(byz, (f, 1)), honest]))
    assert f * d * 8 > GATHER_BYTES
    assert len(geometry.row_tiles(g)) == 25 and len(geometry.column_tiles(g)) == 23
    assert_rules_exact(g)

    entries = pairwise_sq_distances(g)
    assert np.array_equal(entries, loop_pairwise_sq_distances(g))
    order = neighbor_order(entries)
    expected = loop_neighbor_order(entries)
    assert np.array_equal(order[0], expected[0])
    assert np.array_equal(order[1], expected[1])
    assert np.array_equal(
        dissimilarity_scores(g, *order, f), loop_dissimilarity_scores(g, *order, f)
    )
    assert np.array_equal(nnm_mix(g, f).vectors, loop_nnm_mix(g, f).vectors)

    for spec, references in (
        (AggregatorSpec("prodigy"), PRODIGY_REFERENCES),
        (AggregatorSpec("krum", nnm_enabled=True), KRUM_REFERENCES + (loop_nnm_mix,)),
    ):
        with loop_kernels() as calls:
            reference = Aggregator(spec, n, f)(g)
        assert_ran(calls, *references)
        result = Aggregator(spec, n, f)(g)
        assert np.array_equal(result.vector, reference.vector)
        if result.trust is not None:
            assert np.array_equal(result.trust.final, reference.trust.final)


# --- the rules in tiles -------------------------------------------------------


@pytest.mark.parametrize("n", [40, 41])
@pytest.mark.parametrize("d", [9, 10])
def test_rules_in_tiles_with_one_row_and_one_column_tails(n, d):
    """Tiles of 10 rows and 2 columns: at N=41 the last row tile holds one
    row, and at d=9 the last column tile would hold one column. numpy sums
    one column of nine or more values pairwise, not row after row, so that
    column is reduced within a slice of two. Even and odd N take the median
    each way."""
    rng = np.random.default_rng(n + d)
    vectors = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    vectors[[5, 17, 33]] = vectors[2]
    with tiles_of(10, d):
        g = GradientSet(vectors)
        assert geometry.tile_columns(g) == 2
        assert len(geometry.row_tiles(g)) == (5 if n == 41 else 4)
        assert_kernels_exact(vectors)


def test_geomed_rescales_every_tile_when_a_later_row_overflows():
    """Row 9, in the fourth tile of three rows, overflows its plain norm,
    so every row's norm is taken scaled, those of the earlier tiles too,
    whose plain norms are finite."""
    rng = np.random.default_rng(36)
    vectors = rng.standard_normal((11, 16))
    vectors[9] *= 4e154 / np.linalg.norm(vectors[9])
    with np.errstate(over="ignore"):
        plain = np.linalg.norm(vectors - vectors.mean(axis=0), axis=1)
    assert np.isinf(plain[9]) and np.isfinite(np.delete(plain, 9)).all()
    with tiles_of(3, 16):
        g = GradientSet(vectors)
        assert len(geometry.row_tiles(g)) == 4
        assert same_bits(
            geometric_median(g, WEISZFELD_NU, WEISZFELD_ROUNDS),
            whole_geometric_median(g, WEISZFELD_NU, WEISZFELD_ROUNDS),
        )


# Per rule, its tracemalloc peak bound on an N=100, d=10 000 set, in units of
# GATHER_BYTES. A baseline holds a tile buffer of GATHER_BYTES / 3 and one
# temporary of its size (the squares of a norm, or a sort's copy), plus a few
# d-vectors of 80 kB: under one GATHER_BYTES (0.4-0.8 MiB measured). prodigy
# also holds its neighbourhood gather and that gather's deviations from its
# mean, up to GATHER_BYTES each, and the distance sweep's tiles: under four
# (3.4 MiB measured). One (N, d) temporary is 7.6 MiB, over seven GATHER_BYTES,
# and each rule built one or two until it reduced wide sets in tiles.
PEAK_BOUNDS = {
    "median": (lambda g, f: coordinate_median(g), 1),
    "trimmed_mean": (lambda g, f: trimmed_mean(g, f), 1),
    "geomed": (lambda g, f: geometric_median(g, WEISZFELD_NU, WEISZFELD_ROUNDS), 1),
    "cclip": (
        lambda g, f: centered_clip(g, AggregatorState(g.vectors[f:].mean(axis=0)), CLIP_TAU, CLIP_ITERS),
        1,
    ),
    "prodigy": (lambda g, f: prodigy_aggregate(g, f), 4),
}


@pytest.mark.parametrize("kind", PEAK_BOUNDS)
def test_wide_rules_allocate_no_full_size_temporary(kind):
    n, d, f = 100, 10_000, 20
    rng = np.random.default_rng(8)
    honest = 0.5 * rng.standard_normal(d) + rng.standard_normal((n - f, d))
    g = GradientSet(np.vstack([honest[:f] + 1e-3 * rng.standard_normal((f, d)), honest]))
    rule, bound = PEAK_BOUNDS[kind]
    rule(g, f)  # first call: any lazy set-up inside numpy
    tracemalloc.start()
    try:
        rule(g, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * GATHER_BYTES < g.vectors.nbytes


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 20), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_batched_stats_equal_separate_calls(b, m, d, seed):
    batch = np.random.default_rng(seed).standard_normal((b, m, d)) * 10.0
    means, spreads = vector_set_stats(batch)
    assert means.shape == (b, d)
    assert spreads.shape == (b,)
    for i in range(b):
        single_mean, single_spread = vector_set_stats(batch[i])
        assert isinstance(single_spread, float)
        assert np.array_equal(means[i], single_mean)
        assert spreads[i] == single_spread
        mean, spread = loop_vector_set_stats(batch[i])
        assert np.array_equal(single_mean, mean)
        assert single_spread == spread


# --- attack search: shared candidate sets against fresh mixed sets ----------


def loop_mixed_set(honest: np.ndarray, f, byz_vector) -> GradientSet:
    return GradientSet(np.vstack([np.tile(byz_vector, (f, 1)), honest]))


def loop_grid_search(candidates, make_vector, honest, f, defense, reference):
    """One fresh mixed set per candidate, so every rule computes its own
    distances and mix; returns the choice, every candidate's deviation and
    the choice's."""
    best_vec = None
    best_dev = -np.inf
    deviations = []
    for cand in candidates:
        vec = make_vector(cand)
        try:
            agg = defense(loop_mixed_set(honest, f, vec))
            deviation = float(np.linalg.norm(agg - reference))
        except DegenerateRoundError:
            deviation = -np.inf
        deviations.append(deviation)
        if best_vec is None or deviation > best_dev:
            best_vec = vec
            best_dev = deviation
    return best_vec, np.array(deviations), best_dev


SEARCH_DEFENSES = [
    AggregatorSpec(kind, nnm_enabled=nnm) for nnm in (False, True) for kind in AGGREGATOR_KINDS
]


def search_candidates(honest: np.ndarray) -> np.ndarray:
    """The ALIE (z=1) and FoE (eps=0.1) grids plus a copy of an honest row."""
    mean, std = honest.mean(axis=0), honest.std(axis=0)
    alie = [mean - zv * std for zv in alie_candidates(1.0)]
    foe = [-ev * mean for ev in foe_candidates(0.1)]
    return np.array(alie + foe + [honest[0]])


def assert_search_exact(honest: np.ndarray, f: int, candidates=None) -> dict:
    """The same sets and distances per candidate, and the same choice and
    deviation per candidate for every defense defined at this N and f. The
    search hands on the set the defense ran on for the choice: for an NNM
    rule the mix of a fresh set of it, else the choice's set itself, with
    the very matrix the rule read during the search, that of a fresh set;
    None only when every candidate was degenerate. Returns each defense's
    deviations."""
    if candidates is None:
        candidates = search_candidates(honest)
    n = len(honest) + f
    sets = _CandidateSets(honest, f)
    for vec in candidates:
        g = sets(vec)
        fresh = loop_mixed_set(honest, f, vec)
        assert np.array_equal(g.vectors, fresh.vectors)
        assert np.array_equal(g.distances(), pairwise_sq_distances(fresh))
    reference = honest.mean(axis=0)
    state = AggregatorState(0.5 * reference)
    found = {}
    for spec in SEARCH_DEFENSES:
        try:
            aggregator = Aggregator(spec, n, f)
        except ValueError:
            continue  # the rule is not defined at this N and f
        deviations = []
        reads = []  # per call, the matrices its candidate's supplier returned

        def defense(gs, aggregator=aggregator, deviations=deviations, reads=reads):
            supplied, read = gs.distances, []
            gs.distances = lambda: read.append(supplied()) or read[-1]
            reads.append(read)
            try:
                result = aggregator(gs, state, keep=True)
            except DegenerateRoundError:
                deviations.append(-np.inf)
                raise
            deviations.append(float(np.linalg.norm(result.vector - reference)))
            return result

        args = (range(len(candidates)), candidates.__getitem__, honest, f)
        chosen, ran_on = _grid_search(*args, defense, reference)
        expected, expected_devs, expected_dev = loop_grid_search(
            *args, lambda gs, aggregator=aggregator: aggregator(gs, state).vector, reference
        )
        assert np.array_equal(chosen, expected), spec.label()
        assert np.array_equal(np.array(deviations), expected_devs), spec.label()
        fresh = loop_mixed_set(honest, f, expected)
        if expected_dev == -np.inf:
            assert ran_on is None, spec.label()
        elif spec.nnm_enabled:
            assert same_bits(ran_on.vectors, nnm_mix(fresh, f).vectors), spec.label()
        else:
            assert same_bits(ran_on.vectors, fresh.vectors), spec.label()
            read = reads[int(np.argmax(expected_devs))]
            if read:
                assert ran_on.distances() is read[0], spec.label()
                assert same_bits(read[0], pairwise_sq_distances(fresh)), spec.label()
        found[spec.label()] = expected_devs
    return found


@settings(max_examples=60, deadline=None)
@given(sets_with_duplicates(max_n=9, max_d=12), st.integers(1, 4))
def test_search_matches_fresh_sets_on_tied_rows(vectors, f):
    """Honest rows with ties, under 1 to 4 byzantine rows."""
    assert_search_exact(vectors, f)


@pytest.mark.parametrize("d", [1, 17, 300, 1994])
@pytest.mark.parametrize(
    "n, f",
    [(3, 1), (5, 2), (2, 1), (4, 3), (10, 3)],
    ids=["f1", "2f+1", "one-honest", "one-honest-f3", "grid"],
)
def test_search_matches_fresh_sets_at_boundaries(n, f, d):
    """f = 1, N = 2f+1, N - f = 1 (one honest row) and the criterion-7 shape."""
    rng = np.random.default_rng(n * 10_000 + f * 1000 + d)
    assert_search_exact(rng.standard_normal((n - f, d)), f)


@pytest.mark.parametrize("n, f", [(2, 1), (4, 3)])
def test_search_matches_fresh_sets_with_one_honest_row_at_wide_d(n, f):
    """At d=10 000 a one-row einsum sums in another order than a row of a
    larger one, so the one honest distance row must not be reduced alone."""
    rng = np.random.default_rng(n)
    honest = rng.standard_normal((1, 10_000))
    assert_search_exact(honest, f, rng.standard_normal((3, 10_000)))


def test_search_matches_fresh_sets_on_duplicated_honest_rows():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((3, 40))
    honest = rows[[0, 1, 0, 2, 1, 0, 2]]
    candidates = np.vstack([search_candidates(honest), rows])
    assert_search_exact(honest, 3, candidates)


def test_search_matches_fresh_sets_on_degenerate_prodigy_rounds():
    """Identical integer honest rows: their mean is exact and their std zero,
    so the ALIE candidates and the honest copy equal them, every score ties
    and prodigy filters everyone; the FoE candidates do not."""
    honest = np.tile(np.arange(25.0) - 12.0, (7, 1))
    found = assert_search_exact(honest, 3)
    assert np.isneginf(found["prodigy"]).sum() == len(alie_candidates(1.0)) + 1
    assert np.isfinite(found["prodigy"]).any()


def test_search_matches_fresh_sets_at_wide_scale():
    """N=100, d=10 000, f=20."""
    n, d, f = 100, 10_000, 20
    rng = np.random.default_rng(11)
    honest = rng.standard_normal((n - f, d))
    mean, std = honest.mean(axis=0), honest.std(axis=0)
    assert_search_exact(honest, f, np.array([mean - std, honest[0]]))


# --- client updates: one batched pass against the per-client loop ------------


def loop_model_gradient(spec, theta, batch):
    """The single-client gradient as it was, before the client axis."""
    p, c, h = spec.input_dim, spec.n_classes, spec.hidden
    x, y, m = batch.features, batch.labels, batch.n_samples
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "softmax_linear":
            w, b = theta[: c * p].reshape(c, p), theta[c * p :]
            logits, hidden = x @ w.T + b, None
        else:
            parts = np.split(theta, np.cumsum([h * p, h, c * h]))
            w1, b1, w2, b2 = parts[0].reshape(h, p), parts[1], parts[2].reshape(c, h), parts[3]
            hidden = np.tanh(x @ w1.T + b1)
            logits = hidden @ w2.T + b2
    if not np.isfinite(logits).all():
        raise ValueError(
            f"non-finite logits (max |theta| = {np.abs(theta).max():.3e}); training diverged"
        )
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))
    probs[np.arange(m), y] -= 1.0
    dlogits = probs / m
    if spec.kind == "softmax_linear":
        grad = np.concatenate([(dlogits.T @ x).ravel(), dlogits.sum(axis=0)])
    else:
        dhidden = (dlogits @ w2) * (1.0 - hidden**2)
        grad = np.concatenate(
            [
                (dhidden.T @ x).ravel(),
                dhidden.sum(axis=0),
                (dlogits.T @ hidden).ravel(),
                dlogits.sum(axis=0),
            ]
        )
    return grad + spec.l2_reg * theta


def loop_client_update(spec, theta, client, sched, round_idx):
    """One client's update alone; ``client`` is its (id, shard, stream)."""
    client_id, shard, stream = client
    m = shard.n_samples
    if sched.batch_size > m:
        raise ValueError(
            f"client {client_id} shard of {m} samples cannot fill a batch of {sched.batch_size}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([stream, round_idx]))
    perm = rng.permutation(m)
    if sched.local_iters == 1:
        return loop_model_gradient(spec, theta, shard.subset(perm[: sched.batch_size]))

    gamma = lr_schedule(round_idx, sched)
    theta_local = theta
    pos = 0
    for _ in range(sched.local_iters):
        if pos + sched.batch_size > m:
            perm = rng.permutation(m)
            pos = 0
        batch = shard.subset(perm[pos : pos + sched.batch_size])
        pos += sched.batch_size
        theta_local = theta_local - gamma * loop_model_gradient(spec, theta_local, batch)
    return (theta - theta_local) / gamma


def loop_run_training(cfg):
    """The round loop as it was: one client_update call and one momentum
    buffer per client, each client's role read from its id, and its shard
    and stream derived from the config alone."""
    validate_config(cfg)
    sched, model, data, f = cfg.schedule, cfg.model, cfg.data, cfg.n_byzantine
    flip = cfg.attack.kind == "label_flip"
    clients = [
        (k, flip_labels(shard) if flip and k < f else shard, stream_id(cfg.seed, "client", k))
        for k, shard in enumerate(client_shards(cfg))
    ]
    test = generate_blobs(
        data.n_classes, data.dim, data.test_per_class, data.separation, stream_id(cfg.seed, "test")
    )
    honest_clients = [c for c in clients if c[0] >= f]
    byz_clients = [c for c in clients if c[0] < f]
    momentum = {k: np.zeros(model.param_dim) for k, _, _ in clients}

    def ema(client, g):
        k, beta = client[0], sched.momentum
        momentum[k] = beta * momentum[k] + (1.0 - beta) * g
        return momentum[k]

    aggregator = Aggregator(cfg.defense, cfg.n_clients, cfg.n_byzantine)
    state = AggregatorState()
    theta = init_params(model, stream_id(cfg.seed, "init"))
    local_attack = cfg.attack.kind in LOCAL_ATTACK_KINDS
    evaluations = []
    for t in range(sched.rounds):
        sent = np.empty((cfg.n_clients, model.param_dim))
        for client in honest_clients:
            g = loop_client_update(model, theta, client, sched, t)
            if sched.momentum > 0:
                g = ema(client, g)
            sent[client[0]] = g
        if byz_clients:
            local = None
            if local_attack:
                local = np.stack(
                    [loop_client_update(model, theta, c, sched, t) for c in byz_clients]
                )
            honest_rows = np.stack([sent[c[0]] for c in honest_clients])
            defense = lambda gs: aggregator(gs, state)  # noqa: E731
            f = len(byz_clients)
            crafted, _ = craft_attack(cfg.attack, honest_rows, f, defense, byz_local=local)
            for i, client in enumerate(byz_clients):
                v = crafted[i]
                if local_attack and sched.momentum > 0:
                    v = ema(client, v)
                sent[client[0]] = v
        try:
            result = aggregator(GradientSet(sent), state)
        except DegenerateRoundError:
            result = None
        if result is not None:
            theta = theta - lr_schedule(t, sched) * result.vector
            state.prev_aggregate = result.vector
        if (t + 1) % cfg.eval_every == 0 or t == sched.rounds - 1:
            evaluations.append((t, *evaluate(model, theta, test)))
    return theta, evaluations


def random_gradient_case(kind, n, b, p, c, h, shared, seed):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(kind, input_dim=p, n_classes=c, hidden=h if kind == "mlp" else 0)
    features = rng.standard_normal((n, b, p)) * rng.uniform(0.1, 10.0)
    labels = rng.integers(0, c, (n, b))
    theta = rng.standard_normal(spec.param_dim if shared else (n, spec.param_dim))
    return spec, features, labels, theta


def assert_gradient_rows_exact(spec, features, labels, theta):
    batched = model_gradient(spec, theta, (features, labels))
    assert batched.shape == (len(features), spec.param_dim)
    for k in range(len(features)):
        single = LabeledDataset(features[k], labels[k], spec.n_classes)
        row_theta = theta if theta.ndim == 1 else theta[k]
        expected = loop_model_gradient(spec, row_theta, single)
        assert np.array_equal(batched[k], expected)
        assert np.array_equal(model_gradient(spec, row_theta, single), expected)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["softmax_linear", "mlp"]),
    st.integers(1, 11),
    st.integers(1, 40),
    st.integers(1, 12),
    st.integers(2, 7),
    st.integers(1, 9),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_batched_gradient_equals_per_client_calls(kind, n, b, p, c, h, shared, seed):
    assert_gradient_rows_exact(*random_gradient_case(kind, n, b, p, c, h, shared, seed))


@pytest.mark.parametrize("kind", ["softmax_linear", "mlp"])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_client"])
@pytest.mark.parametrize("n, b", [(1, 32), (7, 1), (1, 1), (10, 32)])
def test_batched_gradient_edge_shapes(kind, shared, n, b):
    spec, features, labels, theta = random_gradient_case(kind, n, b, 20, 10, 64, shared, n * b)
    assert_gradient_rows_exact(spec, features, labels, theta)
    if n == 1:
        # a 2-D call is the one-client case and keeps its (P,) shape
        single = LabeledDataset(features[0], labels[0], spec.n_classes)
        flat = model_gradient(spec, theta if shared else theta[0], single)
        assert flat.shape == (spec.param_dim,)


def exact_config(local_iters, attack):
    return config_from_dict(
        {
            "n_clients": 7,
            "n_byzantine": 2,
            "seed": 5,
            "eval_every": 4,
            "model": {"kind": "mlp", "hidden": 8},
            "data": {
                "n_classes": 3,
                "dim": 5,
                "per_class": 30,
                "separation": 3.0,
                "test_per_class": 20,
                "partition": "iid",
            },
            # 12-sample shards hold two batches of 5, so three local steps reshuffle
            "schedule": {
                "rounds": 14,
                "local_iters": local_iters,
                "batch_size": 5,
                "momentum": 0.9,
                "gamma_hi": 0.2,
            },
            "attack": {"kind": attack},
            "defense": {"kind": "prodigy"},
        }
    )


@pytest.mark.parametrize("attack", ["sign_flip", "label_flip"])
@pytest.mark.parametrize("local_iters", [1, 3])
def test_run_training_equals_per_client_round_loop(local_iters, attack):
    result = run_training(exact_config(local_iters, attack))
    theta, evaluations = loop_run_training(exact_config(local_iters, attack))
    assert np.array_equal(result.theta, theta)
    recorded = [
        (r.round_idx, r.test_accuracy, r.global_loss)
        for r in result.records
        if r.test_accuracy is not None
    ]
    assert recorded == evaluations
    assert (result.final_accuracy, result.final_loss) == evaluations[-1][1:]


def error_clients(kinds):
    """Softmax clients on 2-D features as (id, shard, stream), one per kind:
    'ok', 'small' (cannot fill a batch of 4), 'late' (diverges at the second
    local step under ERROR_SCHEDULE) and 'early' (non-finite logits at the
    first step)."""
    rng = np.random.default_rng(0)
    clients = []
    for k, kind in enumerate(kinds):
        n = 3 if kind == "small" else 12
        features = rng.standard_normal((n, 2))
        if kind == "late":
            features *= 1e10
        if kind == "early":
            features = np.full((n, 2), 1e308)
        shard = LabeledDataset(features, rng.integers(0, 2, n), 2)
        clients.append((k, shard, stream_id(1, "client", k)))
    return clients


def block_update(spec, theta, clients, sched, round_idx):
    """``client_update`` on the block of ``clients``, in their order, with the
    round's generators."""
    block = LocalClients.of(*zip(*clients))
    rngs = next(stream_generators(block.streams, range(round_idx, round_idx + 1)))
    return client_update(spec, theta, block, sched, round_idx, rngs)


ERROR_SPEC = ModelSpec("softmax_linear", input_dim=2, n_classes=2, l2_reg=0.0)


@pytest.mark.parametrize(
    "kinds",
    [
        ("ok", "small", "small"),
        ("small", "ok"),
        ("late", "early"),
        ("early", "late"),
        ("late", "ok", "early"),
        ("ok", "late", "small"),
        ("ok", "small", "early"),
        ("ok", "early", "late", "ok"),
    ],
)
@pytest.mark.parametrize("local_iters", [1, 3])
def test_client_update_errors_follow_client_order(kinds, local_iters):
    """The first failing client in order raises, even when a later client
    fails at an earlier local step."""
    sched = TrainSchedule(rounds=4, local_iters=local_iters, batch_size=4, gamma_hi=1e290)
    clients = error_clients(kinds)
    theta = np.ones(ERROR_SPEC.param_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError) as expected:
            for client in clients:
                loop_client_update(ERROR_SPEC, theta, client, sched, 0)
        with pytest.raises(ValueError) as raised:
            block_update(ERROR_SPEC, theta, clients, sched, 0)
    assert str(raised.value) == str(expected.value)
    if kinds[0] == "late" and local_iters > 1:
        # the 'late' client's own parameters, not the shared start of 'early'
        assert "max |theta| = 1.000e+00" not in str(raised.value)


def test_client_update_rows_follow_client_order():
    clients = error_clients(["ok"] * 5)
    spec = ModelSpec("softmax_linear", input_dim=2, n_classes=2)
    sched = TrainSchedule(rounds=4, local_iters=3, batch_size=5, gamma_hi=0.5)
    theta = np.random.default_rng(1).standard_normal(spec.param_dim)
    batched = block_update(spec, theta, clients[::-1], sched, 2)
    expected = np.stack([loop_client_update(spec, theta, c, sched, 2) for c in clients[::-1]])
    assert np.array_equal(batched, expected)
