import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustfed import aggregators
from robustfed.aggregators import (
    AGGREGATOR_KINDS,
    CLIP_ITERS,
    CLIP_TAU,
    WEISZFELD_NU,
    WEISZFELD_ROUNDS,
    Aggregator,
    AggregatorSpec,
    AggregatorState,
    average,
    centered_clip,
    coordinate_median,
    geometric_median,
    krum,
    nnm_mix,
    trimmed_mean,
)
from robustfed.geometry import GradientSet
from robustfed.oracles import (
    ref_centered_clip,
    ref_geometric_median,
    ref_krum,
    ref_median,
    ref_nnm,
    ref_trimmed_mean,
)
from robustfed.prodigy import DegenerateRoundError, prodigy_aggregate

SCALARS = np.array([[0.0], [1.0], [2.0], [3.0], [10.0]])


def random_instance(seed, min_n=5, max_n=7, max_d=4):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(min_n, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    return rng, rng.standard_normal((n, d))


def test_average_examples():
    assert average(GradientSet(np.array([[0.0], [1.0], [2.0]]))).tolist() == [1.0]
    single = np.array([[3.0, -1.0]])
    assert average(GradientSet(single)).tolist() == [3.0, -1.0]
    v = np.array([2.0, -5.0])
    assert average(GradientSet(np.stack([v, -v]))).tolist() == [0.0, 0.0]


def test_median_examples():
    assert coordinate_median(GradientSet(SCALARS)).tolist() == [2.0]
    assert coordinate_median(GradientSet(np.array([[0.0], [1.0], [2.0], [3.0]]))).tolist() == [1.5]
    two_d = GradientSet(np.array([[0.0, 10.0], [1.0, 0.0], [2.0, 5.0]]))
    assert coordinate_median(two_d).tolist() == [1.0, 5.0]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 6),
    st.lists(st.floats(-1e300, 1e300, allow_nan=False), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_median_equals_numpy_median(n, d, pool, seed, data):
    """Odd and even N, ties drawn from a small pool that always holds +0.0,
    -0.0 and random normals. The values equal np.median's; only where +0.0
    and -0.0 tie at the middle may the sign of a zero differ, because
    np.median partitions instead of sorting."""
    pool = pool + [0.0, -0.0] + np.random.default_rng(seed).standard_normal(6).tolist()
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n * d, max_size=n * d))
    vectors = np.array([pool[i] for i in picks]).reshape(n, d)
    got = coordinate_median(GradientSet(vectors))
    want = np.median(vectors, axis=0)
    assert np.array_equal(got, want)
    differ = got.view(np.int64) != want.view(np.int64)
    assert np.all(got[differ] == 0.0)


def test_trimmed_mean_examples():
    assert trimmed_mean(GradientSet(SCALARS), 1).tolist() == [2.0]
    constant = GradientSet(np.tile(np.array([7.0]), (5, 1)))
    assert trimmed_mean(constant, 2).tolist() == [7.0]
    with pytest.raises(ValueError):
        trimmed_mean(GradientSet(SCALARS), 3)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_trimmed_q0_equals_average_exactly(seed):
    _, vectors = random_instance(seed)
    g = GradientSet(vectors)
    assert np.array_equal(trimmed_mean(g, 0), average(g))


def test_geomed_worked_example():
    g = GradientSet(np.array([[0.0], [0.0], [3.0]]))
    out = geometric_median(g, nu=0.1, rounds=3)
    assert out == pytest.approx(np.array([3.0 / 17.0]), abs=1e-12)
    # iterate trace from the recurrence: 1 -> 0.6 -> 1/3 -> 3/17
    assert geometric_median(g, 0.1, 1) == pytest.approx(np.array([0.6]), abs=1e-12)
    assert geometric_median(g, 0.1, 2) == pytest.approx(np.array([1.0 / 3.0]), abs=1e-12)


def test_geomed_fixed_point_and_segment():
    v = np.array([1.0, -2.0])
    identical = GradientSet(np.tile(v, (4, 1)))
    assert np.allclose(geometric_median(identical, 0.1, 5), v)
    a, b = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    out = geometric_median(GradientSet(np.stack([a, b])), 0.1, 4)
    t = out[0]
    assert np.allclose(out, a + t * (b - a)) and -1e-12 <= t <= 1 + 1e-12


def test_krum_worked_example():
    # closest scores tie between the two central clients; lower index wins
    assert krum(GradientSet(SCALARS), 1).tolist() == [1.0]


def test_krum_selects_an_input_and_all_tie_case():
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal((6, 3))
    out = krum(GradientSet(vectors), 2)
    assert any(np.array_equal(out, v) for v in vectors)
    constant = GradientSet(np.tile(np.array([4.0, 4.0]), (5, 1)))
    assert krum(constant, 1).tolist() == [4.0, 4.0]
    with pytest.raises(ValueError):
        krum(GradientSet(SCALARS), 3)


def test_cclip_worked_example():
    g = GradientSet(np.array([[30.0]]))
    out = centered_clip(g, None, tau=10.0, iters=3)
    assert out.tolist() == [30.0]


def test_cclip_inactive_clipping_is_average():
    rng = np.random.default_rng(1)
    vectors = rng.uniform(-1, 1, size=(5, 3))
    out = centered_clip(GradientSet(vectors), AggregatorState(np.zeros(3)), tau=10.0, iters=1)
    assert np.allclose(out, vectors.mean(axis=0), atol=1e-12)


def test_cclip_fixed_point_at_center():
    center = np.array([2.0, -1.0])
    g = GradientSet(np.tile(center, (4, 1)))
    out = centered_clip(g, AggregatorState(center.copy()), tau=5.0, iters=3)
    assert np.array_equal(out, center)


def test_nnm_worked_example():
    g = GradientSet(np.array([[0.0], [1.0], [5.0]]))
    assert nnm_mix(g, 1).vectors.tolist() == [[0.5], [0.5], [3.0]]


def test_nnm_constant_idempotent_and_equivariant():
    v = np.array([3.0, 3.0])
    constant = GradientSet(np.tile(v, (4, 1)))
    assert np.allclose(nnm_mix(constant, 1).vectors, constant.vectors)
    rng = np.random.default_rng(2)
    vectors = rng.standard_normal((6, 2))
    perm = rng.permutation(6)
    base = nnm_mix(GradientSet(vectors.copy()), 2).vectors
    permuted = nnm_mix(GradientSet(vectors[perm]), 2).vectors
    assert np.allclose(base[perm], permuted)


@pytest.mark.parametrize("dim", [4, 20_000])  # a gathered mix and a wide, in-place one
@pytest.mark.parametrize("kind", [k for k in AGGREGATOR_KINDS if k != "average"])
def test_nnm_overflow_names_the_mix_not_a_client(dim, kind):
    """Every row is finite, but the N - f = 7 entries of 1e308 that each mixed
    row sums in column 0 overflow. That is a degenerate round, not a
    malformed set: the error names the mixed row, not client 0, and no
    overflow warning comes before it."""
    vectors = np.random.default_rng(4).standard_normal((10, dim))
    vectors[:, 0] = 1e308
    g = GradientSet(vectors)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(
            DegenerateRoundError, match="nearest-neighbor mixing overflowed in mixed row 0"
        ) as err:
            Aggregator(AggregatorSpec(kind, nnm_enabled=True), 10, 3)(g)
    assert err.value.scores is None


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rules_match_oracles(seed):
    rng, vectors = random_instance(seed)
    n = vectors.shape[0]
    f = int(rng.integers(1, (n - 1) // 2 + 1))
    g = GradientSet(vectors.copy())
    assert np.allclose(coordinate_median(g), ref_median(vectors), atol=1e-10)
    assert np.allclose(trimmed_mean(g, f), ref_trimmed_mean(vectors, f), atol=1e-10)
    assert np.allclose(
        geometric_median(g, 0.1, 3), ref_geometric_median(vectors, 0.1, 3), atol=1e-10
    )
    if n >= f + 3:
        assert np.allclose(krum(g, f), ref_krum(vectors, f), atol=1e-10)
    center = rng.standard_normal(vectors.shape[1])
    assert np.allclose(
        centered_clip(g, AggregatorState(center.copy()), 10.0, 3),
        ref_centered_clip(vectors, center, 10.0, 3),
        atol=1e-10,
    )
    assert np.allclose(nnm_mix(g, f).vectors, np.stack(ref_nnm(vectors, f)), atol=1e-10)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_outputs_in_bounding_box(seed):
    rng, vectors = random_instance(seed)
    n = vectors.shape[0]
    f = int(rng.integers(1, (n - 1) // 2 + 1))
    g = GradientSet(vectors)
    lo, hi = vectors.min(axis=0) - 1e-12, vectors.max(axis=0) + 1e-12
    for out in (
        coordinate_median(g),
        trimmed_mean(g, f),
        geometric_median(g, 0.1, 3),
        centered_clip(g, AggregatorState(vectors.mean(axis=0)), 10.0, 3),
    ):
        assert np.all(out >= lo) and np.all(out <= hi)
    mixed = nnm_mix(g, f).vectors
    assert np.all(mixed >= lo) and np.all(mixed <= hi)


def test_spec_validation():
    with pytest.raises(ValueError):
        AggregatorSpec(kind="bogus")
    spec = AggregatorSpec(kind="trimmed_mean")
    with pytest.raises(ValueError):
        Aggregator(spec, n_clients=10, n_byzantine=5)
    with pytest.raises(ValueError, match="expected 10 updates, got 9"):
        Aggregator(AggregatorSpec(), n_clients=10, n_byzantine=3)(GradientSet(np.zeros((9, 2))))
    assert AggregatorSpec(kind="median", nnm_enabled=True).label() == "nnm+median"


def test_defaults_are_standard():
    assert (WEISZFELD_NU, WEISZFELD_ROUNDS) == (0.1, 3)
    assert (CLIP_TAU, CLIP_ITERS) == (10.0, 3)
    g = GradientSet(np.random.default_rng(5).standard_normal((10, 4)))
    trimmed = Aggregator(AggregatorSpec(kind="trimmed_mean"), 10, 3)(g).vector
    assert np.array_equal(trimmed, trimmed_mean(g, 3))  # trims f per side


# Per count condition: the spec, the direct rule call, (N, f) on the boundary,
# (N, f) one step past it, and the message both calls raise there.
COUNT_BOUNDARIES = {
    "trimmed_mean": (AggregatorSpec("trimmed_mean"), trimmed_mean, (7, 3), (6, 3),
                     "trim count q=3 leaves no values out of N=6"),
    "krum": (AggregatorSpec("krum"), krum, (6, 3), (5, 3), "krum needs N >= f + 3, got N=5, f=3"),
    "nnm": (AggregatorSpec("average", nnm_enabled=True), nnm_mix, (4, 3), (3, 3),
            "mixing needs N - f >= 1, got N=3, f=3"),
    "prodigy": (AggregatorSpec("prodigy"), prodigy_aggregate, (7, 3), (6, 3),
                "adversarial model requires f < N/2, got N=6, f=3"),
    "prodigy-f": (AggregatorSpec("prodigy"), prodigy_aggregate, (5, 1), (5, 0),
                  "need at least one presumed byzantine client, got f=0"),
}


@pytest.mark.parametrize("case", COUNT_BOUNDARIES)
def test_count_check_is_shared_by_aggregator_and_rule(case):
    spec, rule, (n, f), (bad_n, bad_f), message = COUNT_BOUNDARIES[case]
    vectors = np.random.default_rng(6).standard_normal((n, 3))
    Aggregator(spec, n, f)
    rule(GradientSet(vectors), f)
    with pytest.raises(ValueError) as at_init:
        Aggregator(spec, bad_n, bad_f)
    with pytest.raises(ValueError) as at_call:
        rule(GradientSet(vectors[:bad_n]), bad_f)
    assert str(at_init.value) == str(at_call.value) == message


OVERFLOWING_SETS = ["all rows 1e200", "all rows 1e307", "one row 1e160"]


def overflowing_set(scaled: str) -> np.ndarray:
    """An N=10, d=50 Gaussian set whose squared distances overflow."""
    vectors = np.random.default_rng(0).standard_normal((10, 50))
    if scaled == "one row 1e160":
        vectors[0] *= 1e160
    else:
        vectors *= float(scaled.split()[-1])
    return vectors


def assert_inside_bounding_box(out: np.ndarray, vectors: np.ndarray) -> None:
    assert np.isfinite(out).all()
    lo, hi = vectors.min(axis=0), vectors.max(axis=0)
    slack = 1e-12 * (hi - lo)
    assert np.all(out >= lo - slack) and np.all(out <= hi + slack)


@pytest.mark.parametrize("scaled", OVERFLOWING_SETS)
@pytest.mark.parametrize("nnm", [False, True])
def test_geomed_stays_finite_when_residual_norms_overflow(scaled, nnm):
    """The squares of the residuals overflow; the aggregate must not."""
    vectors = overflowing_set(scaled)
    out = Aggregator(AggregatorSpec("geomed", nnm_enabled=nnm), 10, 3)(GradientSet(vectors)).vector
    assert_inside_bounding_box(out, vectors)


@pytest.mark.parametrize("scaled", OVERFLOWING_SETS)
def test_prodigy_stays_finite_when_its_scores_overflow(scaled):
    """Distances and neighbourhood moments overflow, so the plain scores are
    NaN; prodigy scores the set divided by a power of two instead. Scaling
    every row filters the clients the unscaled set filters, and the row
    scaled alone, far from every other, is filtered."""
    vectors = overflowing_set(scaled)
    out, trust = prodigy_aggregate(GradientSet(vectors), 3)
    assert_inside_bounding_box(out, vectors)
    assert np.isfinite(trust.composite).all()
    filtered = np.flatnonzero(trust.final == 0.0)
    if scaled == "one row 1e160":
        assert 0 in filtered
    else:
        _, unscaled = prodigy_aggregate(GradientSet(overflowing_set("all rows 1")), 3)
        assert np.array_equal(filtered, np.flatnonzero(unscaled.final == 0.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["median", "trimmed_mean", "geomed", "krum", "cclip", "prodigy"]))
def test_nnm_composition_is_a_valid_aggregator(seed, kind):
    rng = np.random.default_rng(seed)
    n, f = 8, 2
    vectors = rng.standard_normal((n, 4))
    g = GradientSet(vectors.copy())
    plain = Aggregator(AggregatorSpec(kind=kind), n, f)
    composed = Aggregator(AggregatorSpec(kind=kind, nnm_enabled=True), n, f)
    state = AggregatorState(np.zeros(4))
    out = composed(g, state).vector
    assert out.shape == (4,)
    # composition equals running the plain rule on the mixed set
    expected = plain(nnm_mix(GradientSet(vectors.copy()), f), state).vector
    assert np.allclose(out, expected, atol=1e-12)


def test_cclip_warm_start_uses_state():
    g = GradientSet(np.array([[30.0]]))
    agg = Aggregator(AggregatorSpec(kind="cclip"), 1, 0)
    first = agg(g, AggregatorState()).vector
    assert first.tolist() == [30.0]
    resumed = agg(g, AggregatorState(prev_aggregate=np.array([30.0]))).vector
    assert resumed.tolist() == [30.0]


def test_a_non_finite_aggregate_is_a_degenerate_round(monkeypatch):
    """The error carries the rule's trust scores, as a round whose scores all
    reached zero does."""
    g = GradientSet(np.random.default_rng(4).standard_normal((10, 5)))
    expected = prodigy_aggregate(g, 3)[1]

    def nan_vector(g, f):
        vector, trust = prodigy_aggregate(g, f)
        vector[2] = np.nan
        return vector, trust

    monkeypatch.setattr(aggregators, "prodigy_aggregate", nan_vector)
    with pytest.raises(DegenerateRoundError, match="^non-finite aggregate$") as err:
        Aggregator(AggregatorSpec("prodigy"), 10, 3)(g)
    assert np.array_equal(err.value.scores.final, expected.final)
    assert np.array_equal(err.value.scores.composite, expected.composite)
