import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustfed.datasim import (
    LabeledDataset,
    PartitionSpec,
    flip_labels,
    generate_blobs,
    partition,
)


def ref_nearest_centroid_accuracy(train, test) -> float:
    """Centroid classifier accuracy: the independent bound for blob sanity checks."""
    centroids = np.stack(
        [train.features[train.labels == c].mean(axis=0) for c in range(train.n_classes)]
    )
    predictions = []
    for x in test.features:
        dists = [float(np.dot(x - c, x - c)) for c in centroids]
        predictions.append(int(np.argmin(dists)))
    return float(np.mean(np.asarray(predictions) == test.labels))


def test_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 3)), np.array([0, 5]), n_classes=3)
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((0, 3)), np.array([]), n_classes=2)


def test_blobs_deterministic_in_seed():
    a = generate_blobs(3, 5, 10, 2.0, seed=42)
    b = generate_blobs(3, 5, 10, 2.0, seed=42)
    c = generate_blobs(3, 5, 10, 2.0, seed=43)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)


def test_blobs_reject_small_dim():
    with pytest.raises(ValueError):
        generate_blobs(5, 4, 10, 2.0, seed=0)


def test_blobs_separation_six_centroid_accuracy():
    train = generate_blobs(3, 10, 200, 6.0, seed=1)
    test = generate_blobs(3, 10, 100, 6.0, seed=2)
    assert ref_nearest_centroid_accuracy(train, test) > 0.95


def test_blobs_zero_separation_is_chance_level():
    train = generate_blobs(4, 8, 300, 0.0, seed=3)
    test = generate_blobs(4, 8, 300, 0.0, seed=4)
    accuracy = ref_nearest_centroid_accuracy(train, test)
    assert abs(accuracy - 0.25) < 0.1


def _as_multiset(data: LabeledDataset):
    combined = np.column_stack([data.features, data.labels.astype(float)])
    return combined[np.lexsort(combined.T)]


def _union_equals(shards, data) -> bool:
    stacked = LabeledDataset(
        np.vstack([s.features for s in shards]),
        np.concatenate([s.labels for s in shards]),
        data.n_classes,
    )
    return np.array_equal(_as_multiset(stacked), _as_multiset(data))


def test_iid_partition_exact_split():
    data = generate_blobs(4, 6, 25, 2.0, seed=7)  # 100 samples over 10 clients
    shards = partition(data, PartitionSpec("iid", 10, min_shard=1), seed=9)
    assert [s.n_samples for s in shards] == [10] * 10
    assert _union_equals(shards, data)


def test_iid_partition_near_equal():
    data = generate_blobs(2, 4, 11, 2.0, seed=7)  # 22 samples over 4 clients
    shards = partition(data, PartitionSpec("iid", 4, min_shard=1), seed=9)
    assert sorted(s.n_samples for s in shards) == [5, 5, 6, 6]


def test_iid_partition_min_shard_guard():
    data = generate_blobs(2, 4, 10, 2.0, seed=7)
    with pytest.raises(ValueError, match="min_shard"):
        partition(data, PartitionSpec("iid", 4, min_shard=10), seed=9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["iid", "dirichlet"]))
def test_partition_union_and_disjointness(seed, kind):
    data = generate_blobs(4, 6, 30, 2.0, seed=11)
    shards = partition(data, PartitionSpec(kind, 5, alpha=0.5, min_shard=1), seed=seed)
    assert len(shards) == 5
    assert sum(s.n_samples for s in shards) == data.n_samples
    assert _union_equals(shards, data)


def test_partition_deterministic():
    data = generate_blobs(3, 6, 40, 2.0, seed=0)
    spec = PartitionSpec("dirichlet", 6, alpha=0.2, min_shard=1)
    a = partition(data, spec, seed=5)
    b = partition(data, spec, seed=5)
    for x, y in zip(a, b):
        assert np.array_equal(x.features, y.features)
        assert np.array_equal(x.labels, y.labels)


def test_dirichlet_high_alpha_near_uniform():
    data = generate_blobs(4, 6, 250, 2.0, seed=13)  # 1000 samples
    proportions = []
    for draw in range(20):
        shards = partition(data, PartitionSpec("dirichlet", 5, alpha=1000.0, min_shard=1), seed=draw)
        proportions.append([s.n_samples / data.n_samples for s in shards])
    mean_props = np.mean(proportions, axis=0)
    assert np.max(np.abs(mean_props - 0.2)) < 0.02


def test_dirichlet_low_alpha_skews_labels():
    data = generate_blobs(10, 12, 100, 2.0, seed=17)
    entropies = []
    for draw in range(30):
        shards = partition(data, PartitionSpec("dirichlet", 10, alpha=0.1, min_shard=1), seed=draw)
        for s in shards:
            hist = s.label_histogram().astype(float)
            p = hist[hist > 0] / hist.sum()
            entropies.append(float(-(p * np.log(p)).sum()))
    assert np.mean(entropies) < 0.6 * np.log(10)


def test_dirichlet_exhausted_retries_names_shard():
    data = generate_blobs(2, 4, 20, 2.0, seed=19)  # 40 samples
    spec = PartitionSpec("dirichlet", 8, alpha=0.05, min_shard=5)
    with pytest.raises(ValueError, match=r"client \d+ received"):
        partition(data, spec, seed=3)


def test_flip_labels_examples():
    ten = LabeledDataset(np.zeros((1, 2)), np.array([3]), n_classes=10)
    assert flip_labels(ten).labels.tolist() == [6]
    femnist_like = LabeledDataset(np.zeros((1, 2)), np.array([0]), n_classes=62)
    assert flip_labels(femnist_like).labels.tolist() == [61]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 20), st.integers(0, 2**32 - 1))
def test_flip_is_involution(n_classes, seed):
    rng = np.random.default_rng(seed)
    data = LabeledDataset(
        rng.standard_normal((15, 3)), rng.integers(0, n_classes, 15), n_classes
    )
    twice = flip_labels(flip_labels(data))
    assert np.array_equal(twice.labels, data.labels)
    assert np.array_equal(twice.features, data.features)
