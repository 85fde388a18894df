"""Synthetic labeled data and client partitioning.

Gaussian blob datasets stand in for real image corpora at desk scale; shards
are cut either IID or with Dirichlet label skew. All randomness flows through
explicit seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import derived_rng

PARTITION_KINDS = ("iid", "dirichlet")

_MAX_PARTITION_ATTEMPTS = 100


@dataclass
class LabeledDataset:
    """Feature matrix (M, p) with integer labels in [0, n_classes)."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be 2-D (M, p)")
        m = self.features.shape[0]
        if m < 1:
            raise ValueError("dataset must be nonempty")
        if self.labels.shape != (m,):
            raise ValueError("labels must have one entry per sample")
        if self.n_classes < 1:
            raise ValueError("n_classes must be positive")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise ValueError("labels must lie in [0, n_classes)")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.features[indices], self.labels[indices], self.n_classes)

    def label_histogram(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)


@dataclass(frozen=True)
class PartitionSpec:
    """How to cut a dataset into per-client shards."""

    kind: str
    n_clients: int
    alpha: float = 0.1
    min_shard: int = 1

    def __post_init__(self):
        if self.kind not in PARTITION_KINDS:
            raise ValueError(f"unknown partition kind {self.kind!r}, expected one of {PARTITION_KINDS}")
        if self.n_clients < 1:
            raise ValueError("n_clients must be positive")
        if self.kind == "dirichlet" and self.alpha <= 0:
            raise ValueError("dirichlet concentration alpha must be positive")
        if self.min_shard < 1:
            raise ValueError("min_shard must be at least 1")


def generate_blobs(
    n_classes: int, dim: int, per_class: int, separation: float, seed: int
) -> LabeledDataset:
    """Unit-covariance Gaussian clusters on orthonormal anchor directions.

    Class c is centered at separation * e_c, so dim must cover one basis
    direction per class. separation=0 carries no class signal at all.
    """
    if n_classes < 2:
        raise ValueError("need at least two classes")
    if per_class < 1:
        raise ValueError("per_class must be positive")
    if dim < n_classes:
        raise ValueError(f"dim={dim} too small for {n_classes} orthonormal class anchors")
    rng = derived_rng(seed, "blobs")
    features = rng.standard_normal((n_classes * per_class, dim))
    labels = np.repeat(np.arange(n_classes), per_class)
    for c in range(n_classes):
        features[labels == c, c] += separation
    shuffle = rng.permutation(n_classes * per_class)
    return LabeledDataset(features[shuffle], labels[shuffle], n_classes)


def partition(data: LabeledDataset, spec: PartitionSpec, seed: int) -> list[LabeledDataset]:
    """Cut the dataset into disjoint shards whose union is the input multiset."""
    if spec.kind == "iid":
        return _partition_iid(data, spec, seed)
    return _partition_dirichlet(data, spec, seed)


def _partition_iid(data: LabeledDataset, spec: PartitionSpec, seed: int) -> list[LabeledDataset]:
    if data.n_samples // spec.n_clients < spec.min_shard:
        raise ValueError(
            f"iid split of {data.n_samples} samples over {spec.n_clients} clients "
            f"cannot reach min_shard={spec.min_shard}"
        )
    rng = derived_rng(seed, "partition-iid")
    perm = rng.permutation(data.n_samples)
    return [data.subset(chunk) for chunk in np.array_split(perm, spec.n_clients)]


def _partition_dirichlet(data: LabeledDataset, spec: PartitionSpec, seed: int) -> list[LabeledDataset]:
    """Per class, draw client proportions ~ Dir(alpha) and assign multinomially.

    Splits leaving any shard under min_shard are resampled wholesale with a
    fresh derived seed, up to a bounded number of attempts.
    """
    smallest = -1
    for attempt in range(_MAX_PARTITION_ATTEMPTS):
        rng = derived_rng(seed, "partition-dirichlet", attempt)
        assignments = [[] for _ in range(spec.n_clients)]
        for c in range(data.n_classes):
            class_idx = rng.permutation(np.flatnonzero(data.labels == c))
            if class_idx.size == 0:
                continue
            proportions = rng.dirichlet(np.full(spec.n_clients, spec.alpha))
            counts = rng.multinomial(class_idx.size, proportions)
            offsets = np.concatenate(([0], np.cumsum(counts)))
            for k in range(spec.n_clients):
                assignments[k].append(class_idx[offsets[k] : offsets[k + 1]])
        sizes = [sum(len(a) for a in parts) for parts in assignments]
        smallest = min(sizes)
        if smallest >= spec.min_shard:
            return [data.subset(np.concatenate(parts)) for parts in assignments]
    worst = int(np.argmin([sum(len(a) for a in parts) for parts in assignments]))
    raise ValueError(
        f"dirichlet split failed after {_MAX_PARTITION_ATTEMPTS} attempts: "
        f"client {worst} received {smallest} < min_shard={spec.min_shard} samples "
        f"(alpha={spec.alpha} too skewed for {data.n_samples} samples over {spec.n_clients} clients)"
    )


def flip_labels(data: LabeledDataset) -> LabeledDataset:
    """Map label y to (C-1)-y, leaving features untouched. Self-inverse."""
    return LabeledDataset(data.features.copy(), data.n_classes - 1 - data.labels, data.n_classes)
