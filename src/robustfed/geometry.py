"""Vector-set geometry shared by all aggregation rules.

Pairwise squared Euclidean distances, per-client neighbor orderings,
mean/spread statistics of vector sets, and blocked gathers of each client's
nearest neighborhood. Everything here is a pure function of its inputs and
runs in 64-bit floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Byte cap on one neighborhood gather. It holds every N=10 grid neighborhood
# in one or two blocks. At N=100, d=10 000 a 16 MiB cap was slower and
# raised peak memory by 25 MB.
GATHER_BYTES = 1 << 20


@dataclass
class GradientSet:
    """N client update vectors of dimension d, in client-id order.

    ``distances`` optionally supplies the set's pairwise squared distances,
    which must equal ``pairwise_sq_distances`` of this set bit for bit; rules
    read them through ``distances_of``. The attack search's candidate sets
    supply them, so that rules without distances do not pay for them.
    """

    vectors: np.ndarray
    client_ids: np.ndarray | None = None
    distances: Callable[[], DistanceMatrix] | None = None

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D (N, d), got shape {self.vectors.shape}")
        n, d = self.vectors.shape
        if n < 1 or d < 1:
            raise ValueError(f"need N >= 1 and d >= 1, got N={n}, d={d}")
        if self.client_ids is None:
            self.client_ids = np.arange(n)
        else:
            self.client_ids = np.asarray(self.client_ids, dtype=np.int64)
        if self.client_ids.shape != (n,):
            raise ValueError("client_ids must have one entry per vector")
        if len(set(self.client_ids.tolist())) != n:
            raise ValueError("client_ids must be distinct")
        finite_rows = np.isfinite(self.vectors).all(axis=1)
        if not finite_rows.all():
            bad = int(self.client_ids[int(np.argmin(finite_rows))])
            raise ValueError(f"non-finite update component from client {bad}")

    @property
    def n_clients(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass
class DistanceMatrix:
    """Symmetric N x N matrix of pairwise squared Euclidean distances."""

    entries: np.ndarray

    @property
    def n_clients(self) -> int:
        return self.entries.shape[0]


@dataclass
class NeighborOrder:
    """Per client, the other clients sorted by ascending squared distance.

    ``indices[k]`` holds positional indices into the originating GradientSet;
    ties are broken by ascending index so the ordering is deterministic.
    """

    indices: np.ndarray    # (N, N-1) int
    distances: np.ndarray  # (N, N-1) float, ascending per row

    @property
    def n_clients(self) -> int:
        return self.indices.shape[0]


@dataclass
class VectorSetStats:
    """Mean vector and root-mean-square distance to it (population form).

    Batched sets carry one mean row and one spread per set.
    """

    mean: np.ndarray
    spread: float | np.ndarray


def pairwise_sq_distances(g: GradientSet) -> DistanceMatrix:
    """Squared Euclidean distance between every pair of client updates.

    Computed as sum_i (a_i - b_i)^2 rather than ||a||^2 + ||b||^2 - 2ab,
    which loses precision catastrophically on near-identical updates.

    Only the upper triangle is computed; row k of it is mirrored into column
    k. The mirror is exact because a - b is exactly -(b - a) in floating
    point, so both differences square to the same value. Row k reduces over
    ``vectors[k:]``, which keeps the zero self row: a one-row einsum takes a
    different summation path and can change the last bit of a distance.
    """
    n = g.n_clients
    out = np.empty((n, n), dtype=np.float64)
    diff = np.empty_like(g.vectors)
    for k in range(n):
        rows = diff[: n - k]
        np.subtract(g.vectors[k:], g.vectors[k], out=rows)
        out[k, k:] = out[k:, k] = np.einsum("ij,ij->i", rows, rows)
    return DistanceMatrix(out)


def distances_of(g: GradientSet) -> DistanceMatrix:
    """The distances ``g`` supplies, else ``pairwise_sq_distances(g)``."""
    return g.distances() if g.distances is not None else pairwise_sq_distances(g)


def neighbor_order(m: DistanceMatrix) -> NeighborOrder:
    """Sort each client's peers by ascending squared distance, ties by index."""
    masked = m.entries.copy()
    np.fill_diagonal(masked, -np.inf)  # every client sorts itself first, then drops out
    indices = np.argsort(masked, axis=1, kind="stable")[:, 1:]  # stable: ties by index
    return NeighborOrder(indices=indices, distances=np.take_along_axis(m.entries, indices, axis=1))


def vector_set_stats(subset: np.ndarray) -> VectorSetStats:
    """Mean and population RMS spread of a nonempty set of equal-length vectors.

    A 2-D ``(m, d)`` set gives a ``(d,)`` mean and a float spread. A 3-D
    ``(B, m, d)`` batch of sets gives ``(B, d)`` means and ``(B,)`` spreads,
    each bit-identical to the 2-D call on that set.
    """
    arr = np.asarray(subset, dtype=np.float64)
    if arr.ndim not in (2, 3) or 0 in arr.shape[:-1]:
        raise ValueError("subset must be a nonempty 2-D set or 3-D batch of sets of vectors")
    mean = arr.mean(axis=-2)
    diff = arr - mean[..., None, :]
    spread = np.sqrt(np.einsum("...ij,...ij->...i", diff, diff).mean(axis=-1))
    return VectorSetStats(mean=mean, spread=float(spread) if arr.ndim == 2 else spread)


def neighborhood_blocks(g: GradientSet, order: NeighborOrder, size: int):
    """Each client's self-inclusive nearest neighborhood of ``size`` members.

    Yields ``(rows, block)`` where ``block[i]`` holds the vectors of client
    ``rows.start + i`` and its ``size - 1`` nearest peers, in rank order, as a
    ``(B, size, d)`` gather. B is chosen so that one block stays within
    GATHER_BYTES; at N=100, d=10 000 that is one client per block.

    A reduction over the member axis of a block sums each neighborhood in
    the same order as the same reduction on that neighborhood alone: row by
    row, or pairwise when d = 1 makes the member axis contiguous. Adding
    neighbors rank by rank into one (N, d) array would match only the first.
    """
    n = g.n_clients
    members = np.column_stack((np.arange(n), order.indices[:, : size - 1]))
    step = max(1, GATHER_BYTES // (size * g.dim * g.vectors.itemsize))
    for lo in range(0, n, step):
        yield slice(lo, lo + step), g.vectors[members[lo : lo + step]]
