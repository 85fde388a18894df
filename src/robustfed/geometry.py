"""Vector-set geometry shared by all aggregation rules.

Pairwise squared Euclidean distances, per-client neighbor orderings,
mean/spread statistics of vector sets, blocked gathers of each client's
nearest neighborhood, and the copy groups whose neighborhood results wide
sets compute once. Everything here is a pure function of its inputs and
runs in 64-bit floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Byte cap on one neighborhood gather. It holds every N=10 grid neighborhood
# in one or two blocks. At N=100, d=10 000 a 16 MiB cap was slower and
# raised peak memory by 25 MB.
#
# It also sizes the tiles of the distance sweep (``tile_rows``): a tile of
# anchors, a tile of rows and the difference buffer fit in it together. An
# N=10 grid set is one tile and sweeps as it did unblocked. At N=100,
# d=10 000 a tile is 4 rows; the unblocked sweep wrote up to 8 MB of
# differences per anchor, out of L2, and read them back. There 4-row tiles
# took 59 ms per call, 13-row tiles 63 ms and the unblocked sweep 78 ms
# (87, 93 and 113 ms without copies; 2-CPU Xeon, 2 MiB L2 per core).
#
# It also sizes the tiles in which the rules reduce a wide set (``row_tiles``,
# ``column_tiles``), so that no rule builds a temporary as large as the set:
# at N=100, d=10 000 one such copy is 7.6 MiB. An N=10 grid set is one tile of
# rows (21) and of columns (4 369): its one tile buffer is the size of the
# copy the whole-set expressions made, and cclip and prodigy's weighted sum
# run those expressions on it (``add_rows`` cannot sum a d = 1 set as numpy
# does).
#
# It is also the size above which a set with d > 1 is wide (``wide_set``):
# its neighborhood kernels mix in place and compute copy groups once. Below
# it each path wins a workload: at N=10, d=1994 the wide path made the
# omniscient grid 5 % faster and the local grid's aggregator calls 7 %
# slower, because without nnm_mix's gathers glibc trims and regrows the heap
# around prodigy's (N, f, d) gathers (2-CPU Xeon, BENCH_8.json
# ``path_choice``). d = 1 is never wide: numpy sums a contiguous member axis
# pairwise, an order that in-place adds cannot reproduce.
GATHER_BYTES = 1 << 20


@dataclass
class GradientSet:
    """N client update vectors of dimension d, one row per client.

    A round set holds the f byzantine clients in rows 0..f-1 and the
    honest clients after them, in id order. Byzantine roles go to the
    lowest ids, so row k is client k. The rules are permutation-equivariant
    up to ties, which break by row index, so the layout is one fixed
    convention. A non-finite component is an error naming its row as the
    client (``check_finite``).

    ``distances`` optionally supplies the set's (N, N) pairwise squared
    distances, which must equal ``pairwise_sq_distances`` of this set bit for
    bit; rules read them through ``distances_of``. The attack search's
    candidate sets supply them (``attacks._CandidateSets``), so that rules
    without distances do not pay for them; what the search hands on is
    stated in ``Aggregator.__call__``.
    """

    vectors: np.ndarray
    distances: Callable[[], np.ndarray] | None = None

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D (N, d), got shape {self.vectors.shape}")
        n, d = self.vectors.shape
        if n < 1 or d < 1:
            raise ValueError(f"need N >= 1 and d >= 1, got N={n}, d={d}")
        check_finite(self.vectors)

    @property
    def n_clients(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def check_finite(vectors: np.ndarray, first_client: int = 0) -> None:
    """Raise a ValueError naming the client of the first row with a
    non-finite component; row k is client ``first_client + k``."""
    finite_rows = np.isfinite(vectors).all(axis=1)
    if not finite_rows.all():
        bad = first_client + int(np.argmin(finite_rows))
        raise ValueError(f"non-finite update component from client {bad}")


def pairwise_sq_distances(g: GradientSet) -> np.ndarray:
    """The symmetric (N, N) squared Euclidean distances between client updates.

    Computed as sum_i (a_i - b_i)^2 rather than ||a||^2 + ||b||^2 - 2ab,
    which loses precision catastrophically on near-identical updates.

    Only the upper triangle is computed, and each sweep mirrors its entries
    into the lower one. The mirror is exact because a - b is exactly -(b - a)
    in floating point, so both differences square to the same value.

    The sweep is cache-blocked. Rows are cut into tiles of ``tile_rows(g)``
    rows. A tile of anchors k sweeps every tile of rows j >= k in turn; per
    anchor it subtracts into one reused tile-sized buffer and reduces that.
    A grid set at N=10 is one tile, so each anchor sweeps ``vectors[k:]``.

    einsum reduces each row of a sweep of two or more rows in the same
    order, whatever the number of rows, but a one-row sweep takes another
    summation path and can change the last bit. So a sweep that would hold
    one row takes the row before it too, which recomputes an entry already
    written with the same bits. The only one-row sweep left is the last
    anchor's zero self distance.

    On a wide set, a row equal to an earlier row takes that row's entries
    and sweeps nothing. They are the entries its sweep would give: the same
    differences, up to the sign of zeros, squared. A tile of anchors runs
    before the later anchors are swept, so copies are found up front
    (``equal_rows``) rather than from zero distances: a tiny difference
    squares to 0 as well.
    """
    n = g.n_clients
    vectors = g.vectors
    out = np.empty((n, n), dtype=np.float64)
    source = equal_rows(vectors).tolist() if wide_set(g) else range(n)
    tile = tile_rows(g)
    diff = np.empty((min(tile, n), g.dim))
    for a0 in range(0, n, tile):
        anchors = [k for k in range(a0, min(a0 + tile, n)) if source[k] == k]
        for j0 in range(a0, n, tile):
            j1 = min(j0 + tile, n)
            for k in anchors:
                lo = max(j0, k)
                if j1 - lo == 1 and k < n - 1:
                    lo -= 1
                rows = diff[: j1 - lo]
                np.subtract(vectors[lo:j1], vectors[k], out=rows)
                out[k, lo:j1] = out[lo:j1, k] = np.einsum("ij,ij->i", rows, rows)
    for k, first in enumerate(source):
        if first != k:
            out[k, k:] = out[k:, k] = out[first, k:]
    return out


def tile_rows(g: GradientSet) -> int:
    """Rows per tile of the distance sweep: three tiles fit in GATHER_BYTES,
    and a tile holds at least 2 rows (see GATHER_BYTES)."""
    return max(2, GATHER_BYTES // (3 * g.dim * g.vectors.itemsize))


def row_tiles(g: GradientSet) -> list[slice]:
    """The slices of ``tile_rows(g)`` rows, in order, in which the rules
    reduce ``g`` row by row; the last may hold one row.

    A set with d = 1 is one tile whatever its N: numpy sums its contiguous
    axis 0 pairwise, an order that adding the rows of tiles one after
    another (``add_rows``) cannot reproduce.
    """
    n, tile = g.n_clients, tile_rows(g)
    if n <= tile or g.dim == 1:
        return [slice(0, n)]
    return [slice(lo, min(lo + tile, n)) for lo in range(0, n, tile)]


def tile_columns(g: GradientSet) -> int:
    """Columns per tile of the rules' column sorts: three (N, columns) tiles
    fit in GATHER_BYTES, and a tile holds at least 2 columns."""
    return max(2, GATHER_BYTES // (3 * g.n_clients * g.vectors.itemsize))


def column_tiles(g: GradientSet) -> list[slice]:
    """The slices of ``tile_columns(g)`` columns, in order, in which the rules
    sort and reduce ``g`` column by column.

    No slice holds one column of a set with d > 1: there a last slice takes
    the column before it too, which recomputes that column with the same
    bits. numpy sums an (m, 1) slice along axis 0 pairwise, and an (m, w > 1)
    one row after row, as it sums the whole set.
    """
    d, tile = g.dim, tile_columns(g)
    if d <= tile:
        return [slice(0, d)]
    tiles = [slice(lo, min(lo + tile, d)) for lo in range(0, d, tile)]
    if tiles[-1].stop - tiles[-1].start == 1:
        tiles[-1] = slice(d - 2, d)
    return tiles


def add_rows(total: np.ndarray, rows: np.ndarray) -> None:
    """Add ``rows`` into ``total`` one after another, in place.

    From a ``total`` of +0.0 this is numpy's axis-0 sum of a C-ordered
    (N, d > 1) set, which starts from +0.0 and adds row after row. Carried
    from tile to tile, it sums a set in tiles with the bits of the whole-set
    sum; summing each tile and then adding the tile sums would not.
    """
    for row in rows:
        np.add(total, row, out=total)


def equal_rows(vectors: np.ndarray) -> np.ndarray:
    """Per row, the lowest index of a row equal to it (itself if none).

    Equal means ``==`` in every coordinate, so rows that differ only in the
    sign of a zero are equal. Equal rows have equal sums (a NaN sum counts
    as inf), so rows are sorted by sum and each run of equal sums is then
    confirmed with ``==``. The sort is the stable one neighbor_order uses:
    numpy's default sort would page in code of its own.
    """
    source = np.arange(len(vectors))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing sum still groups
        sums = np.nan_to_num(vectors.sum(axis=1), nan=np.inf)
    order = np.argsort(sums, kind="stable")  # stable: each run ascends by index
    ranked = sums[order]
    for members in np.split(order, np.flatnonzero(ranked[1:] != ranked[:-1]) + 1):
        while len(members) > 1:
            first, rest = members[0], members[1:]
            same = (vectors[rest] == vectors[first]).all(axis=1)
            source[rest[same]] = first
            members = rest[~same]
    return source


def distances_of(g: GradientSet) -> np.ndarray:
    """The distances ``g`` supplies, else ``pairwise_sq_distances(g)``."""
    return g.distances() if g.distances is not None else pairwise_sq_distances(g)


def neighbor_order(distances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per client, the other clients sorted by ascending squared distance.

    Returns ``(indices, sorted_distances)``, both (N, N-1): ``indices[k]``
    holds row indices of the other clients, nearest first, ties broken by
    ascending index, and ``sorted_distances[k]`` their squared distances.
    """
    masked = distances.copy()
    np.fill_diagonal(masked, -np.inf)  # every client sorts itself first, then drops out
    indices = np.argsort(masked, axis=1, kind="stable")[:, 1:]  # stable: ties by index
    return indices, np.take_along_axis(distances, indices, axis=1)


def vector_set_stats(subset: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
    """Mean and population RMS spread (root-mean-square distance to the mean)
    of a nonempty set of equal-length vectors.

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
    return mean, float(spread) if arr.ndim == 2 else spread


def wide_set(g: GradientSet) -> bool:
    """Whether the neighborhood kernels take the wide path on ``g``: d > 1
    and more than GATHER_BYTES of vectors (see GATHER_BYTES)."""
    return g.dim > 1 and g.vectors.nbytes > GATHER_BYTES


def copy_sources(g: GradientSet, sorted_distances: np.ndarray) -> np.ndarray:
    """Per client, the lowest-index client whose neighborhood results it takes;
    ``sorted_distances`` are ``neighbor_order``'s.

    A copy group shares when its rows are equal (``equal_rows``) and its
    zero-distance peers are exactly its members. Then each member ranks
    itself, the other members by index, and the remaining clients in one
    order, so every member's neighborhood adds the same values in the same
    order. A zero distance alone proposes a copy but does not confirm it: a
    tiny difference squares to 0 by underflow. And a non-copy at distance 0
    whose index lies between two copies takes different ranks in their
    neighborhoods, so such a group is computed row by row. Rows equal up to
    the sign of a zero count as copies: no neighborhood kernel's result
    depends on that sign.

    Copies are at distance 0, so only rows with a zero distance are grouped.
    """
    source = np.arange(g.n_clients)
    zeros = (sorted_distances == 0.0).sum(axis=1)
    rows = np.flatnonzero(zeros)
    first = rows[equal_rows(g.vectors[rows])]
    members = np.bincount(first, minlength=g.n_clients)[first]
    share = zeros[first] == members - 1
    source[rows[share]] = first[share]
    return source


def neighborhood_blocks(g: GradientSet, indices: np.ndarray, size: int, clients: np.ndarray):
    """The self-inclusive nearest neighborhoods of ``size`` members of
    ``clients``, from ``neighbor_order``'s ``indices``.

    Yields ``(rows, block)`` where ``block[i]`` holds the vectors of client
    ``rows[i]`` and its ``size - 1`` nearest peers, in rank order, as a
    ``(B, size, d)`` gather. B is chosen so that one block stays within
    GATHER_BYTES; at N=100, d=10 000 that is one client per block.

    A reduction over the member axis of a block sums each neighborhood in
    the same order as the same reduction on that neighborhood alone: row by
    row, or pairwise when d = 1 makes the member axis contiguous. Adding
    neighbors rank by rank into one row matches only the first, which is why
    a wide set (``wide_set``) may mix in place and d = 1 never counts as wide.
    """
    members = np.column_stack((clients, indices[clients, : size - 1]))
    step = max(1, GATHER_BYTES // (size * g.dim * g.vectors.itemsize))
    for lo in range(0, len(clients), step):
        yield clients[lo : lo + step], g.vectors[members[lo : lo + step]]
