"""Comparison aggregation rules behind one common interface.

Average, coordinate-wise median, coordinate-wise trimmed mean, smoothed
Weiszfeld geometric median, Krum, and centered clipping, plus the
nearest-neighbor-mixing pre-aggregation step that can prefix any of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    GradientSet,
    add_rows,
    column_tiles,
    copy_sources,
    distances_of,
    neighbor_order,
    neighborhood_blocks,
    row_tiles,
    wide_set,
)
from .prodigy import DegenerateRoundError, TrustScores, check_prodigy_counts, prodigy_aggregate

# Smoothing floor ν and iterations T of smoothed Weiszfeld (Pillutla et al.,
# "Robust Aggregation for Federated Learning", IEEE TSP 2022).
WEISZFELD_NU = 0.1
WEISZFELD_ROUNDS = 3
# Clipping radius τ and iterations L of centered clipping (Karimireddy et al.,
# "Learning from History for Byzantine Robust Optimization", ICML 2021).
CLIP_TAU = 10.0
CLIP_ITERS = 3


@dataclass
class AggregatorSpec:
    """Which rule to run, and whether nearest-neighbor mixing prefixes it.

    Every rule reads the run's byzantine count f from ``Aggregator``;
    trimmed mean trims f values per side.
    """

    kind: str = "average"
    nnm_enabled: bool = field(default=False, metadata={"json": "nnm"})

    def __post_init__(self):
        if self.kind not in AGGREGATOR_KINDS:
            raise ValueError(f"unknown aggregator kind {self.kind!r}, expected one of {AGGREGATOR_KINDS}")

    def label(self) -> str:
        return ("nnm+" if self.nnm_enabled else "") + self.kind


@dataclass
class AggregatorState:
    """Warm-start carried across rounds; only centered clipping reads it."""

    prev_aggregate: np.ndarray | None = None


@dataclass
class AggregationResult:
    """The aggregate, prodigy's trust scores, and the set the rule ran on
    when the caller asked to keep it (``Aggregator.__call__``)."""

    vector: np.ndarray
    trust: TrustScores | None = None
    ran_on: GradientSet | None = None


def average(g: GradientSet) -> np.ndarray:
    """Arithmetic mean of the client updates."""
    return g.vectors.mean(axis=0)


def coordinate_median(g: GradientSet) -> np.ndarray:
    """Per-coordinate median; even counts use the midpoint of the two middle values.

    One sort per column gives the values ``np.median`` gives, which also
    averages the two middle values as (a + b) / 2, at a fraction of its cost.
    Where +0.0 and -0.0 tie in the middle, the zero may carry the other sign,
    since ``np.median`` partitions instead of sorting.
    """
    mid = g.n_clients // 2
    if g.n_clients % 2:
        return _over_sorted_columns(g, lambda ordered: ordered[mid])
    return _over_sorted_columns(g, lambda ordered: (ordered[mid - 1] + ordered[mid]) / 2)


def _over_sorted_columns(g: GradientSet, reduce) -> np.ndarray:
    """``reduce(np.sort(g.vectors, axis=0))`` for a ``reduce`` that maps an
    (N, w) set of sorted columns to their w values.

    The set is sorted and reduced a tile of columns (``column_tiles``) at a
    time in one reused buffer. Each column sorts on its own, and a reduction
    of a slice of two or more columns gives each column the bits the whole
    set gives it.
    """
    tiles = column_tiles(g)
    out = np.empty(g.dim)
    buffer = np.empty((g.n_clients, tiles[0].stop))
    for cols in tiles:
        ordered = buffer[:, : cols.stop - cols.start]
        np.copyto(ordered, g.vectors[:, cols])
        ordered.sort(axis=0)
        out[cols] = reduce(ordered)
    return out


def check_trim_counts(n: int, q: int) -> None:
    """Trimming q values per side must leave one of the N."""
    if q < 0:
        raise ValueError("trim count must be nonnegative")
    if n - 2 * q < 1:
        raise ValueError(f"trim count q={q} leaves no values out of N={n}")


def trimmed_mean(g: GradientSet, q: int) -> np.ndarray:
    """Per-coordinate mean after dropping the q largest and q smallest values."""
    n = g.n_clients
    check_trim_counts(n, q)
    if q == 0:
        return average(g)
    return _over_sorted_columns(g, lambda ordered: ordered[q : n - q].mean(axis=0))


def geometric_median(g: GradientSet, nu: float, rounds: int) -> np.ndarray:
    """Smoothed Weiszfeld iteration started at the arithmetic mean.

    Residual norms are clamped below by nu so the weights stay finite when an
    iterate lands on an input point. Where a plain norm overflows, because
    its squares do, every row's norm is taken scaled by its largest
    component; finite plain norms are kept as they are, bit for bit.
    """
    if nu <= 0 or rounds < 1:
        raise ValueError("need nu > 0 and rounds >= 1")
    v = g.vectors.mean(axis=0)
    tiles = row_tiles(g)
    for _ in range(rounds):
        residual_norms = np.empty(g.n_clients)
        for rows, residuals in _residual_tiles(g, v, tiles):
            with np.errstate(over="ignore"):  # an overflowing norm is taken scaled
                residual_norms[rows] = np.linalg.norm(residuals, axis=1)
        if not np.isfinite(residual_norms).all():
            for rows, residuals in _residual_tiles(g, v, tiles):
                scale = np.abs(residuals).max(axis=1)
                scaled = residuals / np.where(scale > 0, scale, 1.0)[:, None]
                residual_norms[rows] = scale * np.linalg.norm(scaled, axis=1)
        weights = 1.0 / np.maximum(nu, residual_norms)
        v = (weights @ g.vectors) / weights.sum()
    return v


def _residual_tiles(g: GradientSet, center: np.ndarray, tiles: list[slice]):
    """Yield ``(rows, g.vectors[rows] - center)`` over ``tiles``, the
    ``row_tiles(g)``.

    Each tile's residuals are written into one reused buffer, valid until
    the next tile.
    """
    buffer = np.empty((tiles[0].stop, g.dim))
    for rows in tiles:
        yield rows, np.subtract(g.vectors[rows], center, out=buffer[: rows.stop - rows.start])


def check_krum_counts(n: int, f: int) -> None:
    """Krum scores each client over its N-f-2 nearest peers, so needs one."""
    if f < 0:
        raise ValueError("byzantine count must be nonnegative")
    if n < f + 3:
        raise ValueError(f"krum needs N >= f + 3, got N={n}, f={f}")


def krum(g: GradientSet, f: int) -> np.ndarray:
    """Update of the client with the smallest summed squared distance to its
    N-f-2 nearest peers; score ties resolve to the lower client index."""
    n = g.n_clients
    check_krum_counts(n, f)
    _, sorted_distances = neighbor_order(distances_of(g))
    scores = sorted_distances[:, : n - f - 2].sum(axis=1)
    return g.vectors[int(np.argmin(scores))].copy()


def centered_clip(g: GradientSet, state: AggregatorState | None, tau: float, iters: int) -> np.ndarray:
    """Iteratively move the previous aggregate by clipped client residuals.

    The start point is the previous round's aggregate (zero before round 0);
    zero residuals contribute zero regardless of the clip factor.

    A set larger than one tile (``row_tiles``) is clipped a tile of rows at
    a time: each row's factor depends on that row alone, and the clipped
    rows are added to one running sum in row order (``add_rows``).
    """
    if tau <= 0 or iters < 1:
        raise ValueError("need tau > 0 and iters >= 1")
    if state is not None and state.prev_aggregate is not None:
        center = np.array(state.prev_aggregate, dtype=np.float64)
    else:
        center = np.zeros(g.dim)
    tiles = row_tiles(g)
    for _ in range(iters):
        if len(tiles) == 1:
            residuals = g.vectors - center
            factors = _clip_factors(np.linalg.norm(residuals, axis=1), tau)
            center = center + (factors[:, None] * residuals).mean(axis=0)
            continue
        total = np.zeros(g.dim)
        for _, residuals in _residual_tiles(g, center, tiles):
            residuals *= _clip_factors(np.linalg.norm(residuals, axis=1), tau)[:, None]
            add_rows(total, residuals)
        center = center + total / g.n_clients
    return center


def _clip_factors(norms: np.ndarray, tau: float) -> np.ndarray:
    """Per row, the factor that clips a residual of norm ``norms`` to ``tau``."""
    factors = np.ones(len(norms))
    over = norms > tau
    factors[over] = tau / norms[over]
    return factors


def check_nnm_counts(n: int, f: int) -> None:
    """Mixing averages each client's N-f nearest rows, so needs one."""
    if f < 0:
        raise ValueError("byzantine count must be nonnegative")
    if n - f < 1:
        raise ValueError(f"mixing needs N - f >= 1, got N={n}, f={f}")


def nnm_mix(g: GradientSet, f: int) -> GradientSet:
    """Replace each update with the mean of itself and its N-f-1 nearest peers.

    A wide set (``wide_set``) builds no neighborhood gather: each output row
    starts as its client's row plus 0.0, adds the peers one at a time in
    rank order, the order a gathered block's mean sums them in, and is
    divided once. A copy group that may share (``copy_sources``) is mixed
    once. That is a Python loop of N-f-1 adds per client, kept to wide sets:
    at N=100, d=10 000 it mixes in under half the time of the gathers.

    A finite set whose mix overflows has no safe aggregate: that raises
    DegenerateRoundError naming the first overflowing mixed row.
    """
    n = g.n_clients
    check_nnm_counts(n, f)
    indices, sorted_distances = neighbor_order(distances_of(g))
    mixed = np.empty_like(g.vectors)
    # an overflowing mix is reported by the error below, not by a warning
    with np.errstate(over="ignore"):
        if not wide_set(g):
            for rows, block in neighborhood_blocks(g, indices, n - f, np.arange(n)):
                mixed[rows] = block.mean(axis=1)
        else:
            source = copy_sources(g, sorted_distances)
            for k in range(n):
                row = mixed[k]
                if source[k] != k:
                    row[:] = mixed[source[k]]
                    continue
                np.add(g.vectors[k], 0.0, out=row)  # numpy sums from +0.0, so -0.0 turns +0.0
                for j in indices[k, : n - f - 1].tolist():
                    np.add(row, g.vectors[j], out=row)
                row /= n - f
    try:
        return GradientSet(mixed)
    except ValueError:  # the set is finite, so its mix overflowed
        bad = int(np.argmin(np.isfinite(mixed).all(axis=1)))
        raise DegenerateRoundError(
            None, f"nearest-neighbor mixing overflowed in mixed row {bad}"
        ) from None


# Per kind, the rule applied to the (mixed) set, given f. Each entry looks its
# rule up by name when called, so rebinding a module-level rule reaches it.
_RULES = {
    "average": lambda g, f, state: AggregationResult(average(g)),
    "median": lambda g, f, state: AggregationResult(coordinate_median(g)),
    "trimmed_mean": lambda g, f, state: AggregationResult(trimmed_mean(g, f)),
    "geomed": lambda g, f, state: AggregationResult(
        geometric_median(g, WEISZFELD_NU, WEISZFELD_ROUNDS)
    ),
    "krum": lambda g, f, state: AggregationResult(krum(g, f)),
    "cclip": lambda g, f, state: AggregationResult(centered_clip(g, state, CLIP_TAU, CLIP_ITERS)),
    "prodigy": lambda g, f, state: AggregationResult(*prodigy_aggregate(g, f)),
}
AGGREGATOR_KINDS = tuple(_RULES)
# The condition on (N, f) of each rule that has one; the rule checks it on
# every call.
_COUNT_CHECKS = {
    "trimmed_mean": check_trim_counts,
    "krum": check_krum_counts,
    "prodigy": check_prodigy_counts,
}


class Aggregator:
    """AggregatorSpec bound to the run's client counts, callable per round.

    Pure given (GradientSet, state snapshot); the training loop owns the
    state and updates it between rounds.
    """

    def __init__(self, spec: AggregatorSpec, n_clients: int, n_byzantine: int):
        self.spec = spec
        self.n_clients = n_clients
        self.n_byzantine = n_byzantine
        # The run's counts, checked once here so that a config fails at parse
        # time rather than at round 0.
        if spec.kind in _COUNT_CHECKS:
            _COUNT_CHECKS[spec.kind](n_clients, n_byzantine)
        if spec.nnm_enabled:
            check_nnm_counts(n_clients, n_byzantine)

    def __call__(
        self,
        g: GradientSet,
        state: AggregatorState | None = None,
        ran_on: GradientSet | None = None,
        keep: bool = False,
    ) -> AggregationResult:
        """Aggregate the round set ``g``.

        The rule runs on ``ran_on`` when it is given, which must equal bit
        for bit, distances included, the set it would run on otherwise:
        ``nnm_mix(g, f)`` for an NNM rule, else ``g``. ``keep`` returns that
        set on the result. The attack search asks for it and keeps the best
        candidate's, and a searched round's final aggregation takes the
        winner's as ``ran_on`` (``attacks.craft_attack``), so that the mix,
        or the distances a rule read, are computed once per winner. Any other
        call drops the set on return, so a mix outlives its call only where
        its caller holds it, and nothing is cached on a set a caller passed
        in.

        A non-finite aggregate raises DegenerateRoundError with the rule's
        trust scores: it has no safe update, as a round whose scores all
        reached zero has none.
        """
        if g.n_clients != self.n_clients:
            raise ValueError(f"expected {self.n_clients} updates, got {g.n_clients}")
        if ran_on is None:
            ran_on = nnm_mix(g, self.n_byzantine) if self.spec.nnm_enabled else g
        result = _RULES[self.spec.kind](ran_on, self.n_byzantine, state)
        if not np.isfinite(result.vector).all():
            raise DegenerateRoundError(result.trust, "non-finite aggregate")
        if keep:
            result.ran_on = ran_on
        return result
