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
    copy_sources,
    distances_of,
    neighbor_order,
    neighborhood_blocks,
    wide_set,
)
from .prodigy import ProdigyParams, TrustScores, prodigy_aggregate


@dataclass
class AggregatorSpec:
    """Which rule to run and its parameters; defaults follow common practice.

    trim_q defaults to the configured byzantine count when left as None.
    """

    kind: str = "average"
    trim_q: int | None = None
    weiszfeld_nu: float = 0.1
    weiszfeld_rounds: int = 3
    clip_tau: float = 10.0
    clip_iters: int = 3
    nnm_enabled: bool = field(default=False, metadata={"json": "nnm"})

    def __post_init__(self):
        if self.kind not in AGGREGATOR_KINDS:
            raise ValueError(f"unknown aggregator kind {self.kind!r}, expected one of {AGGREGATOR_KINDS}")
        if self.trim_q is not None and self.trim_q < 0:
            raise ValueError("trim_q must be nonnegative")
        if self.weiszfeld_nu <= 0:
            raise ValueError("weiszfeld_nu must be positive")
        if self.weiszfeld_rounds < 1:
            raise ValueError("weiszfeld_rounds must be at least 1")
        if self.clip_tau <= 0:
            raise ValueError("clip_tau must be positive")
        if self.clip_iters < 1:
            raise ValueError("clip_iters must be at least 1")

    def label(self) -> str:
        return ("nnm+" if self.nnm_enabled else "") + self.kind


@dataclass
class AggregatorState:
    """Warm-start carried across rounds; only centered clipping reads it."""

    prev_aggregate: np.ndarray | None = None


@dataclass
class AggregationResult:
    vector: np.ndarray
    trust: TrustScores | None = None


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
    ordered = np.sort(g.vectors, axis=0)
    mid = g.n_clients // 2
    if g.n_clients % 2:
        return ordered[mid].copy()
    return (ordered[mid - 1] + ordered[mid]) / 2


def trimmed_mean(g: GradientSet, q: int) -> np.ndarray:
    """Per-coordinate mean after dropping the q largest and q smallest values."""
    n = g.n_clients
    if q < 0:
        raise ValueError("trim count must be nonnegative")
    if n - 2 * q < 1:
        raise ValueError(f"trim count q={q} leaves no values out of N={n}")
    if q == 0:
        return average(g)
    ordered = np.sort(g.vectors, axis=0)
    return ordered[q : n - q].mean(axis=0)


def geometric_median(g: GradientSet, nu: float, rounds: int) -> np.ndarray:
    """Smoothed Weiszfeld iteration started at the arithmetic mean.

    Residual norms are clamped below by nu so the weights stay finite when an
    iterate lands on an input point.
    """
    if nu <= 0 or rounds < 1:
        raise ValueError("need nu > 0 and rounds >= 1")
    v = g.vectors.mean(axis=0)
    for _ in range(rounds):
        residual_norms = np.linalg.norm(g.vectors - v, axis=1)
        weights = 1.0 / np.maximum(nu, residual_norms)
        v = (weights @ g.vectors) / weights.sum()
    return v


def krum(g: GradientSet, f: int) -> np.ndarray:
    """Update of the client with the smallest summed squared distance to its
    N-f-2 nearest peers; score ties resolve to the lower client index."""
    n = g.n_clients
    if f < 0:
        raise ValueError("byzantine count must be nonnegative")
    if n < f + 3:
        raise ValueError(f"krum needs N >= f + 3, got N={n}, f={f}")
    order = neighbor_order(distances_of(g))
    scores = order.distances[:, : n - f - 2].sum(axis=1)
    return g.vectors[int(np.argmin(scores))].copy()


def centered_clip(g: GradientSet, state: AggregatorState | None, tau: float, iters: int) -> np.ndarray:
    """Iteratively move the previous aggregate by clipped client residuals.

    The start point is the previous round's aggregate (zero before round 0);
    zero residuals contribute zero regardless of the clip factor.
    """
    if tau <= 0 or iters < 1:
        raise ValueError("need tau > 0 and iters >= 1")
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


def nnm_mix(g: GradientSet, f: int) -> GradientSet:
    """Replace each update with the mean of itself and its N-f-1 nearest peers.

    A wide set (``wide_set``) builds no neighborhood gather: each output row
    starts as its client's row plus 0.0, adds the peers one at a time in
    rank order, the order a gathered block's mean sums them in, and is
    divided once. A copy group that may share (``copy_sources``) is mixed
    once. That is a Python loop of N-f-1 adds per client, kept to wide sets:
    at N=100, d=10 000 it mixes in under half the time of the gathers.
    """
    n = g.n_clients
    if f < 0:
        raise ValueError("byzantine count must be nonnegative")
    if n - f < 1:
        raise ValueError(f"mixing needs N - f >= 1, got N={n}, f={f}")
    order = neighbor_order(distances_of(g))
    mixed = np.empty_like(g.vectors)
    if not wide_set(g):
        for rows, block in neighborhood_blocks(g, order, n - f, np.arange(n)):
            mixed[rows] = block.mean(axis=1)
    else:
        source = copy_sources(g, order)
        for k in range(n):
            row = mixed[k]
            if source[k] != k:
                row[:] = mixed[source[k]]
                continue
            np.add(g.vectors[k], 0.0, out=row)  # numpy sums from +0.0, so -0.0 turns +0.0
            for j in order.indices[k, : n - f - 1].tolist():
                np.add(row, g.vectors[j], out=row)
            row /= n - f
    return GradientSet(mixed)


# Per kind, the rule applied to the (mixed) set. Each entry looks its rule up
# by name when called, so rebinding a module-level rule reaches it.
_RULES = {
    "average": lambda agg, g, state: AggregationResult(average(g)),
    "median": lambda agg, g, state: AggregationResult(coordinate_median(g)),
    "trimmed_mean": lambda agg, g, state: AggregationResult(trimmed_mean(g, agg.trim_q)),
    "geomed": lambda agg, g, state: AggregationResult(
        geometric_median(g, agg.spec.weiszfeld_nu, agg.spec.weiszfeld_rounds)
    ),
    "krum": lambda agg, g, state: AggregationResult(krum(g, agg.n_byzantine)),
    "cclip": lambda agg, g, state: AggregationResult(
        centered_clip(g, state, agg.spec.clip_tau, agg.spec.clip_iters)
    ),
    "prodigy": lambda agg, g, state: AggregationResult(*prodigy_aggregate(g, agg.params)),
}
AGGREGATOR_KINDS = tuple(_RULES)


class Aggregator:
    """AggregatorSpec bound to the run's client counts, callable per round.

    Pure given (GradientSet, state snapshot); the training loop owns the
    state and updates it between rounds.
    """

    def __init__(self, spec: AggregatorSpec, n_clients: int, n_byzantine: int):
        self.spec = spec
        self.n_clients = n_clients
        self.n_byzantine = n_byzantine
        self.trim_q = spec.trim_q if spec.trim_q is not None else n_byzantine
        if spec.kind == "trimmed_mean" and n_clients - 2 * self.trim_q < 1:
            raise ValueError(
                f"trimmed_mean with q={self.trim_q} leaves no values out of N={n_clients}"
            )
        if spec.kind == "krum" and n_clients < n_byzantine + 3:
            raise ValueError(f"krum needs N >= f + 3, got N={n_clients}, f={n_byzantine}")
        # validates 1 <= f < N/2 up front
        self.params = ProdigyParams(n_clients, n_byzantine) if spec.kind == "prodigy" else None
        if spec.nnm_enabled and n_clients - n_byzantine < 1:
            raise ValueError("nnm mixing needs N - f >= 1")

    def __call__(self, g: GradientSet, state: AggregatorState | None = None) -> AggregationResult:
        if g.n_clients != self.n_clients:
            raise ValueError(f"expected {self.n_clients} updates, got {g.n_clients}")
        if self.spec.nnm_enabled:
            g = nnm_mix(g, self.n_byzantine)
        return _RULES[self.spec.kind](self, g, state)
