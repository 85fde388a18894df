"""Dual-score trust aggregation: proximity x dissimilarity scoring with
threshold filtering and trust-weighted averaging.

Each client gets a proximity score (inverse of its window-trimmed neighbor
distance sum) and a dissimilarity score (coefficient of variance of its
self-inclusive nearest neighborhood). The f lowest composite scores are
zeroed and the remaining clients are averaged with their scores as weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    GradientSet,
    add_rows,
    copy_sources,
    distances_of,
    neighbor_order,
    neighborhood_blocks,
    row_tiles,
    vector_set_stats,
    wide_set,
)


class DegenerateRoundError(RuntimeError):
    """There is no safe aggregate this round: every trust score reached zero
    (only possible under composite-score ties at the threshold),
    nearest-neighbor mixing overflowed, which has no scores, or the rule's
    aggregate is non-finite (``Aggregator.__call__``). Callers must treat
    the round as a no-op model update rather than fall back to an
    unprotected rule.
    """

    def __init__(
        self,
        scores: "TrustScores | None",
        message: str = "all clients filtered: trust scores sum to zero",
    ):
        super().__init__(message)
        self.scores = scores


# Added to both score denominators, so identical updates score finitely.
EPSILON_GUARD = 1e-12


def check_honest_majority(n: int, f: int) -> None:
    """The adversarial model: fewer than half of the N clients are byzantine."""
    if 2 * f >= n:
        raise ValueError(f"adversarial model requires f < N/2, got N={n}, f={f}")


def check_prodigy_counts(n: int, f: int) -> None:
    """The scoring presumes 1 <= f < N/2 byzantine clients among N."""
    if f < 1:
        raise ValueError(f"need at least one presumed byzantine client, got f={f}")
    check_honest_majority(n, f)


@dataclass
class TrustScores:
    """Per-client score breakdown from one aggregation round."""

    proximity: np.ndarray
    dissimilarity: np.ndarray
    composite: np.ndarray
    final: np.ndarray
    threshold: float

    def to_dict(self) -> dict:
        return {
            "proximity": [float(v) for v in self.proximity],
            "dissimilarity": [float(v) for v in self.dissimilarity],
            "composite": [float(v) for v in self.composite],
            "final": [float(v) for v in self.final],
            "threshold": float(self.threshold),
        }


def proximity_scores(sorted_distances: np.ndarray, f: int) -> np.ndarray:
    """Inverse of the summed mid-ranked neighbor distances, from
    ``neighbor_order``'s sorted distances.

    The sum runs over sorted ranks f..N-f-1 (1-based among the N-1 neighbors),
    skipping the f-1 nearest (anti-collusion) and f farthest (anti-outlier).
    """
    n = len(sorted_distances)
    window = sorted_distances[:, f - 1 : n - f - 1]
    return 1.0 / (window.sum(axis=1) + EPSILON_GUARD)


def dissimilarity_scores(
    g: GradientSet, indices: np.ndarray, sorted_distances: np.ndarray, f: int
) -> np.ndarray:
    """Coefficient of variance of each client's f-member nearest neighborhood,
    from ``neighbor_order``'s two arrays.

    The neighborhood is self-inclusive: the client plus its f-1 nearest peers.
    For f=1 the neighborhood is the client alone and the ratio degenerates to
    zero everywhere, so the score is defined as 1 (pure proximity filtering).

    On a wide set (``wide_set``) a copy group that may share
    (``copy_sources``) is scored once.
    """
    n = g.n_clients
    if f == 1:
        return np.ones(n)
    source = copy_sources(g, sorted_distances) if wide_set(g) else np.arange(n)
    scored = np.flatnonzero(source == np.arange(n))
    scores = np.empty(n)
    for rows, block in neighborhood_blocks(g, indices, f, scored):
        means, spreads = vector_set_stats(block)
        # One BLAS norm per mean row: a batched norm sums in another order.
        norms = np.array([np.linalg.norm(mean) for mean in means])
        scores[rows] = spreads / (norms + EPSILON_GUARD)
    return scores[source]


def prodigy_aggregate(g: GradientSet, f: int) -> tuple[np.ndarray, TrustScores]:
    """Score all clients, zero out the f lowest composites, average the rest.

    The threshold equals the f-th smallest composite score (ties toward the
    lower client index) and the comparison is inclusive, so at least f clients
    are always filtered. Raises DegenerateRoundError if nothing survives.

    Where the composite scores or the aggregate are not finite, because
    distances, neighborhood moments or weighted rows overflow, the set is
    scored and averaged again divided by the power of two that brings its
    largest component to [2^255, 2^256), and the aggregate is multiplied
    back. There no square, score or weighted row can overflow, and small
    rows keep as much room above EPSILON_GUARD as overflow allows. The
    division is exact except where a component becomes subnormal, and the
    scores returned are those of the divided set. Finite results keep
    their bits.
    """
    check_prodigy_counts(g.n_clients, f)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is scored again, divided
        scores = trust_scores(g, f)
        if np.isfinite(scores.composite).all():
            aggregate = trust_weighted_mean(g, scores)
            if np.isfinite(aggregate).all():
                return aggregate, scores
    exponent = int(np.frexp(np.abs(g.vectors).max())[1]) - 256
    divided = GradientSet(np.ldexp(g.vectors, -exponent))
    scores = trust_scores(divided, f)
    return np.ldexp(trust_weighted_mean(divided, scores), exponent), scores


def trust_scores(g: GradientSet, f: int) -> TrustScores:
    """Every client's scores, and the f lowest composites zeroed."""
    indices, sorted_distances = neighbor_order(distances_of(g))
    s_p = proximity_scores(sorted_distances, f)
    s_d = dissimilarity_scores(g, indices, sorted_distances, f)
    composite = s_p * s_d

    ranking = np.lexsort((np.arange(g.n_clients), composite))
    threshold = float(composite[ranking[f - 1]])
    final = np.where(composite <= threshold, 0.0, composite)

    return TrustScores(
        proximity=s_p,
        dissimilarity=s_d,
        composite=composite,
        final=final,
        threshold=threshold,
    )


def trust_weighted_mean(g: GradientSet, scores: TrustScores) -> np.ndarray:
    """The rows of ``g`` averaged with the final scores as weights; raises
    DegenerateRoundError if the weights sum to zero.

    Summing in weight-sorted order makes the output a function of the score
    multiset alone, so relabeling clients cannot perturb even the last bit.
    A set larger than one tile (``row_tiles``) weights a tile of sorted rows
    at a time in one reused buffer and adds them to one running sum in that
    order (``add_rows``).
    """
    final = scores.final
    canonical = np.argsort(final, kind="stable")
    total = final[canonical].sum()
    if total == 0.0:
        raise DegenerateRoundError(scores)
    tiles = row_tiles(g)
    if len(tiles) == 1:
        weighted = final[canonical, None] * g.vectors[canonical]
        return weighted.sum(axis=0) / total
    weighted_sum = np.zeros(g.dim)
    buffer = np.empty((tiles[0].stop, g.dim))
    for rows in tiles:
        order = canonical[rows]
        weighted = np.take(g.vectors, order, axis=0, out=buffer[: len(order)])
        weighted *= final[order, None]
        add_rows(weighted_sum, weighted)
    return weighted_sum / total
