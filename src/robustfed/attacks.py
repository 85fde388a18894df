"""Omniscient byzantine update synthesis.

The adversary sees all honest updates of the current round plus a handle to
the defense under attack, and crafts the f malicious vectors: statistics-based
collusion (mean-minus-std, negated-mean) with exhaustive grid search over the
attack magnitude, or per-client local attacks (sign flip, label flip).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .aggregators import AggregationResult
from .geometry import GradientSet, pairwise_sq_distances
from .prodigy import DegenerateRoundError

ATTACK_KINDS = ("none", "alie", "foe", "sign_flip", "label_flip")
# the kinds whose byzantine updates come from local training, with no search
LOCAL_ATTACK_KINDS = ("none", "sign_flip", "label_flip")

# The defense under attack: a round set in, its aggregation out, with the set
# the rule ran on kept (``Aggregator.__call__``), which the search hands on.
DefenseHandle = Callable[[GradientSet], AggregationResult]


@dataclass(frozen=True)
class AttackSpec:
    """Attack family plus magnitude parameter and search toggle."""

    kind: str = "none"
    z: float = 1.0      # alie: std multiplier bound
    eps: float = 0.1    # foe: mean multiplier bound
    search: bool = True

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}, expected one of {ATTACK_KINDS}")
        if self.kind == "alie":
            if self.z <= 0:
                raise ValueError("alie requires z > 0")
            check_alie_search(self.z, self.search)
        if self.kind == "foe" and self.eps <= 0:
            raise ValueError("foe requires eps > 0")

    def label(self) -> str:
        if self.kind == "alie":
            return f"alie(z={self.z:g})"
        if self.kind == "foe":
            return f"foe(eps={self.eps:g})"
        return self.kind


def honest_summary(honest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unweighted per-coordinate mean and population std of the honest rows."""
    return honest.mean(axis=0), honest.std(axis=0)


# Smallest z the ALIE search takes. Its grid holds floor(8 / z) candidates
# and each one runs the whole defense every round, so z = 0.1 (80 candidates,
# ten times the z = 1 grid) bounds a searched round's cost; z = 1e-6 would
# list 8 000 000 candidates.
ALIE_MIN_Z = 0.1


def check_alie_search(z: float, search: bool) -> None:
    """A searched ALIE needs z >= ALIE_MIN_Z; without the search one point is
    used, whatever z. The error's ``key`` names the offending field."""
    if search and not z >= ALIE_MIN_Z:
        err = ValueError(f"the alie search needs z >= {ALIE_MIN_Z:g}, got {z:g}")
        err.key = "z"
        raise err


def alie_candidates(z: float) -> list[float]:
    """Grid {0.25z, 0.5z, ...} capped at multiplier values <= 2.

    A literal reading makes the grid empty when 0.25z already exceeds 2; in
    that corner the grid collapses to the single capped value 2.
    """
    if not z >= ALIE_MIN_Z:
        raise ValueError(f"z must be at least {ALIE_MIN_Z:g}, got {z:g}")
    grid = []
    m = 1
    while 0.25 * m * z <= 2.0:
        grid.append(0.25 * m * z)
        m += 1
    if not grid:
        grid = [min(0.25 * z, 2.0)]
    return grid


def foe_candidates(eps: float) -> list[float]:
    """Grid {0.1 eps, 0.2 eps, ..., eps}."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return [(m / 10.0) * eps for m in range(1, 11)]


class _CandidateSets:
    """The all-N sets of one round's search: f byzantine rows, then the
    honest rows (the round layout, see ``GradientSet``).

    Candidates differ only in the f colluding rows, which all hold the same
    vector v, so every candidate set shares one (N, d) buffer: the honest rows
    are placed once and each candidate overwrites the byzantine rows. A set
    is valid until the next candidate is built.

    Distances are built only when a rule asks for them, at most once per
    candidate (the supplier is cached): the honest-honest block once per
    round, then per candidate zeros between the byzantine rows and one
    reduction over the honest rows of h - v. Every entry equals the one
    ``pairwise_sq_distances`` computes on the same set: a difference and its
    negation square to the same value, and each row reduction runs over at
    least two rows, because a one-row einsum takes a different summation
    path and can change the last bit. Hence the zero row ahead of h - v.

    The buffer outlives the search until the round's final aggregation:
    ``_grid_search`` writes the winner's rows back into it, so that the
    winner's set, which the search hands on (``Aggregator.__call__``), holds
    them again, with the matrix its rule read.
    """

    def __init__(self, honest: np.ndarray, f: int):
        self.honest = honest
        self.f = f
        self.vectors = np.empty((f + len(honest), honest.shape[1]))
        self.vectors[f:] = honest
        self.honest_block = None
        self.diff = np.zeros((len(honest) + 1, honest.shape[1]))

    def __call__(self, byz_vector: np.ndarray) -> GradientSet:
        self.vectors[: self.f] = byz_vector
        return GradientSet(self.vectors, cache(lambda: self.distances(byz_vector)))

    def distances(self, byz_vector: np.ndarray) -> np.ndarray:
        f = self.f
        if self.honest_block is None:
            n = len(self.vectors)
            self.honest_block = np.zeros((n, n))
            self.honest_block[f:, f:] = pairwise_sq_distances(GradientSet(self.honest))
        np.subtract(self.honest, byz_vector, out=self.diff[1:])
        cross = np.einsum("ij,ij->i", self.diff, self.diff)[1:]
        entries = self.honest_block.copy()
        entries[:f, f:] = cross
        entries[f:, :f] = cross[:, None]
        return entries


def _grid_search(
    candidates: list[float],
    make_vector: Callable[[float], np.ndarray],
    honest: np.ndarray,
    f: int,
    defense: DefenseHandle,
    reference: np.ndarray,
) -> tuple[np.ndarray, GradientSet | None]:
    """Pick the candidate whose mix drags the defense output farthest from the
    honest mean; ties keep the earlier (smaller) grid value.

    Returns the chosen vector and the set the defense ran on for it
    (``Aggregator.__call__``), kept by reference from the best candidate so
    far; None when every candidate was degenerate.

    Degenerate rounds and non-finite candidate vectors score -inf. A
    non-finite choice, which only happens when every candidate scored -inf,
    raises the mixed set's non-finite ValueError.
    """
    sets = _CandidateSets(honest, f)
    best_vec = best_set = None
    best_dev = -np.inf
    for cand in candidates:
        vec = make_vector(cand)
        # dropped before the next defense call, so that at most the best
        # candidate's set and the current one are alive
        deviation, ran_on = -np.inf, None
        if np.isfinite(vec).all():
            deviation, ran_on = _score(defense, sets(vec), reference)
        if best_vec is None or deviation > best_dev:
            best_vec, best_dev, best_set = vec, deviation, ran_on
    if not np.isfinite(best_vec).all():
        sets(best_vec)  # raises the mixed set's non-finite ValueError
    sets.vectors[:f] = best_vec  # a kept candidate set shares this buffer
    return best_vec, best_set


def _score(
    defense: DefenseHandle, g: GradientSet, reference: np.ndarray
) -> tuple[float, GradientSet | None]:
    """The distance of the defense's aggregate of ``g`` from ``reference``
    (-inf for a degenerate round) and the set the rule ran on
    (``Aggregator.__call__``)."""
    try:
        result = defense(g)
    except DegenerateRoundError:
        return -np.inf, None
    return float(np.linalg.norm(result.vector - reference)), result.ran_on


def craft_attack(
    spec: AttackSpec,
    honest: np.ndarray,
    f: int,
    defense: DefenseHandle | None = None,
    byz_local: np.ndarray | None = None,
) -> tuple[np.ndarray, GradientSet | None]:
    """Produce the (f, d) byzantine rows of one round from the honest rows,
    and the set the defense ran on for them, which the round's final
    aggregation takes (``Aggregator.__call__``).

    The defense sees each searched candidate as a round set: f copies of
    the candidate in rows 0..f-1, then the honest rows (see ``GradientSet``).
    The round set of a searched attack is the winner's, so the search hands
    on the set its rule ran on (``_grid_search``). It is None for local
    attacks, without the search, and when every candidate was degenerate.
    byz_local holds the byzantines' own local updates, one row each: honest
    values for sign_flip (negated here), flipped-label values for label_flip
    (already poisoned upstream), and pass-through values for kind none.
    """
    if f < 1:
        raise ValueError("need at least one byzantine client")

    if spec.kind in LOCAL_ATTACK_KINDS:
        if byz_local is None:
            raise ValueError(f"attack {spec.kind!r} requires the byzantines' local updates")
        if len(byz_local) != f:
            raise ValueError("byz_local must hold exactly one update per byzantine client")
        return (-byz_local if spec.kind == "sign_flip" else byz_local.copy()), None

    mean, std = honest_summary(honest)
    if spec.kind == "alie":
        make_vector = lambda zv: mean - zv * std
        grid = alie_candidates(spec.z) if spec.search else [spec.z]
    else:
        make_vector = lambda ev: -ev * mean
        grid = foe_candidates(spec.eps) if spec.search else [spec.eps]

    if not spec.search:
        return np.tile(make_vector(grid[0]), (f, 1)), None
    if defense is None:
        raise ValueError("grid search needs a defense handle")
    vec, ran_on = _grid_search(grid, make_vector, honest, f, defense, mean)
    return np.tile(vec, (f, 1)), ran_on
