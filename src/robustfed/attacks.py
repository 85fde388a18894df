"""Omniscient byzantine update synthesis.

The adversary sees all honest updates of the current round plus a handle to
the defense under attack, and crafts the f malicious vectors: statistics-based
collusion (mean-minus-std, negated-mean) with exhaustive grid search over the
attack magnitude, or per-client local attacks (sign flip, label flip).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import GradientSet, pairwise_sq_distances
from .prodigy import DegenerateRoundError

ATTACK_KINDS = ("none", "alie", "foe", "sign_flip", "label_flip")

DefenseHandle = Callable[[GradientSet], np.ndarray]


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
        if self.kind == "alie" and self.z <= 0:
            raise ValueError("alie requires z > 0")
        if self.kind == "foe" and self.eps <= 0:
            raise ValueError("foe requires eps > 0")

    def label(self) -> str:
        if self.kind == "alie":
            return f"alie(z={self.z:g})"
        if self.kind == "foe":
            return f"foe(eps={self.eps:g})"
        return self.kind


def honest_summary(honest: GradientSet) -> tuple[np.ndarray, np.ndarray]:
    """Unweighted per-coordinate mean and population std of the honest updates."""
    if honest.n_clients < 1:
        raise ValueError("need at least one honest client")
    return honest.vectors.mean(axis=0), honest.vectors.std(axis=0)


def alie_candidates(z: float) -> list[float]:
    """Grid {0.25z, 0.5z, ...} capped at multiplier values <= 2.

    A literal reading makes the grid empty when 0.25z already exceeds 2; in
    that corner the grid collapses to the single capped value 2.
    """
    if z <= 0:
        raise ValueError("z must be positive")
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
    """The all-N sets of one round's search, in ascending client-id order.

    Candidates differ only in the f colluding rows, which all hold the same
    vector v, so every candidate set shares one (N, d) buffer: the honest rows
    are placed once and each candidate overwrites the byzantine rows. A set
    is valid until the next candidate is built.

    Distances are built only when a rule asks for them: the honest-honest
    block once per round, then per candidate zeros between the byzantine rows
    and one reduction over the honest rows of h - v. Every entry equals the
    one ``pairwise_sq_distances`` computes on the same set: a difference and
    its negation square to the same value, and each row reduction runs over
    at least two rows, because a one-row einsum takes a different summation
    path and can change the last bit. Hence the zero row ahead of h - v.
    """

    def __init__(self, honest: GradientSet, byz_ids: np.ndarray):
        ids = np.concatenate([honest.client_ids, byz_ids])
        order = np.argsort(ids, kind="stable")
        position = np.empty_like(order)
        position[order] = np.arange(len(ids))
        self.honest = honest
        self.ids = ids[order]
        self.honest_pos = position[: honest.n_clients]
        self.byz_pos = position[honest.n_clients :]
        self.vectors = np.empty((len(ids), honest.dim))
        self.vectors[self.honest_pos] = honest.vectors
        self.honest_block = None
        self.diff = np.zeros((honest.n_clients + 1, honest.dim))
        self.cross_rows = np.ix_(self.byz_pos, self.honest_pos)
        self.cross_cols = np.ix_(self.honest_pos, self.byz_pos)

    def __call__(self, byz_vector: np.ndarray) -> GradientSet:
        self.vectors[self.byz_pos] = byz_vector
        return GradientSet(self.vectors, self.ids, lambda: self.distances(byz_vector))

    def distances(self, byz_vector: np.ndarray) -> np.ndarray:
        if self.honest_block is None:
            n = len(self.ids)
            self.honest_block = np.zeros((n, n))
            self.honest_block[np.ix_(self.honest_pos, self.honest_pos)] = (
                pairwise_sq_distances(self.honest)
            )
        np.subtract(self.honest.vectors, byz_vector, out=self.diff[1:])
        cross = np.einsum("ij,ij->i", self.diff, self.diff)[1:]
        entries = self.honest_block.copy()
        entries[self.cross_rows] = cross
        entries[self.cross_cols] = cross[:, None]
        return entries


def _grid_search(
    candidates: list[float],
    make_vector: Callable[[float], np.ndarray],
    honest: GradientSet,
    byz_ids: np.ndarray,
    defense: DefenseHandle,
    reference: np.ndarray,
) -> np.ndarray:
    """Pick the candidate whose mix drags the defense output farthest from the
    honest mean; ties keep the earlier (smaller) grid value.

    Degenerate rounds and non-finite candidate vectors score -inf. A
    non-finite choice, which only happens when every candidate scored -inf,
    raises the mixed set's non-finite ValueError.
    """
    sets = _CandidateSets(honest, byz_ids)
    best_vec = None
    best_dev = -np.inf
    for cand in candidates:
        vec = make_vector(cand)
        deviation = -np.inf
        if np.isfinite(vec).all():
            try:
                agg = defense(sets(vec))
                deviation = float(np.linalg.norm(agg - reference))
            except DegenerateRoundError:
                pass
        if best_vec is None or deviation > best_dev:
            best_vec = vec
            best_dev = deviation
    if not np.isfinite(best_vec).all():
        sets(best_vec)  # raises the mixed set's non-finite ValueError
    return best_vec


def craft_attack(
    spec: AttackSpec,
    honest: GradientSet,
    byz_clients,
    defense: DefenseHandle | None = None,
    byz_local: GradientSet | None = None,
) -> GradientSet:
    """Produce the byzantine clients' update vectors for one round.

    byz_local carries the byzantines' own locally computed updates: honest
    values for sign_flip (negated here), flipped-label values for label_flip
    (already poisoned upstream), and pass-through values for kind none.
    """
    byz_ids = np.asarray(list(byz_clients), dtype=np.int64)
    f = len(byz_ids)
    if f < 1:
        raise ValueError("need at least one byzantine client")

    if spec.kind in ("none", "sign_flip", "label_flip"):
        if byz_local is None:
            raise ValueError(f"attack {spec.kind!r} requires the byzantines' local updates")
        if byz_local.n_clients != f:
            raise ValueError("byz_local must hold exactly one update per byzantine client")
        if spec.kind == "sign_flip":
            return GradientSet(-byz_local.vectors, byz_ids)
        return GradientSet(byz_local.vectors.copy(), byz_ids)

    mean, std = honest_summary(honest)
    if spec.kind == "alie":
        make_vector = lambda zv: mean - zv * std
        grid = alie_candidates(spec.z) if spec.search else [spec.z]
    else:
        make_vector = lambda ev: -ev * mean
        grid = foe_candidates(spec.eps) if spec.search else [spec.eps]

    if spec.search:
        if defense is None:
            raise ValueError("grid search needs a defense handle")
        vec = _grid_search(grid, make_vector, honest, byz_ids, defense, mean)
    else:
        vec = make_vector(grid[0])
    return GradientSet(np.tile(vec, (f, 1)), byz_ids)
