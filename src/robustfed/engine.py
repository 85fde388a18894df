"""Federated training loop: local updates, momentum, attack injection,
robust aggregation, and the two-step learning-rate schedule.

Every client draws its batches from a counter-based RNG stream keyed by
(master seed, client id, round), so results are identical no matter how the
per-client work is scheduled. ``build_clients`` concatenates the local
clients' shards once per run (``LocalClients``), so each local iteration
gathers every client's batch in one indexing operation, and ``run_training``
computes the seeds of all their streams once, a block of rounds at a time
(``seeding.stream_generators``).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .aggregators import AggregationResult, Aggregator, AggregatorState
from .attacks import LOCAL_ATTACK_KINDS, craft_attack
from .config import ExperimentConfig, TrainSchedule, validate_config
from .datasim import LabeledDataset, PartitionSpec, flip_labels, generate_blobs, partition
from .geometry import GradientSet, check_finite
from .models import ModelSpec, evaluate, init_params, model_gradient
from .prodigy import DegenerateRoundError, TrustScores
from .seeding import stream_generators, stream_id


@dataclass
class RoundOutcome:
    """One round's deterministic result, a row of metrics.csv (columns as
    ``runner.record_keys`` names them); loss and accuracy are filled on
    evaluation rounds only. The trust scores go to the sidecar instead."""

    round_idx: int = field(metadata={"key": "round"})
    gamma: float
    global_loss: float | None
    test_accuracy: float | None
    degenerate: bool = field(metadata={"key": "degenerate_flag"})
    trust: TrustScores | None = field(metadata={"key": None})


@dataclass
class PhaseTimes:
    """One round's wall-clock phase times, a row of timings.csv: the final
    aggregation, the honest and byzantine local updates, attack crafting
    (including its search over the defense), and evaluation."""

    round_idx: int = field(metadata={"key": "round"})
    agg_wall_ms: float
    client_ms: float
    attack_ms: float
    eval_ms: float


@dataclass
class TrainResult:
    theta: np.ndarray
    records: list[RoundOutcome]
    timings: list[PhaseTimes]
    final_accuracy: float
    final_loss: float


def lr_schedule(round_idx: int, sched: TrainSchedule) -> float:
    """High rate through the first switch_frac of training, low rate after."""
    if not 0 <= round_idx < max(sched.rounds, 1):
        raise ValueError(f"round {round_idx} outside schedule of {sched.rounds} rounds")
    return sched.gamma_hi if round_idx <= sched.switch_frac * sched.rounds else sched.gamma_lo


@dataclass(frozen=True)
class LocalClients:
    """The clients that train locally, in update order, with their shards
    concatenated once per run: client k holds rows offsets[k] .. offsets[k] +
    sizes[k] - 1, so a local iteration's batches are one gather."""

    client_ids: tuple[int, ...]
    features: np.ndarray
    labels: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray
    streams: np.ndarray  # uint64 stream ids

    @classmethod
    def of(
        cls, client_ids: Sequence[int], shards: Sequence[LabeledDataset], streams: Sequence[int]
    ) -> LocalClients:
        """Client ``client_ids[k]`` holds ``shards[k]`` and RNG stream ``streams[k]``."""
        sizes = np.array([shard.n_samples for shard in shards], dtype=np.intp)
        return cls(
            client_ids=tuple(client_ids),
            features=np.concatenate([shard.features for shard in shards]),
            labels=np.concatenate([shard.labels for shard in shards]),
            offsets=np.cumsum(sizes) - sizes,
            sizes=sizes,
            streams=np.array(streams, dtype=np.uint64),
        )


def client_update(
    spec: ModelSpec,
    theta: np.ndarray,
    clients: LocalClients,
    sched: TrainSchedule,
    round_idx: int,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Run the local iterations of each client; return the (len, P)
    rate-normalized displacements, one row per client in order.

    ``rngs`` holds each client's generator for this round, built from the
    clients' streams (``seeding.stream_generators``). Batches are disjoint
    draws without replacement from each shard, reshuffled when exhausted. One
    local iteration returns the mini-batch gradient itself (the normalized
    one-step displacement telescopes to exactly that). The clients step in
    lockstep, one batched model pass per local iteration, and every row
    equals that client's update computed alone.

    The error raised is that of the first failing client in order: a shard
    that cannot fill a batch, or non-finite logits at any local iteration.
    """
    b = sched.batch_size
    n = len(clients.sizes)
    error = None
    short = np.flatnonzero(clients.sizes < b)
    if short.size:
        n = int(short[0])
        error = ValueError(
            f"client {clients.client_ids[n]} shard of {clients.sizes[n]} samples "
            f"cannot fill a batch of {b}"
        )
        if not n:
            raise error

    offsets, sizes = clients.offsets[:n], clients.sizes[:n]
    # client k's current permutation of its own rows, in its block of rows
    order = np.empty(len(clients.labels), dtype=np.intp)
    starts = sizes.copy()  # exhausted: the first iteration draws every permutation
    within = np.arange(b)
    gamma = lr_schedule(round_idx, sched) if sched.local_iters > 1 else None
    theta_local = theta
    for _ in range(sched.local_iters):
        for k in np.flatnonzero(starts + b > sizes):
            o, m = offsets[k], sizes[k]
            np.add(rngs[k].permutation(m), o, out=order[o : o + m])
            starts[k] = 0
        rows = order[(offsets + starts)[:, None] + within]
        x, y = clients.features[rows], clients.labels[rows]
        starts += b
        try:
            grad = model_gradient(spec, theta_local, (x, y))
        except ValueError as err:
            # the clients before the diverged one carry on, as they would alone;
            # re-raise if it is the first client or not a divergence at all
            n = getattr(err, "client", None)
            if not n:
                raise
            error = err
            offsets, sizes, starts = offsets[:n], sizes[:n], starts[:n]
            theta_local = theta_local if theta_local.ndim == 1 else theta_local[:n]
            grad = model_gradient(spec, theta_local, (x[:n], y[:n]))
        if gamma is not None:
            theta_local = theta_local - gamma * grad
    if error is not None:
        raise error
    return grad if gamma is None else (theta - theta_local) / gamma


def apply_momentum(momentum: np.ndarray, g: np.ndarray, beta: float) -> np.ndarray:
    """Exponential moving average m = beta*m + (1-beta)*g, one client per row
    of ``momentum``; updated in place and returned."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    momentum[:] = beta * momentum + (1.0 - beta) * g
    return momentum


def client_shards(cfg: ExperimentConfig) -> list[LabeledDataset]:
    """Generate the training data and cut it into one shard per client id,
    before any label flip."""
    data = cfg.data
    train = generate_blobs(
        data.n_classes, data.dim, data.per_class, data.separation, stream_id(cfg.seed, "train")
    )
    return partition(
        train,
        PartitionSpec(data.partition, cfg.n_clients, alpha=data.alpha, min_shard=data.min_shard),
        stream_id(cfg.seed, "partition"),
    )


def build_clients(cfg: ExperimentConfig) -> tuple[LocalClients, LabeledDataset]:
    """Generate data and cut shards; returns the local clients + test set.

    Byzantine roles go to the lowest f client ids. The block holds the honest
    clients f..N-1 and then, under a local attack only, the byzantines
    0..f-1: honest updates, and errors, come first. Label-flip byzantines get
    their shard flipped here, once, so their local updates are poisoned at
    the source.
    """
    shards = client_shards(cfg)
    data = cfg.data
    test = generate_blobs(
        data.n_classes, data.dim, data.test_per_class, data.separation, stream_id(cfg.seed, "test")
    )
    f = cfg.n_byzantine
    ids = list(range(f, cfg.n_clients))
    if cfg.attack.kind in LOCAL_ATTACK_KINDS:
        ids += range(f)
    flip = cfg.attack.kind == "label_flip"
    clients = LocalClients.of(
        ids,
        [flip_labels(shards[k]) if flip and k < f else shards[k] for k in ids],
        [stream_id(cfg.seed, "client", k) for k in ids],
    )
    return clients, test


def run_training(cfg: ExperimentConfig) -> TrainResult:
    """Execute the full round loop and return the model plus round records.

    Degenerate aggregation rounds (all clients filtered, an overflowing NNM
    mix, or a non-finite aggregate) leave the model unchanged and are
    flagged in the record rather than falling back to an unprotected rule.
    """
    validate_config(cfg)
    sched = cfg.schedule
    model = cfg.model
    clients, test = build_clients(cfg)
    n, f = cfg.n_clients, cfg.n_byzantine
    beta = sched.momentum

    aggregator = Aggregator(cfg.defense, n, f)
    state = AggregatorState()
    theta = init_params(model, stream_id(cfg.seed, "init"))
    local_attack = cfg.attack.kind in LOCAL_ATTACK_KINDS
    round_rngs = stream_generators(clients.streams, range(sched.rounds))
    # row k is client k's buffer, in the round layout of ``sent``
    momentum = np.zeros((n, model.param_dim))

    records: list[RoundOutcome] = []
    timings: list[PhaseTimes] = []
    for t in range(sched.rounds):
        gamma = lr_schedule(t, sched)
        sent = np.empty((n, model.param_dim))

        start = time.perf_counter()
        updates = client_update(model, theta, clients, sched, t, next(round_rngs))
        sent[f:] = updates[: n - f]
        if beta > 0:
            sent[f:] = apply_momentum(momentum[f:], sent[f:], beta)
        client_ms = (time.perf_counter() - start) * 1e3

        attack_ms = 0.0
        ran_on = None
        if f:
            start = time.perf_counter()
            check_finite(sent[f:], f)  # name the client, not its row in the honest set
            defense = lambda gs: aggregator(gs, state, keep=True)  # noqa: E731
            # the byzantines' own updates; no rows under a searched attack
            sent[:f], ran_on = craft_attack(
                cfg.attack, sent[f:], f, defense, byz_local=updates[n - f :]
            )
            if local_attack and beta > 0:  # omniscient attacks send theirs as-is
                sent[:f] = apply_momentum(momentum[:f], sent[:f], beta)
            attack_ms = (time.perf_counter() - start) * 1e3

        round_set = GradientSet(sent)
        start = time.perf_counter()
        degenerate = False
        try:
            result = aggregator(round_set, state, ran_on)
        except DegenerateRoundError as err:
            result = AggregationResult(np.zeros(model.param_dim), err.scores)
            degenerate = True
        wall_ms = (time.perf_counter() - start) * 1e3

        if not degenerate:
            theta = theta - gamma * result.vector
            state.prev_aggregate = result.vector

        accuracy = loss = None
        start = time.perf_counter()
        if (t + 1) % cfg.eval_every == 0 or t == sched.rounds - 1:
            accuracy, loss = evaluate(model, theta, test)
        eval_ms = (time.perf_counter() - start) * 1e3
        records.append(RoundOutcome(t, gamma, loss, accuracy, degenerate, result.trust))
        timings.append(PhaseTimes(t, wall_ms, client_ms, attack_ms, eval_ms))

    if records:  # the last round always evaluates
        final_accuracy, final_loss = records[-1].test_accuracy, records[-1].global_loss
    else:
        final_accuracy, final_loss = evaluate(model, theta, test)
    return TrainResult(theta, records, timings, final_accuracy, final_loss)
