"""Federated training loop: local updates, momentum, attack injection,
robust aggregation, and the two-step learning-rate schedule.

Every client draws its batches from a counter-based RNG stream keyed by
(master seed, client id, round), so results are identical no matter how the
per-client work is scheduled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .aggregators import AggregationResult, Aggregator, AggregatorState
from .attacks import craft_attack
from .config import ExperimentConfig, TrainSchedule, validate_config
from .datasim import LabeledDataset, PartitionSpec, flip_labels, generate_blobs, partition
from .geometry import GradientSet
from .models import ModelSpec, evaluate, init_params, model_gradient
from .prodigy import DegenerateRoundError, TrustScores
from .seeding import stream_id

HONEST = "honest"
BYZANTINE = "byzantine"


@dataclass
class ClientState:
    """A client's shard, momentum buffer, role, and private RNG stream."""

    client_id: int
    shard: LabeledDataset
    momentum: np.ndarray
    role: str
    rng_stream: int


@dataclass
class RoundRecord:
    """Per-round metrics; loss/accuracy are filled on evaluation rounds only.

    The ``*_ms`` fields are wall-clock phase times: the final aggregation,
    the honest and byzantine local updates, attack crafting (including its
    search over the defense), and evaluation.
    """

    round_idx: int
    gamma: float
    global_loss: float | None
    test_accuracy: float | None
    agg_wall_ms: float
    client_ms: float
    attack_ms: float
    eval_ms: float
    degenerate: bool
    trust: TrustScores | None


@dataclass
class TrainResult:
    theta: np.ndarray
    records: list[RoundRecord]
    final_accuracy: float
    final_loss: float


def lr_schedule(round_idx: int, sched: TrainSchedule) -> float:
    """High rate through the first switch_frac of training, low rate after."""
    if not 0 <= round_idx < max(sched.rounds, 1):
        raise ValueError(f"round {round_idx} outside schedule of {sched.rounds} rounds")
    return sched.gamma_hi if round_idx <= sched.switch_frac * sched.rounds else sched.gamma_lo


def client_update(
    spec: ModelSpec,
    theta: np.ndarray,
    client: ClientState,
    sched: TrainSchedule,
    round_idx: int,
) -> np.ndarray:
    """Run the local iterations and return the rate-normalized displacement.

    Batches are disjoint draws without replacement from the shard, reshuffled
    when exhausted. One local iteration returns the mini-batch gradient itself
    (the normalized one-step displacement telescopes to exactly that).
    """
    m = client.shard.n_samples
    if sched.batch_size > m:
        raise ValueError(
            f"client {client.client_id} shard of {m} samples cannot fill a batch "
            f"of {sched.batch_size}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([client.rng_stream, round_idx]))
    perm = rng.permutation(m)
    if sched.local_iters == 1:
        return model_gradient(spec, theta, client.shard.subset(perm[: sched.batch_size]))

    gamma = lr_schedule(round_idx, sched)
    theta_local = theta
    pos = 0
    for _ in range(sched.local_iters):
        if pos + sched.batch_size > m:
            perm = rng.permutation(m)
            pos = 0
        batch = client.shard.subset(perm[pos : pos + sched.batch_size])
        pos += sched.batch_size
        theta_local = theta_local - gamma * model_gradient(spec, theta_local, batch)
    return (theta - theta_local) / gamma


def apply_momentum(client: ClientState, g: np.ndarray, beta: float) -> np.ndarray:
    """Exponential moving average m = beta*m + (1-beta)*g; stored and returned."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    client.momentum = beta * client.momentum + (1.0 - beta) * g
    return client.momentum


def build_clients(cfg: ExperimentConfig) -> tuple[list[ClientState], LabeledDataset]:
    """Generate data, cut shards, and assign roles; returns clients + test set.

    Byzantine roles go to the lowest f client ids. Label-flip byzantines get
    their shard flipped here, once, so their local updates are poisoned at
    the source.
    """
    data = cfg.data
    train = generate_blobs(
        data.n_classes, data.dim, data.per_class, data.separation, stream_id(cfg.seed, "train")
    )
    test = generate_blobs(
        data.n_classes, data.dim, data.test_per_class, data.separation, stream_id(cfg.seed, "test")
    )
    shards = partition(
        train,
        PartitionSpec(data.partition, cfg.n_clients, alpha=data.alpha, min_shard=data.min_shard),
        stream_id(cfg.seed, "partition"),
    )
    dim = cfg.model.param_dim
    clients = []
    for k in range(cfg.n_clients):
        role = BYZANTINE if k < cfg.n_byzantine else HONEST
        shard = shards[k]
        if role == BYZANTINE and cfg.attack.kind == "label_flip":
            shard = flip_labels(shard)
        clients.append(
            ClientState(
                client_id=k,
                shard=shard,
                momentum=np.zeros(dim),
                role=role,
                rng_stream=stream_id(cfg.seed, "client", k),
            )
        )
    return clients, test


def run_training(cfg: ExperimentConfig) -> TrainResult:
    """Execute the full round loop and return the model plus round records.

    Degenerate aggregation rounds (all clients filtered) leave the model
    unchanged and are flagged in the record rather than falling back to an
    unprotected rule.
    """
    validate_config(cfg)
    sched = cfg.schedule
    model = cfg.model
    clients, test = build_clients(cfg)
    honest_clients = [c for c in clients if c.role == HONEST]
    byz_clients = [c for c in clients if c.role == BYZANTINE]
    byz_ids = np.array([c.client_id for c in byz_clients], dtype=np.int64)

    aggregator = Aggregator(cfg.defense, cfg.n_clients, cfg.n_byzantine)
    state = AggregatorState()
    theta = init_params(model, stream_id(cfg.seed, "init"))
    local_attack = cfg.attack.kind in ("none", "sign_flip", "label_flip")

    records: list[RoundRecord] = []
    for t in range(sched.rounds):
        gamma = lr_schedule(t, sched)
        sent = np.empty((cfg.n_clients, model.param_dim))

        start = time.perf_counter()
        for client in honest_clients:
            g = client_update(model, theta, client, sched, t)
            if sched.momentum > 0:
                g = apply_momentum(client, g, sched.momentum)
            sent[client.client_id] = g
        client_ms = (time.perf_counter() - start) * 1e3

        attack_ms = 0.0
        if byz_clients:
            local = None
            if local_attack:
                start = time.perf_counter()
                local = GradientSet(
                    np.stack([client_update(model, theta, c, sched, t) for c in byz_clients]),
                    byz_ids,
                )
                client_ms += (time.perf_counter() - start) * 1e3
            start = time.perf_counter()
            honest_set = GradientSet(
                np.stack([sent[c.client_id] for c in honest_clients]),
                np.array([c.client_id for c in honest_clients], dtype=np.int64),
            )
            defense = lambda gs: aggregator(gs, state).vector  # noqa: E731
            crafted = craft_attack(cfg.attack, honest_set, byz_ids, defense, byz_local=local)
            # omniscient attacks send their crafted vectors as-is
            for i, client in enumerate(byz_clients):
                v = crafted.vectors[i]
                if local_attack and sched.momentum > 0:
                    v = apply_momentum(client, v, sched.momentum)
                sent[client.client_id] = v
            attack_ms = (time.perf_counter() - start) * 1e3

        mixed = GradientSet(sent, np.arange(cfg.n_clients))
        start = time.perf_counter()
        degenerate = False
        try:
            result = aggregator(mixed, state)
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
        records.append(
            RoundRecord(
                round_idx=t,
                gamma=gamma,
                global_loss=loss,
                test_accuracy=accuracy,
                agg_wall_ms=wall_ms,
                client_ms=client_ms,
                attack_ms=attack_ms,
                eval_ms=eval_ms,
                degenerate=degenerate,
                trust=result.trust,
            )
        )

    final_accuracy, final_loss = evaluate(model, theta, test)
    return TrainResult(
        theta=theta, records=records, final_accuracy=final_accuracy, final_loss=final_loss
    )
