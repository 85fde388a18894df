import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import robustfed.aggregators as aggregators
import robustfed.attacks as attacks
import robustfed.engine as engine_mod
import robustfed.geometry as geometry
from robustfed.aggregators import Aggregator
from robustfed.attacks import LOCAL_ATTACK_KINDS, alie_candidates
from robustfed.config import (
    ExperimentConfig,
    TrainSchedule,
    config_from_dict,
    config_to_dict,
    validate_config,
)
from robustfed.datasim import LabeledDataset, flip_labels
from robustfed.engine import (
    LocalClients,
    apply_momentum,
    build_clients,
    client_shards,
    client_update,
    lr_schedule,
    run_training,
)
from robustfed.geometry import GradientSet
from robustfed.models import ModelSpec, model_gradient
from robustfed.prodigy import DegenerateRoundError, TrustScores
from robustfed.seeding import stream_generators, stream_id
from robustfed.sweep import SweepSpec, run_sweep


def ref_two_step_sgd(gradient_fn, theta: np.ndarray, batches, gamma: float) -> np.ndarray:
    """Literal multi-step local update returning the normalized displacement."""
    current = np.asarray(theta, dtype=float).copy()
    for batch in batches:
        current = current - gamma * gradient_fn(current, batch)
    return (np.asarray(theta, dtype=float) - current) / gamma


def small_config(**overrides) -> ExperimentConfig:
    document = {
        "n_clients": 6,
        "n_byzantine": 0,
        "seed": 3,
        "eval_every": 5,
        "data": {
            "n_classes": 4,
            "dim": 6,
            "per_class": 60,
            "separation": 4.0,
            "test_per_class": 25,
            "partition": "iid",
        },
        "schedule": {"rounds": 20, "batch_size": 8},
        "defense": {"kind": "average"},
    }
    document.update(overrides)
    return config_from_dict(document)


def make_client(rng, n_samples=40, dim=6, n_classes=4, client_id=0):
    """A one-client block, with its shard and stream for the references."""
    shard = LabeledDataset(
        rng.standard_normal((n_samples, dim)), rng.integers(0, n_classes, n_samples), n_classes
    )
    spec = ModelSpec("softmax_linear", input_dim=dim, n_classes=n_classes)
    stream = stream_id(99, "client", client_id)
    return spec, LocalClients.of([client_id], [shard], [stream]), shard, stream


def update_of(spec, theta, clients, sched, round_idx):
    """``client_update`` with the round's generators, as the round loop passes them."""
    rngs = next(stream_generators(clients.streams, range(round_idx, round_idx + 1)))
    return client_update(spec, theta, clients, sched, round_idx, rngs)


def local_clients(cfg):
    """(id, shard, stream) of the clients that train locally, in update order,
    from the data alone: every id 0..N-1 under a local attack, with flipped
    byzantine shards under label flip, and the honest ids f..N-1 otherwise."""
    f = cfg.n_byzantine
    shards = client_shards(cfg)
    ids = [k for k in range(cfg.n_clients) if k >= f or cfg.attack.kind in LOCAL_ATTACK_KINDS]
    flip = cfg.attack.kind == "label_flip"
    shards = [flip_labels(shards[k]) if flip and k < f else shards[k] for k in ids]
    return [(k, shard, stream_id(cfg.seed, "client", k)) for k, shard in zip(ids, shards)]


def test_lr_schedule_paper_values():
    sched = TrainSchedule(rounds=2000)
    assert lr_schedule(1000, sched) == 0.05
    assert lr_schedule(1500, sched) == 0.005
    boundary = int((2.0 / 3.0) * 2000)
    assert lr_schedule(boundary, sched) == 0.05  # inclusive comparison
    with pytest.raises(ValueError):
        lr_schedule(2000, sched)


def test_momentum_first_step_and_identity():
    rng = np.random.default_rng(0)
    momentum = np.zeros((3, 7))
    g = np.ones((3, 7))
    out = apply_momentum(momentum, g, beta=0.9)
    assert np.allclose(out, 0.1 * g)
    assert np.allclose(momentum, 0.1 * g)

    fresh = np.zeros((2, 7))
    g2 = rng.standard_normal((2, 7))
    assert np.array_equal(apply_momentum(fresh, g2, beta=0.0), g2)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        apply_momentum(fresh, g2, beta=1.5)


def test_momentum_geometric_convergence():
    rng = np.random.default_rng(1)
    momentum = np.zeros((3, 7))
    g = rng.standard_normal((3, 7))
    beta = 0.9
    for t in range(25):
        m = apply_momentum(momentum, g, beta)
        expected_gap = beta ** (t + 1)
        assert np.allclose(m - g, -expected_gap * g, rtol=1e-9)


def test_momentum_rows_are_independent_buffers():
    """A block update equals each row's update alone, bit for bit, and
    touches only the rows it is given."""
    rng = np.random.default_rng(2)
    momentum = rng.standard_normal((5, 7))
    g = rng.standard_normal((3, 7))
    expected = [0.9 * momentum[k] + (1.0 - 0.9) * g[k - 2] for k in range(2, 5)]
    untouched = momentum[:2].copy()
    apply_momentum(momentum[2:], g, 0.9)
    assert np.array_equal(momentum[2:], np.stack(expected))
    assert np.array_equal(momentum[:2], untouched)


def test_client_update_single_step_is_batch_gradient():
    rng = np.random.default_rng(2)
    spec, clients, shard, stream = make_client(rng)
    sched = TrainSchedule(rounds=10, local_iters=1, batch_size=8)
    theta = rng.standard_normal(spec.param_dim)
    update = update_of(spec, theta, clients, sched, round_idx=0)[0]
    # reconstruct the batch from the same counter-based stream
    draws = np.random.default_rng(np.random.SeedSequence([stream, 0]))
    batch_idx = draws.permutation(shard.n_samples)[:8]
    expected = model_gradient(spec, theta, shard.subset(batch_idx))
    assert np.array_equal(update, expected)


def test_client_update_gamma_invariant_at_single_step():
    rng = np.random.default_rng(3)
    spec, clients, _, _ = make_client(rng)
    theta = rng.standard_normal(spec.param_dim)
    fast = TrainSchedule(rounds=10, gamma_hi=0.05)
    slow = TrainSchedule(rounds=10, gamma_hi=0.025)
    assert np.array_equal(
        update_of(spec, theta, clients, fast, 0)[0],
        update_of(spec, theta, clients, slow, 0)[0],
    )


def test_client_update_two_steps_matches_literal_oracle():
    rng = np.random.default_rng(4)
    spec, clients, shard, stream = make_client(rng)
    sched = TrainSchedule(rounds=10, local_iters=2, batch_size=8)
    theta = rng.standard_normal(spec.param_dim)
    update = update_of(spec, theta, clients, sched, round_idx=1)[0]

    draws = np.random.default_rng(np.random.SeedSequence([stream, 1]))
    perm = draws.permutation(shard.n_samples)
    batches = [shard.subset(perm[:8]), shard.subset(perm[8:16])]
    expected = ref_two_step_sgd(
        lambda th, batch: model_gradient(spec, th, batch), theta, batches, lr_schedule(1, sched)
    )
    assert np.allclose(update, expected, atol=1e-12)


def test_client_update_reshuffles_when_exhausted():
    rng = np.random.default_rng(5)
    spec, clients, _, _ = make_client(rng, n_samples=10)
    sched = TrainSchedule(rounds=10, local_iters=3, batch_size=4)
    theta = rng.standard_normal(spec.param_dim)
    update = update_of(spec, theta, clients, sched, round_idx=0)[0]
    assert np.all(np.isfinite(update))


def test_client_update_rejects_small_shard():
    rng = np.random.default_rng(6)
    spec, clients, _, _ = make_client(rng, n_samples=4)
    sched = TrainSchedule(rounds=10, batch_size=8)
    with pytest.raises(ValueError, match="batch"):
        update_of(spec, rng.standard_normal(spec.param_dim), clients, sched, 0)


def block_rows(clients, row):
    """The features and labels of the block's ``row``-th client."""
    rows = slice(clients.offsets[row], clients.offsets[row] + clients.sizes[row])
    return clients.features[rows], clients.labels[rows]


def test_byzantine_roles_and_label_flip_shards():
    """Label flip poisons exactly shards 0..f-1; features and streams are
    those of the unflipped shards."""
    cfg = small_config(n_byzantine=2, attack={"kind": "label_flip"}, defense={"kind": "prodigy"})
    clients, _ = build_clients(cfg)
    shards = client_shards(cfg)
    assert clients.client_ids == (0, 1, 2, 3, 4, 5)
    for row, k in enumerate(clients.client_ids):
        features, labels = block_rows(clients, row)
        plain = shards[k].labels
        assert np.array_equal(labels, shards[k].n_classes - 1 - plain if k < 2 else plain)
        assert np.array_equal(features, shards[k].features)
        assert clients.streams[row] == stream_id(cfg.seed, "client", k)


@pytest.mark.parametrize(
    "f, attack, ids",
    [
        (2, "alie", (2, 3, 4, 5)),
        (2, "label_flip", (0, 1, 2, 3, 4, 5)),
        (2, "sign_flip", (0, 1, 2, 3, 4, 5)),
        (0, "none", (0, 1, 2, 3, 4, 5)),
    ],
    ids=["omniscient", "label_flip", "sign_flip", "no-byzantine"],
)
def test_build_clients_block_holds_the_local_clients_in_update_order(f, attack, ids):
    """The round layout: every client under a local attack, byzantines
    first, and the honest clients alone otherwise; each row holds its
    client's shard, flipped for a label-flip byzantine, and its client's
    stream."""
    cfg = small_config(n_byzantine=f, attack={"kind": attack})
    clients, _ = build_clients(cfg)
    reference = local_clients(cfg)
    assert clients.client_ids == ids == tuple(k for k, _, _ in reference)
    assert np.array_equal(clients.offsets, np.cumsum(clients.sizes) - clients.sizes)
    for row, (k, shard, stream) in enumerate(reference):
        features, labels = block_rows(clients, row)
        assert np.array_equal(features, shard.features)
        assert np.array_equal(labels, shard.labels)
        assert clients.streams[row] == stream
    shards = client_shards(cfg)
    flipped = [
        not np.array_equal(block_rows(clients, row)[1], shards[k].labels)
        for row, k in enumerate(ids)
    ]
    assert flipped == [attack == "label_flip" and k < f for k in ids]


def test_zero_rounds_returns_initial_model():
    cfg = small_config(schedule={"rounds": 0, "batch_size": 8})
    result = run_training(cfg)
    assert result.records == []
    from robustfed.models import init_params

    assert np.array_equal(result.theta, init_params(cfg.model, stream_id(cfg.seed, "init")))


@pytest.mark.parametrize("rounds, evaluations", [(20, 4), (7, 2), (0, 1)])
def test_final_metrics_come_from_the_last_evaluation(monkeypatch, rounds, evaluations):
    """Each evaluation round evaluates once; the final model is not evaluated
    again, except a zero-round run's initial model."""
    calls = []
    original = engine_mod.evaluate

    def counting_evaluate(spec, theta, test):
        calls.append(theta.copy())
        return original(spec, theta, test)

    monkeypatch.setattr(engine_mod, "evaluate", counting_evaluate)
    result = run_training(small_config(schedule={"rounds": rounds, "batch_size": 8}))
    assert len(calls) == evaluations
    assert np.array_equal(calls[-1], result.theta)
    if rounds:
        last = result.records[-1]
        assert (result.final_accuracy, result.final_loss) == (last.test_accuracy, last.global_loss)


def test_f0_average_bit_parity_with_sgd_oracle():
    """With no byzantines and plain averaging at one local step, the simulator
    is mini-batch SGD; replaying the same batch stream must match bit for bit."""
    cfg = small_config()
    result = run_training(cfg)

    clients = local_clients(cfg)
    from robustfed.models import init_params

    theta = init_params(cfg.model, stream_id(cfg.seed, "init"))
    for t in range(cfg.schedule.rounds):
        grads = []
        for _, shard, stream in clients:
            rng = np.random.default_rng(np.random.SeedSequence([stream, t]))
            idx = rng.permutation(shard.n_samples)[: cfg.schedule.batch_size]
            grads.append(model_gradient(cfg.model, theta, shard.subset(idx)))
        theta = theta - lr_schedule(t, cfg.schedule) * np.stack(grads).mean(axis=0)
    assert np.array_equal(result.theta, theta)


def test_mean_preserving_injection_trajectory():
    """Byzantines that send the honest mean leave the average-aggregated
    trajectory identical to honest-mean SGD with the same streams."""
    cfg = small_config(n_byzantine=2, attack={"kind": "sign_flip"})

    def send_honest_mean(spec, honest, f, defense=None, byz_local=None):
        return np.tile(honest.mean(axis=0), (f, 1)), None

    original = engine_mod.craft_attack
    engine_mod.craft_attack = send_honest_mean
    try:
        result = run_training(cfg)
    finally:
        engine_mod.craft_attack = original

    honest = [client for client in local_clients(cfg) if client[0] >= 2]
    from robustfed.models import init_params

    theta = init_params(cfg.model, stream_id(cfg.seed, "init"))
    for t in range(cfg.schedule.rounds):
        grads = []
        for _, shard, stream in honest:
            rng = np.random.default_rng(np.random.SeedSequence([stream, t]))
            idx = rng.permutation(shard.n_samples)[: cfg.schedule.batch_size]
            grads.append(model_gradient(cfg.model, theta, shard.subset(idx)))
        honest_mean = np.stack(grads).mean(axis=0)
        # average of (honest updates + f copies of their mean) is again the mean
        full = np.vstack([np.tile(honest_mean, (2, 1)), np.stack(grads)]).mean(axis=0)
        theta = theta - lr_schedule(t, cfg.schedule) * full
    assert np.allclose(result.theta, theta, atol=1e-12)


def test_degenerate_round_freezes_model_and_flags_record():
    cfg = small_config(n_byzantine=2, defense={"kind": "prodigy"}, schedule={"rounds": 3, "batch_size": 8})
    empty_scores = TrustScores(
        proximity=np.zeros(6),
        dissimilarity=np.zeros(6),
        composite=np.zeros(6),
        final=np.zeros(6),
        threshold=0.0,
    )

    original = Aggregator.__call__

    def always_degenerate(self, g, state=None, ran_on=None):
        raise DegenerateRoundError(empty_scores)

    Aggregator.__call__ = always_degenerate
    try:
        result = run_training(cfg)
    finally:
        Aggregator.__call__ = original

    from robustfed.models import init_params

    assert np.array_equal(result.theta, init_params(cfg.model, stream_id(cfg.seed, "init")))
    assert all(rec.degenerate for rec in result.records)
    assert all(rec.trust is not None for rec in result.records)


def test_non_finite_aggregate_freezes_model_and_flags_record(monkeypatch):
    """A NaN aggregate from the rule in round 2 leaves theta as a degenerate
    round does, and the run goes on instead of failing on non-finite logits
    in round 3."""
    cfg = small_config(schedule={"rounds": 6, "batch_size": 8})
    original = aggregators.average
    rounds = []

    def failing_in_round_2(failure):
        def rule(g):
            rounds.append(None)
            if len(rounds) % cfg.schedule.rounds == 3:
                return failure()
            return original(g)

        return rule

    def nan_aggregate():
        return np.full(cfg.model.param_dim, np.nan)

    def degenerate_round():
        raise DegenerateRoundError(None)

    monkeypatch.setattr(aggregators, "average", failing_in_round_2(nan_aggregate))
    result = run_training(cfg)
    monkeypatch.setattr(aggregators, "average", failing_in_round_2(degenerate_round))
    skipped = run_training(cfg)

    assert [rec.degenerate for rec in result.records] == [False, False, True, False, False, False]
    assert np.isfinite(result.theta).all()
    assert np.array_equal(result.theta, skipped.theta)
    assert [rec.test_accuracy for rec in result.records] == [
        rec.test_accuracy for rec in skipped.records
    ]


@pytest.mark.parametrize(
    "f, defense, separation, gamma_hi, first_step_overflows",
    [(0, "average", 4.0, 1e300, False), (1, "prodigy", 10.0, 1e308, True)],
    ids=["average", "prodigy"],
)
def test_a_step_past_the_float_range_is_a_degenerate_round(
    f, defense, separation, gamma_hi, first_step_overflows
):
    """Every high-rate step that would leave the float range is a degenerate
    round: theta stays as it was, with no overflow warning, the record keeps
    the rule's trust scores, and the run finishes. At gamma_hi = 1e300 round
    0's step stays finite but leaves theta near 1e298, so each later
    high-rate step overflows; at 1e308 on wider-spread data the first one
    does."""
    data = {"n_classes": 4, "dim": 6, "per_class": 60, "separation": separation,
            "test_per_class": 25, "partition": "iid"}
    schedule = {"rounds": 20, "batch_size": 8, "gamma_hi": gamma_hi}
    cfg = small_config(n_byzantine=f, defense={"kind": defense}, data=data, schedule=schedule)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_training(cfg)
    flags = [rec.degenerate for rec in result.records]
    assert flags == [first_step_overflows] + [True] * 13 + [False] * 6
    assert np.isfinite(result.theta).all()
    # rounds 4 and 9 evaluate the same theta
    evaluated = [(rec.test_accuracy, rec.global_loss) for rec in result.records[4:10:5]]
    assert evaluated[0] == evaluated[1]
    for rec in result.records:
        # prodigy's own scores, not an all-filtered round's zeros
        assert rec.trust is None if defense == "average" else rec.trust.final.any()


def test_a_diverged_client_ends_the_run_and_the_sweep_records_it(tmp_path):
    """Local steps at gamma_hi = 1e300 overflow the clients' parameters; the
    next local iteration meets non-finite logits, run_training raises, and a
    sweep records the run as an error with that message. The overflowing
    step itself warns nothing: the error is the only report."""
    schedule = {"rounds": 4, "batch_size": 8, "local_iters": 3, "gamma_hi": 1e300}
    cfg = small_config(schedule=schedule)
    spec = SweepSpec(base=config_to_dict(cfg), seeds=[cfg.seed])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="training diverged$"):
            run_training(cfg)
        (row,) = run_sweep(spec, tmp_path / "sweep")
    assert row["status"] == "error"
    assert re.fullmatch(r"ValueError: non-finite logits \(max \|theta\| = .*\); training diverged",
                        row["error"])


@pytest.mark.parametrize(
    "f, attack", [(0, "none"), (2, "alie"), (2, "sign_flip")], ids=["no-byzantine", "searched", "local"]
)
def test_non_finite_honest_update_names_its_client(monkeypatch, f, attack):
    """A NaN update from honest client 5 aborts the run with an error naming
    client 5, not its row in the honest set."""
    cfg = small_config(n_byzantine=f, attack={"kind": attack})
    original = engine_mod.client_update

    def nan_for_client_5(spec, theta, clients, sched, round_idx, rngs):
        updates = original(spec, theta, clients, sched, round_idx, rngs)
        updates[clients.client_ids.index(5)] = np.nan
        return updates

    monkeypatch.setattr(engine_mod, "client_update", nan_for_client_5)
    with pytest.raises(ValueError, match="non-finite update component from client 5$"):
        run_training(cfg)


def test_round_loop_builds_no_seed_sequence(monkeypatch):
    """The client streams of every round are seeded once per run, so the
    SeedSequences a run builds (data, partition, init) do not grow with its
    rounds."""
    built = []
    original = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    counts = []
    for rounds in (2, 12):
        built.clear()
        run_training(small_config(schedule={"rounds": rounds, "batch_size": 8, "local_iters": 2}))
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_one_gradient_set_per_round_outside_the_search(monkeypatch):
    """Under a local attack the engine hands the attacker plain arrays and
    builds one set per round, the aggregator's input."""
    cfg = small_config(
        n_byzantine=2,
        attack={"kind": "sign_flip"},
        defense={"kind": "prodigy"},
        schedule={"rounds": 5, "batch_size": 8, "momentum": 0.9},
    )
    built = []
    original = GradientSet.__init__

    def counting_init(self, *args, **kwargs):
        built.append(None)
        original(self, *args, **kwargs)

    monkeypatch.setattr(GradientSet, "__init__", counting_init)
    run_training(cfg)
    assert len(built) == cfg.schedule.rounds


def test_a_searched_round_computes_its_distances_once(monkeypatch):
    """The final aggregation takes the chosen candidate's distances from the
    search, so a searched round's one distance sweep is the honest block's."""
    cfg = small_config(
        n_byzantine=2,
        attack={"kind": "alie", "z": 1.0},
        defense={"kind": "median", "nnm": True},
        schedule={"rounds": 5, "batch_size": 8},
    )
    swept = []
    original = geometry.pairwise_sq_distances

    def counting(g):
        swept.append(g.n_clients)
        return original(g)

    monkeypatch.setattr(geometry, "pairwise_sq_distances", counting)
    monkeypatch.setattr(attacks, "pairwise_sq_distances", counting)
    run_training(cfg)
    assert swept == [cfg.n_clients - cfg.n_byzantine] * cfg.schedule.rounds


def test_a_searched_round_builds_each_candidate_matrix_once(monkeypatch):
    """Prodigy reads each candidate's distances in the search, and the final
    aggregation runs on the winner's set with the matrix the search built,
    so no candidate matrix is built after the search."""
    cfg = small_config(
        n_byzantine=2,
        attack={"kind": "alie", "z": 1.0},
        defense={"kind": "prodigy"},
        schedule={"rounds": 5, "batch_size": 8},
    )
    built = []
    original = attacks._CandidateSets.distances

    def counting(self, byz_vector):
        built.append(None)
        return original(self, byz_vector)

    monkeypatch.setattr(attacks._CandidateSets, "distances", counting)
    run_training(cfg)
    assert len(built) == len(alie_candidates(1.0)) * cfg.schedule.rounds


@pytest.mark.parametrize(
    "attack, mixes_per_round",
    [({"kind": "alie", "z": 1.0}, len(alie_candidates(1.0))), ({"kind": "sign_flip"}, 1)],
    ids=["searched", "local"],
)
def test_nnm_mixes_per_round(monkeypatch, attack, mixes_per_round):
    """A searched round mixes each candidate once, and its final aggregation
    runs the rule on the chosen candidate's mix from the search, so the
    round set is never mixed. A local-attack round mixes its round set."""
    cfg = small_config(
        n_byzantine=2,
        attack=attack,
        defense={"kind": "median", "nnm": True},
        schedule={"rounds": 5, "batch_size": 8},
    )
    mixed = []
    original = aggregators.nnm_mix

    def counting(g, f):
        mixed.append(g.n_clients)
        return original(g, f)

    monkeypatch.setattr(aggregators, "nnm_mix", counting)
    run_training(cfg)
    assert mixed == [cfg.n_clients] * mixes_per_round * cfg.schedule.rounds


def test_an_overflowing_final_mix_is_a_degenerate_round(monkeypatch):
    """Finite updates of 1e308 in column 0 in round 2 overflow every NNM
    mixed row under a local attack: the round is flagged degenerate and
    leaves theta as a degenerate round does, and the run goes on."""
    cfg = small_config(
        n_byzantine=2,
        attack={"kind": "none"},
        defense={"kind": "median", "nnm": True},
        schedule={"rounds": 6, "batch_size": 8},
    )
    original_update = engine_mod.client_update

    def huge_in_round_2(spec, theta, clients, sched, round_idx, rngs):
        updates = original_update(spec, theta, clients, sched, round_idx, rngs)
        if round_idx == 2:
            updates[:, 0] = 1e308
        return updates

    monkeypatch.setattr(engine_mod, "client_update", huge_in_round_2)
    overflowed = run_training(cfg)
    monkeypatch.undo()

    original_call = Aggregator.__call__
    calls = []

    def degenerate_in_round_2(self, g, state=None, ran_on=None):
        calls.append(None)
        if len(calls) == 3:
            raise DegenerateRoundError(None)
        return original_call(self, g, state, ran_on)

    monkeypatch.setattr(Aggregator, "__call__", degenerate_in_round_2)
    skipped = run_training(cfg)

    flags = [rec.degenerate for rec in overflowed.records]
    assert flags == [False, False, True, False, False, False]
    assert overflowed.records[2].trust is None
    assert np.array_equal(overflowed.theta, skipped.theta)
    assert [rec.test_accuracy for rec in overflowed.records] == [
        rec.test_accuracy for rec in skipped.records
    ]


def test_run_training_determinism():
    cfg_a = small_config(n_byzantine=2, attack={"kind": "alie", "z": 1.0}, defense={"kind": "prodigy"})
    cfg_b = small_config(n_byzantine=2, attack={"kind": "alie", "z": 1.0}, defense={"kind": "prodigy"})
    res_a = run_training(cfg_a)
    res_b = run_training(cfg_b)
    assert np.array_equal(res_a.theta, res_b.theta)
    assert [r.test_accuracy for r in res_a.records] == [r.test_accuracy for r in res_b.records]


def test_validate_config_is_idempotent_for_programmatic_use():
    cfg = small_config()
    before = cfg.data.min_shard
    validate_config(cfg)
    assert cfg.data.min_shard == before


SRC = Path(geometry.__file__).parent
ATTACKS = "robustfed.attacks"


def constant_str(node: ast.expr) -> str | None:
    """The value of a string expression built from literals alone (a
    literal, ``+`` of such, or an f-string without fields), else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left, right = constant_str(node.left), constant_str(node.right)
        return None if left is None or right is None else left + right
    if isinstance(node, ast.JoinedStr):
        parts = [constant_str(value) for value in node.values]
        return None if None in parts else "".join(parts)
    return None


def imported_names(module: str) -> set[str]:
    """Every name that ``robustfed.<module>``'s source imports, as dotted
    paths: ``import a.b``, ``from a import b`` (``a`` and ``a.b``, with
    relative imports resolved against robustfed), and the name passed to
    ``importlib.import_module`` or ``__import__``, which must be built from
    literals alone."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "robustfed" + (f".{base}" if base else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Call) and (
            getattr(node.func, "attr", None) == "import_module"
            or getattr(node.func, "id", None) in ("import_module", "__import__")
        ):
            name = constant_str(node.args[0]) if node.args else None
            assert name is not None, f"robustfed.{module} imports a name no literal gives"
            names.add("robustfed" + name if name.startswith(".") else name)
    return names


def test_client_path_never_imports_attack_logic():
    """Honest clients read only their own shard; byzantine synthesis is
    reachable solely through the attack module, so neither the client-side
    modules nor the robustfed modules they import may import it, by an
    import statement or by a name given to ``importlib``. A docstring or
    comment may still name it."""
    seen = set()
    pending = ["datasim", "geometry", "models"]
    while pending:
        module = pending.pop()
        if module in seen:
            continue
        seen.add(module)
        names = imported_names(module)
        assert ATTACKS not in names, f"robustfed.{module} imports the attack logic"
        pending += [
            name.split(".")[1]
            for name in names
            if name.count(".") == 1
            and name.startswith("robustfed.")
            and (SRC / f"{name.split('.')[1]}.py").exists()
        ]
    assert "seeding" in seen  # the walk follows the modules they import


def test_trust_recorded_only_for_prodigy():
    cfg = small_config(n_byzantine=2, defense={"kind": "prodigy"}, schedule={"rounds": 4, "batch_size": 8})
    recs = run_training(cfg).records
    assert all(r.trust is not None for r in recs)
    cfg2 = small_config(schedule={"rounds": 4, "batch_size": 8})
    assert all(r.trust is None for r in run_training(cfg2).records)
