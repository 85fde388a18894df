import numpy as np
import pytest

from robustfed.datasim import LabeledDataset
from robustfed.models import (
    ModelSpec,
    _forward,
    evaluate,
    init_params,
    model_gradient,
    model_loss,
)
from robustfed.oracles import ref_fd_gradient

LINEAR = ModelSpec("softmax_linear", input_dim=6, n_classes=4, l2_reg=1e-2)
MLP = ModelSpec("mlp", input_dim=6, n_classes=4, l2_reg=1e-2, hidden=5)


def random_batch(rng, spec, size=12):
    return LabeledDataset(
        rng.standard_normal((size, spec.input_dim)),
        rng.integers(0, spec.n_classes, size),
        spec.n_classes,
    )


def test_spec_validation_and_param_dim():
    assert LINEAR.param_dim == 7 * 4
    assert MLP.param_dim == 7 * 5 + 6 * 4
    with pytest.raises(ValueError):
        ModelSpec("mlp", input_dim=4, n_classes=3, hidden=0)
    with pytest.raises(ValueError):
        ModelSpec("conv", input_dim=4, n_classes=3)


def test_zero_theta_bias_gradient_is_class_frequency_gap():
    spec = ModelSpec("softmax_linear", input_dim=3, n_classes=4, l2_reg=0.0)
    features = np.random.default_rng(0).standard_normal((8, 3))
    labels = np.array([0, 0, 0, 0, 1, 1, 2, 3])  # freqs (1/2, 1/4, 1/8, 1/8)
    batch = LabeledDataset(features, labels, 4)
    grad = model_gradient(spec, np.zeros(spec.param_dim), batch)
    bias_grad = grad[3 * 4 :]
    expected = 0.25 - np.array([0.5, 0.25, 0.125, 0.125])
    assert np.allclose(bias_grad, expected, atol=1e-12)


@pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp"])
def test_gradient_matches_finite_differences(spec):
    rng = np.random.default_rng(7)
    for _ in range(10):
        theta = rng.standard_normal(spec.param_dim)
        batch = random_batch(rng, spec)
        analytic = model_gradient(spec, theta, batch)

        def objective(th):
            return model_loss(spec, th, batch) + 0.5 * spec.l2_reg * float(th @ th)

        numeric = ref_fd_gradient(objective, theta, step=1e-5)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic)
        assert rel <= 1e-5


@pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp"])
def test_duplicated_batch_leaves_gradient_unchanged(spec):
    rng = np.random.default_rng(11)
    theta = rng.standard_normal(spec.param_dim)
    batch = random_batch(rng, spec, size=6)
    doubled = LabeledDataset(
        np.vstack([batch.features, batch.features]),
        np.concatenate([batch.labels, batch.labels]),
        batch.n_classes,
    )
    assert np.allclose(
        model_gradient(spec, theta, batch), model_gradient(spec, theta, doubled), atol=1e-12
    )


def test_nonfinite_theta_rejected_with_diagnostic():
    rng = np.random.default_rng(13)
    batch = random_batch(rng, LINEAR)
    theta = np.full(LINEAR.param_dim, 1e308)
    with pytest.raises(ValueError, match="non-finite"):
        model_gradient(LINEAR, theta, batch)


def test_zero_theta_uniform_accuracy_and_tie_rule():
    spec = ModelSpec("softmax_linear", input_dim=3, n_classes=5, l2_reg=0.0)
    rng = np.random.default_rng(17)
    test = LabeledDataset(rng.standard_normal((100, 3)), np.repeat(np.arange(5), 20), 5)
    accuracy, loss = evaluate(spec, np.zeros(spec.param_dim), test)
    # uniform logits tie everywhere; argmax picks class 0, which holds 1/5 of labels
    assert accuracy == pytest.approx(0.2)
    assert loss == pytest.approx(np.log(5))
    only_class_0 = LabeledDataset(test.features, np.zeros(100, dtype=int), 5)
    assert evaluate(spec, np.zeros(spec.param_dim), only_class_0)[0] == 1.0


@pytest.mark.parametrize("spec", [LINEAR, MLP], ids=lambda s: s.kind)
def test_one_pass_evaluate_equals_argmax_and_loss_passes(spec):
    """evaluate derives both numbers from one forward pass; they equal, bit
    for bit, an argmax pass plus model_loss's own pass."""
    rng = np.random.default_rng(29)
    test = random_batch(rng, spec, size=200)
    for scale in (0.0, 1.0, 30.0):
        theta = scale * rng.standard_normal(spec.param_dim)
        predicted = _forward(spec, theta, test.features)[0].argmax(axis=1)
        expected = (float((predicted == test.labels).mean()), model_loss(spec, theta, test))
        assert evaluate(spec, theta, test) == expected
    with pytest.raises(ValueError, match="non-finite logits while computing loss"):
        evaluate(spec, np.full(spec.param_dim, 1e308), test)


def test_overfit_memorizes_small_set():
    rng = np.random.default_rng(19)
    spec = ModelSpec("softmax_linear", input_dim=8, n_classes=3, l2_reg=0.0)
    data = LabeledDataset(rng.standard_normal((10, 8)), rng.integers(0, 3, 10), 3)
    theta = np.zeros(spec.param_dim)
    for _ in range(3000):
        theta -= 0.5 * model_gradient(spec, theta, data)
    accuracy, _ = evaluate(spec, theta, data)
    assert accuracy == 1.0


def test_evaluation_order_invariant():
    rng = np.random.default_rng(23)
    spec = LINEAR
    theta = init_params(spec, seed=1)
    test = random_batch(rng, spec, size=40)
    perm = rng.permutation(40)
    shuffled = LabeledDataset(test.features[perm], test.labels[perm], test.n_classes)
    assert evaluate(spec, theta, test)[0] == evaluate(spec, theta, shuffled)[0]


def test_init_params_deterministic():
    a = init_params(MLP, seed=5)
    b = init_params(MLP, seed=5)
    c = init_params(MLP, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (MLP.param_dim,)
