"""Small differentiable classifiers with analytic gradients.

Two model families over flattened parameter vectors: multinomial logistic
regression and a one-hidden-layer tanh network. Training minimizes mean
cross-entropy; the gradient additionally carries an l2 penalty term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasim import LabeledDataset
from .seeding import derived_rng

MODEL_KINDS = ("softmax_linear", "mlp")


@dataclass(frozen=True)
class ModelSpec:
    """Model family, shapes, and l2 regularization factor."""

    kind: str
    input_dim: int
    n_classes: int
    l2_reg: float = 1e-2
    hidden: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}, expected one of {MODEL_KINDS}")
        if self.input_dim < 1 or self.n_classes < 2:
            raise ValueError("need input_dim >= 1 and n_classes >= 2")
        if self.l2_reg < 0:
            raise ValueError("l2_reg must be nonnegative")
        if self.kind == "mlp" and self.hidden < 1:
            raise ValueError("mlp requires hidden >= 1")

    @property
    def param_dim(self) -> int:
        p, c, h = self.input_dim, self.n_classes, self.hidden
        if self.kind == "softmax_linear":
            return (p + 1) * c
        return (p + 1) * h + (h + 1) * c


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Small random start; scale keeps initial logits order-1."""
    rng = derived_rng(seed, "model-init")
    if spec.kind == "softmax_linear":
        return 0.01 * rng.standard_normal(spec.param_dim)
    p, c, h = spec.input_dim, spec.n_classes, spec.hidden
    w1 = rng.standard_normal((h, p)) * np.sqrt(1.0 / p)
    b1 = np.zeros(h)
    w2 = rng.standard_normal((c, h)) * np.sqrt(1.0 / h)
    b2 = np.zeros(c)
    return np.concatenate([w1.ravel(), b1, w2.ravel(), b2])


def _unpack_linear(spec: ModelSpec, theta: np.ndarray):
    p, c = spec.input_dim, spec.n_classes
    lead = theta.shape[:-1]
    w = theta[..., : c * p].reshape(lead + (c, p))
    b = theta[..., c * p :]
    return w, b


def _unpack_mlp(spec: ModelSpec, theta: np.ndarray):
    p, c, h = spec.input_dim, spec.n_classes, spec.hidden
    lead = theta.shape[:-1]
    i, j, k = h * p, h * p + h, h * p + h + c * h
    w1, b1, w2, b2 = theta[..., :i], theta[..., i:j], theta[..., j:k], theta[..., k:]
    return w1.reshape(lead + (h, p)), b1, w2.reshape(lead + (c, h)), b2


def _mT(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (``ndarray.mT`` needs numpy 2)."""
    return np.swapaxes(a, -1, -2)


def _over_batch(bias: np.ndarray) -> np.ndarray:
    """A per-client bias (N, k) as (N, 1, k), so it broadcasts over the batch axis."""
    return bias if bias.ndim == 1 else bias[:, None, :]


def _forward(spec: ModelSpec, theta: np.ndarray, x: np.ndarray):
    """Logits plus the hidden activations needed for backprop.

    ``x`` is (B, p) with theta (P,), or (N, B, p) with theta shared (P,) or
    per client (N, P); each client's products are its own matmul slice, so a
    stacked pass equals the per-client passes bit for bit.

    Overflow is not a warning here: divergence surfaces as the explicit
    non-finite-logits rejection in the callers.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "softmax_linear":
            w, b = _unpack_linear(spec, theta)
            return x @ _mT(w) + _over_batch(b), None
        w1, b1, w2, b2 = _unpack_mlp(spec, theta)
        hidden = np.tanh(x @ _mT(w1) + _over_batch(b1))
        return hidden @ _mT(w2) + _over_batch(b2), hidden


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def model_gradient(spec: ModelSpec, theta: np.ndarray, batch) -> np.ndarray:
    """Analytic gradient of mean cross-entropy plus l2_reg * theta.

    ``batch`` is a LabeledDataset or a ``(features, labels)`` pair. Features
    (B, p) with labels (B,) and theta (P,) give the (P,) gradient. Features
    (N, B, p) with labels (N, B) hold one batch per client; theta is then
    shared (P,) or per client (N, P), and row k of the (N, P) result is
    bit-identical to the 2-D call on client k's batch and parameters.

    Non-finite logits raise a ValueError that gives the largest parameter
    magnitude of the lowest row that has them.
    """
    x, y = (batch.features, batch.labels) if isinstance(batch, LabeledDataset) else batch
    theta = np.asarray(theta, dtype=np.float64)
    single = x.ndim == 2
    if single:
        if theta.shape != (spec.param_dim,):
            raise ValueError(f"theta must have shape ({spec.param_dim},), got {theta.shape}")
        x, y = x[None], y[None]
    n, m = y.shape
    if x.shape != (n, m, spec.input_dim) or theta.shape not in {
        (spec.param_dim,),
        (n, spec.param_dim),
    }:
        raise ValueError(
            f"features {x.shape}, labels {y.shape} and theta {theta.shape} do not form "
            f"(N, B, {spec.input_dim}), (N, B) and ({spec.param_dim},) or (N, {spec.param_dim})"
        )
    logits, hidden = _forward(spec, theta, x)
    finite = np.isfinite(logits).all(axis=(1, 2))
    if not finite.all():
        k = int(np.argmin(finite))
        offending = theta if theta.ndim == 1 else theta[k]
        raise ValueError(
            f"non-finite logits (max |theta| = {np.abs(offending).max():.3e}); training diverged"
        )
    probs = np.exp(_log_softmax(logits))
    probs[np.arange(n)[:, None], np.arange(m), y] -= 1.0
    dlogits = probs / m

    if spec.kind == "softmax_linear":
        parts = [_mT(dlogits) @ x, dlogits.sum(axis=1)]
    else:
        w1, b1, w2, b2 = _unpack_mlp(spec, theta)
        dhidden = (dlogits @ w2) * (1.0 - hidden**2)
        parts = [
            _mT(dhidden) @ x,
            dhidden.sum(axis=1),
            _mT(dlogits) @ hidden,
            dlogits.sum(axis=1),
        ]
    grad = np.concatenate([part.reshape(n, -1) for part in parts], axis=1)
    grad += spec.l2_reg * theta
    return grad[0] if single else grad


def _mean_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    if not np.isfinite(logits).all():
        raise ValueError("non-finite logits while computing loss")
    logp = _log_softmax(logits)
    return float(-logp[np.arange(len(labels)), labels].mean())


def model_loss(spec: ModelSpec, theta: np.ndarray, data: LabeledDataset) -> float:
    """Mean cross-entropy, without the l2 penalty."""
    logits, _ = _forward(spec, theta, data.features)
    return _mean_cross_entropy(logits, data.labels)


def evaluate(spec: ModelSpec, theta: np.ndarray, test: LabeledDataset) -> tuple[float, float]:
    """(accuracy, mean cross-entropy loss) on a held-out set, from one forward
    pass. The predicted class is the argmax of the logits; ties resolve to the
    lowest class index."""
    logits, _ = _forward(spec, np.asarray(theta, dtype=np.float64), test.features)
    loss = _mean_cross_entropy(logits, test.labels)
    return float((logits.argmax(axis=1) == test.labels).mean()), loss
