"""Independent reference implementations used to cross-check the library.

Everything here is a deliberately naive transcription of each rule's
definition: plain Python loops, no shared code with the vectorized paths it
validates. Slow on purpose; only run at small N and d.
"""

from __future__ import annotations

import math

import numpy as np


def ref_pairwise_sq(vectors) -> list[list[float]]:
    """Double-loop squared Euclidean distances."""
    rows = [list(map(float, v)) for v in vectors]
    n = len(rows)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = sum((a - b) ** 2 for a, b in zip(rows[i], rows[j]))
    return out


def ref_sorted_neighbors(vectors, k: int) -> list[tuple[float, int]]:
    """(distance, index) pairs for client k, ascending, ties by index."""
    dist = ref_pairwise_sq(vectors)
    pairs = [(dist[k][j], j) for j in range(len(vectors)) if j != k]
    return sorted(pairs)


def _ref_set_stats(members):
    arr = [np.asarray(v, dtype=float) for v in members]
    mu = sum(arr) / len(arr)
    sigma = math.sqrt(sum(float(np.dot(v - mu, v - mu)) for v in arr) / len(arr))
    return mu, sigma


def ref_prodigy(vectors, f: int, eps: float = 1e-12):
    """Literal transcription of the dual-score rule.

    Returns (aggregate, info) where aggregate is None on a degenerate round.
    info carries the intermediate score lists for debugging.
    """
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    n = len(vectors)
    assert 1 <= f < n / 2

    s_p, s_d = [], []
    for k in range(n):
        neigh = ref_sorted_neighbors(vectors, k)
        window = [neigh[i - 1][0] for i in range(f, n - f)]  # 1-based ranks f..n-f-1
        s_p.append(1.0 / (sum(window) + eps))
        if f == 1:
            s_d.append(1.0)
        else:
            members = [vectors[k]] + [vectors[j] for _, j in neigh[: f - 1]]
            mu, sigma = _ref_set_stats(members)
            s_d.append(sigma / (float(np.linalg.norm(mu)) + eps))

    composite = [s_p[k] * s_d[k] for k in range(n)]
    ranked = sorted(range(n), key=lambda k: (composite[k], k))
    threshold = composite[ranked[f - 1]]
    final = [0.0 if composite[k] <= threshold else composite[k] for k in range(n)]
    info = {
        "proximity": s_p,
        "dissimilarity": s_d,
        "composite": composite,
        "final": final,
        "threshold": threshold,
    }
    total = sum(final)
    if total == 0.0:
        return None, info
    aggregate = sum(final[k] * vectors[k] for k in range(n)) / total
    return aggregate, info


def ref_median(vectors) -> np.ndarray:
    arr = np.asarray(vectors, dtype=float)
    n, d = arr.shape
    out = np.empty(d)
    for i in range(d):
        col = sorted(float(v) for v in arr[:, i])
        mid = n // 2
        out[i] = col[mid] if n % 2 == 1 else (col[mid - 1] + col[mid]) / 2.0
    return out


def ref_trimmed_mean(vectors, q: int) -> np.ndarray:
    arr = np.asarray(vectors, dtype=float)
    n, d = arr.shape
    assert n - 2 * q >= 1
    out = np.empty(d)
    for i in range(d):
        col = sorted(float(v) for v in arr[:, i])
        kept = col[q : n - q]
        out[i] = sum(kept) / len(kept)
    return out


def ref_geometric_median(vectors, nu: float, rounds: int) -> np.ndarray:
    arr = [np.asarray(v, dtype=float) for v in vectors]
    v = sum(arr) / len(arr)
    for _ in range(rounds):
        weights = [1.0 / max(nu, float(np.linalg.norm(v - g))) for g in arr]
        v = sum(w * g for w, g in zip(weights, arr)) / sum(weights)
    return v


def ref_krum(vectors, f: int) -> np.ndarray:
    n = len(vectors)
    assert n >= f + 3
    scores = []
    for k in range(n):
        neigh = ref_sorted_neighbors(vectors, k)
        scores.append(sum(dist for dist, _ in neigh[: n - f - 2]))
    winner = min(range(n), key=lambda k: (scores[k], k))
    return np.asarray(vectors[winner], dtype=float).copy()


def ref_centered_clip(vectors, start, tau: float, iters: int) -> np.ndarray:
    arr = [np.asarray(v, dtype=float) for v in vectors]
    center = np.asarray(start, dtype=float).copy()
    for _ in range(iters):
        step = np.zeros_like(center)
        for g in arr:
            residual = g - center
            norm = float(np.linalg.norm(residual))
            factor = 1.0 if norm <= tau else tau / norm
            step += residual * factor
        center = center + step / len(arr)
    return center


def ref_nnm(vectors, f: int) -> list[np.ndarray]:
    n = len(vectors)
    assert n - f >= 1
    mixed = []
    for k in range(n):
        neigh = ref_sorted_neighbors(vectors, k)
        members = [np.asarray(vectors[k], dtype=float)]
        members += [np.asarray(vectors[j], dtype=float) for _, j in neigh[: n - f - 1]]
        mixed.append(sum(members) / len(members))
    return mixed


def ref_fd_gradient(loss_fn, theta: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar objective, coordinate by coordinate."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (loss_fn(hi) - loss_fn(lo)) / (2.0 * step)
    return grad
