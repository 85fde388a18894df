"""Mutation probes: the oracle/property battery must catch planted bugs.

Each mutant below transcribes the trust-scoring pipeline with one classic
mistake; the reference oracle has to disagree with it on random instances.
"""

import numpy as np

from robustfed.geometry import GradientSet, neighbor_order, pairwise_sq_distances
from robustfed.oracles import ref_prodigy
from robustfed.prodigy import prodigy_aggregate


def _mutant_prodigy(vectors: np.ndarray, f: int, window_shift=0, strict_threshold=False):
    """Library-style pipeline with injectable bugs."""
    n = vectors.shape[0]
    eps = 1e-12
    indices, sorted_distances = neighbor_order(pairwise_sq_distances(GradientSet(vectors.copy())))
    lo = f - 1 + window_shift
    hi = n - f - 1 + window_shift
    s_p = 1.0 / (sorted_distances[:, lo:hi].sum(axis=1) + eps)
    s_d = np.empty(n)
    for k in range(n):
        members = np.concatenate(([k], indices[k, : f - 1]))
        sub = vectors[members]
        mu = sub.mean(axis=0)
        spread = float(np.sqrt(((sub - mu) ** 2).sum(axis=1).mean()))
        s_d[k] = spread / (float(np.linalg.norm(mu)) + eps)
    composite = s_p * s_d
    ranking = np.lexsort((np.arange(n), composite))
    threshold = composite[ranking[f - 1]]
    if strict_threshold:
        final = np.where(composite < threshold, 0.0, composite)
    else:
        final = np.where(composite <= threshold, 0.0, composite)
    total = final.sum()
    if total == 0.0:
        return None
    return (final @ vectors) / total


def _count_disagreements(mutant_kwargs, instances=300):
    rng = np.random.default_rng(2718)
    mismatches = 0
    for _ in range(instances):
        n, f, d = 7, 2, 3
        vectors = rng.standard_normal((n, d))
        expected, _ = ref_prodigy(vectors, f)
        got = _mutant_prodigy(vectors, f, **mutant_kwargs)
        if got is None or np.max(np.abs(got - expected)) > 1e-10:
            mismatches += 1
    return mismatches


def test_unmutated_pipeline_agrees_with_oracle():
    assert _count_disagreements({}) == 0


def test_oracle_catches_window_off_by_one():
    assert _count_disagreements({"window_shift": 1}) > 0
    assert _count_disagreements({"window_shift": -1}) > 0


def test_oracle_catches_strict_threshold():
    # with < instead of <= the f-th smallest composite survives, changing the
    # aggregate whenever it is strictly below the (f+1)-th
    assert _count_disagreements({"strict_threshold": True}) > 0


def test_exact_f_property_catches_strict_threshold():
    rng = np.random.default_rng(3141)
    violations = 0
    for _ in range(300):
        vectors = rng.standard_normal((7, 3))
        out = _mutant_prodigy(vectors, 2, strict_threshold=True)
        # recompute zero count under the mutant rule
        n = 7
        indices, sorted_distances = neighbor_order(pairwise_sq_distances(GradientSet(vectors.copy())))
        s_p = 1.0 / (sorted_distances[:, 1:4].sum(axis=1) + 1e-12)
        s_d = np.empty(n)
        for k in range(n):
            members = np.concatenate(([k], indices[k, :1]))
            sub = vectors[members]
            mu = sub.mean(axis=0)
            s_d[k] = float(np.sqrt(((sub - mu) ** 2).sum(axis=1).mean())) / (
                float(np.linalg.norm(mu)) + 1e-12
            )
        composite = s_p * s_d
        threshold = composite[np.lexsort((np.arange(n), composite))[1]]
        zeros = int(np.sum(np.where(composite < threshold, 0.0, composite) == 0.0))
        if zeros != 2:
            violations += 1
    assert violations > 250  # tie-free instances zero only f-1 scores under the mutant


def test_library_itself_passes_both_properties():
    rng = np.random.default_rng(1618)
    for _ in range(200):
        vectors = rng.standard_normal((7, 3))
        agg, scores = prodigy_aggregate(GradientSet(vectors.copy()), 2)
        expected, _ = ref_prodigy(vectors, 2)
        assert np.max(np.abs(agg - expected)) <= 1e-10
        assert int(np.sum(scores.final == 0.0)) == 2
