#!/usr/bin/env python3
"""sha256 of every run's metrics.csv and trust_scores.jsonl on the hash gate,
and of the wide-set kernels' outputs.

Runs the 126 criterion-7 cells (``sweep.CRIT7_*``), the determinism
config of ``verification`` at seeds 7 and 8, and that config with momentum
0.9 and 3 local steps under sign flip, label flip and ALIE at the same
seeds, and that config with no byzantine clients under plain averaging,
through ``sweep.run_sweep``, and maps each cell to the hashes of its two
artifacts. The grid's sets are N=10, so it also calls
``pairwise_sq_distances``, ``nnm_mix`` and the 7 criterion-7 defenses, and
the median, trimmed mean, geomed and cclip without mixing, directly on fixed
N=100, d=10 000 sets, which take the wide path and reduce in tiles, and
hashes the distances, the mixed set, each aggregate and prodigy's scores.
It prints one JSON object. A change that must keep results bit for bit
prints the same object as its parent:

    python3 scripts/artifact_hashes.py --jobs 2 > change.json
    (same command in a checkout of the parent) > parent.json
    diff parent.json change.json

or the object that the committed reference ``HASHES.json`` records:

    python3 scripts/artifact_hashes.py --jobs 2 --check HASHES.json

The reference holds the hashes and the fingerprint of the machine they were
taken on (``fingerprint``): numpy's and Python's versions, the machine type
and the CPU features numpy dispatches on, since einsum's summation order
follows them. On any other fingerprint ``--check`` fails without running,
saying that the reference does not apply. ``--write HASHES.json`` records a
new reference, for a change that alters results on purpose.
"""

import argparse
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from robustfed.aggregators import Aggregator, AggregatorSpec, AggregatorState, nnm_mix
from robustfed.geometry import GradientSet, pairwise_sq_distances
from robustfed.prodigy import DegenerateRoundError
from robustfed.sweep import CRIT7_DEFENSES, CRIT7_SEEDS, SweepSpec, crit7_sweep, run_sweep
from robustfed.verification import _determinism_config

ARTIFACTS = ("metrics.csv", "trust_scores.jsonl")
# The rules that the criterion-7 grid runs only after mixing, hashed without it
# on the wide sets too.
PLAIN_WIDE_KINDS = ("median", "trimmed_mean", "geomed", "cclip")
DETERMINISM_SEEDS = [7, 8]
# Neither the criterion-7 grid nor the determinism config keeps a momentum
# buffer or takes more than one local step; this sweep runs both, under a
# searched attack and under the two local ones, whose byzantine rows keep
# momentum buffers too.
MOMENTUM_SCHEDULE = {"momentum": 0.9, "local_iters": 3}
MOMENTUM_ATTACKS = [{"kind": "sign_flip"}, {"kind": "label_flip"}, {"kind": "alie", "z": 1.0}]
# With f = 0 the local clients start at id 0 and the round loop skips its
# attack branch, which no other sweep reaches.
NO_BYZANTINE = {"n_byzantine": 0, "attack": {"kind": "none"}, "defense": {"kind": "average"}}
WIDE_N, WIDE_D, WIDE_F = 100, 10_000, 20


def sweeps() -> dict[str, SweepSpec]:
    determinism = _determinism_config("")
    determinism.pop("output_path")
    momentum = {**determinism, "schedule": {**determinism["schedule"], **MOMENTUM_SCHEDULE}}
    return {
        "crit7": crit7_sweep(CRIT7_SEEDS),
        "determinism": SweepSpec(base=determinism, seeds=DETERMINISM_SEEDS),
        "momentum": SweepSpec(base=momentum, attacks=MOMENTUM_ATTACKS, seeds=DETERMINISM_SEEDS),
        "f0": SweepSpec(base={**determinism, **NO_BYZANTINE}, seeds=DETERMINISM_SEEDS),
    }


def wide_sets() -> dict[str, np.ndarray]:
    """Gaussian honest rows around a random centre, under f byzantine rows:
    copies of the ALIE vector (honest mean - std) at rows 0..f-1 or at
    scattered rows, or that vector plus small distinct noise per row.

    In the last two sets a row among the copies differs from them in one
    coordinate only, by so little that its distance to them underflows to
    0, yet it is no copy, so the copies must not share their results:
    - ``zero_distance_non_copy``: the copies hold 0.0 there and the row
      1e-170, which vanishes in every sum beside O(1) values, so sharing or
      not gives the same bits; it shows only that refusing keeps the bits.
    - ``order_sensitive_non_copy``: the copies 0 and 2 hold a there and row
      1 holds b, both near 2^-600, and every other row 0.0. (a + b) + a and
      (a + a) + b differ even after the division by N - f, so copies 0 and
      2 mix to different rows, and the mixed set's hash shows a wrong share.
    """
    rng = np.random.default_rng(2024)
    honest = 0.5 * rng.standard_normal(WIDE_D) + rng.standard_normal((WIDE_N - WIDE_F, WIDE_D))
    alie = honest.mean(axis=0) - honest.std(axis=0)
    copies = np.vstack([np.tile(alie, (WIDE_F, 1)), honest])
    noisy = np.vstack([alie + 1e-3 * rng.standard_normal((WIDE_F, WIDE_D)), honest])
    zeroed = alie.copy()
    zeroed[0] = 0.0
    near = zeroed.copy()
    near[0] = 1e-170
    half = np.tile(zeroed, (WIDE_F // 2, 1))
    ordered = copies.copy()
    ordered[:, 0] = 0.0
    ordered[:3, 0] = np.ldexp([4578033480578095.0, 4578033480578096.0, 4578033480578095.0], -600)
    return {
        "copies_first": copies,
        "copies_scattered": copies[rng.permutation(WIDE_N)],
        "copy_free": noisy,
        "zero_distance_non_copy": np.vstack([half, near, half, honest[1:]]),
        "order_sensitive_non_copy": ordered,
    }


def wide_hashes() -> dict[str, dict[str, str]]:
    hashes = {}
    for name, vectors in wide_sets().items():
        g = GradientSet(vectors)
        hashes[f"wide/{name}/distances"] = {"entries": digest(pairwise_sq_distances(g))}
        hashes[f"wide/{name}/nnm_mix"] = {"mixed": digest(nnm_mix(g, WIDE_F).vectors)}
        plain = [(kind, {"kind": kind}) for kind in PLAIN_WIDE_KINDS]
        for label, defense in [*CRIT7_DEFENSES, *plain]:
            spec = AggregatorSpec(defense["kind"], nnm_enabled=defense.get("nnm", False))
            state = AggregatorState(vectors[WIDE_F:].mean(axis=0))  # cclip's warm start
            try:
                result = Aggregator(spec, WIDE_N, WIDE_F)(g, state)
                outputs, trust = {"aggregate": digest(result.vector)}, result.trust
            except DegenerateRoundError as err:
                outputs, trust = {"aggregate": "degenerate"}, err.scores
            if trust is not None:
                outputs["trust"] = digest(
                    np.stack([trust.proximity, trust.dissimilarity, trust.composite, trust.final])
                )
            hashes[f"wide/{name}/{label}"] = outputs
    return hashes


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprint() -> dict:
    """What the hashes depend on beyond the source."""
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_features": sorted(name for name, enabled in __cpu_features__.items() if enabled),
    }


def all_hashes(jobs: int) -> tuple[dict, list[str]]:
    """The hashes of every key, and a line per failed run."""
    hashes = wide_hashes()
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in sweeps().items():
            for row in run_sweep(spec, Path(tmp) / name, jobs=jobs):
                cell = f"{name}/{row['defense']}/{row['attack']}/seed{row['seed']}"
                if row["status"] != "ok":
                    failed.append(f"{cell}: {row['error']}")
                    continue
                out = Path(row["output_dir"])
                hashes[cell] = {a: sha256(out / a) for a in ARTIFACTS if (out / a).exists()}
    return hashes, failed


def check(reference: dict, jobs: int) -> int:
    """0 if this tree's hashes equal the reference's, 1 if not, 2 if the
    reference was taken on another fingerprint."""
    recorded, here = reference["fingerprint"], fingerprint()
    if recorded != here:
        for key in sorted(recorded.keys() | here.keys()):
            if recorded.get(key) != here.get(key):
                print(f"{key}: reference {recorded.get(key)!r}, here {here.get(key)!r}")
        print("the reference does not apply here: compare against a run of the parent commit")
        return 2
    hashes, failed = all_hashes(jobs)
    expected = reference["hashes"]
    differ = sorted(k for k in expected.keys() | hashes.keys() if expected.get(k) != hashes.get(k))
    for key in differ:
        print(f"differs: {key}: reference {expected.get(key)}, here {hashes.get(key)}")
    for line in failed:
        print(f"failed: {line}")
    print(f"{len(expected) - len(differ)} of {len(expected)} reference keys match")
    return 1 if differ or failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=1, help="parallel runs")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", metavar="REFERENCE", help="compare against a reference file")
    mode.add_argument("--write", metavar="REFERENCE", help="record a reference file")
    args = parser.parse_args(argv)

    if args.check:
        return check(json.loads(Path(args.check).read_text()), args.jobs)
    hashes, failed = all_hashes(args.jobs)
    if not args.write:
        print(json.dumps(hashes, indent=1, sort_keys=True))
    elif not failed:
        reference = {"fingerprint": fingerprint(), "hashes": hashes}
        Path(args.write).write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    for line in failed:
        print(f"failed: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
