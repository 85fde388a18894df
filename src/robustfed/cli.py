"""Command-line interface: run, sweep, verify, partition-preview.

Exit codes: 0 ok, 1 config error, 2 runtime error (for sweep: any run
failed), 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, parse_config
from .engine import client_shards
from .runner import default_output_dir, execute_run
from .sweep import parse_sweep, run_sweep
from .verification import run_all_checks

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


def _load(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None


def _cmd_run(args) -> int:
    cfg = parse_config(_load(args.config))
    summary = execute_run(cfg)
    print(f"wrote {summary.output_dir}")
    print(
        f"final_accuracy={summary.final_accuracy:.4f} "
        f"worst_round_accuracy={summary.worst_round_accuracy:.4f} "
        f"wall_time_s={summary.wall_time_s:.2f}"
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = parse_sweep(_load(args.config))
    sweep_dir = Path(args.out) if args.out else default_output_dir() / "sweep"
    rows = run_sweep(spec, sweep_dir, jobs=args.jobs)
    failed = [r for r in rows if r["status"] != "ok"]
    print(f"{len(rows)} runs ({len(failed)} failed); summary at {sweep_dir / 'summary.csv'}")
    for row in failed:
        print(f"  FAILED {row['defense']} / {row['attack']} seed={row['seed']}: {row['error']}")
    return EXIT_RUNTIME if failed else EXIT_OK


def _cmd_verify(_args) -> int:
    results = run_all_checks()
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        print(f"{verdict}  {r.name:<{width}}  [{r.seconds:6.2f}s]  {r.detail}")
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _cmd_partition_preview(args) -> int:
    cfg = parse_config(_load(args.config))
    data = cfg.data
    shards = client_shards(cfg)
    print(f"partition={data.partition} alpha={data.alpha} clients={cfg.n_clients}")
    header = "client  size  " + " ".join(f"c{c:<4d}" for c in range(data.n_classes))
    print(header)
    for k, shard in enumerate(shards):
        hist = shard.label_histogram()
        counts = " ".join(f"{int(v):<5d}" for v in hist)
        print(f"{k:<7d} {shard.n_samples:<5d} {counts}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustfed",
        description="Byzantine-robust federated learning simulator and benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("--config", required=True, help="path to a JSON experiment config")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="execute a grid of experiment configs")
    p_sweep.add_argument("--config", required=True, help="path to a JSON sweep config")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel runs (default 1)")
    p_sweep.add_argument("--out", default="", help="sweep output directory")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the oracle/property battery")
    p_verify.set_defaults(fn=_cmd_verify)

    p_prev = sub.add_parser(
        "partition-preview", help="print per-client label histograms for a config"
    )
    p_prev.add_argument("--config", required=True, help="path to a JSON experiment config")
    p_prev.set_defaults(fn=_cmd_partition_preview)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as err:  # noqa: BLE001 - map anything else to the runtime code
        print(f"runtime error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
