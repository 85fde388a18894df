"""Byzantine-robust federated learning simulator.

Core pieces: dual-score trust aggregation plus the standard robust baselines,
omniscient gradient attacks with per-round grid search, Dirichlet label-skew
partitioning, and a deterministic federated training loop.
"""

from .aggregators import Aggregator, AggregatorSpec, AggregatorState
from .attacks import AttackSpec, craft_attack
from .config import DataConfig, ExperimentConfig, TrainSchedule, parse_config
from .datasim import LabeledDataset, PartitionSpec, generate_blobs, partition
from .engine import run_training
from .geometry import GradientSet
from .models import ModelSpec
from .prodigy import DegenerateRoundError, TrustScores, prodigy_aggregate

__all__ = [
    "Aggregator",
    "AggregatorSpec",
    "AggregatorState",
    "AttackSpec",
    "craft_attack",
    "DataConfig",
    "ExperimentConfig",
    "TrainSchedule",
    "parse_config",
    "LabeledDataset",
    "PartitionSpec",
    "generate_blobs",
    "partition",
    "run_training",
    "GradientSet",
    "ModelSpec",
    "DegenerateRoundError",
    "TrustScores",
    "prodigy_aggregate",
]
