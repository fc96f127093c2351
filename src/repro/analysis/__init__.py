"""Trace-driven evaluation: replay engine, metrics, per-figure experiments."""

from .metrics import ReplayMetrics
from .prediction import ReplayConfig, replay
from .pairwise import VolumeBuildConfig, build_volumes_from_trace, implication_probabilities
from .interarrival import PrefixLocality, cumulative_distribution, directory_locality
from .simulator import EndToEndSimulator, SimulationConfig, SimulationResult
from .rate_of_change import (
    DeltaSavings,
    RateOfChangeStats,
    estimate_delta_savings,
    rate_of_change,
)
from . import experiments

__all__ = [
    "ReplayMetrics",
    "ReplayConfig",
    "replay",
    "VolumeBuildConfig",
    "build_volumes_from_trace",
    "implication_probabilities",
    "PrefixLocality",
    "directory_locality",
    "cumulative_distribution",
    "EndToEndSimulator",
    "SimulationConfig",
    "SimulationResult",
    "RateOfChangeStats",
    "rate_of_change",
    "DeltaSavings",
    "estimate_delta_savings",
    "experiments",
]
