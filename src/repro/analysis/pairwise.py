"""Drivers for building probability-based volumes from traces.

The paper applies a single set of volumes for the duration of each log:
estimate pairwise probabilities over the whole trace, materialize volumes
at a threshold, then (optionally) thin by effectiveness and/or directory
agreement, and finally replay the trace against the result.  These
helpers bundle those passes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..traces.records import Trace
from ..volumes.probability import (
    PairwiseConfig,
    ProbabilityVolumes,
    build_probability_volumes,
    estimate_pairwise,
)
from ..volumes.thinning import (
    combine_with_directory,
    measure_effectiveness,
    thin_by_effectiveness,
)

__all__ = ["VolumeBuildConfig", "build_volumes_from_trace", "implication_probabilities"]


@dataclass(frozen=True, slots=True)
class VolumeBuildConfig:
    """One probability-volume construction recipe."""

    probability_threshold: float = 0.2
    window: float = 300.0
    effectiveness_threshold: float | None = None
    combine_level: int | None = None
    sample_counters: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability_threshold <= 1.0:
            raise ValueError("probability_threshold must be in [0, 1]")
        if self.effectiveness_threshold is not None and not (
            0.0 <= self.effectiveness_threshold <= 1.0
        ):
            raise ValueError("effectiveness_threshold must be in [0, 1]")


def build_volumes_from_trace(
    trace: Trace, config: VolumeBuildConfig = VolumeBuildConfig()
) -> ProbabilityVolumes:
    """Estimate, materialize, and thin probability volumes from *trace*."""
    estimator = estimate_pairwise(
        trace,
        PairwiseConfig(
            window=config.window,
            sample_counters=config.sample_counters,
            sampling_threshold=max(config.probability_threshold, 0.01),
            same_directory_level=None,
            seed=config.seed,
        ),
    )
    volumes = build_probability_volumes(estimator, config.probability_threshold)
    if config.combine_level is not None:
        volumes = combine_with_directory(volumes, level=config.combine_level)
    if config.effectiveness_threshold is not None:
        effectiveness = measure_effectiveness(trace, volumes, window=config.window)
        volumes = thin_by_effectiveness(volumes, effectiveness, config.effectiveness_threshold)
    return volumes


def implication_probabilities(trace: Trace, window: float = 300.0) -> list[float]:
    """All pairwise implication probabilities found in *trace* (Fig 5b).

    Returns the sorted probabilities of every pair with at least one
    co-occurrence, suitable for plotting a cumulative distribution.
    """
    estimator = estimate_pairwise(trace, PairwiseConfig(window=window))
    return sorted(imp.probability for imp in estimator.implications(0.0))
