"""Server volume construction: directory-based, probability-based, thinning.

Each family has one store, and probability volumes one pairwise
estimator, all kept on the integer URL ids of an id space
(:mod:`repro.traces.intern`).  The origin, the durable state and the fast
replay engine use the same classes: string calls intern at the edge,
``observe_id``/``lookup_id`` take a compiled trace's ids.
"""

from .base import VolumeIdAllocator, VolumeLookup, VolumeStore
from .directory import DirectoryVolumeConfig, DirectoryVolumeStore
from .probability import (
    Implication,
    PairwiseConfig,
    PairwiseEstimator,
    ProbabilityVolumeStore,
    ProbabilityVolumes,
    build_probability_volumes,
)
from .sitewide import CrossHostVolumeStore, SiteWideVolumeStore
from .popularity import FallbackVolumeStore, PopularityConfig, PopularityVolumeStore
from .online import OnlineProbabilityVolumeStore, OnlineVolumeConfig
from .state import StateFormatError, VolumeArtifact, load_volumes, save_volumes
from .thinning import (
    EffectivenessResult,
    combine_with_directory,
    measure_effectiveness,
    thin_by_effectiveness,
)

__all__ = [
    "VolumeIdAllocator",
    "VolumeLookup",
    "VolumeStore",
    "DirectoryVolumeConfig",
    "DirectoryVolumeStore",
    "SiteWideVolumeStore",
    "CrossHostVolumeStore",
    "PairwiseConfig",
    "PairwiseEstimator",
    "Implication",
    "ProbabilityVolumes",
    "ProbabilityVolumeStore",
    "build_probability_volumes",
    "EffectivenessResult",
    "measure_effectiveness",
    "thin_by_effectiveness",
    "combine_with_directory",
    "PopularityConfig",
    "PopularityVolumeStore",
    "FallbackVolumeStore",
    "OnlineVolumeConfig",
    "OnlineProbabilityVolumeStore",
    "VolumeArtifact",
    "StateFormatError",
    "save_volumes",
    "load_volumes",
]
