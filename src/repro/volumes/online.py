"""Online (periodic) probability-volume construction (Section 3.3.1).

The paper's experiments apply a single set of volumes per log, but the
text allows the server to "estimate the probabilities from the stream of
requests in a periodic fashion, such as once a day or once a week, or in
an online fashion".  :class:`OnlineProbabilityVolumeStore` is that
deployable variant: the pairwise estimator runs continuously, and the
served volume set is re-materialized whenever ``rebuild_interval`` of
trace time has elapsed — so the serving path always reads a consistent,
recently built artifact, never a half-updated structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..traces.records import LogRecord
from .base import VolumeStore
from .probability import (
    PairwiseConfig,
    PairwiseEstimator,
    ProbabilityVolumes,
    ProbabilityVolumeStore,
    build_probability_volumes,
)

__all__ = ["OnlineVolumeConfig", "OnlineProbabilityVolumeStore"]


@dataclass(frozen=True, slots=True)
class OnlineVolumeConfig:
    """Parameters of periodic volume reconstruction."""

    probability_threshold: float = 0.25
    rebuild_interval: float = 86_400.0
    pairwise: PairwiseConfig = PairwiseConfig()
    min_observations: int = 50

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability_threshold <= 1.0:
            raise ValueError("probability_threshold must be in [0, 1]")
        if self.rebuild_interval <= 0:
            raise ValueError("rebuild_interval must be positive")
        if self.min_observations < 0:
            raise ValueError("min_observations must be non-negative")


class OnlineProbabilityVolumeStore(ProbabilityVolumeStore):
    """Probability volumes rebuilt periodically from a live estimator.

    The store and its estimator share one id space.  Between rebuilds the
    store serves like a :class:`ProbabilityVolumeStore`, except that its
    :meth:`lookup_version` is the store-wide one: a rebuild replaces every
    volume at once.  For the same reason the replay engine, which caches
    piggyback messages per volume, replays it through
    :class:`~repro.volumes.interned.RecordFedStore` instead.
    """

    def __init__(self, config: OnlineVolumeConfig = OnlineVolumeConfig()):
        super().__init__(ProbabilityVolumes({}))
        self.config = config
        self.estimator = PairwiseEstimator(config.pairwise, id_space=self.id_space)
        self.rebuilds = 0
        self._observations = 0
        self._next_rebuild: float | None = None

    lookup_version = VolumeStore.lookup_version

    def observe(self, record: LogRecord) -> None:
        self.estimator.observe(record)
        self._observations += 1
        self.observe_id(self._url_id(record.url), record.size, record.last_modified)

        if self._next_rebuild is None:
            self._next_rebuild = record.timestamp + self.config.rebuild_interval
        elif (
            record.timestamp >= self._next_rebuild
            and self._observations >= self.config.min_observations
        ):
            self.rebuild()
            while self._next_rebuild <= record.timestamp:
                self._next_rebuild += self.config.rebuild_interval

    def rebuild(self) -> None:
        """Materialize a fresh volume set from the current estimates."""
        self.volumes = build_probability_volumes(
            self.estimator, self.config.probability_threshold
        )
        self._translate()
        self.rebuilds += 1
