"""The piggyback replay entry points.

Replays a (pseudo-proxy) trace against a volume store exactly the way the
paper post-processes its server logs: each request updates volume
maintenance, a proxy filter is applied to the requested resource's volume,
and the resulting piggyback message is scored against the source's future
requests.  All Section 3 figures are parameterizations of this replay; the
scoring loop itself is :mod:`repro.analysis.fastreplay`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.filters import ProxyFilter
from ..traces.intern import ChunkedCompiledTrace
from ..traces.records import Trace
from .fastreplay import replay_interned_multi
from .metrics import ReplayMetrics

__all__ = ["ReplayConfig", "replay", "replay_many"]


@dataclass(frozen=True, slots=True)
class ReplayConfig:
    """Parameters of one replay experiment."""

    prediction_window: float = 300.0
    history_window: float = 7200.0
    recent_window: float = 300.0
    max_elements: int | None = None
    access_filter: int = 0
    rpv_min_gap: float | None = None
    rpv_max_entries: int = 64
    base_filter: ProxyFilter = field(default_factory=ProxyFilter)
    precount_accesses: bool = True
    measure_after: float = 0.0
    # Random-enable pacing (Section 2.2): each request enables the
    # piggyback bit independently with this probability.
    enable_probability: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.prediction_window <= 0:
            raise ValueError("prediction_window must be positive")
        if self.history_window < self.prediction_window:
            raise ValueError("history_window must be >= prediction_window")
        if self.recent_window > self.history_window:
            raise ValueError("recent_window must be <= history_window")
        if self.max_elements is not None and self.max_elements < 0:
            raise ValueError("max_elements must be non-negative")
        if self.access_filter < 0:
            raise ValueError("access_filter must be non-negative")
        if self.rpv_min_gap is not None and self.rpv_min_gap < 0:
            raise ValueError("rpv_min_gap must be non-negative")
        if self.rpv_max_entries < 1:
            raise ValueError("rpv_max_entries must be >= 1")
        if not 0.0 <= self.enable_probability <= 1.0:
            raise ValueError("enable_probability must be in [0, 1]")


def replay(
    trace: Trace | ChunkedCompiledTrace, store, config: ReplayConfig = ReplayConfig()
) -> ReplayMetrics:
    """Replay *trace* against *store* and measure the Section 3.1 metrics.

    Per request, in order:

    1. score the request against the source's recent piggybacks (fraction
       predicted, update fraction, true-prediction resolution);
    2. feed the request into volume maintenance;
    3. build this source's filter (access filter, element cap, RPV list)
       and apply it to the requested resource's volume;
    4. account the resulting piggyback and open new predictions.

    ``access_filter`` counts accesses over the *entire* trace (the paper's
    definition) when ``precount_accesses`` is set; otherwise it applies to
    the online counts maintained by the volume store.  *store* may be any
    :class:`~repro.volumes.base.VolumeStore` or a store config; this is
    the single-entry form of :func:`replay_many`.
    """
    return replay_many(trace, [(store, config)])[0]


#: Score several ``(store_or_config, ReplayConfig)`` entries in one pass
#: over a trace; see :func:`repro.analysis.fastreplay.replay_interned_multi`.
replay_many = replay_interned_multi
