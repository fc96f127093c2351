"""The piggyback replay engine.

Replays a (pseudo-proxy) trace against a volume store exactly the way the
paper post-processes its server logs: each request updates volume
maintenance, a proxy filter is applied to the requested resource's volume,
and the resulting piggyback message is scored against the source's future
requests.  All Section 3 figures are parameterizations of this engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.filters import ProxyFilter
from ..core.rpv import RpvList
from ..traces.records import Trace
from ..volumes.base import VolumeStore
from .metrics import ReplayMetrics
from .windows import SourceState

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
        if self.access_filter < 0:
            raise ValueError("access_filter must be non-negative")
        if self.rpv_min_gap is not None and self.rpv_min_gap < 0:
            raise ValueError("rpv_min_gap must be non-negative")
        if not 0.0 <= self.enable_probability <= 1.0:
            raise ValueError("enable_probability must be in [0, 1]")


def replay(trace: Trace, store: VolumeStore, config: ReplayConfig = ReplayConfig()) -> ReplayMetrics:
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
    the online counts maintained by the volume store.
    """
    window = config.prediction_window
    metrics = ReplayMetrics()
    states: dict[str, SourceState] = {}
    rpvs: dict[str, RpvList] = {}

    total_counts: dict[str, int] | None = None
    if config.precount_accesses and config.access_filter > 0:
        total_counts = trace.url_counts()

    rng = random.Random(config.seed) if config.enable_probability < 1.0 else None

    for record in trace:
        source, url, now = record.source, record.url, record.timestamp
        state = states.get(source)
        if state is None:
            state = SourceState()
            states[source] = state
        measured = now >= config.measure_after

        # -- 1. score this request against past piggybacks ----------------
        if measured:
            metrics.requests += 1
            predicted = state.carried.within(url, now, window)
            if predicted:
                metrics.predicted_requests += 1
            age = state.requested.age(url, now)
            if age is not None and age <= config.history_window:
                metrics.prev_occurrence_within_history += 1
                if age <= config.recent_window:
                    metrics.prev_occurrence_recent += 1
                elif predicted:
                    metrics.updated_by_piggyback += 1
            if state.resolve_prediction(url, now, window):
                metrics.predictions_true += 1
        else:
            state.pending.pop(url, None)
        # The prediction, if any, is consumed by this access.
        state.carried.forget(url)
        state.requested.record(url, now)

        # -- 2. volume maintenance ----------------------------------------
        store.observe(record)

        # -- 3. build and apply the filter ---------------------------------
        if rng is not None and rng.random() >= config.enable_probability:
            continue  # piggyback bit disabled for this request
        lookup = store.lookup(url)
        if lookup is None:
            continue
        rpv: RpvList | None = None
        active_ids: frozenset[int] = frozenset()
        if config.rpv_min_gap is not None and config.rpv_min_gap > 0:
            rpv = rpvs.get(source)
            if rpv is None:
                rpv = RpvList(timeout=config.rpv_min_gap, max_entries=config.rpv_max_entries)
                rpvs[source] = rpv
            active_ids = rpv.active_ids(now)

        candidates = lookup.candidates
        if config.access_filter > 0:
            if total_counts is not None:
                counts = total_counts
                candidates = (
                    c for c in candidates
                    if counts.get(c.url, 0) >= config.access_filter
                )
            else:
                candidates = (
                    c for c in candidates if c.access_count >= config.access_filter
                )

        proxy_filter = ProxyFilter(
            enabled=True,
            max_elements=config.max_elements,
            recently_piggybacked=active_ids,
            probability_threshold=config.base_filter.probability_threshold,
            min_access_count=0,
            max_resource_size=config.base_filter.max_resource_size,
            excluded_content_types=config.base_filter.excluded_content_types,
        )
        message = proxy_filter.apply(lookup.volume_id, candidates, url)
        if message is None:
            continue

        # -- 4. account the piggyback and open predictions -----------------
        if rpv is not None:
            rpv.record(message.volume_id, now)
        if measured:
            metrics.piggyback_messages += 1
            metrics.piggyback_elements += len(message)
            metrics.piggyback_bytes += message.wire_bytes()
        for element in message:
            is_new = not state.carried.within(element.url, now, window)
            state.carried.record(element.url, now)
            if is_new:
                if measured:
                    metrics.predictions_opened += 1
                    state.open_prediction(element.url, now)
                else:
                    state.pending.pop(element.url, None)
    return metrics


def replay_many(trace, entries, engine: str = "fast") -> list[ReplayMetrics]:
    """Score several (store, config) pairs against one trace.

    This is the multi-config mode of :func:`replay`: with the default
    ``engine="fast"`` the interned engine makes a *single* pass over the
    trace, sharing trace decoding and volume maintenance across all
    configurations (entries that pass the same store/config object share
    one maintained store).  Results are bit-identical to running
    :func:`replay` serially per entry, which is exactly what
    ``engine="reference"`` does.

    Each entry is ``(store_or_config, ReplayConfig)`` where the store may
    be a :class:`~repro.volumes.base.VolumeStore` or a store config.  The
    fast engine replays directory configs and directory stores (the given
    instance itself, which must hold no entries yet or live on the trace's
    id space) and probability volumes; see
    :func:`repro.volumes.interned.build_interned_store`.  Anything else
    raises ``UnsupportedStoreError`` under the fast engine — use
    ``engine="reference"`` for those.
    """
    if engine == "fast":
        from .fastreplay import replay_interned_multi

        return replay_interned_multi(trace, entries)
    if engine != "reference":
        raise ValueError(f"unknown engine {engine!r}")
    from ..volumes.directory import DirectoryVolumeConfig, DirectoryVolumeStore
    from ..volumes.probability import ProbabilityVolumes, ProbabilityVolumeStore

    results = []
    for store_like, config in entries:
        if isinstance(store_like, DirectoryVolumeConfig):
            store: VolumeStore = DirectoryVolumeStore(store_like)
        elif isinstance(store_like, ProbabilityVolumes):
            store = ProbabilityVolumeStore(store_like)
        elif isinstance(store_like, VolumeStore):
            store = store_like
        else:
            raise TypeError(
                f"reference engine needs a VolumeStore or store config, "
                f"got {type(store_like).__name__}"
            )
        results.append(replay(trace, store, config))
    return results
