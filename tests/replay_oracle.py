"""Frozen oracle: the per-record reference replay, as first written.

``src/`` keeps one scoring loop, the interned engine in
:mod:`repro.analysis.fastreplay`.  This module is the string-keyed
``replay()`` it replaced and the serial per-entry loop ``replay_many``
ran for ``engine="reference"``, copied unchanged, so the differential
suites compare the engine against an independent implementation instead
of against itself.  Do not import it from ``src/`` and do not "fix" it:
its behaviour is the specification.
"""

from __future__ import annotations

import random

from repro.analysis.metrics import ReplayMetrics
from repro.analysis.prediction import ReplayConfig
from repro.core.filters import ProxyFilter
from repro.core.rpv import RpvList
from repro.traces.records import Trace
from repro.volumes.base import VolumeStore

from replay_windows import SourceState

__all__ = ["replay", "replay_many"]


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


def replay_many(trace, entries) -> list[ReplayMetrics]:
    """Score each (store, config) entry with its own serial :func:`replay`.

    A store config gets a fresh store; a store instance is replayed as
    given, so entries sharing an instance see each other's maintenance.
    """
    from repro.volumes.directory import DirectoryVolumeConfig, DirectoryVolumeStore
    from repro.volumes.probability import ProbabilityVolumes, ProbabilityVolumeStore

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
