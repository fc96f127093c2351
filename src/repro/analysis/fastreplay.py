"""The replay engine: one trace pass, many configurations.

This is the scoring loop behind :func:`repro.analysis.prediction.replay`
and :func:`~repro.analysis.prediction.replay_many`, and the only one in
the package.  It operates on a
:class:`~repro.traces.intern.ChunkedCompiledTrace` (dense integer ids,
columnar chunks) and volume stores maintained on the trace's ids (a
:class:`~repro.volumes.directory.DirectoryVolumeStore` or a
:class:`~repro.volumes.probability.ProbabilityVolumeStore` built on the
trace's id space: the same classes the origin serves from), and it can
score several :class:`~repro.analysis.prediction.ReplayConfig` filter
configurations in a *single* pass over the trace: per-record work that is
independent of the configuration (trace decoding, volume maintenance) is
paid once, and the per-configuration scoring state is kept in parallel.
Any other :class:`~repro.volumes.base.VolumeStore` is fed the trace's own
records through :class:`~repro.volumes.interned.RecordFedStore` and
filtered with :meth:`~repro.core.filters.ProxyFilter.admits_element`.

A plain trace compiles to one chunk; an on-disk chunk file streams chunk
by chunk through the *same* batch kernel, with only the symbol tables,
per-URL columns, and per-source scoring state resident — O(clients +
volumes), never O(records).  At chunk boundaries the driver additionally
prunes per-source state whose timestamps have aged past every configured
window (such entries can no longer influence any score), so memory tracks
the *active* client population on long traces.

Equivalence contract: for every store kind and every chunking, the
engine produces **bit-identical**
:class:`~repro.analysis.metrics.ReplayMetrics` to the per-record
reference replay (frozen in ``tests/replay_oracle.py``) run serially with
a fresh store per configuration — including the random-enable pacing RNG
streams, RPV suppression decisions, and the piggyback byte accounting.
``tests/test_fastreplay_differential.py`` and
``tests/test_streaming_differential.py`` enforce this across the preset
workloads and across chunk sizes.

Two additional rewrites make the per-request cost low:

* candidates of the id-space stores are primitive tuples indexed by url
  id — no ``CandidateElement``/``ProxyFilter``/``PiggybackMessage``
  objects are constructed per request;
* for probability volumes the *filtered piggyback message* per
  (configuration, antecedent) is cached and reused while admission
  depends only on static criteria; a configuration that filters on
  resource size also checks the volume's epoch, which the store bumps
  whenever a member's size changes.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from ..core.filters import ProxyFilter
from ..core.piggyback import VOLUME_ID_BYTES
from ..core.rpv import RpvList
from ..traces.intern import ChunkedCompiledTrace, compile_trace
from ..traces.records import Trace
from ..volumes.directory import ACCESS_COUNT, CONTENT_TYPE, SIZE, URL
from ..volumes.interned import RecordFedStore, build_interned_store
from ..volumes.probability import ProbabilityVolumeStore
from ..telemetry import REGISTRY
from .metrics import ReplayMetrics

if TYPE_CHECKING:
    from .prediction import ReplayConfig

__all__ = ["IdentityIndex", "replay_interned_multi"]

# Batch-level instrumentation only: one timer + one bulk increment per
# replay pass, never per record, so the hot loop stays telemetry-free and
# the engine remains bit-identical with telemetry enabled (no RNG, no
# per-record branches).
_TEL_REPLAY_RECORDS = REGISTRY.counter(
    "analysis_replay_records_total", "trace records scored by the fast replay engine"
)
_TEL_REPLAY_CONFIGS = REGISTRY.counter(
    "analysis_replay_configs_total", "configurations scored by fast replay passes"
)
_TEL_REPLAY_PASS_SECONDS = REGISTRY.histogram(
    "analysis_replay_pass_seconds", "wall time of one multi-config replay pass"
)

#: Streaming drivers prune expired per-source state every this many records.
#: Pruning is O(live state), so the interval amortizes it to ~nothing while
#: keeping peak memory tied to the active client population.
PRUNE_INTERVAL_RECORDS = 1 << 18


class IdentityIndex:
    """Deterministic small-int keys for distinct objects (by identity).

    Replaces ``id()``-keyed containers in replay code: indices are
    assigned in first-seen order, so any path that iterates, sorts, or
    hashes by key is reproducible across runs — CPython memory addresses
    are not.  Lookup is a linear ``is`` scan, which is fine for the
    handful of stores a multi-config replay shares.
    """

    __slots__ = ("objects",)

    def __init__(self) -> None:
        self.objects: list[object] = []

    def __len__(self) -> int:
        return len(self.objects)

    def __contains__(self, obj: object) -> bool:
        return any(seen is obj for seen in self.objects)

    def index_of(self, obj: object) -> int:
        """The object's index, assigning the next one on first sight."""
        for index, seen in enumerate(self.objects):
            if seen is obj:
                return index
        self.objects.append(obj)
        return len(self.objects) - 1


class _FastSourceState:
    """Per-source replay state with url-id keys."""

    __slots__ = ("carried", "requested", "pending", "last_seen")

    def __init__(self) -> None:
        self.carried: dict[int, float] = {}
        self.requested: dict[int, float] = {}
        self.pending: dict[int, float] = {}
        self.last_seen = float("-inf")


class _Slot:
    """One configuration's unpacked parameters and mutable replay state."""

    __slots__ = (
        "config", "store", "metrics", "states", "state", "rpvs", "paced", "rng",
        "window", "history", "recent", "measure_after", "enable_probability",
        "max_elements", "access_filter", "precounts", "probability_threshold",
        "max_resource_size", "excluded_type_ids", "element_filter",
        "cacheable", "size_sensitive", "message_cache",
    )

    def __init__(self, compiled, store, config: ReplayConfig):
        self.config = config
        self.store = store
        self.metrics = ReplayMetrics()
        self.states: dict[int, _FastSourceState] = {}
        # The state of the source whose record is being scored.
        self.state = _FastSourceState()
        self.rpvs: dict[int, RpvList] = {}
        self.paced = config.rpv_min_gap is not None and config.rpv_min_gap > 0
        self.rng = (
            random.Random(config.seed) if config.enable_probability < 1.0 else None
        )
        self.window = config.prediction_window
        self.history = config.history_window
        self.recent = config.recent_window
        self.measure_after = config.measure_after
        self.enable_probability = config.enable_probability
        self.max_elements = config.max_elements
        self.access_filter = config.access_filter
        self.precounts = (
            compiled.url_counts()
            if config.precount_accesses and config.access_filter > 0
            else None
        )
        base = config.base_filter
        self.probability_threshold = base.probability_threshold
        self.max_resource_size = base.max_resource_size
        self.excluded_type_ids = (
            compiled.content_type_id_set(base.excluded_content_types)
            if base.excluded_content_types
            else frozenset()
        )
        # A record-fed store's candidates pass ProxyFilter's own element
        # criteria; without precounted totals the access filter is its
        # count minimum.
        self.element_filter = ProxyFilter(
            probability_threshold=base.probability_threshold,
            min_access_count=config.access_filter if self.precounts is None else 0,
            max_resource_size=base.max_resource_size,
            excluded_content_types=base.excluded_content_types,
        )
        # A cached message stays valid while admission is static: access
        # counts must come from the precounted totals (or not matter), and
        # size-based admission is checked against the volume's epoch.
        self.cacheable = type(store) is ProbabilityVolumeStore and (
            config.access_filter == 0 or self.precounts is not None
        )
        self.size_sensitive = self.max_resource_size is not None
        self.message_cache: dict[int, tuple[tuple[int, ...], int, int]] = {}


def replay_interned_multi(
    trace: Trace | ChunkedCompiledTrace, entries
) -> list[ReplayMetrics]:
    """Score many (store, config) pairs in one pass over *trace*.

    ``entries`` is a sequence of ``(store_or_config, ReplayConfig)`` pairs.
    A :class:`~repro.volumes.directory.DirectoryVolumeConfig` or a
    :class:`~repro.volumes.probability.ProbabilityVolumes` artifact replays
    a fresh store; a store instance is replayed itself, state included
    (:func:`repro.volumes.interned.build_interned_store` has the details).
    Entries sharing a store object (by identity) share its maintenance
    work.  Passing a file-backed :class:`ChunkedCompiledTrace` makes this a
    bounded-memory streaming pass (chunks are decoded one at a time;
    results are bit-identical).  Returns one :class:`ReplayMetrics` per
    entry, in order.
    """
    entries = list(entries)
    with _TEL_REPLAY_PASS_SECONDS.time():
        compiled = compile_trace(trace)
        results = _replay_compiled_multi(compiled, entries)
    _TEL_REPLAY_RECORDS.inc(len(compiled))
    _TEL_REPLAY_CONFIGS.inc(len(entries))
    return results


def _replay_compiled_multi(
    compiled: ChunkedCompiledTrace, entries
) -> list[ReplayMetrics]:
    slots: list[_Slot] = []
    # One replayed store per distinct store/config object, in first-seen
    # order, so multi-config entries keep shared maintenance.
    source_identity = IdentityIndex()
    stores: list = []
    for store_like, config in entries:
        key = source_identity.index_of(store_like)
        if key == len(stores):
            stores.append(build_interned_store(compiled, store_like))
        slots.append(_Slot(compiled, stores[key], config))

    wire = compiled.wire_bytes()
    type_ids = compiled.content_type_ids()
    fed = [store for store in stores if type(store) is RecordFedStore]

    since_prune = 0
    last_time = 0.0
    for chunk in compiled.chunks():
        # Prune between chunks, never after the last one.
        if since_prune >= PRUNE_INTERVAL_RECORDS:
            _prune_slots(slots, last_time)
            since_prune = 0
        for store in fed:
            store.feed(chunk.records(compiled.urls, compiled.sources, compiled.methods))
        _replay_batch(
            slots, stores, wire, type_ids,
            chunk.timestamps, chunk.source_ids, chunk.url_ids, chunk.sizes,
        )
        if len(chunk):
            since_prune += len(chunk)
            last_time = chunk.timestamps[-1]

    return [slot.metrics for slot in slots]


def _replay_batch(
    slots: list[_Slot],
    stores: list,
    wire: list[int],
    type_ids: list[int],
    timestamps,
    source_ids,
    url_ids,
    sizes,
) -> None:
    """Score one chunk's parallel record columns against every slot.

    This is the whole hot loop, called once per chunk: every chunking
    runs the exact same per-record statements, which is what makes
    streaming results bit-identical by construction.
    """
    for index in range(len(url_ids)):
        now = timestamps[index]
        source = source_ids[index]
        url = url_ids[index]

        # -- 1. score this request against past piggybacks ----------------
        for slot in slots:
            state = slot.states.get(source)
            if state is None:
                state = slot.states[source] = _FastSourceState()
            slot.state = state
            metrics = slot.metrics
            measured = now >= slot.measure_after
            carried = state.carried
            pending = state.pending
            if measured:
                metrics.requests += 1
                carried_at = carried.get(url)
                predicted = carried_at is not None and now - carried_at <= slot.window
                if predicted:
                    metrics.predicted_requests += 1
                requested_at = state.requested.get(url)
                if requested_at is not None:
                    age = now - requested_at
                    if age <= slot.history:
                        metrics.prev_occurrence_within_history += 1
                        if age <= slot.recent:
                            metrics.prev_occurrence_recent += 1
                        elif predicted:
                            metrics.updated_by_piggyback += 1
                opened_at = pending.pop(url, None)
                if opened_at is not None and now - opened_at <= slot.window:
                    metrics.predictions_true += 1
            else:
                pending.pop(url, None)
            carried.pop(url, None)
            state.requested[url] = now
            state.last_seen = now

        # -- 2. volume maintenance (once per distinct store) ---------------
        size = sizes[index]
        for store in stores:
            store.observe_id(url, size)

        # -- 3+4. filter, account, open predictions, per configuration -----
        for slot in slots:
            rng = slot.rng
            if rng is not None and rng.random() >= slot.enable_probability:
                continue
            store = slot.store
            metrics = slot.metrics
            limit = slot.max_elements

            result = store.lookup_id(url)
            if result is None:
                continue
            volume_id, candidates = result
            rpv = _rpv_for(slot, source) if slot.paced else None
            if rpv is not None and volume_id in rpv.active_ids(now):
                continue
            if limit == 0:
                continue

            if type(store) is ProbabilityVolumeStore:
                cached = slot.message_cache.get(url) if slot.cacheable else None
                if cached is not None and slot.size_sensitive and cached[2] != store.epoch_of(url):
                    cached = None
                if cached is None:
                    admitted: list[int] = []
                    wire_total = VOLUME_ID_BYTES
                    counts = slot.precounts
                    access_filter = slot.access_filter
                    threshold = slot.probability_threshold
                    max_size = slot.max_resource_size
                    excluded = slot.excluded_type_ids
                    store_sizes = store.sizes
                    store_counts = store.access_counts
                    for consequent, probability in candidates:
                        if consequent == url:
                            continue
                        if counts is not None:
                            if counts[consequent] < access_filter:
                                continue
                        elif access_filter > 0 and store_counts[consequent] < access_filter:
                            continue
                        if probability < threshold:
                            continue
                        if max_size is not None and store_sizes[consequent] > max_size:
                            continue
                        if excluded and type_ids[consequent] in excluded:
                            continue
                        admitted.append(consequent)
                        wire_total += wire[consequent]
                        if limit is not None and len(admitted) >= limit:
                            break
                    cached = (tuple(admitted), wire_total, store.epoch_of(url))
                    if slot.cacheable:
                        slot.message_cache[url] = cached
                element_ids, wire_total, _ = cached
            elif type(store) is RecordFedStore:
                admitted = []
                wire_total = VOLUME_ID_BYTES
                counts = slot.precounts
                access_filter = slot.access_filter
                admits = slot.element_filter.admits_element
                requested = store.requested_url
                for consequent, candidate in candidates:
                    if counts is not None and counts[consequent] < access_filter:
                        continue
                    if not admits(candidate, requested):
                        continue
                    admitted.append(consequent)
                    wire_total += wire[consequent]
                    if limit is not None and len(admitted) >= limit:
                        break
                element_ids = admitted
            else:
                admitted = []
                wire_total = VOLUME_ID_BYTES
                counts = slot.precounts
                access_filter = slot.access_filter
                max_size = slot.max_resource_size
                excluded = slot.excluded_type_ids
                # Directory candidates carry probability 1.0, which always
                # passes the [0, 1] probability threshold — no check needed.
                for entry in candidates:
                    consequent = entry[URL]
                    if consequent == url:
                        continue
                    if counts is not None:
                        if counts[consequent] < access_filter:
                            continue
                    elif access_filter > 0 and entry[ACCESS_COUNT] < access_filter:
                        continue
                    if max_size is not None and entry[SIZE] > max_size:
                        continue
                    if excluded and entry[CONTENT_TYPE] in excluded:
                        continue
                    admitted.append(consequent)
                    wire_total += wire[consequent]
                    if limit is not None and len(admitted) >= limit:
                        break
                element_ids = admitted

            if not element_ids:
                continue
            if rpv is not None:
                rpv.record(volume_id, now)
            measured = now >= slot.measure_after
            if measured:
                metrics.piggyback_messages += 1
                metrics.piggyback_elements += len(element_ids)
                metrics.piggyback_bytes += wire_total
            state = slot.state
            carried = state.carried
            pending = state.pending
            window = slot.window
            for element in element_ids:
                carried_at = carried.get(element)
                is_new = not (carried_at is not None and now - carried_at <= window)
                carried[element] = now
                if is_new:
                    if measured:
                        metrics.predictions_opened += 1
                        pending[element] = now
                    else:
                        pending.pop(element, None)


# Rebuilding a pruned dict only pays off once it is big enough to matter.
_PRUNE_MIN_ENTRIES = 64


def _prune_slots(slots: list[_Slot], now: float) -> None:
    """Reclaim per-source state that can no longer affect any outcome.

    The driver calls this between chunks of a multi-chunk trace.  Every
    scoring read compares an entry's timestamp against a window —
    ``carried``/``pending`` against the prediction window, ``requested``
    against the history window — so entries strictly older than their
    window answer exactly like absent entries, and whole sources idle past
    every window can be dropped.  RPV lists self-expire on read
    (``active_ids`` calls ``expire``), so explicitly expiring one here and
    dropping it when empty reproduces what the next engine read would have
    done anyway.  Metrics therefore remain bit-identical to the unpruned
    one-chunk pass; the differential suite covers configurations that
    exercise every pruned structure.
    """
    for slot in slots:
        horizon = now - max(slot.window, slot.history, slot.recent)
        history_cutoff = now - slot.history
        window_cutoff = now - slot.window
        states = slot.states
        rpvs = slot.rpvs
        dead = [source for source, state in states.items() if state.last_seen < horizon]
        for source in dead:
            del states[source]
            rpv = rpvs.get(source)
            if rpv is not None:
                rpv.expire(now)
                if len(rpv) == 0:
                    del rpvs[source]
        for state in states.values():
            requested = state.requested
            if len(requested) > _PRUNE_MIN_ENTRIES:
                for url in [u for u, t in requested.items() if t < history_cutoff]:
                    del requested[url]
            carried = state.carried
            if len(carried) > _PRUNE_MIN_ENTRIES:
                for url in [u for u, t in carried.items() if t < window_cutoff]:
                    del carried[url]
            pending = state.pending
            if len(pending) > _PRUNE_MIN_ENTRIES:
                for url in [u for u, t in pending.items() if t < window_cutoff]:
                    del pending[url]


def _rpv_for(slot: _Slot, source: int) -> RpvList:
    """The source's RPV list under this configuration, whose pacing is on."""
    config = slot.config
    rpv = slot.rpvs.get(source)
    if rpv is None:
        rpv = RpvList(timeout=config.rpv_min_gap, max_entries=config.rpv_max_entries)
        slot.rpvs[source] = rpv
    return rpv
