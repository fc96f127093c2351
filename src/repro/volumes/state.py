"""Capture/restore codecs for live volume-store state.

:mod:`repro.volumes.persistence` stores the *constructed* probability
artifact; this module serializes the *runtime* state a serving store
accumulates — FIFO orders, access counters, per-volume epochs, pairwise
counters, even the estimator's RNG state — so a durable origin
(:mod:`repro.server.durability`) can snapshot a store and restore it
bit-identically after a crash.

The codec deliberately captures **dynamic state only**.  Configuration
(directory level, pairwise window, admission callables) is code, not
data: a restore always targets a freshly constructed store built by the
same factory that built the original, and :func:`restore_store_state`
refuses a payload whose type tag does not match the target.  That keeps
unpicklable config (e.g. ``PairwiseConfig.pair_admitted``) out of the
artifact and makes version skew loud instead of silent.

Determinism matters here: every set is serialized sorted and every
ordered container keeps its order, so capture -> restore -> capture is a
fixed point and a restored store's future behavior (including candidate
iteration order and sampling RNG draws) matches the original exactly.
"""

from __future__ import annotations

import random
from collections import OrderedDict, deque
from typing import Any

from .base import VolumeStore
from .directory import ACCESS_COUNT, CONTENT_TYPE, LAST_MODIFIED, LAST_TOUCH, SIZE, URL
from .directory import DirectoryVolumeStore, _Volume
from .online import OnlineProbabilityVolumeStore
from .probability import PairwiseEstimator, ProbabilityVolumes, ProbabilityVolumeStore

__all__ = [
    "StateCodecError",
    "capture_store_state",
    "restore_store_state",
    "supported_store",
    "capture_estimator_state",
    "restore_estimator_state",
]


class StateCodecError(ValueError):
    """A store cannot be captured, or a payload does not fit the target."""


# --- shared helpers -----------------------------------------------------


def _rng_state_payload(rng: random.Random) -> list[Any]:
    """``random.Random`` state as JSON-safe nested lists."""

    def convert(value: Any) -> Any:
        if isinstance(value, tuple):
            return [convert(item) for item in value]
        return value

    return [convert(part) for part in rng.getstate()]


def _rng_state_restore(payload: list[Any]) -> tuple[Any, ...]:
    """Invert :func:`_rng_state_payload` back into ``setstate`` form."""

    def convert(value: Any) -> Any:
        if isinstance(value, list):
            return tuple(convert(item) for item in value)
        return value

    state = tuple(convert(part) for part in payload)
    if len(state) != 3:
        raise StateCodecError("malformed RNG state")
    return state


def _base_payload(store: VolumeStore) -> dict[str, int]:
    return {
        "store_epoch": store._store_epoch,
        "count_ceiling": store._count_ceiling,
    }


def _base_restore(store: VolumeStore, payload: dict[str, Any]) -> None:
    store._store_epoch = int(payload["store_epoch"])
    store._count_ceiling = int(payload["count_ceiling"])


# --- pairwise estimator -------------------------------------------------


def capture_estimator_state(estimator: PairwiseEstimator) -> dict[str, Any]:
    """Dynamic state of a streaming pairwise estimator.

    Windows (with per-occurrence credited sets, serialized sorted) and
    the sampling RNG are included, so restored estimates *and* restored
    future crediting/sampling decisions match the original stream.  Like
    every layout here it holds source and URL strings, never ids.
    """
    urls = estimator.id_space.urls.strings
    sources = estimator.id_space.sources.strings
    shift = estimator._KEY_SHIFT
    return {
        "windows": {
            sources[source]: [
                [timestamp, urls[url], sorted(urls[other] for other in credited)]
                for timestamp, url, credited in window
            ]
            for source, window in estimator._windows.items()
        },
        "occurrences": {
            urls[url]: count for url, count in enumerate(estimator._occurrences) if count
        },
        "pair_counts": [
            [urls[key >> shift], urls[key & ((1 << shift) - 1)], count]
            for key, count in estimator._pair_counts.items()
        ],
        "rng": _rng_state_payload(estimator._rng),
        "skipped_pairs": estimator._skipped_pairs,
    }


def restore_estimator_state(
    estimator: PairwiseEstimator, payload: dict[str, Any]
) -> None:
    """Load captured state into a freshly configured estimator."""
    intern_url = estimator.id_space.ensure_url
    intern_source = estimator.id_space.sources.intern
    estimator._windows = {
        intern_source(str(source)): deque(
            [float(timestamp), intern_url(str(url)), {intern_url(str(o)) for o in credited}]
            for timestamp, url, credited in entries
        )
        for source, entries in payload["windows"].items()
    }
    shift = estimator._KEY_SHIFT
    estimator._pair_counts = {
        (intern_url(str(antecedent)) << shift) | intern_url(str(consequent)): int(count)
        for antecedent, consequent, count in payload["pair_counts"]
    }
    counts = {intern_url(str(url)): int(count) for url, count in payload["occurrences"].items()}
    estimator._occurrences = [0] * len(estimator.id_space.urls)
    for url_id, count in counts.items():
        estimator._occurrences[url_id] = count
    estimator._rng.setstate(_rng_state_restore(payload["rng"]))
    estimator._skipped_pairs = int(payload["skipped_pairs"])


# --- directory store ----------------------------------------------------


def _capture_directory(store: DirectoryVolumeStore) -> dict[str, Any]:
    # The layout holds URL and content-type strings, never ids: ids are
    # private to the store's id space.  An unpartitioned FIFO is "".
    urls = store.id_space.urls.strings
    types = store.id_space.content_types.strings
    volumes = []
    for key, volume in store._volumes.items():
        partitions = []
        for partition, fifo in volume.fifos.items():
            partitions.append(
                [
                    "" if partition < 0 else types[partition],
                    [
                        [
                            urls[entry[URL]],
                            entry[SIZE],
                            entry[LAST_MODIFIED],
                            entry[ACCESS_COUNT],
                            types[entry[CONTENT_TYPE]],
                            entry[LAST_TOUCH],
                        ]
                        for entry in fifo.values()
                    ],
                ]
            )
        last = volume.last_touched
        volumes.append([key, partitions, None if last is None else urls[last]])
    return {
        **_base_payload(store),
        "allocator": store._allocator.assignments(),
        "volumes": volumes,
        "touch_counter": store._touch_counter,
        "epochs": dict(store._epochs),
    }


def _restore_directory(store: DirectoryVolumeStore, payload: dict[str, Any]) -> None:
    _base_restore(store, payload)
    store._allocator.restore(payload["allocator"])
    store._touch_counter = int(payload["touch_counter"])
    epochs = {str(key): int(epoch) for key, epoch in payload["epochs"].items()}
    intern_url = store.id_space.ensure_url
    intern_type = store.id_space.content_types.intern
    partition_by_type = store.config.partition_by_type
    volumes: dict[str, _Volume] = {}
    for key, partitions, last_touch_url in payload["volumes"]:
        volume = _Volume()
        for partition_key, entries in partitions:
            fifo: OrderedDict[int, list] = OrderedDict()
            for url, size, last_modified, access_count, content_type, last_touch in entries:
                url_id = intern_url(str(url))
                fifo[url_id] = [url_id, int(size), int(access_count),
                                intern_type(str(content_type)), int(last_touch),
                                float(last_modified), None]
            partition = intern_type(str(partition_key)) if partition_by_type else -1
            volume.fifos[partition] = fifo
        volume.rebuild_order()
        if last_touch_url is not None:
            volume.last_touched = intern_url(str(last_touch_url))
        volumes[str(key)] = volume
    # Refill the store's own containers: they stay race-checked.
    store._epochs.clear()
    store._epochs.update(epochs)
    store._volumes.clear()
    store._volumes.update(volumes)


# --- probability stores -------------------------------------------------


def _members_payload(volumes: ProbabilityVolumes) -> list[list[Any]]:
    return [
        [antecedent, [[consequent, probability]
                      for consequent, probability in volumes.members_of(antecedent)]]
        for antecedent in sorted(volumes.antecedents())
    ]


def _members_restore(payload: list[list[Any]]) -> ProbabilityVolumes:
    return ProbabilityVolumes(
        {
            str(antecedent): [(str(consequent), float(probability))
                              for consequent, probability in pairs]
            for antecedent, pairs in payload
        }
    )


# Metadata columns: (name, payload conversion, value of an unset entry).
_METADATA = (("sizes", int, 0), ("mtimes", float, None), ("access_counts", int, 0))


def _served_payload(store: ProbabilityVolumeStore) -> dict[str, Any]:
    """The layout both probability stores share, keyed by URL strings."""
    urls = store.id_space.urls.strings
    columns = {
        name: {urls[url_id]: value for url_id, value in enumerate(getattr(store, name))
               if value != unset}
        for name, _, unset in _METADATA
    }
    return {
        **_base_payload(store),
        **columns,
        "allocator": {urls[url_id]: volume_id
                      for url_id, volume_id in store._allocator.assignments().items()},
        "members": _members_payload(store.volumes),
    }


def _served_restore(store: ProbabilityVolumeStore, payload: dict[str, Any]) -> None:
    _base_restore(store, payload)
    store.volumes = _members_restore(payload["members"])
    store._translate()
    intern_url = store.id_space.ensure_url
    store._allocator.restore(
        {intern_url(str(url)): volume_id for url, volume_id in payload["allocator"].items()}
    )
    store.sizes, store.mtimes, store.access_counts = [], [], []
    store._grow()
    for name, convert, _ in _METADATA:
        column = getattr(store, name)  # _url_id grows it in place
        for url, value in payload[name].items():
            column[store._url_id(str(url))] = convert(value)


def _capture_probability(store: ProbabilityVolumeStore) -> dict[str, Any]:
    urls = store.id_space.urls.strings
    return {
        **_served_payload(store),
        "epochs": {urls[url_id]: epoch for url_id, epoch in store._epochs.items()},
    }


def _restore_probability(store: ProbabilityVolumeStore, payload: dict[str, Any]) -> None:
    _served_restore(store, payload)
    intern_url = store.id_space.ensure_url
    store._epochs = {intern_url(str(url)): int(epoch) for url, epoch in payload["epochs"].items()}


def _capture_online(store: OnlineProbabilityVolumeStore) -> dict[str, Any]:
    return {
        **_served_payload(store),
        "estimator": capture_estimator_state(store.estimator),
        "rebuilds": store.rebuilds,
        "observations": store._observations,
        "next_rebuild": store._next_rebuild,
    }


def _restore_online(store: OnlineProbabilityVolumeStore, payload: dict[str, Any]) -> None:
    _served_restore(store, payload)
    restore_estimator_state(store.estimator, payload["estimator"])
    store.rebuilds = int(payload["rebuilds"])
    store._observations = int(payload["observations"])
    next_rebuild = payload["next_rebuild"]
    store._next_rebuild = None if next_rebuild is None else float(next_rebuild)


_CODECS: dict[type, tuple[Any, Any]] = {
    DirectoryVolumeStore: (_capture_directory, _restore_directory),
    ProbabilityVolumeStore: (_capture_probability, _restore_probability),
    OnlineProbabilityVolumeStore: (_capture_online, _restore_online),
}


def _codec_for(store: VolumeStore) -> tuple[str, tuple[Any, Any]]:
    codec = _CODECS.get(type(store))
    if codec is None:
        raise StateCodecError(
            f"no state codec for volume store type {type(store).__name__}"
        )
    return type(store).__name__, codec


def supported_store(store: VolumeStore) -> bool:
    """True when *store*'s runtime state can be captured and restored."""
    return type(store) in _CODECS


def capture_store_state(store: VolumeStore) -> dict[str, Any]:
    """One JSON-serializable dict of *store*'s complete dynamic state.

    Callers must hold the store's lock (or otherwise guarantee no
    concurrent mutation) for a consistent capture.
    """
    tag, (capture, _) = _codec_for(store)
    return {"store_type": tag, "state": capture(store)}


def restore_store_state(store: VolumeStore, payload: dict[str, Any]) -> None:
    """Load a captured payload into a freshly constructed *store*.

    The target must be the same concrete type the payload was captured
    from, built with the same configuration.
    """
    if not isinstance(payload, dict) or "store_type" not in payload:
        raise StateCodecError("malformed store-state payload")
    tag, (_, restore) = _codec_for(store)
    if payload["store_type"] != tag:
        raise StateCodecError(
            f"payload for {payload['store_type']!r} cannot restore a {tag}"
        )
    try:
        restore(store, payload["state"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise StateCodecError(f"corrupt store-state payload: {exc}") from exc
