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
from collections import Counter, OrderedDict, deque
from typing import Any

from .base import VolumeStore
from .directory import DirectoryVolumeStore, _Entry, _VolumeFifos
from .online import OnlineProbabilityVolumeStore
from .probability import PairwiseEstimator, ProbabilityVolumes, ProbabilityVolumeStore, _Occurrence

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
    future crediting/sampling decisions match the original stream.
    """
    windows = {
        source: [
            [occ.timestamp, occ.url, sorted(occ.credited)]
            for occ in window
        ]
        for source, window in estimator._windows.items()
    }
    return {
        "windows": windows,
        "occurrences": dict(estimator._occurrences),
        "pair_counts": [
            [antecedent, consequent, count]
            for (antecedent, consequent), count in estimator._pair_counts.items()
        ],
        "rng": _rng_state_payload(estimator._rng),
        "skipped_pairs": estimator._skipped_pairs,
    }


def restore_estimator_state(
    estimator: PairwiseEstimator, payload: dict[str, Any]
) -> None:
    """Load captured state into a freshly configured estimator."""
    windows: dict[str, deque[_Occurrence]] = {}
    for source, entries in payload["windows"].items():
        window: deque[_Occurrence] = deque()
        for timestamp, url, credited in entries:
            occurrence = _Occurrence(float(timestamp), str(url))
            occurrence.credited = set(credited)
            window.append(occurrence)
        windows[source] = window
    estimator._windows = windows
    estimator._occurrences = Counter(
        {str(url): int(count) for url, count in payload["occurrences"].items()}
    )
    estimator._pair_counts = {
        (str(antecedent), str(consequent)): int(count)
        for antecedent, consequent, count in payload["pair_counts"]
    }
    estimator._rng.setstate(_rng_state_restore(payload["rng"]))
    estimator._skipped_pairs = int(payload["skipped_pairs"])


# --- directory store ----------------------------------------------------


def _capture_directory(store: DirectoryVolumeStore) -> dict[str, Any]:
    volumes = []
    for key, fifos in store._volumes.items():
        partitions = []
        for partition_key, fifo in fifos._fifos.items():
            partitions.append(
                [
                    partition_key,
                    [
                        [
                            entry.url,
                            entry.size,
                            entry.last_modified,
                            entry.access_count,
                            entry.content_type,
                            entry.last_touch,
                        ]
                        for entry in fifo.values()
                    ],
                ]
            )
        volumes.append([key, partitions, fifos._last_touch_url])
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
    store._epochs = {str(key): int(epoch) for key, epoch in payload["epochs"].items()}
    volumes: dict[str, _VolumeFifos] = {}
    for key, partitions, last_touch_url in payload["volumes"]:
        fifos = _VolumeFifos(store.config.partition_by_type)
        for partition_key, entries in partitions:
            fifo: OrderedDict[str, _Entry] = OrderedDict()
            for url, size, last_modified, access_count, content_type, last_touch in entries:
                fifo[str(url)] = _Entry(
                    url=str(url),
                    size=int(size),
                    last_modified=float(last_modified),
                    access_count=int(access_count),
                    content_type=str(content_type),
                    last_touch=int(last_touch),
                )
            fifos._fifos[str(partition_key)] = fifo
        fifos.rebuild_order()
        fifos._last_touch_url = None if last_touch_url is None else str(last_touch_url)
        volumes[str(key)] = fifos
    store._volumes = volumes


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


def _metadata_payload(store: Any) -> dict[str, Any]:
    return {
        "sizes": dict(store._sizes),
        "mtimes": dict(store._mtimes),
        "access_counts": dict(store._access_counts),
    }


def _metadata_restore(store: Any, payload: dict[str, Any]) -> None:
    store._sizes = {str(url): int(size) for url, size in payload["sizes"].items()}
    store._mtimes = {str(url): float(when) for url, when in payload["mtimes"].items()}
    store._access_counts = Counter(
        {str(url): int(count) for url, count in payload["access_counts"].items()}
    )


def _capture_probability(store: ProbabilityVolumeStore) -> dict[str, Any]:
    return {
        **_base_payload(store),
        **_metadata_payload(store),
        "allocator": store._allocator.assignments(),
        "members": _members_payload(store.volumes),
        "epochs": dict(store._epochs),
    }


def _restore_probability(store: ProbabilityVolumeStore, payload: dict[str, Any]) -> None:
    _base_restore(store, payload)
    _metadata_restore(store, payload)
    store._allocator.restore(payload["allocator"])
    store.volumes = _members_restore(payload["members"])
    store._epochs = {str(url): int(epoch) for url, epoch in payload["epochs"].items()}
    store._candidate_cache = {}
    store._containing = None


def _capture_online(store: OnlineProbabilityVolumeStore) -> dict[str, Any]:
    return {
        **_base_payload(store),
        **_metadata_payload(store),
        "allocator": store._allocator.assignments(),
        "members": _members_payload(store.volumes),
        "estimator": capture_estimator_state(store.estimator),
        "rebuilds": store.rebuilds,
        "observations": store._observations,
        "next_rebuild": store._next_rebuild,
    }


def _restore_online(store: OnlineProbabilityVolumeStore, payload: dict[str, Any]) -> None:
    _base_restore(store, payload)
    _metadata_restore(store, payload)
    store._allocator.restore(payload["allocator"])
    store.volumes = _members_restore(payload["members"])
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
