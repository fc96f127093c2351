"""The state codec: every document the repo keeps on disk.

Three documents outlive a process: the **volume artifact** of ``repro
build-volumes`` (probability volumes plus their build parameters), and a
durable origin's ``snapshot.json`` (store state, resource records and
their journal position) and ``meta.json`` (generation / epoch-base
floor; see :mod:`repro.server.durability`).

Each is one JSON document: a ``format`` tag, a ``version``, a CRC-32
``checksum`` over the canonical JSON of every other field, and the
layout's fields.  One writer puts it on disk atomically (temp file ->
fsync -> ``os.replace`` -> directory fsync, every byte routed through the
:mod:`repro.devtools.chaos` kill switch); one reader validates it and
raises :class:`StateFormatError` for anything unusable.  Writers emit
artifact v3 and snapshot/meta v2.  Readers also accept artifact v1 (no
checksum) and v2 (checksum over the volumes only), snapshot v1 (checksum
over store and resources only) and meta v1 (no checksum).

Store layouts capture **dynamic state only** — FIFO orders, counters,
epochs, pairwise windows, the estimator's RNG.  Configuration is code,
not data: a restore targets a fresh store built by the same factory, and
:func:`restore_store_state` refuses a payload captured from another store
type.  Layouts hold URL strings, never ids (ids are private to a store's
id space); sets are serialized sorted and ordered containers keep their
order, so capture -> restore -> capture is a fixed point and a restored
store behaves exactly like the original from then on.
"""

from __future__ import annotations

import json
import os
import zlib
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator

from ..devtools.chaos import chaos_point, chaos_write
from .base import VolumeStore
from .directory import ACCESS_COUNT, CONTENT_TYPE, LAST_MODIFIED, LAST_TOUCH, SIZE, URL
from .directory import DirectoryVolumeStore, _Volume
from .online import OnlineProbabilityVolumeStore
from .probability import PairwiseEstimator, ProbabilityVolumes, ProbabilityVolumeStore

if TYPE_CHECKING:
    from ..server.resources import ResourceStore

__all__ = [
    "StateFormatError",
    "VolumeArtifact",
    "save_volumes",
    "load_volumes",
    "capture_store_state",
    "restore_store_state",
    "capture_estimator_state",
    "restore_estimator_state",
    "capture_resources",
    "restore_resources",
    "META_NAME",
    "SNAPSHOT_NAME",
    "StateMeta",
    "write_meta",
    "load_meta",
    "SnapshotPayload",
    "write_snapshot",
    "load_snapshot",
]

META_NAME = "meta.json"
SNAPSHOT_NAME = "snapshot.json"


class StateFormatError(ValueError):
    """A state document or payload is unusable: unreadable, damaged, of an
    unknown format or version, or captured from another store type."""


# --- the document envelope ----------------------------------------------


@dataclass(frozen=True, slots=True)
class _Document:
    """One document type: its tag, current version and older versions."""

    kind: str  # names the kill-switch byte stream and replace point
    format: str
    version: int
    # Older versions still read -> the part their checksum covers
    # (None: the version had no checksum).
    legacy: dict[int, Callable[[dict[str, Any]], Any] | None]


_ARTIFACT = _Document(
    "artifact", "repro-probability-volumes", 3,
    {1: None, 2: lambda document: document.get("volumes")},
)
_SNAPSHOT = _Document(
    "snapshot", "repro-state-snapshot", 2,
    {1: lambda document: {"store": document.get("store"),
                          "resources": document.get("resources")}},
)
_META = _Document("meta", "repro-state-meta", 2, {1: None})


def _checksum(covered: Any) -> int:
    canonical = json.dumps(covered, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


def _whole(document: dict[str, Any]) -> dict[str, Any]:
    """What a current-version checksum covers: everything but itself."""
    return {key: value for key, value in document.items() if key != "checksum"}


@contextmanager
def _decoding(what: object) -> Iterator[None]:
    """Turn any error decoding a layout into :class:`StateFormatError`."""
    try:
        yield
    except StateFormatError:
        raise
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise StateFormatError(f"malformed {what}: {exc!r}") from exc


def _write_document(path: Path, spec: _Document, fields: dict[str, Any]) -> int:
    """Atomically and durably write one document; returns its size in bytes.

    A crash at any point leaves the previous document or the new one,
    plus at worst a stale ``*.tmp`` that writers overwrite and readers
    ignore.
    """
    header = {"format": spec.format, "version": spec.version}
    checksum = _checksum({**header, **fields})
    data = json.dumps({**header, "checksum": checksum, **fields}, indent=1).encode("utf-8")
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "wb") as handle:
        chaos_write(handle, data, spec.kind)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    chaos_point(f"{spec.kind}-replace")
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
    return len(data)


def _read_document(path: Path, spec: _Document) -> dict[str, Any]:
    """Read and validate one document: format, version and checksum."""
    try:
        document = json.loads(path.read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or bad JSON
        raise StateFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict) or document.get("format") != spec.format:
        raise StateFormatError(f"{path} is not a {spec.format} file")
    version = document.get("version")
    if type(version) is not int or not (version == spec.version or version in spec.legacy):
        raise StateFormatError(f"{path} has unsupported version {version!r}")
    covered = _whole if version == spec.version else spec.legacy[version]
    if covered is not None:
        expected, actual = document.get("checksum"), _checksum(covered(document))
        if expected != actual:
            raise StateFormatError(
                f"{path} failed its checksum (expected {expected!r}, computed {actual})"
            )
    return document


# --- probability-volume members -------------------------------------------


def _members_payload(volumes: ProbabilityVolumes) -> list[list[Any]]:
    """The one members layout: ``[[antecedent, [[consequent, p], ...]], ...]``
    sorted by antecedent, each volume in its own order."""
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


# --- the volume artifact --------------------------------------------------


@dataclass(frozen=True, slots=True)
class VolumeArtifact:
    """A loaded volume set plus the parameters it was built with."""

    volumes: ProbabilityVolumes
    probability_threshold: float
    window: float
    effectiveness_threshold: float | None
    combine_level: int | None
    source_log: str


def save_volumes(
    volumes: ProbabilityVolumes,
    path: str | Path,
    probability_threshold: float,
    window: float = 300.0,
    effectiveness_threshold: float | None = None,
    combine_level: int | None = None,
    source_log: str = "",
) -> None:
    """Atomically write *volumes* and their construction parameters to *path*."""
    parameters = {
        "probability_threshold": probability_threshold,
        "window": window,
        "effectiveness_threshold": effectiveness_threshold,
        "combine_level": combine_level,
        "source_log": source_log,
    }
    _write_document(Path(path), _ARTIFACT,
                    {"parameters": parameters, "volumes": _members_payload(volumes)})


def load_volumes(path: str | Path) -> VolumeArtifact:
    """Load a persisted volume artifact (format version 1, 2 or 3).

    Raises :class:`StateFormatError` on anything that is not one, and
    ``FileNotFoundError`` when *path* does not exist.
    """
    path = Path(path)
    document = _read_document(path, _ARTIFACT)
    with _decoding(path):
        members = document["volumes"]
        if document["version"] < 3:  # v1/v2 keyed the members by antecedent
            members = list(members.items())
        parameters = document["parameters"]
        effectiveness = parameters["effectiveness_threshold"]
        level = parameters["combine_level"]
        return VolumeArtifact(
            volumes=_members_restore(members),
            probability_threshold=float(parameters["probability_threshold"]),
            window=float(parameters["window"]),
            effectiveness_threshold=None if effectiveness is None else float(effectiveness),
            combine_level=None if level is None else int(level),
            source_log=str(parameters.get("source_log", "")),
        )


# --- pairwise estimator ----------------------------------------------------


def capture_estimator_state(estimator: PairwiseEstimator) -> dict[str, Any]:
    """Dynamic state of a streaming pairwise estimator.

    Windows (with per-occurrence credited sets, serialized sorted) and
    the sampling RNG are included, so restored estimates *and* restored
    future crediting/sampling decisions match the original stream.
    """
    urls = estimator.id_space.urls.strings
    sources = estimator.id_space.sources.strings
    shift = estimator._KEY_SHIFT
    version, internal, gauss = estimator._rng.getstate()
    return {
        "windows": {
            sources[source]: [
                [timestamp, urls[url], sorted(urls[other] for other in credited)]
                for timestamp, url, credited, _prefix in window
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
        "rng": [version, list(internal), gauss],
        "skipped_pairs": estimator._skipped_pairs,
    }


def restore_estimator_state(
    estimator: PairwiseEstimator, payload: dict[str, Any]
) -> None:
    """Load captured state into a freshly configured estimator."""
    intern_url = estimator.id_space.ensure_url
    intern_source = estimator.id_space.sources.intern
    entry = estimator._window_entry
    estimator._windows = {
        intern_source(str(source)): deque(
            entry(float(timestamp), intern_url(str(url)), {intern_url(str(o)) for o in credited})
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
    version, internal, gauss = payload["rng"]
    estimator._rng.setstate((version, tuple(internal), gauss))
    estimator._skipped_pairs = int(payload["skipped_pairs"])


# --- store state -----------------------------------------------------------


def _base_payload(store: VolumeStore) -> dict[str, int]:
    return {
        "store_epoch": store._store_epoch,
        "count_ceiling": store._count_ceiling,
    }


def _base_restore(store: VolumeStore, payload: dict[str, Any]) -> None:
    store._store_epoch = int(payload["store_epoch"])
    store._count_ceiling = int(payload["count_ceiling"])


def _capture_directory(store: DirectoryVolumeStore) -> dict[str, Any]:
    # An unpartitioned FIFO is "".
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
        raise StateFormatError(
            f"no state codec for volume store type {type(store).__name__}"
        )
    return type(store).__name__, codec


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
    tag, (_, restore) = _codec_for(store)
    with _decoding("store-state payload"):
        if payload["store_type"] != tag:
            raise StateFormatError(
                f"payload for {payload['store_type']!r} cannot restore a {tag}"
            )
        restore(store, payload["state"])


# --- resource records -------------------------------------------------------


def capture_resources(resources: ResourceStore) -> dict[str, Any]:
    """JSON-safe payload of a resource store's records and epoch."""
    return {
        "epoch": resources._epoch,
        "records": [[url, record.size, record.content_type, record.last_modified]
                    for url, record in sorted(resources._records.items())],
    }


def restore_resources(resources: ResourceStore, payload: dict[str, Any]) -> None:
    """Replace *resources*' records with a captured payload."""
    with _decoding("resource records"):
        resources._records.clear()
        for url, size, content_type, last_modified in payload["records"]:
            resources.add(
                str(url),
                size=int(size),
                content_type=str(content_type),
                last_modified=float(last_modified),
            )
        resources._epoch = int(payload["epoch"])


# --- state-directory documents ------------------------------------------------


@dataclass(frozen=True, slots=True)
class StateMeta:
    """Durable floor for generation and epoch base."""

    generation: int
    epoch_base: int


def write_meta(state_dir: str | Path, meta: StateMeta) -> None:
    _write_document(Path(state_dir) / META_NAME, _META,
                    {"generation": meta.generation, "epoch_base": meta.epoch_base})


def load_meta(state_dir: str | Path) -> StateMeta | None:
    """The recorded meta, or None when the file does not exist."""
    path = Path(state_dir) / META_NAME
    if not path.exists():
        return None
    document = _read_document(path, _META)
    with _decoding(path):
        return StateMeta(
            generation=int(document["generation"]),
            epoch_base=int(document["epoch_base"]),
        )


@dataclass(frozen=True, slots=True)
class SnapshotPayload:
    """A decoded snapshot: state plus its position in the journal order."""

    generation: int
    state_epoch_base: int
    last_seq: int
    store_state: dict[str, Any]
    resources_state: dict[str, Any] | None


def write_snapshot(
    state_dir: str | Path,
    *,
    generation: int,
    state_epoch_base: int,
    last_seq: int,
    store_state: dict[str, Any],
    resources_state: dict[str, Any] | None,
) -> int:
    """Atomically persist a snapshot; returns its size in bytes.

    ``store_state`` must be a consistent capture (taken under the store
    lock) of the state as of journal sequence ``last_seq``; recovery
    replays only records after that point.  ``state_epoch_base`` records
    the base in effect, so restarts can mint strictly larger epochs.
    """
    return _write_document(
        Path(state_dir) / SNAPSHOT_NAME,
        _SNAPSHOT,
        {
            "generation": generation,
            "state_epoch_base": state_epoch_base,
            "last_seq": last_seq,
            "store": store_state,
            "resources": resources_state,
        },
    )


def load_snapshot(state_dir: str | Path) -> SnapshotPayload | None:
    """The persisted snapshot, or None when no snapshot exists.

    Raises :class:`StateFormatError` on a file that exists but fails
    validation — snapshots are written atomically, so damage is never a
    crash artifact and never silently skipped.
    """
    path = Path(state_dir) / SNAPSHOT_NAME
    if not path.exists():
        return None
    document = _read_document(path, _SNAPSHOT)
    with _decoding(path):
        return SnapshotPayload(
            generation=int(document["generation"]),
            state_epoch_base=int(document["state_epoch_base"]),
            last_seq=int(document["last_seq"]),
            store_state=document["store"],
            resources_state=document["resources"],
        )
