"""Frozen oracle: the string-keyed directory store, as first written.

``src/`` keeps one directory store, on integer URL ids.  This module is
the string-keyed implementation it replaced, copied unchanged (the
store, its site-wide subclasses and the directory state codec), so the
differential suites compare the id-space store against an independent
implementation instead of against itself.  Do not import it from
``src/`` and do not "fix" it: its behaviour is the specification.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any

from repro import urls
from repro.core.filters import CandidateElement
from repro.devtools.racecheck import share
from repro.traces.records import LogRecord
from repro.volumes.base import VolumeIdAllocator, VolumeLookup, VolumeStore, VolumeVersion
from repro.volumes.directory import DirectoryVolumeConfig

__all__ = [
    "CrossHostVolumeStore",
    "DirectoryVolumeStore",
    "SiteWideVolumeStore",
    "capture_directory",
    "restore_directory",
]


@dataclass(slots=True)
class _Entry:
    """Mutable per-resource maintenance record inside a volume FIFO."""

    url: str
    size: int
    last_modified: float
    access_count: int
    content_type: str
    last_touch: int
    candidate: CandidateElement | None = None

    def as_candidate(self) -> CandidateElement:
        """Cached immutable view; rebuilt lazily after each touch."""
        if self.candidate is None:
            self.candidate = CandidateElement(
                url=self.url,
                last_modified=self.last_modified,
                size=self.size,
                access_count=self.access_count,
                probability=1.0,
                content_type=self.content_type,
            )
        return self.candidate


class _VolumeFifos:
    """One volume's FIFOs: an OrderedDict per content-type partition.

    The *end* of each OrderedDict is the FIFO head (most recent with
    move-to-front, most recently added otherwise); trimming pops the tail
    of the largest partition so no content type floods the volume.
    ``_order`` holds the same entries in one volume-wide touch order
    (ascending ``last_touch``, which is unique per entry), so reads never
    merge the partitions.
    """

    def __init__(self, partition_by_type: bool):
        self._partition_by_type = partition_by_type
        self._fifos: dict[str, OrderedDict[str, _Entry]] = {}
        self._order: OrderedDict[str, _Entry] = OrderedDict()
        self._last_touch_url: str | None = None

    def __len__(self) -> int:
        return len(self._order)

    def _fifo_for(self, content_type: str) -> OrderedDict[str, _Entry]:
        key = content_type if self._partition_by_type else ""
        fifo = self._fifos.get(key)
        if fifo is None:
            fifo = OrderedDict()
            self._fifos[key] = fifo
        return fifo

    def touch(
        self, record: LogRecord, content_type: str, move_to_front: bool, touch: int
    ) -> tuple[bool, int]:
        """Account one request; returns (piggyback-visible change?, count).

        "Piggyback-visible" means the candidate *bytes* a lookup yields
        changed: membership, order, a size, or an mtime — everything except
        a bare access-count increment, which the caller versions separately
        against the store's count ceiling.
        """
        fifo = self._fifo_for(content_type)
        entry = fifo.get(record.url)
        changed = entry is None
        if entry is None:
            entry = _Entry(
                url=record.url,
                size=record.size,
                last_modified=record.last_modified or 0.0,
                access_count=0,
                content_type=content_type,
                last_touch=touch,
            )
            fifo[record.url] = entry
            # A fresh entry carries the newest touch, so it heads the
            # volume-wide recency order from here on.
            self._order[record.url] = entry
            self._last_touch_url = record.url
        entry.access_count += 1
        if record.size and entry.size != record.size:
            entry.size = record.size
            changed = True
        if record.last_modified is not None and entry.last_modified != record.last_modified:
            entry.last_modified = record.last_modified
            changed = True
        entry.candidate = None  # invalidate the cached immutable view
        if move_to_front:
            # Plain FIFO keeps insertion order; move-to-front refreshes it.
            entry.last_touch = touch
            fifo.move_to_end(record.url)
            self._order.move_to_end(record.url)
            if self._last_touch_url != record.url:
                changed = True  # global recency order was reshuffled
                self._last_touch_url = record.url
        return changed, entry.access_count

    def trim_to(self, max_size: int) -> int:
        """Drop tail entries until total size is within *max_size*."""
        dropped = 0
        while len(self._order) > max_size:
            largest = max(self._fifos.values(), key=len)
            url, _ = largest.popitem(last=False)
            del self._order[url]
            dropped += 1
        return dropped

    def rebuild_order(self) -> None:
        """Re-derive the volume-wide order from the partitions' entries.

        State restore fills the partitions only: the order is an index
        over ``last_touch``, not state of its own.
        """
        entries = [entry for fifo in self._fifos.values() for entry in fifo.values()]
        entries.sort(key=lambda entry: entry.last_touch)
        self._order = OrderedDict((entry.url, entry) for entry in entries)

    def iter_most_recent_first(self) -> Iterator[_Entry]:
        """All entries across partitions, most recently touched first."""
        return reversed(self._order.values())


class DirectoryVolumeStore(VolumeStore):
    """Level-``k`` directory volumes with FIFO/move-to-front maintenance."""

    def __init__(self, config: DirectoryVolumeConfig = DirectoryVolumeConfig()):
        self.config = config
        self._allocator = VolumeIdAllocator()
        self._volumes: dict[str, _VolumeFifos] = share(
            {}, "DirectoryVolumeStore._volumes"
        )
        self._touch_counter = 0
        # Per-volume epochs: bumped only on piggyback-visible changes, so a
        # steady request mix over a settled volume keeps its epoch (and any
        # serialized piggyback derived from it) stable.
        self._epochs: dict[str, int] = share({}, "DirectoryVolumeStore._epochs")
        # (url, key) of the latest resolution: a request resolves the same
        # URL in observe, lookup_version and lookup.  One tuple, swapped
        # whole, so a reader without the lock still sees a matching pair.
        self._resolved: tuple[str | None, str] = (None, "")

    def volume_key(self, url: str) -> str:
        """The directory prefix defining the volume for *url*."""
        resolved_url, key = self._resolved
        if resolved_url != url:
            key = urls.directory_prefix(url, self.config.level)
            self._resolved = (url, key)
        return key

    def volume_count(self) -> int:
        return len(self._volumes)

    def volume_size(self, url: str) -> int:
        """Number of elements currently in *url*'s volume."""
        volume = self._volumes.get(self.volume_key(url))
        return len(volume) if volume is not None else 0

    def observe(self, record: LogRecord) -> None:
        key = self.volume_key(record.url)
        volume = self._volumes.get(key)
        if volume is None:
            volume = _VolumeFifos(self.config.partition_by_type)
            self._volumes[key] = volume
        self._touch_counter += 1
        changed, access_count = volume.touch(
            record,
            urls.content_type_of(record.url),
            move_to_front=self.config.move_to_front,
            touch=self._touch_counter,
        )
        if self.config.max_volume_size is not None:
            if volume.trim_to(self.config.max_volume_size):
                changed = True
        # A bare count increment is invisible in piggyback bytes unless it
        # can cross some seen filter's min_access_count (<= the ceiling).
        if changed or access_count <= self._count_ceiling:
            self._epochs[key] = self._epochs.get(key, 0) + 1

    def lookup_version(self, url: str) -> VolumeVersion | None:
        key = self.volume_key(url)
        if key not in self._volumes:
            return None
        return VolumeVersion(
            self._allocator.id_for(key), self._epoch_base + self._epochs.get(key, 0)
        )

    def lookup(self, url: str) -> VolumeLookup | None:
        key = self.volume_key(url)
        volume = self._volumes.get(key)
        if volume is None:
            return None
        candidates = (
            entry.as_candidate() for entry in volume.iter_most_recent_first()
        )
        return VolumeLookup(
            volume_id=self._allocator.id_for(key), candidates=candidates
        )




class SiteWideVolumeStore(DirectoryVolumeStore):
    """One volume per server host (directory level 0)."""

    def __init__(self, max_volume_size: int | None = None,
                 partition_by_type: bool = True, move_to_front: bool = True):
        super().__init__(
            DirectoryVolumeConfig(
                level=0,
                max_volume_size=max_volume_size,
                partition_by_type=partition_by_type,
                move_to_front=move_to_front,
            )
        )


class CrossHostVolumeStore(SiteWideVolumeStore):
    """A single volume spanning every host the store observes.

    Only meaningful inside a transparent volume center, which sees traffic
    for many origin servers at once and may piggyback information about
    resources at multiple sites onto one response.
    """

    def volume_key(self, url: str) -> str:
        return "*"


# -- the directory state codec, as first written ---------------------------


def _base_payload(store: VolumeStore) -> dict[str, int]:
    return {
        "store_epoch": store._store_epoch,
        "count_ceiling": store._count_ceiling,
    }


def _base_restore(store: VolumeStore, payload: dict[str, Any]) -> None:
    store._store_epoch = int(payload["store_epoch"])
    store._count_ceiling = int(payload["count_ceiling"])


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


def capture_directory(store: DirectoryVolumeStore) -> dict[str, Any]:
    """The oracle's layout in the ``capture_store_state`` payload shape."""
    return {"store_type": "DirectoryVolumeStore", "state": _capture_directory(store)}


def restore_directory(store: DirectoryVolumeStore, payload: dict[str, Any]) -> None:
    """Load a ``capture_store_state`` payload into a fresh oracle store."""
    assert payload["store_type"] == "DirectoryVolumeStore"
    _restore_directory(store, payload["state"])
