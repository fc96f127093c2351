"""Directory-based volumes (Section 3.2).

Resources sharing a level-``k`` directory prefix form one volume.  Each
volume is maintained as a collection of logical FIFOs partitioned by
content type, with move-to-front semantics: a requested resource jumps to
the head of its FIFO, so piggyback messages lead with the most recently
accessed (an O(1) approximation of popularity ranking).  Unpopular entries
fall off the tail when a volume exceeds its size bound.

Beside the partitions every volume keeps one volume-wide recency order,
so reading the ``k`` most recent entries costs ``k`` steps however large
the volume is; the partitions only decide which entry a trim drops.

One implementation serves every user.  Its FIFO core works on dense
integer URL ids from an *id space* (the symbol tables and per-URL
columns of a :mod:`compiled trace <repro.traces.intern>`).  ``observe``,
``lookup`` and ``lookup_version`` intern URL strings at the edge, for the
origin, the volume center and the durable state; ``observe_id`` and
``lookup_id`` take a compiled trace's own ids, for the fast replay engine,
which builds the store on that trace.  By default a store grows its own
id space.  Volume keys stay strings (``volume_key``), so a subclass
re-keys volumes by overriding one method.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass

from .. import urls
from ..core.filters import CandidateElement
from ..devtools.racecheck import share
from ..traces.intern import ChunkedCompiledTrace, growing_id_space
from ..traces.records import LogRecord
from .base import VolumeIdAllocator, VolumeLookup, VolumeStore, VolumeVersion

__all__ = ["DirectoryVolumeConfig", "DirectoryVolumeStore"]

# Entry field offsets.  Entries are plain lists, not objects, so a touch
# constructs nothing; CANDIDATE caches the entry's immutable
# CandidateElement view until the next touch.
URL, SIZE, ACCESS_COUNT, CONTENT_TYPE, LAST_TOUCH, LAST_MODIFIED, CANDIDATE = range(7)


@dataclass(frozen=True, slots=True)
class DirectoryVolumeConfig:
    """Knobs for directory-volume construction and maintenance."""

    level: int = 1
    max_volume_size: int | None = None
    partition_by_type: bool = True
    move_to_front: bool = True

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("directory level must be >= 0")
        if self.max_volume_size is not None and self.max_volume_size < 1:
            raise ValueError("max_volume_size must be >= 1")


class _Volume:
    """One volume's FIFOs: an OrderedDict of entries per partition.

    Partitions are keyed by content-type id (-1 when the store does not
    partition).  The *end* of each OrderedDict is the FIFO head (most
    recent with move-to-front, most recently added otherwise); trimming
    pops the tail of the largest partition so no content type floods the
    volume.  ``order`` holds the same entries in one volume-wide touch
    order (ascending ``last_touch``, which is unique per entry), so reads
    never merge the partitions.
    """

    __slots__ = ("fifos", "order", "last_touched")

    def __init__(self) -> None:
        self.fifos: dict[int, OrderedDict[int, list]] = {}
        self.order: OrderedDict[int, list] = OrderedDict()
        self.last_touched: int | None = None

    def __len__(self) -> int:
        return len(self.order)

    def touch(
        self, url_id: int, size: int, last_modified: float | None, type_id: int,
        partition: int, move_to_front: bool, touch: int,
    ) -> tuple[bool, int]:
        """Account one request; returns (piggyback-visible change?, count).

        "Piggyback-visible" means the candidate *bytes* a lookup yields
        changed: membership, order, a size, or an mtime — everything except
        a bare access-count increment, which the caller versions separately
        against the store's count ceiling.
        """
        fifo = self.fifos.get(partition)
        if fifo is None:
            fifo = self.fifos[partition] = OrderedDict()
        entry = fifo.get(url_id)
        if entry is None:
            # A fresh entry carries the newest touch, so it already heads
            # its FIFO and the volume-wide recency order.
            entry = [url_id, size, 1, type_id, touch, last_modified or 0.0, None]
            fifo[url_id] = entry
            self.order[url_id] = entry
            self.last_touched = url_id
            return True, 1
        changed = False
        entry[ACCESS_COUNT] += 1
        if size and entry[SIZE] != size:
            entry[SIZE] = size
            changed = True
        if last_modified is not None and entry[LAST_MODIFIED] != last_modified:
            entry[LAST_MODIFIED] = last_modified
            changed = True
        entry[CANDIDATE] = None
        if move_to_front:
            # Plain FIFO keeps insertion order; move-to-front refreshes it.
            entry[LAST_TOUCH] = touch
            fifo.move_to_end(url_id)
            self.order.move_to_end(url_id)
            if self.last_touched != url_id:
                changed = True  # global recency order was reshuffled
                self.last_touched = url_id
        return changed, entry[ACCESS_COUNT]

    def trim_to(self, max_size: int) -> int:
        """Drop tail entries until total size is within *max_size*.

        Pops from the largest partition, first-created partition winning
        ties.
        """
        dropped = 0
        while len(self.order) > max_size:
            largest = max(self.fifos.values(), key=len)
            url_id, _ = largest.popitem(last=False)
            del self.order[url_id]
            dropped += 1
        return dropped

    def rebuild_order(self) -> None:
        """Re-derive the volume-wide order from the partitions' entries.

        State restore fills the partitions only: the order is an index
        over ``last_touch``, not state of its own.
        """
        entries = [entry for fifo in self.fifos.values() for entry in fifo.values()]
        entries.sort(key=lambda entry: entry[LAST_TOUCH])
        self.order = OrderedDict((entry[URL], entry) for entry in entries)

    def iter_most_recent_first(self) -> Iterator[list]:
        """All entries across partitions, most recently touched first."""
        return reversed(self.order.values())


class DirectoryVolumeStore(VolumeStore):
    """Level-``k`` directory volumes with FIFO/move-to-front maintenance.

    *id_space* supplies the URL and content-type ids of the entries; the
    fast replay engine passes the compiled trace it replays.  Without one
    the store grows its own.
    """

    def __init__(
        self,
        config: DirectoryVolumeConfig = DirectoryVolumeConfig(),
        id_space: ChunkedCompiledTrace | None = None,
    ):
        self.config = config
        self._allocator = VolumeIdAllocator()
        self._volumes: dict[str, _Volume] = share({}, "DirectoryVolumeStore._volumes")
        self._touch_counter = 0
        # Per-volume epochs: bumped only on piggyback-visible changes, so a
        # steady request mix over a settled volume keeps its epoch (and any
        # serialized piggyback derived from it) stable.
        self._epochs: dict[str, int] = share({}, "DirectoryVolumeStore._epochs")
        self._bind(
            id_space if id_space is not None
            else growing_id_space("DirectoryVolumeStore.id_space", config.level)
        )

    def _bind(self, id_space: ChunkedCompiledTrace) -> None:
        self._id_space = id_space
        self._type_ids = id_space.content_type_ids()
        # url id -> volume key, extended as new ids arrive (see _key_at).
        self._key_of: list[str] = share([], "DirectoryVolumeStore._key_of")

    @property
    def id_space(self) -> ChunkedCompiledTrace:
        """The id space whose URL ids :meth:`observe_id` and :meth:`lookup_id` take."""
        return self._id_space

    def adopt_id_space(self, id_space: ChunkedCompiledTrace) -> None:
        """Move a store that holds no entries onto *id_space*.

        Raises ValueError once the store holds entries: their ids belong
        to the current id space.
        """
        if self._volumes:
            raise ValueError("a store holding entries cannot change id space")
        self._bind(id_space)

    def volume_key(self, url: str) -> str:
        """The directory prefix defining the volume for *url*."""
        return urls.directory_prefix(url, self.config.level)

    def _key_at(self, url_id: int) -> str:
        """The volume key of *url_id*, keying every id the id space holds.

        Keying them all at once means a compiled trace, whose URL table is
        complete before replay, misses the column once, not once per URL.
        Directory keys come from the id space's prefix column, which every
        store and estimator on that id space shares; a subclass that
        re-keys volumes is asked through its ``volume_key``.
        """
        key_of = self._key_of
        space = self._id_space
        if type(self).volume_key is DirectoryVolumeStore.volume_key:
            level = self.config.level
            prefixes = space.directory_prefix_table(level).strings
            keys = [prefixes[i] for i in space.directory_prefix_ids(level)[len(key_of):]]
        else:
            keys = [self.volume_key(url) for url in space.urls.strings[len(key_of):]]
        key_of.extend(keys)
        return key_of[url_id]

    def _key_of_url(self, url: str) -> str:
        url_id = self._id_space.urls.id_of(url)
        if url_id is None:  # never observed: key it without interning it
            return self.volume_key(url)
        try:
            return self._key_of[url_id]
        except IndexError:
            return self._key_at(url_id)

    def volume_count(self) -> int:
        return len(self._volumes)

    def volume_size(self, url: str) -> int:
        """Number of elements currently in *url*'s volume."""
        volume = self._volumes.get(self._key_of_url(url))
        return len(volume) if volume is not None else 0

    # -- maintenance ---------------------------------------------------------

    def observe(self, record: LogRecord) -> None:
        self.observe_id(
            self._id_space.ensure_url(record.url), record.size, record.last_modified
        )

    def observe_id(
        self, url_id: int, size: int, last_modified: float | None = None
    ) -> None:
        """Account one request for the URL with id *url_id* in :attr:`id_space`."""
        try:
            key = self._key_of[url_id]
        except IndexError:
            key = self._key_at(url_id)
        volume = self._volumes.get(key)
        if volume is None:
            volume = _Volume()
            self._volumes[key] = volume
        self._touch_counter += 1
        type_id = self._type_ids[url_id]
        config = self.config
        changed, access_count = volume.touch(
            url_id, size, last_modified, type_id,
            type_id if config.partition_by_type else -1,
            config.move_to_front, self._touch_counter,
        )
        if config.max_volume_size is not None:
            if volume.trim_to(config.max_volume_size):
                changed = True
        # A bare count increment is invisible in piggyback bytes unless it
        # can cross some seen filter's min_access_count (<= the ceiling).
        if changed or access_count <= self._count_ceiling:
            self._epochs[key] = self._epochs.get(key, 0) + 1

    # -- reads -----------------------------------------------------------------

    def lookup_version(self, url: str) -> VolumeVersion | None:
        key = self._key_of_url(url)
        if key not in self._volumes:
            return None
        return VolumeVersion(
            self._allocator.id_for(key), self._epoch_base + self._epochs.get(key, 0)
        )

    def lookup(self, url: str) -> VolumeLookup | None:
        key = self._key_of_url(url)
        volume = self._volumes.get(key)
        if volume is None:
            return None
        return VolumeLookup(
            volume_id=self._allocator.id_for(key), candidates=self._candidates(volume)
        )

    def lookup_id(self, url_id: int) -> tuple[int, Iterator[list]] | None:
        """Volume id and raw entries, most recently touched first, or None.

        The id is numbered past the wire's cap: replay never sends it.
        """
        try:
            key = self._key_of[url_id]
        except IndexError:
            key = self._key_at(url_id)
        volume = self._volumes.get(key)
        if volume is None:
            return None
        return self._allocator.index_for(key), volume.iter_most_recent_first()

    def _candidates(self, volume: _Volume) -> Iterator[CandidateElement]:
        """*volume*'s entries as candidates, each view built once per touch."""
        url_strings = self._id_space.urls.strings
        type_strings = self._id_space.content_types.strings
        for entry in volume.iter_most_recent_first():
            candidate = entry[CANDIDATE]
            if candidate is None:
                candidate = CandidateElement(
                    url=url_strings[entry[URL]],
                    last_modified=entry[LAST_MODIFIED],
                    size=entry[SIZE],
                    access_count=entry[ACCESS_COUNT],
                    probability=1.0,
                    content_type=type_strings[entry[CONTENT_TYPE]],
                )
                entry[CANDIDATE] = candidate
            yield candidate
