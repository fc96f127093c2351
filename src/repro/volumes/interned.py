"""Interned volume stores: integer-id maintenance for the fast replay core.

These mirror :class:`~repro.volumes.directory.DirectoryVolumeStore` and
:class:`~repro.volumes.probability.ProbabilityVolumeStore` exactly, but
every hot-path operation works on dense integer ids from a
:class:`~repro.traces.intern.CompiledTrace`:

* directory membership is an equality test on a precomputed per-URL
  prefix-id column (no URL parsing per request);
* content types are precomputed ids (no extension sniffing per candidate);
* FIFO entries and candidates are plain lists of primitives, so no
  dataclass is constructed per touch or per lookup.

The maintenance semantics — move-to-front order, per-type partitions,
trim-largest-partition eviction, access counting — are replicated
operation-for-operation so the fast replay engine produces bit-identical
:class:`~repro.analysis.metrics.ReplayMetrics`.

Candidate entries are lists laid out as
``[url_id, size, access_count, content_type_id, last_touch]`` (directory)
and pairs ``(consequent_id, probability)`` plus metadata arrays
(probability).  The replay engine in :mod:`repro.analysis.fastreplay`
consumes these directly.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator

from ..traces.intern import ChunkedCompiledTrace, CompiledTrace
from .directory import DirectoryVolumeConfig
from .probability import ProbabilityVolumes

__all__ = [
    "InternedDirectoryStore",
    "InternedProbabilityStore",
    "build_interned_store",
    "UnsupportedStoreError",
]

# Directory entry field offsets (plain lists, not objects — see module doc).
URL, SIZE, ACCESS_COUNT, CONTENT_TYPE, LAST_TOUCH = range(5)


class UnsupportedStoreError(TypeError):
    """Raised when a store kind has no interned equivalent."""


class _IntVolumeFifos:
    """One volume's FIFOs keyed by content-type id (or -1, unpartitioned).

    As in the string-keyed store, ``_order`` keeps every entry in one
    volume-wide touch order for reads; the partitions only choose the
    trim victim.
    """

    __slots__ = ("_partition_by_type", "_fifos", "_order")

    def __init__(self, partition_by_type: bool):
        self._partition_by_type = partition_by_type
        self._fifos: dict[int, OrderedDict[int, list]] = {}
        self._order: OrderedDict[int, list] = OrderedDict()

    def __len__(self) -> int:
        return len(self._order)

    def touch(
        self, url_id: int, size: int, type_id: int, move_to_front: bool, touch: int
    ) -> None:
        key = type_id if self._partition_by_type else -1
        fifo = self._fifos.get(key)
        if fifo is None:
            fifo = OrderedDict()
            self._fifos[key] = fifo
        entry = fifo.get(url_id)
        if entry is None:
            entry = [url_id, size, 0, type_id, touch]
            fifo[url_id] = entry
            self._order[url_id] = entry
        entry[ACCESS_COUNT] += 1
        if size:
            entry[SIZE] = size
        if move_to_front:
            entry[LAST_TOUCH] = touch
            fifo.move_to_end(url_id)
            self._order.move_to_end(url_id)

    def trim_to(self, max_size: int) -> int:
        """Drop tail entries until total size is within *max_size*.

        Pops from the largest partition, first-seen partition winning
        ties — the same choice the string-keyed store makes.
        """
        dropped = 0
        while len(self._order) > max_size:
            largest = max(self._fifos.values(), key=len)
            url_id, _ = largest.popitem(last=False)
            del self._order[url_id]
            dropped += 1
        return dropped

    def iter_most_recent_first(self) -> Iterator[list]:
        return reversed(self._order.values())


class InternedDirectoryStore:
    """Integer-id twin of :class:`DirectoryVolumeStore`."""

    def __init__(
        self,
        compiled: CompiledTrace | ChunkedCompiledTrace,
        config: DirectoryVolumeConfig = DirectoryVolumeConfig(),
    ):
        self.compiled = compiled
        self.config = config
        self._prefix_ids = compiled.directory_prefix_ids(config.level)
        self._type_ids = compiled.content_type_ids()
        self._volumes: dict[int, _IntVolumeFifos] = {}
        self._volume_ids: dict[int, int] = {}
        self._touch_counter = 0

    def volume_count(self) -> int:
        return len(self._volumes)

    @property
    def epoch(self) -> int:
        """Monotonic mutation counter (bumps on every ``observe_index``).

        Derived from the touch counter so the replay hot path pays nothing
        extra; the fast replay engine keeps its own finer-grained message
        invalidation, this is for external readers versioning snapshots.
        """
        return self._touch_counter

    def observe_index(self, index: int) -> None:
        """Account record *index* of the (whole-trace) compiled trace."""
        compiled = self.compiled
        self.observe_id(compiled.url_ids[index], compiled.sizes[index])

    def observe_id(self, url_id: int, size: int) -> None:
        """Account one request by value — the chunk-streaming entry point.

        Identical maintenance to :meth:`observe_index`; streaming callers
        pass the decoded (url id, size) pair directly since there is no
        global record index to look up.
        """
        key = self._prefix_ids[url_id]
        volume = self._volumes.get(key)
        if volume is None:
            volume = _IntVolumeFifos(self.config.partition_by_type)
            self._volumes[key] = volume
        self._touch_counter += 1
        volume.touch(
            url_id,
            size,
            self._type_ids[url_id],
            self.config.move_to_front,
            self._touch_counter,
        )
        if self.config.max_volume_size is not None:
            volume.trim_to(self.config.max_volume_size)

    def lookup_id(self, url_id: int) -> tuple[int, Iterator[list]] | None:
        """Volume id and entries, most recently touched first, or None."""
        key = self._prefix_ids[url_id]
        volume = self._volumes.get(key)
        if volume is None:
            return None
        volume_id = self._volume_ids.get(key)
        if volume_id is None:
            volume_id = len(self._volume_ids)
            self._volume_ids[key] = volume_id
        return volume_id, volume.iter_most_recent_first()


class InternedProbabilityStore:
    """Integer-id twin of :class:`ProbabilityVolumeStore`.

    The frozen volume artifact is translated to id space once; per-request
    maintenance is three list writes.  Changed sizes are queued in
    :attr:`size_dirty` so the replay engine can invalidate only the cached
    piggyback messages whose admission could have changed (and only for
    configurations that filter on resource size).
    """

    def __init__(
        self,
        compiled: CompiledTrace | ChunkedCompiledTrace,
        volumes: ProbabilityVolumes,
    ):
        self.compiled = compiled
        self.volumes = volumes
        members: dict[int, list[tuple[int, float]]] = {}
        ensure = compiled.ensure_url
        for url in sorted(volumes.antecedents()):
            pairs = volumes.members_of(url)
            members[ensure(url)] = [
                (ensure(consequent), probability) for consequent, probability in pairs
            ]
        self.members = members
        url_count = len(compiled.urls)
        self.sizes: list[int] = [0] * url_count
        self.access_counts: list[int] = [0] * url_count
        self.size_dirty: list[int] = []
        self._volume_ids: dict[int, int] = {}
        self._containing: dict[int, tuple[int, ...]] | None = None

    def volume_count(self) -> int:
        return len(self.volumes)

    @property
    def epoch(self) -> int:
        """Monotonic mutation counter (bumps on every ``observe_index``).

        Computed from the access-count column on demand, so the per-record
        maintenance path stays exactly three list operations; the replay
        engine's ``size_dirty`` queue remains the precise invalidation
        channel for its own message cache.
        """
        return sum(self.access_counts)

    def observe_index(self, index: int) -> None:
        compiled = self.compiled
        self.observe_id(compiled.url_ids[index], compiled.sizes[index])

    def observe_id(self, url_id: int, size: int) -> None:
        """Account one request by value — the chunk-streaming entry point."""
        if size and self.sizes[url_id] != size:
            self.sizes[url_id] = size
            self.size_dirty.append(url_id)
        self.access_counts[url_id] += 1

    def volume_id_of(self, url_id: int) -> int:
        volume_id = self._volume_ids.get(url_id)
        if volume_id is None:
            volume_id = len(self._volume_ids)
            self._volume_ids[url_id] = volume_id
        return volume_id

    def containing(self, url_id: int) -> tuple[int, ...]:
        """Antecedent ids whose volume contains *url_id* (reverse index)."""
        if self._containing is None:
            containing: dict[int, list[int]] = {}
            for antecedent, pairs in self.members.items():
                for consequent, _ in pairs:
                    containing.setdefault(consequent, []).append(antecedent)
            self._containing = {
                url: tuple(owners) for url, owners in containing.items()
            }
        return self._containing.get(url_id, ())


def build_interned_store(compiled: CompiledTrace | ChunkedCompiledTrace, store_or_config):
    """Interned twin for a reference store or store config.

    Accepts a :class:`DirectoryVolumeConfig`, a :class:`ProbabilityVolumes`
    artifact, or a reference store instance holding one of those.  Raises
    :class:`UnsupportedStoreError` for store kinds without a fast path so
    callers can fall back to the reference engine.
    """
    from .directory import DirectoryVolumeStore
    from .probability import ProbabilityVolumeStore

    target = store_or_config
    if isinstance(target, DirectoryVolumeStore):
        target = target.config
    elif isinstance(target, ProbabilityVolumeStore):
        target = target.volumes
    if isinstance(target, DirectoryVolumeConfig):
        return InternedDirectoryStore(compiled, target)
    if isinstance(target, ProbabilityVolumes):
        return InternedProbabilityStore(compiled, target)
    raise UnsupportedStoreError(
        f"no interned fast path for {type(store_or_config).__name__}"
    )
