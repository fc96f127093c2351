"""Which store the replay engine replays for what a caller passes it.

The replay engine (:mod:`repro.analysis.fastreplay`) maintains stores on a
compiled trace's integer ids.  Neither volume family needs a separate
class for that: a :class:`~repro.volumes.directory.DirectoryVolumeStore`
or a :class:`~repro.volumes.probability.ProbabilityVolumeStore` built on
the trace's id space is itself the replayed store.  Every other store --
the online, popularity and fallback stores, or a directory or probability
store holding state in another id space -- is replayed through
:class:`RecordFedStore`, which feeds it the trace's own records.
:func:`build_interned_store` maps a config, an artifact or a store
instance to the store the engine replays.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..core.filters import CandidateElement
from ..traces.intern import ChunkedCompiledTrace
from ..traces.records import LogRecord
from .base import VolumeStore
from .directory import DirectoryVolumeConfig, DirectoryVolumeStore
from .probability import ProbabilityVolumes, ProbabilityVolumeStore

__all__ = ["build_interned_store", "RecordFedStore"]


class RecordFedStore:
    """Any :class:`VolumeStore`, replayed through its string interface.

    Before each chunk the engine hands it the chunk's decoded records
    (:meth:`feed`).  :meth:`observe_id` passes the next one to
    ``store.observe`` and :meth:`lookup_id` pairs each candidate of
    ``store.lookup`` with its id in the trace's id space, interning URLs
    the trace never requested.
    """

    __slots__ = ("store", "requested_url", "_urls", "_ensure_url", "_records")

    def __init__(self, compiled: ChunkedCompiledTrace, store: VolumeStore) -> None:
        self.store = store
        self.requested_url = ""
        self._urls = compiled.urls.strings
        self._ensure_url = compiled.ensure_url
        self._records: Iterator[LogRecord] = iter(())

    def feed(self, records: Iterator[LogRecord]) -> None:
        """The records the next :meth:`observe_id` calls replay, in order."""
        self._records = records

    def observe_id(self, url_id: int, size: int) -> None:
        record = next(self._records)
        self.requested_url = record.url
        self.store.observe(record)

    def lookup_id(
        self, url_id: int
    ) -> tuple[int, Iterator[tuple[int, CandidateElement]]] | None:
        lookup = self.store.lookup(self._urls[url_id])
        if lookup is None:
            return None
        ensure = self._ensure_url
        return lookup.volume_id, ((ensure(c.url), c) for c in lookup.candidates)


def build_interned_store(compiled: ChunkedCompiledTrace, store_or_config):
    """The store the engine replays for *store_or_config*.

    * a :class:`DirectoryVolumeConfig` gets a fresh
      :class:`DirectoryVolumeStore` built on *compiled*, and a
      :class:`ProbabilityVolumes` artifact a fresh
      :class:`ProbabilityVolumeStore`;
    * a :class:`DirectoryVolumeStore` (any subclass) or a plain
      :class:`ProbabilityVolumeStore` instance on *compiled*'s id space,
      or one holding no state yet (it moves onto that id space), is
      replayed itself, keying and state included;
    * any other :class:`VolumeStore` instance, including one of those two
      holding state in another id space, is replayed through a
      :class:`RecordFedStore`.
    """
    target = store_or_config
    if isinstance(target, DirectoryVolumeConfig):
        return DirectoryVolumeStore(target, id_space=compiled)
    if isinstance(target, ProbabilityVolumes):
        return ProbabilityVolumeStore(target, id_space=compiled)
    if not isinstance(target, VolumeStore):
        raise TypeError(
            f"replay needs a VolumeStore or store config, got {type(target).__name__}"
        )
    id_native = isinstance(target, DirectoryVolumeStore) or (
        type(target) is ProbabilityVolumeStore
    )
    if id_native and target.id_space is not compiled:
        try:
            target.adopt_id_space(compiled)
        except ValueError:
            id_native = False
    return target if id_native else RecordFedStore(compiled, target)
