"""Volume abstractions shared by all construction schemes.

A *volume store* answers one question for the server: given a request for
resource ``r``, which volume does ``r`` belong to and which related
resources (as :class:`~repro.core.filters.CandidateElement` objects, in
preference order) should be offered to the proxy filter?  Stores also
expose an ``observe`` hook so maintenance structures (move-to-front FIFOs,
access counters) can track the request stream.
"""

from __future__ import annotations

import functools
import threading
from abc import ABC, abstractmethod
from collections.abc import Iterable
from dataclasses import dataclass

from ..core.filters import CandidateElement
from ..core.piggyback import MAX_VOLUME_ID
from ..devtools import racecheck
from ..traces.records import LogRecord

__all__ = ["VolumeIdAllocator", "VolumeLookup", "VolumeVersion", "VolumeStore"]

# Guards lazy creation of per-store locks: two threads touching a store's
# ``lock`` property for the first time must end up with the same lock.
_LOCK_CREATION_GUARD = threading.Lock()


class VolumeIdAllocator:
    """Dense allocation of 2-byte volume identifiers to volume keys.

    One numbering, in first-use order, serves every caller under one
    overflow rule.  The paper's wire format allows 32768 volumes per
    server, so :meth:`id_for` -- the id a server puts on the wire --
    raises once that space is exhausted rather than mint or hand out an id
    past it.  :meth:`index_for` numbers on without bound: offline replay
    never puts a volume id on the wire, and long traces need more.
    """

    def __init__(self) -> None:
        self._ids: dict = {}

    def __len__(self) -> int:
        return len(self._ids)

    def index_for(self, key) -> int:
        """Return the id for *key*, allocating the next one if new."""
        existing = self._ids.get(key)
        if existing is None:
            existing = self._ids[key] = len(self._ids)
        return existing

    def id_for(self, key) -> int:
        """Like :meth:`index_for`, but only for ids the wire can carry."""
        volume_id = self._ids.get(key, len(self._ids))
        if volume_id > MAX_VOLUME_ID:
            raise OverflowError(f"volume id space exhausted ({MAX_VOLUME_ID + 1} volumes)")
        return self._ids.setdefault(key, volume_id)

    def assignments(self) -> dict:
        """Current key -> id mapping, in allocation order (for persistence)."""
        return dict(self._ids)

    def restore(self, assignments: dict) -> None:
        """Replace the mapping with a persisted one.

        The mapping must be dense (ids 0..n-1): ids are allocated densely,
        so anything else is a corrupt artifact.
        """
        ids = {key: int(value) for key, value in assignments.items()}
        if sorted(ids.values()) != list(range(len(ids))):
            raise ValueError("allocator mapping is not dense")
        self._ids = ids


@dataclass(frozen=True, slots=True)
class VolumeLookup:
    """The store's answer for one requested resource.

    ``candidates`` may be a lazy iterable in the store's preference order
    (most useful first); consume it before the next ``observe`` call on
    the same store — under the store's lock when threads share it — and
    at most once.  Laziness is the point: the serving path hands it to
    :meth:`~repro.core.filters.ProxyFilter.apply`, which stops pulling at
    ``maxpiggy``, so a read costs what the filter examines, not the
    volume's size.  Use :meth:`materialized` when a concrete tuple is
    needed (tests, multiple passes).
    """

    volume_id: int
    candidates: Iterable[CandidateElement]

    def materialized(self) -> "VolumeLookup":
        """A copy whose candidates are a concrete tuple."""
        return VolumeLookup(self.volume_id, tuple(self.candidates))


@dataclass(frozen=True, slots=True)
class VolumeVersion:
    """A volume's identity plus its mutation epoch at one point in time.

    Two equal versions guarantee the volume's piggyback-relevant state
    (membership, candidate order, sizes, mtimes, and any access-count
    crossing at or below the store's count ceiling) is unchanged, so
    anything derived from a lookup — including serialized ``P-volume``
    trailer bytes — may be reused verbatim.
    """

    volume_id: int
    epoch: int


class VolumeStore(ABC):
    """Interface implemented by every volume construction scheme.

    Stores are single-threaded internally; concurrent users (the wire
    servers) serialize every ``observe``/``lookup`` — *including the
    consumption of lazy candidates* — under :attr:`lock`.  The lock is
    reentrant and created lazily so existing subclasses need no changes.

    Every store also carries a monotonic :attr:`epoch`, bumped on each
    ``observe`` (subclass ``observe`` methods are wrapped automatically),
    and answers :meth:`lookup_version` / :meth:`snapshot_lookup` so
    readers can version what they derive from a lookup.  Stores with
    finer-grained change tracking (directory, probability) override
    ``lookup_version`` with per-volume epochs that stay put on no-op
    repeat touches, which is what makes serving-path caching effective.

    All published epochs are offset by :attr:`epoch_base`.  A process
    recovering persisted state (:mod:`repro.server.durability`) raises
    the base past every epoch the previous process generation could have
    served, so a ``VolumeVersion`` minted after a crash-restart can never
    collide with one cached before it — epochs are monotone across
    process generations, never reused.
    """

    # Class-level defaults so plain subclasses need no __init__ changes.
    _store_epoch = 0
    _count_ceiling = 0
    _epoch_base = 0

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        observe = cls.__dict__.get("observe")
        if (
            observe is None
            or getattr(observe, "__isabstractmethod__", False)
            or getattr(observe, "_repro_epoch_wrapped", False)
        ):
            return

        @functools.wraps(observe)
        def observe_and_bump(self, record: LogRecord) -> None:
            observe(self, record)
            self._store_epoch += 1

        observe_and_bump._repro_epoch_wrapped = True  # type: ignore[attr-defined]
        cls.observe = observe_and_bump  # type: ignore[method-assign]

    @property
    def lock(self) -> threading.RLock:
        """Reentrant mutation lock shared by every user of this store."""
        existing = getattr(self, "_store_lock", None)
        if existing is None:
            with _LOCK_CREATION_GUARD:
                existing = getattr(self, "_store_lock", None)
                if existing is None:
                    existing = racecheck.wrap_lock(
                        threading.RLock(), f"{type(self).__name__}.lock"
                    )
                    self._store_lock = existing
        return existing

    @abstractmethod
    def observe(self, record: LogRecord) -> None:
        """Update maintenance state with one logged request."""

    @abstractmethod
    def lookup(self, url: str) -> VolumeLookup | None:
        """Volume id and ordered candidates for a request, or None."""

    @property
    def epoch(self) -> int:
        """Store-wide mutation counter; bumped on every ``observe``."""
        return self._epoch_base + self._store_epoch

    @property
    def epoch_base(self) -> int:
        """Offset added to every published epoch (generation barrier)."""
        return self._epoch_base

    def raise_epoch_base(self, base: int) -> None:
        """Raise :attr:`epoch_base` to at least *base* (never lowers it).

        Called by recovery with a value strictly greater than any epoch
        the previous process generation could have minted, so versions
        derived from restored state invalidate every stale cache key.
        """
        if base > self._epoch_base:
            self._epoch_base = base

    @property
    def count_ceiling(self) -> int:
        """Largest ``min_access_count`` any filter has asked this store about."""
        return self._count_ceiling

    def note_min_access(self, min_access_count: int) -> None:
        """Record that a filter with this ``min_access_count`` is in play.

        Access-count increments only change piggyback admission when they
        cross some filter's minimum; stores with per-volume epochs bump a
        volume's epoch on an increment to count ``c`` iff ``c`` is at or
        below this ceiling (any seen filter's minimum is ≤ the ceiling, so
        increments past it cannot change any cached admission decision).
        Call under :attr:`lock` before reading :meth:`lookup_version`.
        """
        if min_access_count > self._count_ceiling:
            self._count_ceiling = min_access_count

    def lookup_version(self, url: str) -> VolumeVersion | None:
        """The version of *url*'s volume, or None when it has none.

        Must be called under :attr:`lock`.  The base implementation
        derives the version from a full :meth:`lookup` plus the
        store-wide epoch; subclasses override it with a cheap per-volume
        probe.
        """
        lookup = self.lookup(url)
        if lookup is None:
            return None
        return VolumeVersion(lookup.volume_id, self._epoch_base + self._store_epoch)

    def snapshot_lookup(self, url: str) -> tuple[VolumeLookup, VolumeVersion] | None:
        """One consistent, immutable read: materialized lookup + version.

        Takes :attr:`lock` internally; the returned candidates are a
        concrete tuple, safe to consume (and re-consume) with no lock
        held.  As long as ``lookup_version(url)`` still equals the
        returned version, anything derived from the snapshot is current.
        Costs O(volume size): for tools, probes and test oracles, not for
        the serving path, which filters the lazy :meth:`lookup` instead.
        """
        with self.lock:
            version = self.lookup_version(url)
            if version is None:
                return None
            lookup = self.lookup(url)
            if lookup is None:
                return None
            return lookup.materialized(), version

    def volume_count(self) -> int:
        """Number of distinct volumes currently known (best effort)."""
        return 0

    def observe_trace(self, records) -> None:
        """Feed a whole trace through :meth:`observe` (convenience)."""
        for record in records:
            self.observe(record)
