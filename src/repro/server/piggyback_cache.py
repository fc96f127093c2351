"""Serving-path cache for serialized piggyback messages.

The fast path of :class:`~repro.server.server.PiggybackServer`: once a
piggyback has been built and serialized for a given (volume version,
resource-metadata version, requested URL, canonicalized filter), the
``P-volume`` trailer bytes can be replayed verbatim until one of those
inputs changes.  Volume stores version themselves with per-volume epochs
(:meth:`~repro.volumes.base.VolumeStore.lookup_version`), so invalidation
is free: a mutated volume produces a new epoch, and an entry answers
only a probe at the epoch it was built at.  Epochs never go back, so an
entry for an older epoch can never be hit again; the epoch is therefore
kept *in* the entry, not in the key, and the rebuild overwrites it — a
volume that moves on every request holds one slot per (URL, filter), not
one per request.

Filters are *canonicalized* before keying: the recently-piggybacked-volume
list only decides whether a piggyback is sent at all (RPV suppression,
checked by the server before consulting the cache), never its content, so
proxies with different RPV lists share entries.

Negative results ("this request yields no piggyback") are cached too —
they are exactly as expensive to recompute as positive ones.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace

from ..core.filters import ProxyFilter
from ..core.piggyback import PiggybackMessage
from ..devtools.lockorder import make_lock
from ..devtools.racecheck import share
from ..telemetry import REGISTRY

__all__ = [
    "CacheKey",
    "CachedPiggyback",
    "PiggybackCacheStats",
    "PiggybackMessageCache",
    "canonical_filter",
]

_TEL_CACHE_HITS = REGISTRY.counter(
    "server_piggyback_cache_hits_total",
    "piggyback responses served from the serialized-message cache",
)
_TEL_CACHE_MISSES = REGISTRY.counter(
    "server_piggyback_cache_misses_total",
    "piggyback builds that had to run because no cached entry matched",
)
_TEL_CACHE_EVICTIONS = REGISTRY.counter(
    "server_piggyback_cache_evictions_total",
    "cached piggyback entries dropped by the LRU bound",
)

# (volume id, resource-metadata version, url, canonical filter)
CacheKey = tuple[int, int, str, ProxyFilter]


def canonical_filter(piggyback_filter: ProxyFilter) -> ProxyFilter:
    """The filter with its RPV list cleared.

    RPV only gates *whether* a volume is piggybacked (suppression), never
    which elements a non-suppressed message contains, so cached content is
    shared across every RPV variation of the same filter.
    """
    if not piggyback_filter.recently_piggybacked:
        return piggyback_filter
    return replace(piggyback_filter, recently_piggybacked=frozenset())


@dataclass(frozen=True, slots=True)
class CachedPiggyback:
    """One cached build result: the message and its serialized trailer.

    Both are None for a cached *negative* result (the filter admitted
    nothing, or the volume had no candidates).  ``epoch`` is the volume
    epoch the result was built at.
    """

    message: PiggybackMessage | None
    wire_value: str | None
    epoch: int


@dataclass(slots=True)
class PiggybackCacheStats:
    """Point-in-time counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0

    @property
    def hit_rate(self) -> float:
        probes = self.hits + self.misses
        if probes == 0:
            return 0.0
        return self.hits / probes


class PiggybackMessageCache:
    """Bounded LRU of :class:`CachedPiggyback` keyed by :data:`CacheKey`.

    Thread-safe behind its own leaf lock; it is probed *outside* the
    volume-store lock (that is the point) and never calls out while
    holding its lock.
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[CacheKey, CachedPiggyback] = share(
            OrderedDict(), "PiggybackMessageCache._entries"
        )
        self._lock = make_lock("PiggybackMessageCache._lock")
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey, epoch: int) -> CachedPiggyback | None:
        """The result cached for *key* at volume *epoch*, refreshed as most
        recently used; an entry built at another epoch is a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.epoch != epoch:
                entry = None
            if entry is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
        if entry is None:
            _TEL_CACHE_MISSES.inc()
        else:
            _TEL_CACHE_HITS.inc()
        return entry

    def put(
        self,
        key: CacheKey,
        epoch: int,
        message: PiggybackMessage | None,
        wire_value: str | None,
    ) -> None:
        """Store one build result, evicting the least recently used.

        Replaces whatever *key* held, unless that was built at a later
        epoch (a slower concurrent builder must not bury a newer result).
        """
        entry = CachedPiggyback(message, wire_value, epoch)
        evicted = 0
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None and existing.epoch > epoch:
                return
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            self._evictions += evicted
        if evicted:
            _TEL_CACHE_EVICTIONS.inc(evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    @property
    def stats(self) -> PiggybackCacheStats:
        with self._lock:
            return PiggybackCacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
            )
