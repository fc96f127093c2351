"""The piggybacking server (Section 2.1, server side).

On each proxy request the server (1) answers the GET — validating against
If-Modified-Since when present — and (2) consults its volume store for the
requested resource, applies the proxy's filter, and attaches the resulting
piggyback message to the response.  The server keeps *no* per-proxy state;
everything proxy-specific arrives in the filter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.filters import ProxyFilter
from ..core.piggyback import PiggybackMessage
from ..core.protocol import NOT_FOUND, NOT_MODIFIED, OK, ProxyRequest, ServerResponse
from ..httpmodel.piggy_codec import format_p_volume
from ..telemetry import REGISTRY, SIZE_BUCKETS, TRACER
from ..traces.records import LogRecord
from ..volumes.base import VolumeStore, VolumeVersion
from .piggyback_cache import PiggybackMessageCache, canonical_filter
from .resources import ResourceStore

__all__ = ["ServerStats", "PiggybackServer"]

_TEL_SERVER_REQUESTS = REGISTRY.counter(
    "server_requests_total", "proxy requests handled by the piggyback server"
)
_TEL_VOLUME_LOOKUPS = REGISTRY.counter(
    "server_volume_lookups_total", "volume-store lookups while building piggybacks"
)
_TEL_PIGGYBACK_MESSAGES = REGISTRY.counter(
    "server_piggyback_messages_total", "responses that carried a piggyback message"
)
_TEL_PIGGYBACK_ELEMENTS = REGISTRY.histogram(
    "server_piggyback_elements", "elements per piggyback message sent", buckets=SIZE_BUCKETS
)
_TEL_PIGGYBACK_BYTES = REGISTRY.counter(
    "server_piggyback_bytes_total", "estimated piggyback payload bytes sent"
)
_TEL_RPV_SUPPRESSIONS = REGISTRY.counter(
    "server_rpv_suppressions_total",
    "piggybacks suppressed because the volume was recently piggybacked (RPV)",
)
_TEL_REPORTED_CACHE_HITS = REGISTRY.counter(
    "server_reported_cache_hits_total", "cache hits learned from Piggy-report headers"
)


@dataclass(slots=True)
class ServerStats:
    """Aggregate counters for one server's lifetime."""

    requests: int = 0
    ok_responses: int = 0
    not_modified_responses: int = 0
    not_found_responses: int = 0
    piggyback_messages: int = 0
    piggyback_elements: int = 0
    piggyback_bytes: int = 0
    body_bytes: int = 0
    reported_cache_hits: int = 0

    @property
    def piggyback_rate(self) -> float:
        """Fraction of responses that carried a piggyback message."""
        if self.requests == 0:
            return 0.0
        return self.piggyback_messages / self.requests

    @property
    def mean_piggyback_size(self) -> float:
        """Average elements per piggyback message actually sent."""
        if self.piggyback_messages == 0:
            return 0.0
        return self.piggyback_elements / self.piggyback_messages


class PiggybackServer:
    """A cooperating origin server with volumes and filter support.

    :meth:`handle` is thread-safe and takes the volume store's reentrant
    lock at most twice per request, both times briefly: once for stats,
    cache-hit absorption, volume maintenance and a version probe, and
    once more either to build a piggyback or to count a replayed one.  A
    hit in the serialized-message cache (probed with no store lock held)
    replays precomputed ``P-volume`` bytes without reading the store; a
    miss filters the store's *lazy* candidates under the lock, so it
    examines only as many elements as the filter's ``maxpiggy`` needs,
    and serializes outside it.  Response *bodies* are built and sent by
    the wire layer on the worker thread, so body serving is never
    globally serialized.

    The cache is automatically bypassed when resource metadata is
    time-dependent (a :class:`~repro.workloads.modifications.ModificationProcess`
    is attached — ``resources.version`` is None); the build is the same,
    only the serialize-and-store step is skipped.
    """

    def __init__(
        self,
        resources: ResourceStore,
        volume_store: VolumeStore,
        *,
        piggyback_cache: PiggybackMessageCache | None = None,
        enable_cache: bool = True,
    ):
        self.resources = resources
        self.volume_store = volume_store
        self.stats = ServerStats()
        if piggyback_cache is not None:
            self.piggyback_cache: PiggybackMessageCache | None = piggyback_cache
        else:
            self.piggyback_cache = PiggybackMessageCache() if enable_cache else None

    def handle(self, request: ProxyRequest) -> ServerResponse:
        """Answer one proxy request, with piggyback when the filter allows."""
        store = self.volume_store
        piggyback_filter = request.piggyback_filter
        version: VolumeVersion | None = None
        with store.lock:
            self.stats.requests += 1
            _TEL_SERVER_REQUESTS.inc()
            self._absorb_cache_hit_report(request)
            record = self.resources.get(request.url)
            if record is None:
                self.stats.not_found_responses += 1
                return ServerResponse(
                    url=request.url, status=NOT_FOUND, timestamp=request.timestamp
                )

            last_modified = self.resources.last_modified(request.url, request.timestamp)
            if request.if_modified_since is not None and request.if_modified_since >= last_modified:
                status = NOT_MODIFIED
                size = 0
                self.stats.not_modified_responses += 1
            else:
                status = OK
                size = record.size
                self.stats.ok_responses += 1
                self.stats.body_bytes += size

            self._observe_request(request, last_modified, record.size)
            if piggyback_filter.enabled:
                store.note_min_access(piggyback_filter.min_access_count)
                version = store.lookup_version(request.url)
                _TEL_VOLUME_LOOKUPS.inc()

        piggyback: PiggybackMessage | None = None
        wire_value: str | None = None
        with TRACER.span("server.piggyback") as span:
            if version is not None:
                if version.volume_id in piggyback_filter.recently_piggybacked:
                    _TEL_RPV_SUPPRESSIONS.inc()
                else:
                    piggyback, wire_value = self._piggyback_for(
                        request, piggyback_filter, version
                    )
            if piggyback is not None:
                span.tag("elements", str(len(piggyback)))

        return ServerResponse(
            url=request.url,
            status=status,
            timestamp=request.timestamp,
            last_modified=last_modified,
            size=size,
            piggyback=piggyback,
            piggyback_wire=wire_value,
        )

    def _piggyback_for(
        self,
        request: ProxyRequest,
        piggyback_filter: ProxyFilter,
        version: VolumeVersion,
    ) -> tuple[PiggybackMessage | None, str | None]:
        """Build (or replay) the piggyback for a non-suppressed request.

        Returns the message plus, when the result is cacheable, its
        serialized ``P-volume`` value so wire frontends skip
        re-serialization.  Counts a sent message in :attr:`stats`.
        """
        canonical = canonical_filter(piggyback_filter)
        cache = self.piggyback_cache
        resources_version = self.resources.version
        store = self.volume_store
        url = request.url

        # Uncacheable: cache disabled, or mtimes depend on request time.
        cacheable = cache is not None and resources_version is not None
        if cacheable:
            key = (version.volume_id, resources_version, url, canonical)
            cached = cache.get(key, version.epoch)
            if cached is not None:
                if cached.message is not None:
                    with store.lock:
                        self._count_piggyback(cached.message)
                return cached.message, cached.wire_value

        with store.lock:
            if cacheable:
                # Other threads may have moved the volume since the probe
                # in handle(): cache under the version this build reads.
                version = store.lookup_version(url)
            lookup = store.lookup(url)
            if version is None or lookup is None:
                return None, None
            now = request.timestamp
            candidates = (
                self._with_current_mtime(candidate, now)
                for candidate in lookup.candidates
            )
            # Lazy candidates, consumed under the lock: the filter stops
            # pulling at maxpiggy, so the rest of the volume is never read.
            message = canonical.apply(lookup.volume_id, candidates, url)
            if message is not None:
                self._count_piggyback(message)
        if not cacheable:
            return message, None

        wire_value = format_p_volume(message) if message is not None else None
        # If resource metadata moved underneath us meanwhile, skip caching
        # — the computed message is still a valid answer for this request.
        if self.resources.version == resources_version:
            cache.put(
                (version.volume_id, resources_version, url, canonical),
                version.epoch,
                message,
                wire_value,
            )
        return message, wire_value

    def _count_piggyback(self, piggyback: PiggybackMessage) -> None:
        """Account one sent piggyback (call under the store lock)."""
        wire_bytes = piggyback.wire_bytes()
        self.stats.piggyback_messages += 1
        self.stats.piggyback_elements += len(piggyback)
        self.stats.piggyback_bytes += wire_bytes
        _TEL_PIGGYBACK_MESSAGES.inc()
        _TEL_PIGGYBACK_ELEMENTS.observe(float(len(piggyback)))
        _TEL_PIGGYBACK_BYTES.inc(wire_bytes)

    def _absorb_cache_hit_report(self, request: ProxyRequest) -> None:
        """Feed proxy-reported cache hits into volume maintenance.

        Cache hits never reach the server log, so without this report the
        server underestimates the popularity of well-cached resources
        (Section 5's proxy-to-server piggyback).
        """
        for url, count in request.cache_hit_report:
            if count < 1 or url not in self.resources:
                continue
            self.stats.reported_cache_hits += count
            _TEL_REPORTED_CACHE_HITS.inc(count)
            record = self.resources.get(url)
            for _ in range(min(count, 1000)):
                self.volume_store.observe(
                    LogRecord(
                        timestamp=request.timestamp,
                        source=request.source,
                        url=url,
                        size=record.size if record else 0,
                    )
                )

    def _observe_request(
        self, request: ProxyRequest, last_modified: float, size: int
    ) -> None:
        """Feed the request into volume maintenance."""
        self.volume_store.observe(
            LogRecord(
                timestamp=request.timestamp,
                source=request.source,
                url=request.url,
                size=size,
                last_modified=last_modified,
            )
        )

    def _with_current_mtime(self, candidate, now: float):
        """Refresh a candidate's Last-Modified from the resource store.

        Volume maintenance only sees a resource when it is requested, but
        the piggyback must reflect modifications that happened since —
        that is the entire coherency mechanism.
        """
        if candidate.url not in self.resources:
            return candidate
        current = self.resources.last_modified(candidate.url, now)
        if current == candidate.last_modified:
            return candidate
        return replace(candidate, last_modified=current)
