"""A real-socket caching proxy speaking the piggyback extension.

Clients send ordinary absolute-URI proxy requests; the proxy serves them
from its cache when fresh, otherwise forwards to the origin with a
``Piggy-filter`` header, absorbs the ``P-volume`` trailer of the answer
(coherency, prefetch, RPV bookkeeping — all via
:class:`~repro.proxy.proxy.PiggybackProxy`), and returns the body to the
client.  Bodies are kept in a side table because the policy-level cache
tracks metadata only.

Concurrency and degradation model:

* :class:`HttpUpstream` keeps a :class:`~repro.httpwire.netclient.KeepAlivePool`
  of persistent connections per origin — parallel cache misses fetch in
  parallel instead of interleaving writes on one shared socket, and a
  connection that gets out of step with its origin is closed, never
  reused;
* every upstream exchange is bounded by a timeout and retried with
  exponential backoff (:class:`UpstreamPolicy`); a persistently failing
  origin yields a synthetic ``502`` response instead of an exception, so
  the proxy never wedges and never caches a broken fetch;
* when the origin fails but a previously fetched body exists, the proxy
  serves it stale (``X-Cache: stale`` plus a ``Warning`` header) — the
  client always receives a well-formed HTTP response.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

from ..devtools.lockorder import make_lock
from ..devtools.racecheck import share
from ..core.protocol import NOT_FOUND, OK, ProxyRequest, ServerResponse
from ..httpmodel.dates import format_http_date, parse_http_date
from ..httpmodel.headers import Headers
from ..httpmodel.messages import HttpRequest, HttpResponse, frame_response
from ..httpmodel.piggy_codec import (
    P_VOLUME_HEADER,
    PIGGY_FILTER_HEADER,
    PIGGY_REPORT_HEADER,
    PiggyCodecError,
    format_piggy_filter,
    format_piggy_report,
    parse_p_volume,
)
from ..proxy.proxy import ClientOutcome, PiggybackProxy, ProxyConfig
from ..telemetry import REGISTRY, TRACE_HEADER, TRACER
from .connbase import ThreadedWireServer
from .netclient import EXCHANGE_ERRORS, KeepAlivePool

__all__ = [
    "UpstreamPolicy",
    "UpstreamStats",
    "HttpUpstream",
    "PiggybackHttpProxy",
]

BAD_GATEWAY = 502

_TEL_UPSTREAM_EXCHANGES = REGISTRY.counter(
    "proxy_upstream_exchanges_total", "origin fetches attempted by the wire proxy"
)
_TEL_UPSTREAM_RETRIES = REGISTRY.counter(
    "proxy_upstream_retries_total", "origin fetch attempts beyond the first"
)
_TEL_UPSTREAM_FAILURES = REGISTRY.counter(
    "proxy_upstream_failures_total", "origin fetches degraded to a synthetic 502"
)
_TEL_UPSTREAM_SECONDS = REGISTRY.histogram(
    "proxy_upstream_fetch_seconds", "origin fetch latency including retries"
)
_TEL_STALE_RESPONSES = REGISTRY.counter(
    "proxy_stale_responses_total", "client requests answered from a stale body"
)
_TEL_POOL_REUSES = REGISTRY.counter(
    "proxy_upstream_pool_reuses_total",
    "origin exchanges served on a pooled persistent connection",
)
_TEL_POOL_CONNECTS = REGISTRY.counter(
    "proxy_upstream_pool_connects_total",
    "fresh origin connections opened because no pooled one was usable",
)
_TEL_POOL_RETIRED = REGISTRY.counter(
    "proxy_upstream_pool_retired_total",
    "pooled connections dropped as idle-expired, broken on reuse or out of step",
)


@dataclass(frozen=True, slots=True)
class UpstreamPolicy:
    """Timeout/retry knobs for origin exchanges."""

    timeout: float = 10.0
    max_attempts: int = 3
    backoff: float = 0.05
    backoff_factor: float = 2.0
    pool_size: int = 16
    idle_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff < 0:
            raise ValueError("backoff must be non-negative")
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if self.idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive")


@dataclass(slots=True)
class UpstreamStats:
    """Counters for the proxy's origin-facing side."""

    exchanges: int = 0
    retries: int = 0
    failures: int = 0
    pool_reuses: int = 0
    pool_connects: int = 0
    pool_retired: int = 0

    @property
    def pool_reuse_rate(self) -> float:
        """Fraction of connection checkouts satisfied by the pool."""
        checkouts = self.pool_reuses + self.pool_connects
        if checkouts == 0:
            return 0.0
        return self.pool_reuses / checkouts


class HttpUpstream:
    """Adapter: ProxyRequest -> real HTTP exchange -> ServerResponse.

    Resolves each URL's host through *origins* (host -> (address, port)),
    draws persistent connections from one :class:`KeepAlivePool` keyed by
    host, and records response bodies in a side table so the wire proxy
    can serve them to clients (:meth:`body_for`).  Thread-safe.
    """

    def __init__(
        self,
        origins: dict[str, tuple[str, int]],
        clock: Callable[[], float] | None = None,
        policy: UpstreamPolicy = UpstreamPolicy(),
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.origins = origins
        self.clock = clock or time.time
        self.policy = policy
        self.pool = KeepAlivePool(
            size=policy.pool_size,
            idle_timeout=policy.idle_timeout,
            timeout=policy.timeout,
            counters={
                "connects": _TEL_POOL_CONNECTS,
                "reuses": _TEL_POOL_REUSES,
                "retired": _TEL_POOL_RETIRED,
                # A fresh-connection retry after a reused one failed does
                # not consume a policy attempt, but it is still an attempt
                # beyond the first.
                "retries": _TEL_UPSTREAM_RETRIES,
            },
        )
        self._sleep = sleep
        self._exchanges = 0
        self._retries = 0
        self._failures = 0
        self._bodies: dict[str, bytes] = share({}, "HttpUpstream._bodies")
        self._lock = make_lock("HttpUpstream._lock")

    @property
    def stats(self) -> UpstreamStats:
        """A snapshot of the origin-facing counters, the pool's included."""
        pool = self.pool
        with self._lock:
            return UpstreamStats(
                exchanges=self._exchanges,
                retries=self._retries + pool.retries,
                failures=self._failures,
                pool_reuses=pool.reuses,
                pool_connects=pool.connects,
                pool_retired=pool.retired,
            )

    def close(self) -> None:
        self.pool.close()

    def body_for(self, url: str) -> bytes | None:
        """The last body fetched for *url*, from the side table."""
        with self._lock:
            return self._bodies.get(url)

    # Exchange -----------------------------------------------------------

    def _build_request(self, request: ProxyRequest, host: str, path: str) -> HttpRequest:
        http_request = HttpRequest(method="GET", target="/" + path)
        http_request.headers.set("Host", host)
        if request.if_modified_since is not None:
            http_request.headers.set(
                "If-Modified-Since", format_http_date(request.if_modified_since)
            )
        filter_value = format_piggy_filter(request.piggyback_filter)
        if filter_value is not None:
            http_request.headers.set("TE", "chunked")
            http_request.headers.set(PIGGY_FILTER_HEADER, filter_value)
        report_value = format_piggy_report(request.cache_hit_report)
        if report_value is not None:
            http_request.headers.set(PIGGY_REPORT_HEADER, report_value)
        http_request.headers.set("X-Proxy-Name", request.source)
        trace_header = TRACER.current_header()
        if trace_header is not None:
            http_request.headers.set(TRACE_HEADER, trace_header)
        return http_request

    def __call__(self, request: ProxyRequest) -> ServerResponse:
        with _TEL_UPSTREAM_SECONDS.time(), TRACER.span("proxy.upstream_fetch") as span:
            span.tag("url", request.url)
            return self._exchange(request)

    def _exchange(self, request: ProxyRequest) -> ServerResponse:
        host, _, path = request.url.partition("/")
        wire = self._build_request(request, host, path).serialize()
        with self._lock:
            self._exchanges += 1
        _TEL_UPSTREAM_EXCHANGES.inc()

        http_response = None
        origin = self.origins.get(host)
        # An unroutable host is not worth a single attempt.
        attempts = self.policy.max_attempts if origin is not None else 0
        delay = self.policy.backoff
        for attempt in range(attempts):
            if attempt:
                with self._lock:
                    self._retries += 1
                _TEL_UPSTREAM_RETRIES.inc()
                if delay > 0:
                    self._sleep(delay)
                delay *= self.policy.backoff_factor
            try:
                http_response = self.pool.exchange(host, origin, wire, frame_response)
            except EXCHANGE_ERRORS:
                continue
            break
        if http_response is None:
            # Origin unreachable/garbled after all attempts: degrade to a
            # synthetic 502 the engine will treat as FAILED — never cached.
            with self._lock:
                self._failures += 1
            _TEL_UPSTREAM_FAILURES.inc()
            return ServerResponse(
                url=request.url, status=BAD_GATEWAY, timestamp=self.clock()
            )

        last_modified = None
        lm_header = http_response.headers.get("Last-Modified")
        if lm_header is not None:
            try:
                last_modified = parse_http_date(lm_header)
            except ValueError:
                last_modified = None
        piggyback = None
        p_volume = http_response.trailers.get(P_VOLUME_HEADER)
        if p_volume is not None:
            try:
                piggyback = parse_p_volume(p_volume)
            except PiggyCodecError:
                piggyback = None  # a broken trailer must never break the fetch
        if http_response.status == OK:
            with self._lock:
                self._bodies[request.url] = http_response.body
        return ServerResponse(
            url=request.url,
            status=http_response.status,
            timestamp=self.clock(),
            last_modified=last_modified,
            size=len(http_response.body),
            piggyback=piggyback,
        )


class PiggybackHttpProxy(ThreadedWireServer):
    """Threaded wire frontend for one :class:`PiggybackProxy`.

    The upstream exchange is *blocking* socket I/O on the serving thread.
    """

    def __init__(
        self,
        origins: dict[str, tuple[str, int]],
        config: ProxyConfig = ProxyConfig(name="wire-proxy"),
        address: str = "127.0.0.1",
        port: int = 0,
        clock: Callable[[], float] | None = None,
        upstream_policy: UpstreamPolicy = UpstreamPolicy(),
        serve_stale_on_error: bool = True,
        io_timeout: float = 30.0,
        idle_timeout: float | None = None,
        max_workers: int = 64,
    ):
        super().__init__(
            address,
            port,
            io_timeout=io_timeout,
            idle_timeout=idle_timeout,
            max_workers=max_workers,
            name="piggyback-proxy",
        )
        self.clock = clock or time.time
        self.upstream = HttpUpstream(origins, clock=self.clock, policy=upstream_policy)
        self.engine = PiggybackProxy(self.upstream, config=config)
        self.serve_stale_on_error = serve_stale_on_error
        self.stale_responses = 0
        self._stale_lock = make_lock("PiggybackHttpProxy._stale_lock")

    def stop(self, drain_timeout: float = 5.0) -> None:
        super().stop(drain_timeout)
        self.upstream.close()

    def _canonical_url(self, request: HttpRequest) -> str | None:
        """Canonical host/path from an absolute-URI proxy request target."""
        target = request.target
        if target.lower().startswith("http://"):
            target = target[len("http://"):]
        elif target.startswith("/"):
            host = request.headers.get("Host")
            if host is None:
                return None
            target = host + target
        return target.lower().rstrip("/") if "/" in target else target.lower()

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        if request.method.upper() != "GET":
            return HttpResponse(status=501)
        url = self._canonical_url(request)
        if url is None:
            return HttpResponse(status=400)
        # The engine serializes its own metadata; the upstream exchange and
        # the body send below run without any proxy-wide lock.
        result = self.engine.handle_client_get(url, self.clock())
        if result.outcome is ClientOutcome.FAILED:
            return self._degraded_response(url, result.upstream_status)
        body = self.upstream.body_for(url) or b""
        headers = Headers()
        headers.set("Via", "1.1 repro-piggyback-proxy")
        headers.set("X-Cache", result.outcome.value)
        entry = self.engine.cache.entry(url)
        if entry is not None:
            headers.set("Last-Modified", format_http_date(entry.last_modified))
        return HttpResponse(status=200, headers=headers, body=body)

    def _degraded_response(self, url: str, upstream_status: int) -> HttpResponse:
        """Degrade gracefully: pass a real 404 through, serve stale when a
        previously fetched copy exists, otherwise answer 502."""
        if upstream_status == NOT_FOUND:
            return HttpResponse(status=404)
        stale = self.upstream.body_for(url) if self.serve_stale_on_error else None
        if stale is not None:
            with self._stale_lock:
                self.stale_responses += 1
            _TEL_STALE_RESPONSES.inc()
            headers = Headers()
            headers.set("Via", "1.1 repro-piggyback-proxy")
            headers.set("X-Cache", "stale")
            headers.set("Warning", '111 repro-piggyback-proxy "Revalidation Failed"')
            return HttpResponse(status=200, headers=headers, body=stale)
        return HttpResponse(status=BAD_GATEWAY)
