"""A real-socket HTTP/1.1 origin server speaking the piggyback extension.

Wraps a :class:`~repro.server.server.PiggybackServer` behind a TCP
listener: requests carrying a ``Piggy-filter`` header get their response
delivered with chunked transfer-coding and a ``P-volume`` trailer exactly
as Section 2.3 describes; requests without the header get plain
Content-Length responses, so legacy clients are unaffected.

The piggyback origin's request/response translation lives in
:class:`PiggybackOriginApp`, a backend-neutral mixin that pairs with
either frontend: :class:`~repro.httpwire.connbase.ThreadedWireServer`
here, or the asyncio loop in :mod:`repro.httpwire.aio`.  Both frontends
therefore produce byte-identical responses.  The legacy
:class:`PlainHttpServer` is threaded-only.  The piggyback engine
serializes metadata under its volume-store lock; body bytes are
synthesized and sent on the serving thread/task with no lock held.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable
from dataclasses import asdict
from typing import Any

from ..devtools.lockorder import make_lock
from ..core.protocol import ProxyRequest
from ..httpmodel.dates import format_http_date, parse_http_date
from ..httpmodel.headers import Headers
from ..httpmodel.messages import HttpRequest, HttpResponse
from ..httpmodel.piggy_codec import (
    P_VOLUME_HEADER,
    PIGGY_FILTER_HEADER,
    PIGGY_REPORT_HEADER,
    PiggyCodecError,
    format_p_volume,
    parse_piggy_filter,
    parse_piggy_report,
)
from ..server.server import PiggybackServer
from ..telemetry import REGISTRY, SIZE_BUCKETS
from ..urls import request_url
from .connbase import ThreadedWireServer

__all__ = [
    "PiggybackOriginApp",
    "PiggybackHttpServer",
    "PlainHttpServer",
    "synthetic_body",
]

_TEL_PIGGYBACK_WIRE_BYTES = REGISTRY.histogram(
    "server_piggyback_wire_bytes",
    "serialized P-volume trailer size per piggybacked response",
    buckets=SIZE_BUCKETS,
)


@functools.lru_cache(maxsize=1024)
def synthetic_body(url: str, size: int) -> bytes:
    """Deterministic body bytes for a resource of the given size.

    Memoized: the function is pure and a server keeps answering for the
    same (url, size) pairs, so the repeated-seed build runs once per
    resource instead of once per request.  Callers must not mutate the
    returned bytes (they never do — ``bytes`` is immutable).
    """
    if size <= 0:
        return b""
    seed = f"<!-- {url} -->".encode("ascii", errors="replace")
    repeats = -(-size // max(len(seed), 1))
    return (seed * repeats)[:size]


class PiggybackOriginApp:
    """Backend-neutral origin logic: one :class:`PiggybackServer` on HTTP.

    Holds everything that is *not* about sockets or threads — request
    translation, admin snapshot/reload, access logging — so the threaded
    and asyncio frontends share a single implementation and answer
    byte-identical responses.  Frontends call :meth:`_init_origin_app`
    after their own socket setup.
    """

    def _init_origin_app(
        self,
        server: PiggybackServer,
        site_host: str,
        clock: Callable[[], float] | None,
        access_logger,
        durable_state,
    ) -> None:
        self.server = server
        self.site_host = site_host
        self.clock = clock or time.time
        self.access_logger = access_logger
        self._log_lock = make_lock("PiggybackHttpServer._log_lock")
        self.durable_state = durable_state
        if durable_state is not None and server.piggyback_cache is not None:
            # An admin reload swaps the store state behind its lock; any
            # trailer bytes cached against pre-reload versions must go.
            durable_state.invalidate_hooks.append(server.piggyback_cache.clear)

    # -- admin endpoints ----------------------------------------------------

    def admin_status(self) -> dict[str, Any]:
        if self.durable_state is None:
            return {}
        return {"durable_state": self.durable_state.status()}

    def handle_admin(self, request: HttpRequest, path: str):
        if path not in ("/.repro/snapshot", "/.repro/reload"):
            return None
        if request.method.upper() != "POST":
            return HttpResponse(status=405, body=b"POST required\n")
        if self.durable_state is None:
            return HttpResponse(status=503, body=b"no durable state attached\n")
        if path == "/.repro/snapshot":
            info = self.durable_state.snapshot_now()
            return self._json_response(asdict(info))
        report = self.durable_state.reload()
        return self._json_response(asdict(report))

    # -- request translation ----------------------------------------------

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        if request.method.upper() not in ("GET", "HEAD"):
            return HttpResponse(status=501)

        if_modified_since = None
        ims_header = request.headers.get("If-Modified-Since")
        if ims_header is not None:
            try:
                if_modified_since = parse_http_date(ims_header)
            except ValueError:
                if_modified_since = None

        try:
            piggy_filter = parse_piggy_filter(request.headers.get(PIGGY_FILTER_HEADER))
        except PiggyCodecError:
            # A malformed filter must never break the GET; serve it as if
            # the proxy did not speak the extension at all.
            piggy_filter = parse_piggy_filter(None)
        try:
            report = parse_piggy_report(request.headers.get(PIGGY_REPORT_HEADER))
        except PiggyCodecError:
            report = ()  # a malformed report must never break the GET
        proxy_request = ProxyRequest(
            url=request_url(request.target, request.headers.get("Host"), self.site_host),
            timestamp=self.clock(),
            if_modified_since=if_modified_since,
            piggyback_filter=piggy_filter,
            source=request.headers.get("X-Proxy-Name") or "wire-proxy",
            cache_hit_report=report,
        )
        # Metadata critical section (inside server.handle); body below is
        # built lock-free on this worker thread.
        result = self.server.handle(proxy_request)
        if self.access_logger is not None:
            with self._log_lock:
                self.access_logger.log(proxy_request, result)

        headers = Headers()
        headers.set("Server", "repro-piggyback/1.0")
        if result.last_modified is not None:
            headers.set("Last-Modified", format_http_date(result.last_modified))

        body = b""
        if result.is_ok and request.method.upper() == "GET":
            body = synthetic_body(result.url, result.size)

        trailers = Headers()
        if result.piggyback is not None:
            # The engine's serving-path cache hands back pre-serialized
            # trailer bytes; only uncacheable paths serialize here.
            p_volume_value = result.piggyback_wire
            if p_volume_value is None:
                p_volume_value = format_p_volume(result.piggyback)
            trailers.set(P_VOLUME_HEADER, p_volume_value)
            _TEL_PIGGYBACK_WIRE_BYTES.observe(float(len(p_volume_value)))
        return HttpResponse(
            status=result.status, headers=headers, body=body, trailers=trailers
        )


class PiggybackHttpServer(PiggybackOriginApp, ThreadedWireServer):
    """Threaded wire frontend for one :class:`PiggybackServer`."""

    def __init__(
        self,
        server: PiggybackServer,
        site_host: str,
        address: str = "127.0.0.1",
        port: int = 0,
        clock: Callable[[], float] | None = None,
        access_logger=None,
        io_timeout: float = 30.0,
        idle_timeout: float | None = None,
        max_workers: int = 64,
        durable_state=None,
    ):
        ThreadedWireServer.__init__(
            self,
            address,
            port,
            io_timeout=io_timeout,
            idle_timeout=idle_timeout,
            max_workers=max_workers,
            name=f"origin:{site_host}",
        )
        self._init_origin_app(server, site_host, clock, access_logger, durable_state)


class PlainHttpServer(ThreadedWireServer):
    """A legacy origin: plain HTTP/1.1, no piggyback support whatsoever.

    Serves a static mapping of paths to (body, last_modified) pairs.  Used
    to demonstrate the transparent volume center, which adds piggybacks on
    behalf of servers exactly like this one.
    """

    def __init__(
        self,
        resources: dict[str, tuple[bytes, float]],
        address: str = "127.0.0.1",
        port: int = 0,
        io_timeout: float = 30.0,
        idle_timeout: float | None = None,
        max_workers: int = 64,
    ):
        super().__init__(
            address,
            port,
            backlog=16,
            io_timeout=io_timeout,
            idle_timeout=idle_timeout,
            max_workers=max_workers,
            name="legacy-origin",
        )
        self.resources = resources
        self.requests_served = 0
        self._served_lock = make_lock("PlainHttpServer._served_lock")

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        entry = self.resources.get(request.target)
        if entry is None:
            response = HttpResponse(status=404)
        else:
            body, last_modified = entry
            response = HttpResponse(status=200, body=body)
            response.headers.set("Last-Modified", format_http_date(last_modified))
            response.headers.set("Server", "legacy/0.9")
        with self._served_lock:
            self.requests_served += 1
        return response
