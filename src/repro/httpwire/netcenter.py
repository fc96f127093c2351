"""A transparent volume center over real sockets.

The paper proposes volume maintenance "at a router or gateway along the
path between the proxy and server", so origin servers need no changes.
:class:`TransparentHttpVolumeCenter` is that box as an HTTP intermediary:
it forwards requests verbatim to legacy origins, watches the responses go
by, maintains volumes per origin (or one cross-host store), and splices a
``P-volume`` trailer into responses for clients that sent a
``Piggy-filter`` header.  Origins remain blissfully unaware.

Rides on :class:`~repro.httpwire.connbase.ThreadedWireServer` for
per-connection timeouts and a worker cap; volume maintenance serializes
under ``_center_lock`` while the origin round-trip and the relay of body
bytes stay lock-free.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from ..devtools.lockorder import make_lock
from ..core.protocol import OK, ProxyRequest, ServerResponse
from ..httpmodel.dates import parse_http_date
from ..httpmodel.headers import Headers
from ..httpmodel.messages import HttpRequest, HttpResponse
from ..httpmodel.piggy_codec import (
    P_VOLUME_HEADER,
    PIGGY_FILTER_HEADER,
    PiggyCodecError,
    format_p_volume,
    parse_piggy_filter,
)
from ..server.volume_center import TransparentVolumeCenter
from .connbase import ThreadedWireServer
from .netclient import HttpConnection

__all__ = ["TransparentHttpVolumeCenter"]


class TransparentHttpVolumeCenter(ThreadedWireServer):
    """On-path HTTP intermediary injecting piggybacks for legacy origins.

    The origin round-trip inside :meth:`handle_request` is *blocking*
    socket I/O on the serving thread.
    """

    def __init__(
        self,
        origins: dict[str, tuple[str, int]],
        center: TransparentVolumeCenter | None = None,
        address: str = "127.0.0.1",
        port: int = 0,
        clock: Callable[[], float] | None = None,
        io_timeout: float = 30.0,
        idle_timeout: float | None = None,
        max_workers: int = 64,
        upstream_timeout: float = 10.0,
    ):
        super().__init__(
            address,
            port,
            io_timeout=io_timeout,
            idle_timeout=idle_timeout,
            max_workers=max_workers,
            name="volume-center",
        )
        self.origins = origins
        self.center = center or TransparentVolumeCenter()
        self.clock = clock or time.time
        self.upstream_timeout = upstream_timeout
        self._center_lock = make_lock("TransparentHttpVolumeCenter._center_lock")

    # -- relaying --------------------------------------------------------------

    def _resolve(self, request: HttpRequest) -> tuple[str, str] | None:
        """Return (host, path) from an absolute-URI or Host-based target."""
        target = request.target
        if target.lower().startswith("http://"):
            target = target[len("http://"):]
            host, _, path = target.partition("/")
            return host.lower(), "/" + path
        host = request.headers.get("Host")
        if host is None:
            return None
        return host.lower(), target

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        resolved = self._resolve(request)
        if resolved is None:
            return HttpResponse(status=400)
        host, path = resolved
        origin = self.origins.get(host)
        if origin is None:
            return HttpResponse(status=404)

        # Forward to the legacy origin, stripping the extension header the
        # origin would not understand anyway.
        forward = HttpRequest(method=request.method, target=path,
                              headers=request.headers.copy(), body=request.body)
        forward.headers.remove(PIGGY_FILTER_HEADER)
        forward.headers.set("Host", host)
        try:
            with HttpConnection(*origin, timeout=self.upstream_timeout) as connection:
                upstream = connection.request(forward)
        except (EOFError, ConnectionError, OSError):
            return HttpResponse(status=502)

        # Observe the exchange and, when the client asked, annotate it.
        try:
            piggy_filter = parse_piggy_filter(request.headers.get(PIGGY_FILTER_HEADER))
        except PiggyCodecError:
            piggy_filter = parse_piggy_filter(None)
        last_modified = None
        lm_header = upstream.headers.get("Last-Modified")
        if lm_header is not None:
            try:
                last_modified = parse_http_date(lm_header)
            except ValueError:
                last_modified = None
        url = f"{host}{path}".rstrip("/") if path != "/" else host
        proxy_request = ProxyRequest(
            url=url,
            timestamp=self.clock(),
            piggyback_filter=piggy_filter,
            source=request.headers.get("X-Proxy-Name") or "client",
        )
        shadow = ServerResponse(
            url=url, status=upstream.status, timestamp=proxy_request.timestamp,
            last_modified=last_modified, size=len(upstream.body),
        )
        with self._center_lock:
            annotated = self.center.annotate(proxy_request, shadow)

        headers = upstream.headers.copy()
        headers.set("Via", "1.1 repro-volume-center")
        headers.remove("Transfer-Encoding")
        headers.remove("Content-Length")
        trailers = Headers()
        if annotated.piggyback is not None and upstream.status == OK:
            trailers.set(P_VOLUME_HEADER, format_p_volume(annotated.piggyback))
        return HttpResponse(
            status=upstream.status,
            headers=headers,
            body=upstream.body,
            trailers=trailers,
            reason=upstream.reason,
        )
