"""Minimal HTTP/1.1 client: one persistent connection, one keep-alive pool.

:class:`HttpConnection` is the only outbound connection in the wire
stack.  It receives into its own buffer and frames each answer with
:func:`~repro.httpwire.connbase.recv_framed`, the same loop the servers
frame requests with, through one :meth:`HttpConnection.exchange` method:
``frame_response`` gives the wire proxy, the load generators and tests a
parsed :class:`HttpResponse`; ``frame_relayed`` gives the load balancer
the exact response bytes.  :func:`fetch_once` is the one-shot form.

Every socket operation is bounded by the connection's timeout, so a
wedged or silent peer surfaces as :class:`TimeoutError` instead of
blocking the caller forever.  :meth:`HttpConnection.request` transparently
reconnects once when the server closed the connection between exchanges;
:meth:`HttpConnection.request_once` performs exactly one attempt and is
the building block for caller-controlled retry policies.

:class:`KeepAlivePool` holds the keep-alive discipline once, for the
wire proxy (one key per origin host) and the load balancer (one key per
backend slot).
"""

from __future__ import annotations

import socket
import time
from collections.abc import Mapping

from ..devtools.lockorder import make_lock
from ..devtools.racecheck import share
from ..httpmodel.framing import HttpParseError
from ..httpmodel.messages import Framer, HttpRequest, HttpResponse, M, frame_response
from ..telemetry import REGISTRY, Counter
from .connbase import RECV_SIZE, recv_framed

__all__ = ["EXCHANGE_ERRORS", "HttpConnection", "KeepAlivePool", "fetch_once"]

# What a failed exchange raises: the peer closed, sent garbage, reset, or
# timed out.  Connect failures are OSErrors too.
EXCHANGE_ERRORS = (EOFError, HttpParseError, OSError)

_TEL_CONNECTS = REGISTRY.counter(
    "wire_client_connects_total", "outbound TCP connections established"
)
_TEL_CONNECT_SECONDS = REGISTRY.histogram(
    "wire_client_connect_seconds", "outbound TCP connect latency"
)
_TEL_CLIENT_REQUESTS = REGISTRY.counter(
    "wire_client_requests_total", "request/response exchanges attempted"
)
_TEL_CLIENT_ERRORS = REGISTRY.counter(
    "wire_client_errors_total", "exchanges that raised (timeout, reset, parse)"
)
_TEL_RECONNECTS = REGISTRY.counter(
    "wire_client_reconnects_total", "transparent reconnects after a server-closed connection"
)


class HttpConnection:
    """A persistent client connection to one host:port."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._buffer = bytearray()
        self._chunk = memoryview(bytearray(RECV_SIZE))

    @property
    def connected(self) -> bool:
        """Whether a live socket is currently held (best effort: a peer
        close is only discovered on the next exchange)."""
        return self._sock is not None

    @property
    def buffered(self) -> int:
        """Bytes received past the last framed response.  A peer that
        answers one request with more than one response leaves them here,
        and the next exchange would frame them as its answer."""
        return len(self._buffer)

    def _ensure_connected(self) -> socket.socket:
        # A socket closed behind the connection's back is as good as none.
        if self._sock is None or self._sock.fileno() < 0:
            # create_connection's timeout sticks to the socket, bounding
            # every subsequent send/recv as well as the connect itself.
            with _TEL_CONNECT_SECONDS.time():
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            _TEL_CONNECTS.inc()
        return self._sock

    def exchange(self, wire: bytes, framer: Framer[M]) -> M:
        """Send pre-serialized request bytes and frame one answer with
        *framer*; no reconnect, no retry.

        Any failure (connect, timeout, reset, parse error) propagates
        after the connection is closed, leaving it safe to retry on a
        fresh one.
        """
        sock = self._ensure_connected()
        _TEL_CLIENT_REQUESTS.inc()
        try:
            sock.sendall(wire)
            return recv_framed(sock, self._buffer, self._chunk, framer)
        except BaseException:
            _TEL_CLIENT_ERRORS.inc()
            self.close()
            raise

    def request_once(self, message: HttpRequest) -> HttpResponse:
        """Send one request and read its response; no reconnect, no retry."""
        return self.exchange(message.serialize(), frame_response)

    def request(self, message: HttpRequest) -> HttpResponse:
        """Send one request and read its response, reconnecting once on
        a connection that the server closed between exchanges.

        The request is serialized once; the retry resends the same bytes.
        """
        wire = message.serialize()
        try:
            return self.exchange(wire, frame_response)
        except (EOFError, ConnectionError):
            _TEL_RECONNECTS.inc()
            return self.exchange(wire, frame_response)

    def close(self) -> None:
        del self._buffer[:]
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "HttpConnection":
        self._ensure_connected()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class KeepAlivePool:
    """Idle persistent connections per key, reused LIFO.

    :meth:`exchange` checks a connection out, runs one exchange on it and
    checks it back in.  The rules:

    * checkout takes the most recently parked connection (the warm end
      stays warm); entries idle longer than *idle_timeout* are retired,
      at checkout and at checkin, their sockets closed outside the lock;
    * checkin closes the connection instead of parking it when *size*
      connections are already parked for its key, or when it received
      bytes past its response: it is out of step with its peer;
    * a *reused* connection that fails was most likely closed by the peer
      while idle, which looks like a dead peer until a fresh connect
      answers, so it is retired and the exchange retried exactly once on
      a fresh connection.  A failure on a fresh connection propagates.

    ``connects``, ``reuses``, ``retired`` and ``retries`` count fresh
    connections, checkouts served from the pool, connections dropped as
    idle-expired, broken on reuse or out of step, and fresh-connection
    retries.  *counters* maps any of those names to a telemetry counter
    bumped alongside.  Thread-safe.
    """

    def __init__(
        self,
        *,
        size: int,
        idle_timeout: float,
        timeout: float,
        counters: Mapping[str, Counter] | None = None,
    ):
        self.size = size
        self.idle_timeout = idle_timeout
        self.timeout = timeout
        self.connects = 0
        self.reuses = 0
        self.retired = 0
        self.retries = 0
        self._counters = counters or {}
        self._lock = make_lock("KeepAlivePool._lock")
        # key -> [(connection, idle_since)] with the freshest at the tail;
        # idle_since is a monotonic clock reading.
        self._idle: dict[str, list[tuple[HttpConnection, float]]] = share(
            {}, "KeepAlivePool._idle"
        )

    def exchange(
        self, key: str, address: tuple[str, int], wire: bytes, framer: Framer[M]
    ) -> M:
        """Send *wire* to *key*'s peer at *address*, frame one answer."""
        connection = self._checkout(key)
        if connection is not None:
            try:
                answer = connection.exchange(wire, framer)
            except EXCHANGE_ERRORS:
                with self._lock:
                    self._count("retired")
                    self._count("retries")
            else:
                self._checkin(key, connection)
                return answer
        connection = HttpConnection(*address, timeout=self.timeout)
        with self._lock:
            self._count("connects")
        answer = connection.exchange(wire, framer)
        self._checkin(key, connection)
        return answer

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump one count and its telemetry twin; the caller holds the lock."""
        setattr(self, name, getattr(self, name) + amount)
        counter = self._counters.get(name)
        if counter is not None:
            counter.inc(amount)

    def _checkout(self, key: str) -> HttpConnection | None:
        now = time.monotonic()
        expired: list[HttpConnection] = []
        connection: HttpConnection | None = None
        with self._lock:
            idle = self._idle.get(key)
            while idle:
                candidate, idle_since = idle.pop()
                if now - idle_since > self.idle_timeout:
                    expired.append(candidate)
                    continue
                connection = candidate
                self._count("reuses")
                break
            if expired:
                self._count("retired", len(expired))
        for old in expired:
            old.close()
        return connection

    def _checkin(self, key: str, connection: HttpConnection) -> None:
        now = time.monotonic()
        expired: list[HttpConnection] = []
        parked = False
        with self._lock:
            idle = self._idle.setdefault(key, [])
            # The oldest entries sit at the front; age them out so a
            # bursty load does not park dead sockets forever.
            while idle and now - idle[0][1] > self.idle_timeout:
                expired.append(idle.pop(0)[0])
            out_of_step = connection.buffered > 0
            if not out_of_step and len(idle) < self.size:
                idle.append((connection, now))
                parked = True
            if expired or out_of_step:
                self._count("retired", len(expired) + out_of_step)
        for old in expired:
            old.close()
        if not parked:
            connection.close()  # out of step, or overflow (not a retirement)

    def discard(self, key: str) -> None:
        """Close every idle connection for *key* (its peer went away)."""
        with self._lock:
            parked = self._idle.pop(key, [])
        for connection, _ in parked:
            connection.close()

    def close(self) -> None:
        with self._lock:
            parked = [entry[0] for idle in self._idle.values() for entry in idle]
            self._idle.clear()
        for connection in parked:
            connection.close()

    def pooled(self) -> int:
        """Idle connections currently parked, over every key."""
        with self._lock:
            return sum(len(idle) for idle in self._idle.values())


def fetch_once(host: str, port: int, message: HttpRequest, timeout: float = 10.0) -> HttpResponse:
    """Open a connection, perform one exchange, and close."""
    with HttpConnection(host, port, timeout=timeout) as connection:
        return connection.request(message)
