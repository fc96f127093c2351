"""Raw-byte relay from origin backends to the front-tier client.

The differential guarantee this subsystem makes — piggyback trailers
through the LB are *byte-identical* to direct single-origin serving —
is structural here, not tested-into-existence: the forwarder never
re-serializes a message in either direction.  Requests go out as the
bytes the frontend framed them from (minus the hop-by-hop
``Connection`` line, see :mod:`repro.lb.balancer`).  Each backend
connection receives into its own buffer, and
:func:`frame_relayed` frames exactly one response from it with
:mod:`repro.httpmodel.framing` — Content-Length or chunked with the
trailer block — parsing only the status line and the header lines that
mention the two framing fields.
The front tier gets a :class:`RelayedResponse` whose ``serialize_into``
appends the captured bytes verbatim.  The threaded front tier sends
responses solely through ``serialize_into`` (``connbase._send``), so the
subclass override is the only seam needed.

Backend connections are pooled per slot with the same discipline as
:class:`~repro.httpwire.netproxy.HttpUpstream`: LIFO checkout (keeps the
warm end warm), idle retirement with sockets closed outside the lock,
and one fresh-connection retry when a *reused* connection fails — a
pooled socket the origin closed during idle is indistinguishable from a
dead origin until a fresh connect answers.
"""

from __future__ import annotations

import socket
import time
from typing import BinaryIO

from ..devtools.lockorder import make_lock
from ..devtools.racecheck import share
from ..httpmodel.framing import (
    CHUNKED,
    HttpParseError,
    Progress,
    ResponseHead,
    frame_chunked,
    frame_response_head,
    parse_fields,
)
from ..httpmodel.headers import Headers
from ..httpmodel.messages import HttpResponse, read_framed
from ..httpwire.connbase import RECV_SIZE, recv_framed
from .routing import BackendSlot

__all__ = [
    "BackendError",
    "Forwarder",
    "RelayedResponse",
    "frame_relayed",
    "read_raw_response",
]

_RETRYABLE = (EOFError, HttpParseError, ConnectionError, BrokenPipeError, OSError)


class BackendError(Exception):
    """A backend failed to produce a response (connect, I/O, or parse).

    Carries the slot so the balancer can eject it passively and retry
    the request on a surviving replica.
    """

    def __init__(self, slot: BackendSlot, cause: BaseException):
        super().__init__(f"backend {slot.key} ({slot.address}:{slot.port}): {cause}")
        self.slot = slot
        self.cause = cause


class RelayedResponse(HttpResponse):
    """An origin response whose serialized form is the captured wire bytes.

    ``raw`` and ``status`` are set when it is framed; ``headers`` and
    ``trailers`` are parsed from ``raw`` only when something reads them
    (the relay path never does).  Serialization bypasses every parsed
    field and replays ``raw``.
    """

    __slots__ = ("raw", "_head", "_headers", "_trailers")

    def __init__(self, raw: bytes, head: ResponseHead):
        self.raw = raw
        self._head = head
        self._headers: Headers | None = None
        self._trailers: Headers | None = None
        self.status = head.status
        self.reason = head.reason
        self.version = head.version
        self.body = b""

    @property  # type: ignore[override]
    def headers(self) -> Headers:
        if self._headers is None:
            self._headers = parse_fields(self._head.fields)
        return self._headers

    @headers.setter
    def headers(self, value: Headers) -> None:
        self._headers = value

    @property  # type: ignore[override]
    def trailers(self) -> Headers:
        if self._trailers is None:
            self._trailers = Headers()
            if self._head.length == CHUNKED:
                chunked, _ = frame_chunked(self.raw, self._head.head_end)
                if chunked is not None:
                    self._trailers = chunked[1]
        return self._trailers

    @trailers.setter
    def trailers(self, value: Headers) -> None:
        self._trailers = value

    def serialize_into(self, out: bytearray, chunk_size: int = 4096) -> None:
        out += self.raw


def frame_relayed(
    buf: bytes | bytearray, progress: Progress | None = None
) -> tuple[RelayedResponse | None, int]:
    """``(response, end)`` for the complete response at the start of
    *buf*, capturing its bytes; else ``(None, need code)``."""
    head, end = frame_response_head(buf, progress)
    if head is None:
        return None, end
    return RelayedResponse(bytes(buf) if end == len(buf) else bytes(buf[:end]), head), end


def read_raw_response(stream: BinaryIO) -> RelayedResponse:
    """Read one response from a blocking stream, capturing its exact
    wire bytes for relay."""
    return read_framed(stream, frame_relayed)


class _BackendConnection:
    """One persistent raw-relay connection to a backend."""

    def __init__(self, slot: BackendSlot, timeout: float):
        self.slot = slot
        self.sock = socket.create_connection((slot.address, slot.port), timeout=timeout)
        self.buffer = bytearray()
        self.chunk = memoryview(bytearray(RECV_SIZE))

    def exchange(self, wire: bytes) -> RelayedResponse:
        self.sock.sendall(wire)
        return recv_framed(self.sock, self.buffer, self.chunk, frame_relayed)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class Forwarder:
    """Pooled raw-relay forwarding to backend slots."""

    def __init__(
        self,
        *,
        timeout: float = 10.0,
        pool_size: int = 32,
        idle_timeout: float = 30.0,
    ):
        self.timeout = timeout
        self.pool_size = pool_size
        self.idle_timeout = idle_timeout
        self._lock = make_lock("Forwarder._lock")
        self._pools: dict[str, list[tuple[_BackendConnection, float]]] = share(
            {}, "Forwarder._pools"
        )

    # -- pool --------------------------------------------------------------

    def _checkout(self, slot: BackendSlot) -> tuple[_BackendConnection, bool]:
        """A pooled connection (reused=True) or a fresh one (False).

        Expired idlers are collected under the lock but closed outside
        it; connect for a fresh connection also happens outside the lock.
        """
        now = time.monotonic()
        expired: list[_BackendConnection] = []
        connection: _BackendConnection | None = None
        with self._lock:
            pool = self._pools.get(slot.key, [])
            while pool:
                candidate, parked = pool.pop()  # LIFO: most recently used
                if now - parked > self.idle_timeout:
                    expired.append(candidate)
                    continue
                connection = candidate
                break
        for idler in expired:
            idler.close()
        if connection is not None:
            return connection, True
        return _BackendConnection(slot, self.timeout), False

    def _checkin(self, connection: _BackendConnection) -> None:
        overflow: _BackendConnection | None = None
        with self._lock:
            pool = self._pools.setdefault(connection.slot.key, [])
            # Bytes past the response would be framed as the next answer.
            if len(pool) >= self.pool_size or connection.buffer:
                overflow = connection
            else:
                pool.append((connection, time.monotonic()))
        if overflow is not None:
            overflow.close()

    def discard_backend(self, slot: BackendSlot) -> None:
        """Close every pooled connection to *slot* (after an ejection)."""
        with self._lock:
            parked = self._pools.pop(slot.key, [])
        for connection, _ in parked:
            connection.close()

    def close(self) -> None:
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            for connection, _ in pool:
                connection.close()

    def pooled(self) -> int:
        with self._lock:
            return sum(len(pool) for pool in self._pools.values())

    # -- forwarding --------------------------------------------------------

    def forward(self, slot: BackendSlot, wire: bytes) -> RelayedResponse:
        """Send pre-serialized request bytes to *slot*, relay the response.

        A failure on a reused connection gets one fresh-connection retry
        (the idler may simply have been closed by the origin); a failure
        on a fresh connection is the backend's fault and surfaces as
        :class:`BackendError` for the balancer's eject-and-retry logic.
        """
        try:
            connection, reused = self._checkout(slot)
        except _RETRYABLE as exc:
            raise BackendError(slot, exc) from exc
        try:
            response = connection.exchange(wire)
        except _RETRYABLE as first:
            connection.close()
            if not reused:
                raise BackendError(slot, first) from first
            try:
                connection = _BackendConnection(slot, self.timeout)
            except _RETRYABLE as exc:
                raise BackendError(slot, exc) from exc
            try:
                response = connection.exchange(wire)
            except _RETRYABLE as exc:
                connection.close()
                raise BackendError(slot, exc) from exc
        except BaseException:
            connection.close()
            raise
        self._checkin(connection)
        return response
