"""Raw-byte relay from origin backends to the front-tier client.

The differential guarantee this subsystem makes — piggyback trailers
through the LB are *byte-identical* to direct single-origin serving —
is structural here, not tested-into-existence: the forwarder never
re-serializes a message in either direction.  Requests go out as the
bytes the frontend framed them from (minus the hop-by-hop
``Connection`` line, see :mod:`repro.lb.balancer`).  Each backend
connection is a :class:`~repro.httpwire.netclient.HttpConnection`, and
:func:`frame_relayed` frames exactly one response from its buffer with
:mod:`repro.httpmodel.framing` — Content-Length or chunked with the
trailer block — parsing only the status line and the header lines that
mention the two framing fields.
The front tier gets a :class:`RelayedResponse` whose ``serialize_into``
appends the captured bytes verbatim.  The threaded front tier sends
responses solely through ``serialize_into`` (``connbase._send``), so the
subclass override is the only seam needed.

Backend connections are pooled per slot in one
:class:`~repro.httpwire.netclient.KeepAlivePool`, the wire proxy's pool
class: LIFO checkout, idle retirement, close on overflow or when a
backend sends bytes past its response, and one fresh-connection retry
when a *reused* connection fails.
"""

from __future__ import annotations

from typing import BinaryIO

from ..httpmodel.framing import (
    CHUNKED,
    Progress,
    ResponseHead,
    frame_chunked,
    frame_response_head,
    parse_fields,
)
from ..httpmodel.headers import Headers
from ..httpmodel.messages import HttpResponse, read_framed
from ..httpwire.netclient import EXCHANGE_ERRORS, KeepAlivePool
from .routing import BackendSlot

__all__ = [
    "BackendError",
    "Forwarder",
    "RelayedResponse",
    "frame_relayed",
    "read_raw_response",
]


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


class Forwarder:
    """Pooled raw-relay forwarding to backend slots."""

    def __init__(
        self,
        *,
        timeout: float = 10.0,
        pool_size: int = 32,
        idle_timeout: float = 30.0,
    ):
        self.pool = KeepAlivePool(
            size=pool_size, idle_timeout=idle_timeout, timeout=timeout
        )

    def forward(self, slot: BackendSlot, wire: bytes) -> RelayedResponse:
        """Send pre-serialized request bytes to *slot*, relay the response.

        A failure the pool could not mask with its one fresh-connection
        retry is the backend's fault and surfaces as :class:`BackendError`
        for the balancer's eject-and-retry logic.
        """
        try:
            return self.pool.exchange(
                slot.key, (slot.address, slot.port), wire, frame_relayed
            )
        except EXCHANGE_ERRORS as exc:
            raise BackendError(slot, exc) from exc

    def discard_backend(self, slot: BackendSlot) -> None:
        """Close every pooled connection to *slot* (after an ejection)."""
        self.pool.discard(slot.key)

    def close(self) -> None:
        self.pool.close()

    def pooled(self) -> int:
        return self.pool.pooled()
