"""Sans-IO HTTP/1.1 framing: where a message ends, from its bytes alone.

Every HTTP reader in the package frames through this module: the
threaded and asyncio wire frontends over their per-connection receive
buffers, the load balancer's backend relay, and the blocking stream
readers (:func:`~.messages.read_request`,
:func:`~.messages.read_response`,
:func:`repro.lb.forward.read_raw_response`), which only feed it.  It does
no I/O and reads no clock: hand it a buffer whose first byte starts a
message and it answers with offsets and parsed fields, or with how much
more it needs.

Grammar
-------

* **Head.**  A start line plus header lines.  Lines end at LF, with or
  without a CR before it; the head ends at its first empty line — a
  ``CRLF`` or bare ``LF`` as the very first line, else the first
  ``\\n\\r\\n`` or ``\\n\\n``.  Header fields are the CRLF-separated lines
  between the start line and that empty line: name and value split at
  the first ``:`` and stripped, empty lines skipped, and any CR or LF
  left inside a name or value is malformed.  A buffer holding
  :data:`MAX_HEAD` bytes with no head end is malformed.
* **Body.**  ``Transfer-Encoding`` containing ``chunked`` frames a
  chunked body; otherwise a 204 or 304 response has none; otherwise
  ``Content-Length`` gives its size — 1 to 18 ASCII digits, so a
  negative, non-numeric, over-long, or repeated value (``5, 5`` once
  joined) is malformed; without it the body is empty.
* **Chunked body.**  Chunk-size lines (hex digits, optionally followed
  by ``;extensions``, ending at LF), each chunk's data followed by CRLF,
  a zero-size last chunk, then a trailer section that ends like a head.

Need codes
----------

Incomplete input is not an error: the framers return a negative *need
code* instead of an end offset.  :data:`NEED_LINE` means the element in
progress (a chunk-size line) ends at the next LF;
:data:`NEED_EMPTY_LINE` means it is a head or trailer section, which
ends at the next empty line; any other code ``c`` means exactly
``need_count(c)`` more bytes are certainly part of this message.  A
stream reader uses the code to read without ever consuming past the
message's end, and to frame again only once the element can be
complete; a frontend that owns its buffer simply receives more.  Every
malformation raises :class:`HttpParseError`.

Resuming
--------

A reader that frames the same message again after more bytes arrive
passes one :class:`Progress` to every attempt.  The framers record in it
the parsed head, where the search for a head or trailer end stopped, and
the chunks already walked, so each attempt reads only the new bytes and
framing a message costs time linear in its size however it is cut into
receive pieces.
"""

from __future__ import annotations

import re
from typing import Any, NamedTuple

from .headers import Headers

__all__ = [
    "CHUNKED",
    "MAX_HEAD",
    "EMPTY_LINES",
    "NEED_EMPTY_LINE",
    "NEED_LINE",
    "HttpParseError",
    "Progress",
    "ResponseHead",
    "body_end",
    "body_length",
    "chunked_parts",
    "drop_field",
    "field_value",
    "find_head_end",
    "frame_chunked",
    "frame_response_head",
    "need_bytes",
    "need_count",
    "parse_fields",
    "parse_request_head",
    "parse_status_head",
]

MAX_HEAD = 1 << 20
NEED_LINE = -1
NEED_EMPTY_LINE = -2
# The lines that end a head or trailer section, as a line reader sees them.
EMPTY_LINES = (b"\r\n", b"\n")
# Body length code for a chunked body (sizes are >= 0).
CHUNKED = -1

# A chunk-size line: what ``bytes.strip`` leaves of the part before any
# ";extension" must be 1-16 hex digits; the line ends at LF.
_CHUNK_SIZE_LINE = re.compile(
    rb"[ \t\r\x0b\x0c]*([0-9A-Fa-f]{1,16})[ \t\r\x0b\x0c]*(?:;[^\n]*)?\n"
)


class HttpParseError(ValueError):
    """Raised when bytes cannot be parsed as an HTTP/1.1 message."""


class Progress:
    """How far framing one message got, for the next attempt to resume.

    Valid while the buffer only grows at its end: a reader uses one per
    message and starts a fresh one after it drops the framed bytes.  A
    frontend's receive buffer usually holds a whole message at the first
    attempt, so the frontends make that attempt with none and create one
    only when it comes up short (its work is then repeated once).
    """

    __slots__ = ("head", "scan", "pos", "spans", "trailer")

    def __init__(self) -> None:
        self.head: Any = None  # the framer's parse of the complete head
        self.scan = 0  # where the search for the end of a head or trailer resumes
        self.pos = 0  # the chunk-size line after the chunks walked so far
        self.spans: list[tuple[int, int]] = []  # data spans of those chunks
        self.trailer = 0  # start of the trailer section, once the last chunk is seen


def need_bytes(count: int) -> int:
    """The need code for *count* (>= 1) certainly missing bytes."""
    return -2 - count


def need_count(code: int) -> int:
    """Bytes a need code says are certainly missing; 0 for the line codes."""
    return -2 - code if code < NEED_EMPTY_LINE else 0


def find_head_end(
    buf: bytes | bytearray, start: int = 0, progress: Progress | None = None
) -> int:
    """End offset of the head beginning at *start*, or :data:`NEED_EMPTY_LINE`.

    With *progress*, a search that finds no end records where the next
    one resumes: two bytes before the current end of *buf*, the longest
    terminator's length less one.
    """
    scan = start if progress is None or progress.scan < start else progress.scan
    # Past start, an earlier search already saw (and rejected) its first bytes.
    if scan == start and buf.startswith((b"\r\n", b"\n"), start):
        return start + 1 if buf[start] == 10 else start + 2
    crlf = buf.find(b"\n\r\n", scan)
    # A "\n\n" ends the head first only when it starts before the "\n\r\n".
    lf = buf.find(b"\n\n", scan, len(buf) if crlf == -1 else crlf + 2)
    if lf != -1:
        return lf + 2
    if crlf != -1:
        return crlf + 3
    if len(buf) - start > MAX_HEAD:
        raise HttpParseError(f"no end of head within {MAX_HEAD} bytes")
    if progress is not None:
        progress.scan = len(buf) - 2
    return NEED_EMPTY_LINE


def _parse_fields(text: str) -> tuple[list[tuple[str, str]], dict[str, list[str]]]:
    """Field items and their casefolded index; see :func:`parse_fields`."""
    if text.endswith("\r\n"):
        text = text[:-2]
    elif text.endswith("\n"):
        text = text[:-1]
    items: list[tuple[str, str]] = []
    index: dict[str, list[str]] = {}
    for line in text.split("\r\n"):
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpParseError(f"malformed header line: {line!r}")
        name = name.strip()
        value = value.strip()
        if ("\r" in line or "\n" in line) and (
            "\r" in name or "\n" in name or "\r" in value or "\n" in value
        ):
            raise HttpParseError("header fields must not contain CR or LF")
        items.append((name, value))
        key = name.lower()
        if key in index:
            index[key].append(value)
        else:
            index[key] = [value]
    return items, index


def parse_fields(text: str) -> Headers:
    """Header fields of *text*: latin-1 field lines, optionally followed
    by the empty line (``CRLF`` or bare ``LF``) that ends their section."""
    return Headers.from_fields(*_parse_fields(text))


def field_value(text: str, lowered: str, name: str) -> str | None:
    """``parse_fields(text).get(name)`` without parsing the other lines.

    *lowered* is ``text.lower()`` and *name* a lower-case field name.
    Only the lines containing *name* are parsed, each exactly as
    :func:`parse_fields` parses it, so such a line that the full parse
    rejects (no colon, a CR or LF left in the name or value) raises here
    too; the other lines are not looked at.
    """
    values: list[str] = []
    at = lowered.find(name)
    while at != -1:
        start = text.rfind("\r\n", 0, at)
        start = 0 if start == -1 else start + 2
        end = text.find("\r\n", at)
        if end == -1:
            end = len(text)
        for key, value in _parse_fields(text[start:end])[0]:
            if key.lower() == name:
                values.append(value)
        at = lowered.find(name, end)
    return ", ".join(values) if values else None


def body_length(transfer_encoding: str | None, content_length: str | None) -> int:
    """Body size the framing fields declare, or :data:`CHUNKED`.

    Pass ``None`` for *content_length* where the message cannot have a
    body unless it is chunked (responses with status 204 or 304).
    """
    if transfer_encoding is not None and "chunked" in transfer_encoding.lower():
        return CHUNKED
    if content_length is None:
        return 0
    if not (
        content_length.isascii()
        and content_length.isdigit()
        and len(content_length) <= 18
    ):
        raise HttpParseError(f"bad Content-Length {content_length[:40]!r}")
    return int(content_length)


def parse_request_head(text: str) -> tuple[str, str, str, Headers, int]:
    """Method, target, version, fields and body length (or
    :data:`CHUNKED`) of a latin-1 request head."""
    start_line, _, fields = text.partition("\r\n")
    parts = start_line.split()
    if len(parts) != 3:
        raise HttpParseError(f"malformed request line: {start_line!r}")
    method, target, version = parts
    if not version.upper().startswith("HTTP/"):
        raise HttpParseError(f"bad protocol version in request line: {start_line!r}")
    items, index = _parse_fields(fields)
    headers = Headers.from_fields(items, index)
    transfer_encoding = index.get("transfer-encoding")
    length = index.get("content-length")
    if transfer_encoding is None and length is None:
        return method, target, version, headers, 0  # the common bodiless request
    return method, target, version, headers, body_length(
        None if transfer_encoding is None else ", ".join(transfer_encoding),
        None if length is None else ", ".join(length),
    )


def parse_status_head(text: str) -> tuple[str, int, str, str]:
    """Version, status, reason and (unparsed) field lines of a latin-1
    response head."""
    status_line, _, fields = text.partition("\r\n")
    parts = status_line.split(None, 2)
    if len(parts) < 2:
        raise HttpParseError(f"malformed status line: {status_line!r}")
    try:
        status = int(parts[1])
    except ValueError as exc:
        raise HttpParseError(f"bad status code {parts[1]!r}") from exc
    return parts[0], status, parts[2] if len(parts) == 3 else "", fields


class ResponseHead(NamedTuple):
    """A framed response's status line and the offsets around its body."""

    version: str
    status: int
    reason: str
    fields: str  # the header lines, latin-1, not yet parsed
    head_end: int
    length: int  # body size, or CHUNKED


def frame_response_head(
    buf: bytes | bytearray, progress: Progress | None = None
) -> tuple[ResponseHead | None, int]:
    """``(head, end)`` for the complete response in *buf*, else
    ``(None, need code)``.  Only the status line and the framing fields
    are parsed; :func:`parse_fields` on ``head.fields`` gives the rest."""
    if progress is None:
        progress = Progress()
    head = progress.head
    if head is None:
        head_end = find_head_end(buf, 0, progress)
        if head_end < 0:
            return None, head_end
        version, status, reason, fields = parse_status_head(
            buf[:head_end].decode("latin-1")
        )
        lowered = fields.lower()
        length = body_length(
            field_value(fields, lowered, "transfer-encoding"),
            None if status in (204, 304) else field_value(fields, lowered, "content-length"),
        )
        head = progress.head = ResponseHead(version, status, reason, fields, head_end, length)
    end = body_end(buf, head.head_end, head.length, progress)
    if end < 0:
        return None, end
    return head, end


def body_end(
    buf: bytes | bytearray, start: int, length: int, progress: Progress | None = None
) -> int:
    """End offset of the body at *start*, or a need code."""
    if length == CHUNKED:
        return _walk_chunks(buf, start, Progress() if progress is None else progress)
    end = start + length
    if end <= len(buf):
        return end
    return need_bytes(end - len(buf))


def _walk_chunks(buf: bytes | bytearray, start: int, progress: Progress) -> int:
    """End offset (or need code) of the chunked body at *start*,
    resuming after the chunks *progress* holds and adding each complete
    chunk, then the trailer start, to it."""
    if progress.trailer:
        return find_head_end(buf, progress.trailer, progress)
    match = _CHUNK_SIZE_LINE.match
    spans = progress.spans
    pos = start if progress.pos < start else progress.pos
    while True:
        line = match(buf, pos)
        if line is None:
            eol = buf.find(b"\n", pos)
            if eol != -1:
                raise HttpParseError(f"bad chunk size line {bytes(buf[pos:eol + 1])!r}")
            if len(buf) - pos > MAX_HEAD:
                raise HttpParseError("chunk-size line too long")
            return NEED_LINE
        size = int(line[1], 16)
        data_start = line.end()
        if size == 0:
            progress.trailer = data_start
            return find_head_end(buf, data_start, progress)
        data_end = data_start + size
        if data_end + 2 > len(buf):
            return need_bytes(data_end + 2 - len(buf))
        if not buf.startswith(b"\r\n", data_end):
            raise HttpParseError("missing CRLF after chunk data")
        spans.append((data_start, data_end))
        progress.pos = pos = data_end + 2


def chunked_parts(
    buf: bytes | bytearray, progress: Progress, end: int
) -> tuple[bytes, Headers]:
    """Data and trailers of the chunked body *progress* walked to *end*."""
    body = b"".join([buf[a:b] for a, b in progress.spans])
    return body, parse_fields(buf[progress.trailer:end].decode("latin-1"))


def frame_chunked(
    buf: bytes | bytearray, start: int, progress: Progress | None = None
) -> tuple[tuple[bytes, Headers] | None, int]:
    """``((data, trailers), end)`` of the complete chunked body at
    *start*, else ``(None, need code)``."""
    if progress is None:
        progress = Progress()
    end = _walk_chunks(buf, start, progress)
    if end < 0:
        return None, end
    return chunked_parts(buf, progress, end), end


def drop_field(message: bytes, name: str) -> bytes:
    """*message* without the header lines named *name* (lower-case).

    Every other byte — start line, remaining fields, line endings, body
    framing — is kept exactly as it was.
    """
    head_end = find_head_end(message)
    lines = message[:head_end].split(b"\n")
    kept = [lines[0]]
    for line in lines[1:]:
        key, sep, _ = line.decode("latin-1").partition(":")
        if not sep or key.strip().lower() != name:
            kept.append(line)
    return b"\n".join(kept) + message[head_end:]
