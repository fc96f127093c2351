"""Append-only write-ahead journal for origin-server volume state.

The durable origin's contract is *acknowledged means durable*: a request
is not answered until the observation that mutated the volume store has
reached stable storage.  Snapshots are too expensive per request, so the
store journals each observation first (append + fsync), applies it in
memory, and folds the journal into a snapshot only occasionally.

Frame format (little-endian), one frame per record::

    b"RJ" | uint32 payload length | uint32 crc32(payload) | payload

Payloads are UTF-8 JSON.  Three record kinds exist:

``begin``
    Written once at the head of each journal file, carrying the process
    generation, the epoch base in effect, and the next mutation sequence
    number.  Begin records carry no state.

``obs``
    One observed :class:`~repro.traces.records.LogRecord`.

``res``
    One resource-store update (url, size, content type, mtime).

Mutating records carry a strictly increasing sequence number that is
global across journal files and process generations; recovery replays
records with ``seq`` greater than the snapshot's high-water mark and
skips duplicates (a retried append after a crash is harmless).

The reader is **tail-tolerant by design**: a crash mid-append leaves a
torn final frame (short header, short payload, or CRC mismatch), and
the reader stops cleanly at the last complete frame, reporting the torn
tail rather than raising.  Garbage *before* the tail — a CRC-valid
prefix followed by unparseable bytes followed by more frames — cannot
be produced by an append-only crash, so replay never resynchronizes past
damage: everything after the first bad byte is discarded.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO

from ...telemetry import REGISTRY
from ...traces.records import LogRecord
from ...devtools.chaos import chaos_write

__all__ = [
    "JournalRecord",
    "JournalTail",
    "JournalWriter",
    "read_journal",
    "record_to_log_record",
    "MAX_RECORD_BYTES",
]

_MAGIC = b"RJ"
_HEADER = struct.Struct("<2sII")
# A single observation serializes to well under a kilobyte; anything
# claiming to be bigger than this is tail garbage, not a record.
MAX_RECORD_BYTES = 1 << 24

_TEL_APPENDS = REGISTRY.counter(
    "server_journal_appends_total", "Records appended to the durability journal"
)
_TEL_BYTES = REGISTRY.counter(
    "server_journal_bytes_total", "Bytes appended to the durability journal"
)
_TEL_FSYNCS = REGISTRY.counter(
    "server_journal_fsyncs_total", "fsync calls issued by the durability journal"
)


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One decoded journal frame."""

    kind: str
    seq: int
    fields: dict[str, Any]


@dataclass(frozen=True, slots=True)
class JournalTail:
    """How a journal file ended: cleanly, or with a torn/garbage tail."""

    clean: bool
    offset: int
    torn_bytes: int
    reason: str | None


def _encode(kind: str, seq: int, fields: dict[str, Any]) -> bytes:
    payload = json.dumps(
        {"t": kind, "seq": seq, **fields}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return _HEADER.pack(_MAGIC, len(payload), zlib.crc32(payload)) + payload


def record_to_log_record(record: JournalRecord) -> LogRecord:
    """Rehydrate an ``obs`` journal record into a trace record."""
    fields = record.fields
    return LogRecord(
        timestamp=float(fields["ts"]),
        source=str(fields["src"]),
        url=str(fields["url"]),
        method=str(fields["m"]),
        status=int(fields["st"]),
        size=int(fields["sz"]),
        last_modified=None if fields["lm"] is None else float(fields["lm"]),
    )


class JournalWriter:
    """Appends framed records to one journal file, fsyncing each append.

    A writer owns exactly one file for one process generation; it is
    created fresh at startup (after recovery) and never reopened.  The
    caller serializes appends (the volume store's lock already does).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        next_seq: int,
        generation: int,
        epoch_base: int,
        sync: bool = True,
    ) -> None:
        self.path = Path(path)
        self._sync = sync
        self._next_seq = next_seq
        self._handle: BinaryIO | None = open(self.path, "xb")
        self.bytes_written = 0
        self._append_frame(
            _encode(
                "begin",
                next_seq - 1,
                {"next_seq": next_seq, "generation": generation, "base": epoch_base},
            )
        )

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently appended mutation."""
        return self._next_seq - 1

    def _append_frame(self, frame: bytes) -> None:
        handle = self._handle
        if handle is None:
            raise ValueError("journal writer is closed")
        chaos_write(handle, frame, "journal")
        handle.flush()
        if self._sync:
            os.fsync(handle.fileno())
            _TEL_FSYNCS.inc()
        self.bytes_written += len(frame)
        _TEL_APPENDS.inc()
        _TEL_BYTES.inc(len(frame))

    def _append(self, kind: str, fields: dict[str, Any]) -> int:
        seq = self._next_seq
        self._append_frame(_encode(kind, seq, fields))
        self._next_seq = seq + 1
        return seq

    def append_observation(self, record: LogRecord) -> int:
        """Journal one observation; returns its sequence number.

        When this returns, the record is durable: a crash on the very
        next instruction loses nothing.
        """
        return self._append(
            "obs",
            {
                "ts": record.timestamp,
                "src": record.source,
                "url": record.url,
                "m": record.method,
                "st": record.status,
                "sz": record.size,
                "lm": record.last_modified,
            },
        )

    def append_ceiling(self, min_access_count: int) -> int:
        """Journal a raised access-count ceiling; returns its sequence."""
        return self._append("cap", {"min": min_access_count})

    def append_resource(
        self, url: str, size: int, content_type: str, last_modified: float
    ) -> int:
        """Journal one resource-store update; returns its sequence number."""
        return self._append(
            "res", {"url": url, "sz": size, "ct": content_type, "lm": last_modified}
        )

    def close(self) -> None:
        handle = self._handle
        if handle is not None:
            self._handle = None
            handle.close()


def read_journal(path: str | Path) -> tuple[list[JournalRecord], JournalTail]:
    """Decode every complete frame in *path*, tolerating a damaged tail.

    Returns the decoded records plus a :class:`JournalTail` describing
    where and why reading stopped.  Never raises on content: any frame
    that fails validation (bad magic, oversized length, short payload,
    CRC mismatch, non-JSON) ends the scan there, with the remaining
    bytes counted as torn.
    """
    data = Path(path).read_bytes()
    records: list[JournalRecord] = []
    offset = 0

    def tail(reason: str | None) -> JournalTail:
        return JournalTail(
            clean=reason is None,
            offset=offset,
            torn_bytes=len(data) - offset,
            reason=reason,
        )

    while offset < len(data):
        if len(data) - offset < _HEADER.size:
            return records, tail("short frame header")
        magic, length, crc = _HEADER.unpack_from(data, offset)
        if magic != _MAGIC:
            return records, tail("bad frame magic")
        if length > MAX_RECORD_BYTES:
            return records, tail("implausible frame length")
        start = offset + _HEADER.size
        end = start + length
        if end > len(data):
            return records, tail("short frame payload")
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return records, tail("frame checksum mismatch")
        try:
            decoded = json.loads(payload.decode("utf-8"))
            kind = str(decoded.pop("t"))
            seq = int(decoded.pop("seq"))
        except (ValueError, KeyError, UnicodeDecodeError):
            return records, tail("unparseable frame payload")
        records.append(JournalRecord(kind=kind, seq=seq, fields=decoded))
        offset = end
    return records, tail(None)
