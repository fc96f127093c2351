"""Fault injection for the crash-recovery test harness.

The crash-recovery chaos tests need to kill the process at a *precise
byte offset* inside a journal append or a snapshot write — not "roughly
around then", because the whole point is proving recovery from every
torn-write shape.  This module provides a kill switch the durable
writers route their bytes through: the journal
(:mod:`repro.server.durability.journal`) and the one document writer of
the state codec (:mod:`repro.volumes.state`), which writes snapshots,
meta files and volume artifacts:

``REPRO_DURABILITY_KILL=journal:173``
    SIGKILL the process after exactly 173 bytes have reached the journal
    file (cumulatively, across appends).  The prefix up to the offset is
    flushed and fsynced first so the surviving bytes are deterministic.

``REPRO_DURABILITY_KILL=snapshot:4096``
    Same, counting bytes written to snapshot temp files.

``REPRO_DURABILITY_KILL=point:snapshot-replace``
    SIGKILL at a *named* code point (here: immediately after the
    snapshot rename hits the directory; ``meta-replace`` and
    ``artifact-replace`` name the other documents' renames) for
    boundaries that are not byte-addressable.

The switch is parsed once per process from the environment; production
processes never set the variable and pay one ``None`` check per write.
SIGKILL (not ``os._exit``) is used so the death is indistinguishable
from an OOM kill: no atexit hooks, no flush-on-close, no cleanup.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import BinaryIO

__all__ = ["KILL_ENV", "KillSwitch", "active_switch", "chaos_write", "chaos_point"]

KILL_ENV = "REPRO_DURABILITY_KILL"


class KillSwitch:
    """Parsed ``REPRO_DURABILITY_KILL`` spec plus its byte accounting."""

    def __init__(self, kind: str, offset: int) -> None:
        self.kind = kind
        self.offset = offset
        self._written = 0
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, spec: str) -> "KillSwitch":
        kind, _, raw = spec.partition(":")
        if kind == "point":
            return cls("point:" + raw, 0)
        if kind not in ("journal", "snapshot") or not raw.isdigit():
            raise ValueError(f"bad {KILL_ENV} spec: {spec!r}")
        return cls(kind, int(raw))

    def _die(self) -> None:
        os.kill(os.getpid(), signal.SIGKILL)
        # SIGKILL cannot be handled, but guard against scheduler delay:
        # never let execution continue past the kill point.
        signal.pause()

    def write(self, handle: BinaryIO, data: bytes) -> None:
        """Write *data*, dying mid-buffer if the offset falls inside it."""
        with self._lock:
            remaining = self.offset - self._written
            if 0 <= remaining < len(data):
                handle.write(data[:remaining])
                handle.flush()
                os.fsync(handle.fileno())
                self._die()
            self._written += len(data)
        handle.write(data)

    def hit_point(self, name: str) -> None:
        if self.kind == "point:" + name:
            self._die()


_SWITCH: KillSwitch | None = None
_PARSED = False
_PARSE_LOCK = threading.Lock()


def active_switch() -> KillSwitch | None:
    """The process-wide kill switch, or None when the env var is unset."""
    global _SWITCH, _PARSED
    if not _PARSED:
        with _PARSE_LOCK:
            if not _PARSED:
                spec = os.environ.get(KILL_ENV)
                _SWITCH = KillSwitch.parse(spec) if spec else None
                _PARSED = True
    return _SWITCH


def chaos_write(handle: BinaryIO, data: bytes, kind: str) -> None:
    """Write *data* to *handle*, honoring an active kill switch for *kind*."""
    switch = active_switch()
    if switch is not None and switch.kind == kind:
        switch.write(handle, data)
    else:
        handle.write(data)


def chaos_point(name: str) -> None:
    """Declare a named crash point (no-op unless targeted by the switch)."""
    switch = active_switch()
    if switch is not None:
        switch.hit_point(name)
