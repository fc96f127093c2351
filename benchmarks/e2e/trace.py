"""Spans recorded by the benchmark around the calls it makes.

Nothing inside ``src/`` is instrumented here: a span is opened by the
benchmark's own code around a call into one layer's public function (or
around one request on the wire), kept in memory, and written out when
the run ends.  A layer's *self time* is its span's duration minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

__all__ = ["Tracer"]


class Tracer:
    """In-memory span store: ``{name, trace_id, span_id, parent, start, end}``."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def current(self) -> int | None:
        """The innermost span open on the calling thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _append(self, name: str, parent: int | None, start: float, end: float) -> int:
        with self._lock:
            span_id = len(self.spans)
            self.spans.append({
                "name": name, "trace_id": self.trace_id, "span_id": span_id,
                "parent": parent, "start": start, "end": end,
            })
        return span_id

    def record(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        """Store an already-timed span (the hot loops time themselves)."""
        return self._append(name, self.current() if parent is None else parent, start, end)

    @contextmanager
    def span(self, name: str):
        """Time a block; spans opened inside it on this thread nest under it."""
        parent = self.current()
        # Reserve the id first so children can point at it.
        span_id = self._append(name, parent, time.perf_counter(), 0.0)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span_id)
        try:
            yield span_id
        finally:
            stack.pop()
            self.spans[span_id]["end"] = time.perf_counter()

    # -- analysis ------------------------------------------------------------

    def self_time(self, span_id: int) -> float:
        """Duration of *span_id* minus the time its direct children cover."""
        span = self.spans[span_id]
        covered = sum(
            child["end"] - child["start"]
            for child in self.spans if child["parent"] == span_id
        )
        return (span["end"] - span["start"]) - covered

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"trace_id": self.trace_id, "spans": self.spans}, handle)
            handle.write("\n")
