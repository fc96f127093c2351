"""Per-source bookkeeping structures for the frozen reference replay.

A replay tracks, for every request source, when each URL was last carried
in a piggyback, when it was last requested, and which opened predictions
are still awaiting resolution.  Plain dictionaries keyed by URL suffice —
windows are checked lazily against the current time instead of being
eagerly expired, which keeps every operation O(1).  Only
:mod:`replay_oracle` and the tests use it; ``src/`` replays on the
interned engine's arrays instead.
"""

from __future__ import annotations

__all__ = ["TimestampMap", "SourceState"]


class TimestampMap:
    """URL -> most recent event time, with windowed membership tests."""

    def __init__(self) -> None:
        self._times: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._times)

    def record(self, url: str, now: float) -> None:
        self._times[url] = now

    def last(self, url: str) -> float | None:
        return self._times.get(url)

    def within(self, url: str, now: float, window: float) -> bool:
        """True if *url*'s last event is in ``(now - window, now]``."""
        timestamp = self._times.get(url)
        return timestamp is not None and now - timestamp <= window

    def age(self, url: str, now: float) -> float | None:
        timestamp = self._times.get(url)
        if timestamp is None:
            return None
        return now - timestamp

    def forget(self, url: str) -> None:
        self._times.pop(url, None)


class SourceState:
    """All per-source replay state bundled together."""

    __slots__ = ("carried", "requested", "pending")

    def __init__(self) -> None:
        self.carried = TimestampMap()
        self.requested = TimestampMap()
        # URL -> time the currently open prediction was opened.
        self.pending: dict[str, float] = {}

    def open_prediction(self, url: str, now: float) -> None:
        self.pending[url] = now

    def resolve_prediction(self, url: str, now: float, window: float) -> bool:
        """Pop any open prediction for *url*; True if it came true in time."""
        opened_at = self.pending.pop(url, None)
        return opened_at is not None and now - opened_at <= window
