"""Output checks that can fail a run.

A benchmark that only times the program rewards answering faster by
answering less.  Every response a pass received is checked here, after
the pass and outside its timed region; each violation is one failed
operation in the run's result, and any failure makes the run incorrect.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.httpmodel.piggy_codec import P_VOLUME_HEADER, PiggyCodecError, parse_p_volume
from repro.httpwire.netserver import synthetic_body

from driver import Exchange

__all__ = ["WireTally", "check_exchanges", "Expectation", "PIGGYBACK_TOLERANCE"]

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: "Faster by piggybacking less" shows as fewer trailer bytes per response.
PIGGYBACK_TOLERANCE = 0.02

_MAXPIGGY = re.compile(r"maxpiggy=(\d+)")


@dataclass(slots=True)
class WireTally:
    """What the checks saw across the exchanges of one or more passes."""

    attempted: int = 0
    failed: int = 0
    responses: int = 0
    piggyback_messages: int = 0
    piggyback_bytes: int = 0
    piggyback_elements: int = 0
    statuses: dict[int, int] = field(default_factory=dict)
    x_cache: dict[str, int] = field(default_factory=dict)
    reasons: dict[str, int] = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def merge(self, other: "WireTally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.responses += other.responses
        self.piggyback_messages += other.piggyback_messages
        self.piggyback_bytes += other.piggyback_bytes
        self.piggyback_elements += other.piggyback_elements
        for mine, theirs in ((self.statuses, other.statuses),
                             (self.x_cache, other.x_cache),
                             (self.reasons, other.reasons)):
            for key, count in theirs.items():
                mine[key] = mine.get(key, 0) + count

    @property
    def piggyback_bytes_per_response(self) -> float:
        return self.piggyback_bytes / self.responses if self.responses else 0.0

    @property
    def piggyback_elements_per_response(self) -> float:
        return self.piggyback_elements / self.responses if self.responses else 0.0


def _check_one(exchange: Exchange, sizes: dict[str, int], via_proxy: bool,
               tally: WireTally) -> None:
    response = exchange.response
    if response is None:
        tally.fail("transport")
        return
    tally.responses += 1
    tally.statuses[response.status] = tally.statuses.get(response.status, 0) + 1
    spec = exchange.spec
    if response.status == 304:
        if not exchange.conditional_sent:
            tally.fail("unasked-304")
        elif response.body:
            tally.fail("304-with-body")
    elif response.status == 200:
        if response.body != synthetic_body(spec.url, sizes[spec.url]):
            tally.fail("body")
    else:
        tally.fail(f"status-{response.status}")
        return
    if via_proxy:
        outcome = response.headers.get("X-Cache")
        if outcome is None:
            tally.fail("no-x-cache")
        else:
            tally.x_cache[outcome] = tally.x_cache.get(outcome, 0) + 1
    trailer = response.trailers.get(P_VOLUME_HEADER)
    if trailer is None:
        return
    if spec.piggy_filter is None:
        tally.fail("unasked-piggyback")
        return
    try:
        message = parse_p_volume(trailer)
    except PiggyCodecError:
        tally.fail("p-volume-parse")
        return
    limit = _MAXPIGGY.search(spec.piggy_filter)
    if limit is not None and len(message) > int(limit.group(1)):
        tally.fail("maxpiggy")
    if any(element.url == spec.url for element in message):
        tally.fail("self-piggyback")
    tally.piggyback_messages += 1
    tally.piggyback_bytes += len(trailer)
    tally.piggyback_elements += len(message)


def check_exchanges(exchanges: list[Exchange], sizes: dict[str, int],
                    via_proxy: bool = False) -> WireTally:
    """Check every exchange of a pass against the generated site."""
    tally = WireTally(attempted=len(exchanges))
    for exchange in exchanges:
        _check_one(exchange, sizes, via_proxy, tally)
    return tally


class Expectation:
    """Committed expected values for the default seed, keyed by the work
    size they were recorded at: ``expected/<workload>-seed0.json`` holds
    ``{"<size key>": {...values...}}``.  A size with no entry checks
    nothing (the run still has to agree with itself)."""

    def __init__(self, workload: str, seed: int, size_key: str):
        self.path = EXPECTED_DIR / f"{workload}-seed{seed}.json"
        self.size_key = size_key
        self.values: dict | None = None
        if self.path.exists():
            with open(self.path, encoding="utf-8") as handle:
                self.values = json.load(handle).get(size_key)

    def record(self, values: dict) -> None:
        """Write *values* as the expectation for this size (maintainers
        only: ``run.py --record-expected``)."""
        existing = {}
        if self.path.exists():
            with open(self.path, encoding="utf-8") as handle:
                existing = json.load(handle)
        existing[self.size_key] = values
        EXPECTED_DIR.mkdir(exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(existing, handle, indent=1, sort_keys=True)
            handle.write("\n")

    def within(self, name: str, measured: float, tolerance: float) -> bool:
        """True when there is no expectation, or *measured* is within
        *tolerance* (relative) of it."""
        if self.values is None or name not in self.values:
            return True
        expected = float(self.values[name])
        if expected == 0.0:
            return measured == 0.0
        return abs(measured - expected) <= tolerance * abs(expected)

    def equals(self, name: str, measured) -> bool:
        if self.values is None or name not in self.values:
            return True
        return self.values[name] == measured
