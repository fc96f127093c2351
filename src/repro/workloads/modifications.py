"""Resource modification processes.

Server logs carry no Last-Modified times (Appendix A), so coherency
experiments need a synthetic change process.  Each resource is assigned a
modification rate from a bimodal population — most resources change rarely,
a minority change often — calibrated so that roughly 15% of repeat accesses
observe a changed resource, matching the AT&T client-log observation.
"""

from __future__ import annotations

import bisect
import random
import zlib
from dataclasses import dataclass

__all__ = ["ModificationConfig", "ModificationProcess"]


@dataclass(frozen=True, slots=True)
class ModificationConfig:
    """Population parameters for resource change behaviour."""

    fast_fraction: float = 0.10
    fast_mean_interval: float = 3_600.0
    slow_mean_interval: float = 30.0 * 86400.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fast_fraction <= 1.0:
            raise ValueError("fast_fraction must be in [0, 1]")
        if self.fast_mean_interval <= 0 or self.slow_mean_interval <= 0:
            raise ValueError("mean intervals must be positive")


class ModificationProcess:
    """Poisson modification times for a set of resources over a horizon.

    Modification schedules are generated lazily per resource and cached, so
    a process over thousands of resources only pays for the resources a
    trace actually touches.
    """

    def __init__(
        self,
        start_time: float,
        end_time: float,
        config: ModificationConfig = ModificationConfig(),
    ):
        if end_time < start_time:
            raise ValueError("end_time must not precede start_time")
        self.start_time = start_time
        self.end_time = end_time
        self.config = config
        self._schedules: dict[str, list[float]] = {}

    def _schedule_for(self, url: str) -> list[float]:
        schedule = self._schedules.get(url)
        if schedule is not None:
            return schedule
        # crc32, not hash(): str hashes change with PYTHONHASHSEED.
        rng = random.Random(zlib.crc32(url.encode()) ^ self.config.seed)
        if rng.random() < self.config.fast_fraction:
            mean = self.config.fast_mean_interval
        else:
            mean = self.config.slow_mean_interval
        schedule = [self.start_time]
        now = self.start_time
        while True:
            now += rng.expovariate(1.0 / mean)
            if now > self.end_time:
                break
            schedule.append(now)
        self._schedules[url] = schedule
        return schedule

    def last_modified(self, url: str, at_time: float) -> float:
        """Last-Modified time of *url* as observed at *at_time*."""
        schedule = self._schedule_for(url)
        index = bisect.bisect_right(schedule, at_time) - 1
        if index < 0:
            return self.start_time
        return schedule[index]

    def modified_between(self, url: str, start: float, end: float) -> bool:
        """True if *url* changed in the half-open interval (start, end]."""
        return self.last_modified(url, end) > start

    def modification_count(self, url: str) -> int:
        """Number of modifications within the horizon (excluding creation)."""
        return len(self._schedule_for(url)) - 1
