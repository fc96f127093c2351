"""Summary statistics, host noise readings and provenance for the benchmark.

Everything here is plain arithmetic over numbers the other modules
collected; nothing in this file touches the system under test.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
from pathlib import Path

__all__ = [
    "MIN_SAMPLES_BEYOND",
    "percentile",
    "summarize",
    "HostCpu",
    "provenance",
]

#: A percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1): p99 needs 1,000 samples.
MIN_SAMPLES_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Linear-interpolated percentile *q* (0..100) of *samples*.

    Raises ``ValueError`` when fewer than :data:`MIN_SAMPLES_BEYOND`
    samples lie beyond the percentile, so a tail statistic cannot be
    reported off a handful of values.
    """
    count = len(samples)
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    beyond = count * (1.0 - q / 100.0)
    if q > 50.0 and beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} needs {MIN_SAMPLES_BEYOND} samples beyond it; "
            f"{count} samples leave {beyond:.1f}"
        )
    if count == 0:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (q / 100.0) * (count - 1)
    low = int(rank)
    high = min(low + 1, count - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def summarize(values) -> dict:
    """Median, quartiles and relative quartile spread of per-pass values."""
    values = [float(v) for v in values]
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "values": values,
    }


class HostCpu:
    """Whole-host CPU time counters from ``/proc/stat``, in clock ticks.

    ``steal_ratio(before, after)`` is the share of the interval's CPU
    time the hypervisor gave to other guests.  Where ``/proc/stat`` is
    missing or carries no steal column the ratio reads 0.0 and nothing
    is ever discarded.
    """

    __slots__ = ("total", "steal")

    def __init__(self, total: int, steal: int):
        self.total = total
        self.steal = steal

    @classmethod
    def read(cls) -> "HostCpu":
        try:
            with open("/proc/stat", "rb") as handle:
                fields = handle.readline().split()
        except OSError:
            return cls(0, 0)
        if not fields or fields[0] != b"cpu":
            return cls(0, 0)
        ticks = [int(value) for value in fields[1:]]
        # user nice system idle iowait irq softirq steal [guest guest_nice];
        # guest time is already inside user/nice.
        steal = ticks[7] if len(ticks) > 7 else 0
        return cls(sum(ticks[:8]), steal)

    @staticmethod
    def steal_ratio(before: "HostCpu", after: "HostCpu") -> float:
        elapsed = after.total - before.total
        if elapsed <= 0:
            return 0.0
        return (after.steal - before.steal) / elapsed


def _git_sha(root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(root: Path) -> dict:
    """Where and on what this run was made (the ledger's fingerprint)."""
    try:
        load = list(os.getloadavg())
    except OSError:
        load = []
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "loadavg": load,
    }
