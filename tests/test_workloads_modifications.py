"""Unit tests for the resource modification process."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.workloads.modifications import ModificationConfig, ModificationProcess


class TestModificationProcess:
    def make(self, **kwargs):
        config = ModificationConfig(
            fast_fraction=kwargs.pop("fast_fraction", 0.5),
            fast_mean_interval=kwargs.pop("fast_mean_interval", 100.0),
            slow_mean_interval=kwargs.pop("slow_mean_interval", 1e7),
            seed=kwargs.pop("seed", 0),
        )
        return ModificationProcess(0.0, kwargs.pop("end", 10_000.0), config)

    def test_last_modified_monotone_in_time(self):
        process = self.make()
        url = "h/a.html"
        values = [process.last_modified(url, t) for t in (0, 100, 1000, 5000, 10000)]
        assert values == sorted(values)

    def test_last_modified_never_exceeds_query_time(self):
        process = self.make()
        for t in (0.0, 123.0, 9999.0):
            assert process.last_modified("h/x.html", t) <= t

    def test_creation_time_is_start(self):
        process = self.make()
        assert process.last_modified("h/y.html", 0.0) == 0.0

    def test_deterministic_per_url_and_seed(self):
        a = self.make(seed=1)
        b = self.make(seed=1)
        assert a.last_modified("h/z.html", 5000.0) == b.last_modified("h/z.html", 5000.0)

    def test_different_urls_have_independent_schedules(self):
        process = self.make()
        times = {process.last_modified(f"h/u{i}.html", 9000.0) for i in range(30)}
        assert len(times) > 1

    def test_modified_between(self):
        process = self.make(fast_fraction=1.0, fast_mean_interval=50.0)
        url = "h/hot.html"
        full = process.modified_between(url, 0.0, 10_000.0)
        assert full  # a 50s-mean process certainly fires within 10ks
        # An interval before the first change must report unmodified.
        first_change = min(
            t for t in (process.last_modified(url, x) for x in range(0, 10000, 10))
            if t > 0.0
        )
        assert not process.modified_between(url, first_change, first_change)

    def test_modification_count_scales_with_rate(self):
        fast = self.make(fast_fraction=1.0, fast_mean_interval=50.0)
        slow = self.make(fast_fraction=0.0)
        fast_total = sum(fast.modification_count(f"h/u{i}") for i in range(20))
        slow_total = sum(slow.modification_count(f"h/u{i}") for i in range(20))
        assert fast_total > slow_total

    def test_invalid_horizon_rejected(self):
        with pytest.raises(ValueError):
            ModificationProcess(10.0, 5.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ModificationConfig(fast_fraction=1.5)
        with pytest.raises(ValueError):
            ModificationConfig(fast_mean_interval=0.0)


_PRESET_MTIMES = (
    "from repro.workloads.synth import server_log_preset\n"
    "trace, _ = server_log_preset('aiusa', scale=0.02)\n"
    "print(repr([record.last_modified for record in trace]))\n"
)


def test_preset_last_modified_does_not_depend_on_the_hash_seed():
    # Per-URL schedules used to be seeded from hash(url), which Python
    # salts per process: the same preset and seed gave other mtimes.
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        result = subprocess.run([sys.executable, "-c", _PRESET_MTIMES], env=env,
                                capture_output=True, text=True, timeout=120, check=True)
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert len(set(ast.literal_eval(outputs[0]))) > 1
