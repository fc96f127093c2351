"""Tests for the metrics registry: semantics, no-op path, thread safety.

The replay-engine bit-identity check at the bottom is the telemetry
analogue of the fastreplay differential suite: enabling metrics must not
change a single counter of the replayed results.
"""

from __future__ import annotations

import threading

import pytest

import directory_oracle
import replay_oracle
import repro.telemetry as telemetry
from repro.analysis.fastreplay import replay_interned_multi
from repro.analysis.prediction import ReplayConfig, replay_many
from repro.analysis.sweeps import threshold_sweep
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    log_buckets,
)
from repro.traces.intern import compile_trace
from repro.volumes.directory import DirectoryVolumeConfig


@pytest.fixture()
def registry():
    return MetricsRegistry(enabled=True)


class TestLogBuckets:
    def test_geometric_progression_covers_maximum(self):
        bounds = log_buckets(1.0, 8.0, 2.0)
        assert bounds == (1.0, 2.0, 4.0, 8.0)

    def test_last_bound_reaches_past_maximum(self):
        bounds = log_buckets(1.0, 5.0, 2.0)
        assert bounds[-1] >= 5.0

    @pytest.mark.parametrize(
        "minimum, maximum, factor",
        [(0.0, 1.0, 2.0), (-1.0, 1.0, 2.0), (2.0, 1.0, 2.0), (1.0, 2.0, 1.0)],
    )
    def test_invalid_arguments_raise(self, minimum, maximum, factor):
        with pytest.raises(ValueError):
            log_buckets(minimum, maximum, factor)

    def test_default_latency_buckets_span_wire_range(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-4)
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 100.0


class TestCounterAndGauge:
    def test_counter_counts(self, registry):
        counter = registry.counter("requests_total", "help here")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_set_inc_dec(self, registry):
        gauge = registry.gauge("active_workers")
        gauge.set(3)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == pytest.approx(2.0)

    def test_registration_is_idempotent_for_same_kind(self, registry):
        first = registry.counter("shared_total")
        second = registry.counter("shared_total")
        assert first is second

    def test_kind_clash_raises(self, registry):
        registry.counter("clash_metric")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("clash_metric")

    @pytest.mark.parametrize("name", ["Bad", "1bad", "bad-name", "bad.name", ""])
    def test_non_snake_case_names_rejected(self, registry, name):
        with pytest.raises(ValueError):
            registry.counter(name)


class TestHistogram:
    def test_observations_land_in_buckets(self, registry):
        histogram = registry.histogram("h_seconds", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        snapshot = histogram._snapshot()
        assert snapshot.counts == (1, 1, 1, 1)  # last slot = overflow
        assert snapshot.count == 4
        assert snapshot.sum == pytest.approx(105.0)
        assert snapshot.min == pytest.approx(0.5)
        assert snapshot.max == pytest.approx(100.0)

    def test_cumulative_is_monotone_and_ends_at_count(self, registry):
        histogram = registry.histogram("h_cumulative", buckets=(1.0, 2.0))
        for value in (0.5, 0.6, 1.5, 9.0):
            histogram.observe(value)
        pairs = histogram._snapshot().cumulative()
        cumulative = [count for _, count in pairs]
        assert cumulative == sorted(cumulative)
        assert pairs[-1] == (float("inf"), 4)

    def test_exact_percentiles_with_kept_samples(self, registry):
        histogram = registry.histogram("h_exact", keep_samples=True)
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.percentile(50.0) == pytest.approx(50.5)
        assert histogram.percentile(99.0) == pytest.approx(99.01)
        assert histogram.samples == tuple(float(v) for v in range(1, 101))

    def test_bucket_estimated_percentile_within_bucket(self, registry):
        histogram = registry.histogram("h_approx", buckets=(1.0, 2.0, 4.0, 8.0))
        for _ in range(100):
            histogram.observe(3.0)
        estimate = histogram._snapshot().percentile(50.0)
        assert 2.0 <= estimate <= 4.0

    def test_empty_histogram_percentile_is_zero(self, registry):
        histogram = registry.histogram("h_empty")
        assert histogram.percentile(99.0) == 0.0

    def test_timer_observes_elapsed(self, registry):
        histogram = registry.histogram("h_timer")
        with histogram.time():
            pass
        assert histogram.count == 1
        assert histogram.sum >= 0.0


class TestDisabledPath:
    def test_disabled_instruments_never_move(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("noop_total")
        gauge = registry.gauge("noop_gauge")
        histogram = registry.histogram("noop_seconds")
        counter.inc(10)
        gauge.set(5)
        histogram.observe(1.0)
        assert counter.value == 0
        assert gauge.value == 0.0
        assert histogram.count == 0

    def test_disabled_timer_is_shared_noop(self):
        registry = MetricsRegistry(enabled=False)
        histogram = registry.histogram("noop_timer_seconds")
        assert histogram.time() is histogram.time()
        with histogram.time():
            pass
        assert histogram.count == 0

    def test_enable_disable_toggle(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("toggle_total")
        counter.inc()
        registry.enable()
        counter.inc()
        registry.disable()
        counter.inc()
        assert counter.value == 1

    def test_global_helpers_toggle_both_singletons(self):
        assert not telemetry.enabled()
        telemetry.enable()
        try:
            assert telemetry.REGISTRY.enabled()
            assert telemetry.TRACER.enabled()
        finally:
            telemetry.disable()
        assert not telemetry.enabled()


class TestSnapshotAndReset:
    def test_snapshot_covers_every_kind(self, registry):
        registry.counter("snap_total", "counter help").inc(3)
        registry.gauge("snap_gauge").set(1.5)
        registry.histogram("snap_seconds").observe(0.25)
        snapshot = registry.snapshot()
        assert snapshot.counters["snap_total"] == 3
        assert snapshot.gauges["snap_gauge"] == pytest.approx(1.5)
        assert snapshot.histograms["snap_seconds"].count == 1
        assert snapshot.help["snap_total"] == "counter help"
        assert snapshot.enabled

    def test_reset_zeroes_values_keeps_registrations(self, registry):
        counter = registry.counter("reset_total")
        histogram = registry.histogram("reset_seconds", keep_samples=True)
        counter.inc(7)
        histogram.observe(1.0)
        registry.reset()
        assert counter.value == 0
        assert histogram.count == 0
        assert histogram.samples == ()
        assert registry.counter("reset_total") is counter

    def test_names_sorted(self, registry):
        registry.counter("zz_total")
        registry.gauge("aa_gauge")
        assert registry.names() == ("aa_gauge", "zz_total")


class TestConcurrency:
    THREADS = 8
    ITERATIONS = 2_000

    def _hammer(self, registry):
        counter = registry.counter("hammer_total")
        histogram = registry.histogram("hammer_seconds", buckets=(0.5, 1.0, 2.0))
        gauge = registry.gauge("hammer_gauge")
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            try:
                for i in range(self.ITERATIONS):
                    counter.inc()
                    histogram.observe((seed + i) % 3 * 0.7)
                    gauge.inc()
                    gauge.dec()
                    if i % 256 == 0:
                        registry.snapshot()
            except BaseException as exc:  # propagate to the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,), name=f"hammer-{t}")
            for t in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert counter.value == self.THREADS * self.ITERATIONS
        assert histogram.count == self.THREADS * self.ITERATIONS
        assert gauge.value == pytest.approx(0.0)

    def test_concurrent_hammering(self):
        self._hammer(MetricsRegistry(enabled=True))

    def test_concurrent_hammering_under_lock_order_detection(self, monkeypatch):
        # Fresh registry so its stripe locks are created instrumented.
        monkeypatch.setenv("REPRO_LOCKORDER", "1")
        self._hammer(MetricsRegistry(enabled=True))


class TestReplayBitIdentity:
    """Enabling telemetry must not perturb replay results at all."""

    def test_fastreplay_identical_with_telemetry_enabled(self, small_server_log):
        trace, _ = small_server_log
        compiled = compile_trace(trace)
        entries = [
            (DirectoryVolumeConfig(level=1), ReplayConfig(max_elements=20, access_filter=2)),
            (DirectoryVolumeConfig(level=0), ReplayConfig(enable_probability=0.5, seed=11)),
        ]
        baseline = replay_interned_multi(compiled, entries)
        telemetry.enable()
        try:
            instrumented = replay_interned_multi(compiled, entries)
        finally:
            telemetry.disable()
        assert instrumented == baseline
        reference = [
            replay_oracle.replay(trace, directory_oracle.DirectoryVolumeStore(spec), config)
            for spec, config in entries
        ]
        assert instrumented == reference

    def test_sweep_identical_and_counters_move(self, small_server_log):
        trace, _ = small_server_log
        compiled = compile_trace(trace)
        thresholds = (0.1, 0.3)
        baseline = threshold_sweep(compiled, thresholds, processes=1)
        telemetry.enable()
        try:
            before = telemetry.REGISTRY.snapshot().counters
            instrumented = threshold_sweep(compiled, thresholds, processes=1)
            after = telemetry.REGISTRY.snapshot().counters
        finally:
            telemetry.disable()
        assert instrumented == baseline
        moved = after["analysis_sweep_points_total"] - before["analysis_sweep_points_total"]
        assert moved == len(thresholds)
        completed = (
            after["analysis_sweep_points_completed_total"]
            - before["analysis_sweep_points_completed_total"]
        )
        assert completed == len(thresholds)

    def test_record_list_compiles_once_per_replay(self, small_server_log):
        # A list cannot be weakly cached, so every compile is a miss: the
        # replay's record count must come from the pass's own compile.
        trace, _ = small_server_log
        records = list(trace)
        telemetry.enable()
        try:
            before = telemetry.REGISTRY.snapshot().counters
            (metrics,) = replay_many(records, [(DirectoryVolumeConfig(level=1), ReplayConfig())])
            after = telemetry.REGISTRY.snapshot().counters
        finally:
            telemetry.disable()
        assert metrics.requests == len(records)
        misses = "trace_compile_cache_misses_total"
        assert after[misses] - before.get(misses, 0) == 1
        replayed = "analysis_replay_records_total"
        assert after[replayed] - before.get(replayed, 0) == len(records)
