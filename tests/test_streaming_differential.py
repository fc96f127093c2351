"""Streaming engines must be bit-identical to the in-memory fast engines.

The chunk-streaming replay and pairwise-estimation paths share their
per-record statements with the array-backed fast paths, so every metric —
element-wise :class:`ReplayMetrics`, RNG streams, RPV suppression, wire
bytes, pair counters, sampling skips — must match *exactly*, for chunk
sizes {1, 7, 4096}, for in-memory chunk lists and on-disk chunk files,
and with state pruning forced to run at an aggressive cadence.  The
one-chunk baseline itself is held to the frozen reference replay in
``replay_oracle`` on the frozen string-keyed stores from
``directory_oracle`` and ``probability_oracle``.
"""

from __future__ import annotations

import pytest

import directory_oracle
import probability_oracle
import replay_oracle
import repro.analysis.fastreplay as fastreplay
from repro.analysis.fastreplay import replay_interned_multi
from repro.analysis.prediction import ReplayConfig
from repro.core.filters import ProxyFilter
from repro.traces.chunked import open_chunked_trace, write_chunked_trace
from repro.traces.intern import ChunkedCompiledTrace
from repro.traces.stats import characterize_client_log, characterize_server_log
from repro.volumes.directory import DirectoryVolumeConfig
from repro.volumes.probability import (
    PairwiseConfig,
    PairwiseEstimator,
    build_probability_volumes,
    estimate_pairwise,
)
from repro.workloads.internet import InternetConfig, generate_internet_stream

CHUNK_SIZES = (1, 7, 4096)

# Exercises every accounting path the streaming engine must reproduce:
# the RNG gate (enable_probability < 1), RPV suppression, precounted and
# online access filters, warmup exclusion, size/type admission.
REPLAY_CONFIGS = [
    ReplayConfig(),
    ReplayConfig(enable_probability=0.5, seed=11),
    ReplayConfig(rpv_min_gap=30.0, max_elements=10),
    ReplayConfig(access_filter=3),
    ReplayConfig(access_filter=3, precount_accesses=False),
    ReplayConfig(measure_after=50_000.0),
    ReplayConfig(
        max_elements=8,
        access_filter=2,
        rpv_min_gap=60.0,
        enable_probability=0.8,
        seed=3,
        base_filter=ProxyFilter(max_resource_size=6000,
                                excluded_content_types=frozenset({"image"})),
    ),
]


@pytest.fixture(scope="module")
def records(small_server_log):
    trace, _ = small_server_log
    return list(trace)


@pytest.fixture(scope="module")
def entries(small_server_log):
    trace, _ = small_server_log
    estimator = estimate_pairwise(trace, PairwiseConfig())
    volumes = build_probability_volumes(estimator, 0.1)
    pairs = [(DirectoryVolumeConfig(level=1), config) for config in REPLAY_CONFIGS]
    pairs += [(volumes, config) for config in REPLAY_CONFIGS]
    return pairs


@pytest.fixture(scope="module")
def baseline(small_server_log, entries):
    trace, _ = small_server_log
    return replay_interned_multi(trace, entries)


def _reference(trace, store_config, config):
    if isinstance(store_config, DirectoryVolumeConfig):
        store = directory_oracle.DirectoryVolumeStore(store_config)
    else:
        store = probability_oracle.ProbabilityVolumeStore(store_config)
    return replay_oracle.replay(trace, store, config)


class TestStreamingReplay:
    def test_baseline_matches_reference(self, small_server_log, entries, baseline):
        trace, _ = small_server_log
        assert baseline == [_reference(trace, store, config) for store, config in entries]

    @pytest.mark.parametrize("chunk_records", CHUNK_SIZES)
    def test_memory_chunks_bit_identical(self, records, entries, baseline, chunk_records):
        chunked = ChunkedCompiledTrace.from_records(records, chunk_records=chunk_records)
        assert replay_interned_multi(chunked, entries) == baseline

    @pytest.mark.parametrize("chunk_records", CHUNK_SIZES)
    def test_file_chunks_bit_identical(
        self, records, entries, baseline, chunk_records, tmp_path
    ):
        path = str(tmp_path / "t.rpchunk")
        write_chunked_trace(records, path, chunk_records=chunk_records)
        assert replay_interned_multi(open_chunked_trace(path), entries) == baseline

    def test_pruning_is_metrics_neutral(
        self, records, entries, baseline, monkeypatch
    ):
        # Prune after nearly every chunk: any state the pruner wrongly
        # drops (or any RNG draw it makes) would desynchronize metrics.
        monkeypatch.setattr(fastreplay, "PRUNE_INTERVAL_RECORDS", 64)
        chunked = ChunkedCompiledTrace.from_records(records, chunk_records=37)
        assert replay_interned_multi(chunked, entries) == baseline

    def test_pruning_drops_idle_state(self, records, monkeypatch):
        monkeypatch.setattr(fastreplay, "PRUNE_INTERVAL_RECORDS", 64)
        chunked = ChunkedCompiledTrace.from_records(records, chunk_records=64)
        config = ReplayConfig(prediction_window=60.0, history_window=120.0,
                              recent_window=30.0)
        slots_seen: list = []
        original = fastreplay._prune_slots

        def spy(slots, now):
            slots_seen.extend(slots)
            return original(slots, now)

        monkeypatch.setattr(fastreplay, "_prune_slots", spy)
        replay_interned_multi(chunked, [(DirectoryVolumeConfig(level=1), config)])
        assert slots_seen, "pruner never ran"
        # With tight windows over a multi-day trace, most sources are idle
        # at any instant: live state must be far below total sources.
        total_sources = len({r.source for r in records})
        assert len(slots_seen[-1].states) < total_sources


class TestStreamingEstimator:
    ESTIMATOR_CONFIGS = [
        PairwiseConfig(),
        PairwiseConfig(sample_counters=True, seed=5),
        PairwiseConfig(same_directory_level=1, window=120.0),
    ]

    @pytest.mark.parametrize("chunk_records", CHUNK_SIZES)
    def test_chunked_estimates_bit_identical(self, small_server_log, records, chunk_records):
        trace, _ = small_server_log
        for config in self.ESTIMATOR_CONFIGS:
            base = estimate_pairwise(trace, config)
            chunked = ChunkedCompiledTrace.from_records(records, chunk_records=chunk_records)
            got = estimate_pairwise(chunked, config)
            assert got.implications(0.0) == base.implications(0.0)
            assert got.counter_count == base.counter_count
            assert got.skipped_pair_events == base.skipped_pair_events

    def test_file_backed_estimates_bit_identical(self, small_server_log, records, tmp_path):
        trace, _ = small_server_log
        path = str(tmp_path / "t.rpchunk")
        write_chunked_trace(records, path, chunk_records=256)
        for config in self.ESTIMATOR_CONFIGS:
            base = estimate_pairwise(trace, config)
            got = estimate_pairwise(open_chunked_trace(path), config)
            assert got.implications(0.0) == base.implications(0.0)

    def test_window_pruning_is_neutral(self, small_server_log, records, monkeypatch):
        trace, _ = small_server_log
        monkeypatch.setattr(PairwiseEstimator, "PRUNE_INTERVAL_RECORDS", 64)
        config = PairwiseConfig(sample_counters=True, seed=5)
        base = estimate_pairwise(trace, config)
        chunked = ChunkedCompiledTrace.from_records(records, chunk_records=50)
        got = estimate_pairwise(chunked, config)
        assert got.implications(0.0) == base.implications(0.0)
        assert got.skipped_pair_events == base.skipped_pair_events

    def test_incremental_run_across_chunks(self, small_server_log, records):
        trace, _ = small_server_log
        chunked = ChunkedCompiledTrace.from_records(records, chunk_records=17)
        estimator = PairwiseEstimator(PairwiseConfig(), id_space=chunked)
        estimator.run(100)
        estimator.run(250)
        estimator.run()
        base = estimate_pairwise(trace, PairwiseConfig())
        assert estimator.implications(0.0) == base.implications(0.0)


class TestStreamingStats:
    @pytest.fixture(scope="class")
    def net_records(self):
        config = InternetConfig(record_count=6_000, origin_count=8,
                                client_count=50_000, sessions_per_second=0.5,
                                seed=13)
        return list(generate_internet_stream(config))

    @pytest.mark.parametrize("chunk_records", CHUNK_SIZES)
    def test_stats_identical_across_representations(self, net_records, chunk_records, tmp_path):
        from repro.traces.records import Trace

        trace = Trace(net_records)
        server_base = characterize_server_log(trace)
        client_base = characterize_client_log(trace)
        chunked = ChunkedCompiledTrace.from_records(net_records, chunk_records=chunk_records)
        assert characterize_server_log(chunked) == server_base
        assert characterize_client_log(chunked) == client_base
        path = str(tmp_path / "t.rpchunk")
        write_chunked_trace(net_records, path, chunk_records=chunk_records)
        disk = open_chunked_trace(path)
        assert characterize_server_log(disk) == server_base
        assert characterize_client_log(disk) == client_base


class TestInternetGenerator:
    def test_deterministic_and_time_ordered(self):
        config = InternetConfig(record_count=3_000, origin_count=5,
                                client_count=10_000, sessions_per_second=0.5,
                                seed=21)
        first = list(generate_internet_stream(config))
        second = list(generate_internet_stream(config))
        assert first == second
        assert len(first) == 3_000
        assert all(a.timestamp <= b.timestamp for a, b in zip(first, first[1:]))

    def test_traffic_mix(self):
        config = InternetConfig(record_count=10_000, origin_count=12,
                                client_count=100_000, sessions_per_second=0.5,
                                bot_fraction=0.2, seed=2)
        records = list(generate_internet_stream(config))
        hosts = {r.url.split("/", 1)[0] for r in records}
        assert len(hosts) > 1
        assert all(host.startswith("www.origin") for host in hosts)
        bot_requests = sum(1 for r in records if r.source.startswith("bot-"))
        assert 0 < bot_requests < len(records)
        assert any(r.status == 304 and r.size == 0 for r in records)
        assert all(r.last_modified is not None for r in records)

    def test_seed_changes_stream(self):
        base = InternetConfig(record_count=500, origin_count=4,
                              client_count=1_000, sessions_per_second=0.5, seed=1)
        other = InternetConfig(record_count=500, origin_count=4,
                               client_count=1_000, sessions_per_second=0.5, seed=2)
        assert list(generate_internet_stream(base)) != list(generate_internet_stream(other))

    def test_write_internet_trace_roundtrip(self, tmp_path):
        from repro.workloads.internet import write_internet_trace

        config = InternetConfig(record_count=2_000, origin_count=4,
                                client_count=5_000, sessions_per_second=0.5,
                                seed=8)
        path = str(tmp_path / "net.rpchunk")
        count, chunks = write_internet_trace(config, path, chunk_records=512)
        assert count == 2_000
        assert chunks == 4
        disk = open_chunked_trace(path)
        assert list(disk.records()) == list(generate_internet_stream(config))
