"""Differential tests: the replay engine must be bit-identical to the oracle.

Every configuration here runs both the frozen reference replay
(``replay_oracle``) and the engine
(:func:`repro.analysis.fastreplay.replay_interned_multi`) on the same
workloads and asserts *exact* equality of the resulting
:class:`ReplayMetrics` — including the random-enable RNG streams, RPV
suppression, wire-byte accounting, and the multi-config single-pass mode.
Stores are referenced against the frozen string-keyed stores in
``directory_oracle`` and ``probability_oracle``, not against the id-space
stores the engine replays.  Stores the engine feeds records to (online,
fallback, popularity, warmed in another id space) are held to the oracle
on both a one-chunk and a many-chunk trace.  The pairwise estimator is
held to the same standard on `Implication` sets, against the oracle's
string estimator.
"""

from __future__ import annotations

import random

import pytest

import directory_oracle
import probability_oracle
import replay_oracle
from repro.analysis.fastreplay import replay_interned_multi
from repro.analysis.prediction import ReplayConfig, replay, replay_many
from repro.core.filters import ProxyFilter
from repro.core.piggyback import MAX_VOLUME_ID
from repro.traces.intern import ChunkedCompiledTrace, compile_trace
from repro.traces.records import LogRecord, Trace
from repro.volumes.directory import DirectoryVolumeConfig, DirectoryVolumeStore
from repro.volumes.interned import RecordFedStore, build_interned_store
from repro.volumes.online import OnlineProbabilityVolumeStore, OnlineVolumeConfig
from repro.volumes.popularity import (
    FallbackVolumeStore,
    PopularityConfig,
    PopularityVolumeStore,
)
from repro.volumes.sitewide import CrossHostVolumeStore
from repro.volumes.probability import (
    PairwiseConfig,
    PairwiseEstimator,
    ProbabilityVolumes,
    ProbabilityVolumeStore,
    build_probability_volumes,
    build_probability_volumes_multi,
    estimate_pairwise,
)

# The config grid exercises every admission criterion the fast path
# reimplements: element caps, access filters (precounted and online),
# RPV pacing, random-enable pacing, warmup exclusion, size and
# content-type filters.
REPLAY_CONFIGS = [
    ReplayConfig(),
    ReplayConfig(max_elements=5),
    ReplayConfig(max_elements=0),
    ReplayConfig(access_filter=3),
    ReplayConfig(access_filter=3, precount_accesses=False),
    ReplayConfig(rpv_min_gap=30.0, max_elements=10),
    ReplayConfig(enable_probability=0.5, seed=11),
    ReplayConfig(measure_after=50_000.0),
    ReplayConfig(base_filter=ProxyFilter(max_resource_size=4000)),
    ReplayConfig(base_filter=ProxyFilter(excluded_content_types=frozenset({"image"}))),
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

DIRECTORY_CONFIGS = [
    DirectoryVolumeConfig(level=0),
    DirectoryVolumeConfig(level=1),
    DirectoryVolumeConfig(level=2),
    DirectoryVolumeConfig(level=1, move_to_front=False),
    DirectoryVolumeConfig(level=1, partition_by_type=True, max_volume_size=20),
    DirectoryVolumeConfig(level=0, max_volume_size=30),
]

ONLINE = OnlineVolumeConfig(
    probability_threshold=0.2, rebuild_interval=21_600.0,
    pairwise=PairwiseConfig(window=300.0), min_observations=20,
)


def _reference(trace, store_config, config):
    if isinstance(store_config, DirectoryVolumeConfig):
        store = directory_oracle.DirectoryVolumeStore(store_config)
    else:
        store = probability_oracle.ProbabilityVolumeStore(store_config)
    return replay_oracle.replay(trace, store, config)


def _two_host_trace(count: int = 400, seed: int = 5) -> Trace:
    rng = random.Random(seed)
    records = []
    for index in range(count):
        host = rng.choice(("www.a.example", "www.b.example"))
        name = f"d{rng.randrange(3)}/f{rng.randrange(12)}.{rng.choice(('html', 'gif'))}"
        records.append(
            LogRecord(
                timestamp=10.0 * index,
                source=f"c{rng.randrange(6)}",
                url=f"{host}/{name}",
                size=rng.randrange(100, 5000),
            )
        )
    return Trace(records)


@pytest.fixture(scope="module")
def server_trace(small_server_log):
    trace, _ = small_server_log
    return trace


@pytest.fixture(scope="module")
def volumes(server_trace):
    estimator = PairwiseEstimator(PairwiseConfig(window=300.0))
    estimator.observe_trace(server_trace)
    return build_probability_volumes(estimator, 0.2)


class TestDirectoryDifferential:
    @pytest.mark.parametrize("store_config", DIRECTORY_CONFIGS,
                             ids=[repr(c) for c in DIRECTORY_CONFIGS])
    def test_store_variants(self, server_trace, store_config):
        config = ReplayConfig(max_elements=20, access_filter=2)
        assert replay(server_trace, store_config, config) == _reference(
            server_trace, store_config, config
        )

    @pytest.mark.parametrize("config", REPLAY_CONFIGS,
                             ids=[str(i) for i in range(len(REPLAY_CONFIGS))])
    def test_replay_configs(self, server_trace, config):
        store_config = DirectoryVolumeConfig(level=1)
        assert replay(server_trace, store_config, config) == _reference(
            server_trace, store_config, config
        )


class TestProbabilityDifferential:
    @pytest.mark.parametrize("config", REPLAY_CONFIGS,
                             ids=[str(i) for i in range(len(REPLAY_CONFIGS))])
    def test_replay_configs(self, server_trace, volumes, config):
        assert replay(server_trace, volumes, config) == _reference(
            server_trace, volumes, config
        )

    def test_burst_trace(self, burst_trace):
        estimator = PairwiseEstimator(PairwiseConfig(window=300.0))
        estimator.observe_trace(burst_trace)
        volumes = build_probability_volumes(estimator, 0.5)
        for config in (ReplayConfig(), ReplayConfig(max_elements=1)):
            assert replay(burst_trace, volumes, config) == _reference(
                burst_trace, volumes, config
            )


class TestMultiConfigSinglePass:
    def test_matches_serial_reference(self, server_trace, volumes):
        directory = DirectoryVolumeConfig(level=1)
        entries = [
            (directory, ReplayConfig(max_elements=10, access_filter=2)),
            (directory, ReplayConfig(rpv_min_gap=30.0)),
            (volumes, ReplayConfig()),
            (volumes, ReplayConfig(enable_probability=0.5, seed=7)),
        ]
        fast = replay_interned_multi(server_trace, entries)
        reference = [_reference(server_trace, store, config) for store, config in entries]
        assert fast == reference

    def test_shared_store_does_not_leak_between_slots(self, server_trace):
        # Two slots sharing one store object must each equal their own
        # standalone run: maintenance is shared, scoring state is not.
        directory = DirectoryVolumeConfig(level=0)
        config_a = ReplayConfig(max_elements=5)
        config_b = ReplayConfig(max_elements=50, rpv_min_gap=60.0)
        both = replay_interned_multi(server_trace, [(directory, config_a),
                                                    (directory, config_b)])
        assert both[0] == replay(server_trace, directory, config_a)
        assert both[1] == replay(server_trace, directory, config_b)

    def test_accepts_reference_store_instances(self, server_trace, volumes):
        config = ReplayConfig(max_elements=10)
        fast = replay_interned_multi(
            server_trace,
            [(DirectoryVolumeStore(DirectoryVolumeConfig(level=1)), config),
             (ProbabilityVolumeStore(volumes), config)],
        )
        assert fast[0] == _reference(server_trace, DirectoryVolumeConfig(level=1), config)
        assert fast[1] == _reference(server_trace, volumes, config)

    def test_store_instance_keeps_its_keying(self):
        # The engine replays the instance it is given: one volume across
        # both hosts, not a fresh per-host level-0 store from its config.
        trace = _two_host_trace()
        config = ReplayConfig()
        fast = replay_many(trace, [(CrossHostVolumeStore(), config)])[0]
        assert fast == replay_oracle.replay(
            trace, directory_oracle.CrossHostVolumeStore(), config
        )

    def test_warmed_store_instance_is_replayed_with_its_state(self, server_trace):
        records = list(server_trace)
        warmup, tail = records[:100], Trace(records[100:300])
        config = ReplayConfig()
        level1 = DirectoryVolumeConfig(level=1)
        oracle = directory_oracle.DirectoryVolumeStore(level1)
        oracle.observe_trace(warmup)
        expected = replay_oracle.replay(tail, oracle, config)

        # Warmed on its own id space: fed the trace's records, never
        # replayed from empty.
        warmed = DirectoryVolumeStore(level1)
        warmed.observe_trace(warmup)
        assert replay_many(tail, [(warmed, config)])[0] == expected

        # Warmed on the trace's own id space: replayed as it stands.
        store = DirectoryVolumeStore(level1, id_space=compile_trace(tail))
        store.observe_trace(warmup)
        assert replay_many(tail, [(store, config)])[0] == expected

    def test_warmed_probability_store_is_replayed_with_its_state(
        self, server_trace, volumes
    ):
        # An online access filter reads the warm-up's counts: replaying a
        # fresh copy of the volumes instead sends nothing.
        records = list(server_trace)
        warmup, tail = records[:100], Trace(records[100:300])
        config = ReplayConfig(access_filter=2, precount_accesses=False)
        oracle = probability_oracle.ProbabilityVolumeStore(volumes)
        oracle.observe_trace(warmup)
        expected = replay_oracle.replay(tail, oracle, config)
        assert expected.piggyback_messages > 0

        warmed = ProbabilityVolumeStore(volumes)
        warmed.observe_trace(warmup)
        assert replay_many(tail, [(warmed, config)])[0] == expected

        store = ProbabilityVolumeStore(volumes, id_space=compile_trace(tail))
        store.observe_trace(warmup)
        assert replay_many(tail, [(store, config)])[0] == expected



class TestRecordFedStores:
    """Stores the engine replays by feeding them the trace's records."""

    @pytest.fixture(scope="class", params=["one-chunk", "chunked"])
    def traces(self, request, server_trace):
        # The oracle replays the Trace; the engine one or many chunks.
        if request.param == "one-chunk":
            return server_trace, server_trace
        return server_trace, ChunkedCompiledTrace.from_records(
            list(server_trace), chunk_records=97
        )

    @pytest.mark.parametrize("config", REPLAY_CONFIGS,
                             ids=[str(i) for i in range(len(REPLAY_CONFIGS))])
    def test_online_store_matches_oracle(self, traces, config):
        trace, replayed = traces
        oracle = probability_oracle.OnlineProbabilityVolumeStore(ONLINE)
        store = OnlineProbabilityVolumeStore(ONLINE)
        assert isinstance(build_interned_store(compile_trace(replayed), store),
                          RecordFedStore)
        assert replay(replayed, store, config) == replay_oracle.replay(
            trace, oracle, config
        )
        assert store.rebuilds == oracle.rebuilds > 0

    @pytest.mark.parametrize("config", REPLAY_CONFIGS,
                             ids=[str(i) for i in range(len(REPLAY_CONFIGS))])
    def test_fallback_over_popularity_matches_oracle(self, traces, config):
        trace, replayed = traces
        popular = PopularityConfig(top_count=5, half_life=3_600.0)
        level2 = DirectoryVolumeConfig(level=2)
        oracle = FallbackVolumeStore(
            directory_oracle.DirectoryVolumeStore(level2), PopularityVolumeStore(popular)
        )
        store = FallbackVolumeStore(
            DirectoryVolumeStore(level2), PopularityVolumeStore(popular)
        )
        assert replay(replayed, store, config) == replay_oracle.replay(
            trace, oracle, config
        )

    @pytest.mark.parametrize("config", REPLAY_CONFIGS,
                             ids=[str(i) for i in range(len(REPLAY_CONFIGS))])
    def test_store_warmed_in_its_own_id_space_matches_oracle(self, traces, config):
        trace, replayed = traces
        warmup = list(trace)[:150]
        oracle = directory_oracle.DirectoryVolumeStore(DirectoryVolumeConfig(level=1))
        oracle.observe_trace(warmup)
        store = DirectoryVolumeStore(DirectoryVolumeConfig(level=1))
        store.observe_trace(warmup)
        assert replay(replayed, store, config) == replay_oracle.replay(
            trace, oracle, config
        )

    def test_shared_record_fed_store_is_maintained_once(self, server_trace):
        config_a = ReplayConfig(max_elements=5)
        config_b = ReplayConfig(rpv_min_gap=60.0)
        shared = OnlineProbabilityVolumeStore(ONLINE)
        both = replay_many(server_trace, [(shared, config_a), (shared, config_b)])
        assert both == [
            replay_oracle.replay(
                server_trace, probability_oracle.OnlineProbabilityVolumeStore(ONLINE), c
            )
            for c in (config_a, config_b)
        ]


class TestVolumeIdOverflow:
    """Past the 2-byte id space: replay numbers on, serving fails loudly."""

    COUNT = MAX_VOLUME_ID + 2

    @pytest.fixture(scope="class")
    def wide(self):
        volumes = ProbabilityVolumes(
            {f"h/r{i}": [(f"h/s{i}", 0.5)] for i in range(self.COUNT)}
        )
        trace = Trace(
            LogRecord(timestamp=float(i), source="c", url=f"h/r{i}", size=100)
            for i in range(self.COUNT)
        )
        return volumes, trace

    def test_replay_numbers_past_the_cap(self, wide):
        volumes, trace = wide
        metrics = replay(trace, volumes, ReplayConfig(rpv_min_gap=30.0))
        assert metrics.piggyback_messages == self.COUNT

    def test_directory_replay_numbers_past_the_cap(self):
        # Two pages per directory: the second request's volume holds the first.
        trace = Trace(
            LogRecord(timestamp=float(i), source="c", url=f"h/d{i // 2}/p{i % 2}.html",
                      size=100)
            for i in range(2 * self.COUNT)
        )
        config = ReplayConfig(rpv_min_gap=30.0)
        metrics = replay(trace, DirectoryVolumeConfig(level=1), config)
        assert metrics.piggyback_messages == self.COUNT

    def test_serving_refuses_an_id_past_the_cap(self, wide):
        volumes, _ = wide
        store = ProbabilityVolumeStore(volumes)
        for i in range(MAX_VOLUME_ID + 1):
            assert store.lookup_version(f"h/r{i}").volume_id == i
        with pytest.raises(OverflowError):
            store.lookup_version(f"h/r{MAX_VOLUME_ID + 1}")
        with pytest.raises(OverflowError):
            store.lookup(f"h/r{MAX_VOLUME_ID + 1}")
        assert len(store._allocator) == MAX_VOLUME_ID + 1  # nothing minted

    def test_serving_refuses_an_id_replay_minted(self, wide):
        volumes, trace = wide
        compiled = compile_trace(trace)
        store = ProbabilityVolumeStore(volumes, id_space=compiled)
        replay_many(trace, [(store, ReplayConfig())])
        assert store.lookup(f"h/r{MAX_VOLUME_ID}").volume_id == MAX_VOLUME_ID
        with pytest.raises(OverflowError):
            store.lookup_version(f"h/r{MAX_VOLUME_ID + 1}")


class TestEstimatorDifferential:
    def test_exact_implications_identical(self, server_trace):
        reference = probability_oracle.PairwiseEstimator(PairwiseConfig(window=300.0))
        reference.observe_trace(server_trace)
        interned = estimate_pairwise(server_trace, PairwiseConfig(window=300.0))
        assert interned.implications(0.0) == reference.implications(0.0)
        assert interned.counter_count == reference.counter_count
        online = PairwiseEstimator(PairwiseConfig(window=300.0))
        online.observe_trace(server_trace)
        assert online.implications(0.0) == reference.implications(0.0)

    def test_sampled_implications_identical(self, server_trace):
        config = PairwiseConfig(window=300.0, sample_counters=True,
                                sampling_threshold=0.25, seed=13)
        reference = probability_oracle.PairwiseEstimator(config)
        reference.observe_trace(server_trace)
        online = PairwiseEstimator(config)
        online.observe_trace(server_trace)
        for estimator in (estimate_pairwise(server_trace, config), online):
            assert estimator.implications(0.1) == reference.implications(0.1)
            assert estimator.counter_count == reference.counter_count
            assert estimator.skipped_pair_events == reference.skipped_pair_events

    def test_multi_threshold_build_matches_per_threshold(self, server_trace):
        estimator = PairwiseEstimator(PairwiseConfig(window=300.0))
        estimator.observe_trace(server_trace)
        thresholds = (0.1, 0.25, 0.5)
        multi = build_probability_volumes_multi(estimator, thresholds)
        for threshold in thresholds:
            members: dict = {}
            for implication in estimator.implications(threshold):
                members.setdefault(implication.antecedent, []).append(
                    (implication.consequent, implication.probability)
                )
            single = ProbabilityVolumes(members)
            assert multi[threshold].implication_count() == single.implication_count()
            for antecedent in single.antecedents():
                assert multi[threshold].members_of(antecedent) == single.members_of(
                    antecedent
                )
