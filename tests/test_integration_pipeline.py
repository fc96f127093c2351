"""End-to-end integration: the full analysis pipeline in one test module.

Mirrors what a user of the library does: synthesize a server log, round
trip it through Common Log Format, clean it (Appendix A), extract
pseudo-proxies, build and persist probability volumes, replay for the
Section 3.1 metrics, and run the full proxy/server simulation — checking
cross-module consistency at each step.
"""

import pytest

from repro.analysis.prediction import ReplayConfig, replay
from repro.analysis.simulator import EndToEndSimulator, SimulationConfig
from repro.proxy.proxy import ProxyConfig
from repro.traces.clean import CleaningConfig, clean_trace
from repro.traces.common_log import read_log, write_log
from repro.traces.pseudo_proxy import extract_pseudo_proxies
from repro.volumes.directory import DirectoryVolumeConfig, DirectoryVolumeStore
from repro.volumes.state import load_volumes, save_volumes
from repro.volumes.probability import (
    PairwiseConfig,
    PairwiseEstimator,
    ProbabilityVolumeStore,
    build_probability_volumes,
)
from repro.volumes.thinning import measure_effectiveness, thin_by_effectiveness
from repro.workloads.synth import ServerLogConfig, generate_server_log
from repro.workloads.sitegen import SiteConfig


@pytest.fixture(scope="module")
def pipeline_log(tmp_path_factory):
    config = ServerLogConfig(
        site=SiteConfig(host="www.pipe.example", page_count=60,
                        directory_count=10, seed=31),
        source_count=40,
        session_count=500,
        duration_days=4.0,
        seed=33,
    )
    raw, site = generate_server_log(config)

    # CLF round trip (the host prefix is not part of CLF lines).
    path = tmp_path_factory.mktemp("logs") / "access.log"
    write_log(raw, path)
    loaded = read_log(path)
    assert len(loaded) == len(raw)
    restored = loaded.map_urls(lambda u: "www.pipe.example" + u)

    cleaned, report = clean_trace(restored, CleaningConfig(min_accesses=5))
    assert report.output_records > 0.5 * report.input_records
    return cleaned, site


class TestPipeline:
    def test_clf_round_trip_preserves_structure(self, pipeline_log):
        trace, site = pipeline_log
        assert trace.urls() <= set(site.resources)
        assert len(trace.sources()) > 1

    def test_pseudo_proxies_cover_trace(self, pipeline_log):
        trace, _ = pipeline_log
        proxies = list(extract_pseudo_proxies(trace))
        assert sum(p.request_count for p in proxies) == len(trace)

    def test_volume_build_persist_load_replay(self, pipeline_log, tmp_path):
        trace, _ = pipeline_log
        estimator = PairwiseEstimator(PairwiseConfig(window=300.0))
        estimator.observe_trace(trace)
        base = build_probability_volumes(estimator, 0.25)
        effectiveness = measure_effectiveness(trace, base, window=300.0)
        thinned = thin_by_effectiveness(base, effectiveness, 0.2)

        # Persist and reload: the loaded volumes must replay identically.
        path = tmp_path / "volumes.json"
        save_volumes(thinned, path, probability_threshold=0.25,
                     effectiveness_threshold=0.2)
        reloaded = load_volumes(path).volumes

        original = replay(trace, ProbabilityVolumeStore(thinned),
                          ReplayConfig(max_elements=50))
        restored = replay(trace, ProbabilityVolumeStore(reloaded),
                          ReplayConfig(max_elements=50))
        assert original.fraction_predicted == restored.fraction_predicted
        assert original.predictions_opened == restored.predictions_opened
        assert original.piggyback_elements == restored.piggyback_elements

    def test_replay_and_simulator_agree_on_scale(self, pipeline_log):
        """The offline replay and the full simulator see the same trace."""
        trace, site = pipeline_log
        store = DirectoryVolumeStore(DirectoryVolumeConfig(level=1))
        metrics = replay(trace, store, ReplayConfig(max_elements=50))

        simulator = EndToEndSimulator(
            site, DirectoryVolumeStore(DirectoryVolumeConfig(level=1)),
            SimulationConfig(proxy=ProxyConfig(freshness_interval=600.0)),
            horizon=trace.end_time + 1.0,
        )
        result = simulator.run(trace)
        assert metrics.requests == result.client_requests
        # The simulated proxy absorbs piggybacks, so it contacts the
        # server for at most every request the replay saw.
        assert result.server_requests <= metrics.requests

    def test_probability_beats_directory_on_size(self, pipeline_log):
        """The paper's headline holds on a freshly generated pipeline."""
        trace, _ = pipeline_log
        directory = replay(
            trace, DirectoryVolumeStore(DirectoryVolumeConfig(level=1)),
            ReplayConfig(max_elements=200),
        )
        estimator = PairwiseEstimator(PairwiseConfig(window=300.0))
        estimator.observe_trace(trace)
        volumes = build_probability_volumes(estimator, 0.2)
        probability = replay(trace, ProbabilityVolumeStore(volumes),
                             ReplayConfig(max_elements=200))
        assert probability.mean_piggyback_size < directory.mean_piggyback_size
        assert (probability.true_prediction_fraction
                > directory.true_prediction_fraction)
