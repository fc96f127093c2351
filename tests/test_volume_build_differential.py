"""Id-native volume builds against the frozen string builders.

``build_probability_volumes`` and ``build_probability_volumes_multi``
group the estimator's id-keyed counters directly; the string builders
frozen in ``probability_oracle`` went through ``implications()`` and URL
strings.  Over a grid of thresholds both must give the same artifact:
the same volumes in the same order (ties broken by URL string, also
where id order disagrees), the same ``save_volumes`` bytes, the same
``filtered`` results and Section 3.3.2 statistics.  A store on the
estimator's id space adopts the id-keyed members; any other store
translates them; concurrent first readers share one string view.
"""

from __future__ import annotations

import threading

import pytest

import probability_oracle
from repro.traces.records import LogRecord, Trace
from repro.volumes.online import OnlineProbabilityVolumeStore, OnlineVolumeConfig
from repro.volumes.probability import (
    PairwiseConfig,
    ProbabilityVolumes,
    ProbabilityVolumeStore,
    build_probability_volumes,
    build_probability_volumes_multi,
    estimate_pairwise,
)
from repro.volumes.state import save_volumes
from repro.volumes.thinning import combine_with_directory
from repro.workloads.internet import InternetConfig, generate_internet_stream

THRESHOLDS = (0.0, 0.05, 0.1, 0.2, 1 / 3, 0.5, 0.75, 1.0)


def tied_trace() -> Trace:
    """Ties whose id order is the reverse of their string order.

    Each session asks for a page, then ``z.gif`` before ``b.gif``, so
    ``z.gif`` gets the smaller id while both follow the page with the
    same probability; ``y.html`` is seen before ``c.html`` for the same
    reason among antecedents.
    """
    records = []
    for session, start in enumerate((0.0, 100.0, 200.0, 300.0)):
        page = "h/d/y.html" if session % 2 == 0 else "h/d/c.html"
        for offset, url in enumerate((page, "h/d/z.gif", "h/d/b.gif", "h/e/m.gif")):
            records.append(LogRecord(timestamp=start + offset, source=f"s{session % 3}",
                                     url=url, size=100 + offset))
    return Trace(records)


def internet_trace() -> Trace:
    config = InternetConfig(record_count=2_500, origin_count=4, client_count=400,
                            sessions_per_second=0.5, bot_fraction=0.2, seed=23)
    return Trace(list(generate_internet_stream(config)))


TRACES = {"tied": tied_trace, "internet": internet_trace}
PAIRWISE = {
    "plain": PairwiseConfig(window=30.0),
    "sampled-level1": PairwiseConfig(window=30.0, same_directory_level=1,
                                     sample_counters=True, sampling_constant=1.0,
                                     sampling_threshold=0.2, seed=5),
}


@pytest.fixture(scope="module", params=sorted(TRACES))
def trace(request):
    return TRACES[request.param]()


@pytest.fixture(scope="module", params=sorted(PAIRWISE))
def estimators(request, trace):
    config = PAIRWISE[request.param]
    oracle = probability_oracle.PairwiseEstimator(config)
    oracle.observe_trace(trace)
    return estimate_pairwise(trace, config), oracle


def _string_view(volumes: ProbabilityVolumes):
    return [(url, volumes.members_of(url)) for url in sorted(volumes.antecedents())]


def _keep_pages(antecedent: str, consequent: str, probability: float) -> bool:
    return consequent.endswith(".gif") or probability >= 0.5


def assert_same_artifact(ours: ProbabilityVolumes, theirs: ProbabilityVolumes) -> None:
    assert len(ours) == len(theirs)
    assert ours.implication_count() == theirs.implication_count()
    assert ours.antecedents() == theirs.antecedents()
    assert _string_view(ours) == _string_view(theirs)
    for url in theirs.antecedents() | {"h/nowhere.html"}:
        assert (url in ours) == (url in theirs)
    assert ours.self_membership_fraction() == theirs.self_membership_fraction()
    assert ours.symmetric_fraction() == theirs.symmetric_fraction()
    assert ours.membership_counts() == theirs.membership_counts()
    assert ours.containing_volumes() == theirs.containing_volumes()
    assert _string_view(ours.filtered(_keep_pages)) == _string_view(
        theirs.filtered(_keep_pages)
    )
    assert _string_view(combine_with_directory(ours)) == _string_view(
        combine_with_directory(theirs)
    )


def test_tied_probabilities_break_by_url_string():
    estimator = estimate_pairwise(tied_trace(), PairwiseConfig(window=30.0))
    urls = estimator.id_space.urls
    assert urls.id_of("h/d/z.gif") < urls.id_of("h/d/b.gif")
    volumes = build_probability_volumes(estimator, 0.0)
    assert [s for s, _ in volumes.members_of("h/d/y.html")][:2] == ["h/d/b.gif", "h/d/z.gif"]
    members = volumes.members_on(estimator.id_space)
    assert list(members) == sorted(members, key=urls.string)


@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_single_build_matches_the_string_builder(estimators, threshold):
    estimator, oracle = estimators
    assert_same_artifact(
        build_probability_volumes(estimator, threshold),
        probability_oracle.build_probability_volumes(oracle, threshold),
    )


def test_multi_build_matches_the_string_builders(estimators):
    estimator, oracle = estimators
    multi = build_probability_volumes_multi(estimator, THRESHOLDS)
    frozen = probability_oracle.build_probability_volumes_multi(oracle, THRESHOLDS)
    assert sorted(multi) == sorted(frozen) == sorted(THRESHOLDS)
    for threshold in THRESHOLDS:
        assert_same_artifact(multi[threshold], frozen[threshold])
        single = build_probability_volumes(estimator, threshold)
        assert multi[threshold].members_on(estimator.id_space) == single.members_on(
            estimator.id_space
        )


def test_saved_artifacts_are_byte_identical(estimators, tmp_path):
    estimator, oracle = estimators
    for threshold in (0.0, 0.2):
        ours, theirs = tmp_path / "ours.json", tmp_path / "theirs.json"
        save_volumes(build_probability_volumes(estimator, threshold), ours, threshold)
        save_volumes(probability_oracle.build_probability_volumes(oracle, threshold),
                     theirs, threshold)
        assert ours.read_bytes() == theirs.read_bytes()


def _lookups(store, urls):
    answers = []
    for url in urls:
        lookup = store.lookup(url)
        answers.append(None if lookup is None else lookup.candidates)
    return answers


def test_store_on_the_id_space_adopts_and_others_translate(estimators):
    estimator, oracle = estimators
    space = estimator.id_space
    volumes = build_probability_volumes(estimator, 0.1)
    adopted = ProbabilityVolumeStore(volumes, id_space=space)
    assert adopted.members is volumes.members_on(space)
    # The same volumes from strings translate onto the same ids, in the
    # same order, with the same lists.
    strings = probability_oracle.build_probability_volumes(oracle, 0.1)
    translated = ProbabilityVolumeStore(strings, id_space=space)
    assert strings.members_on(space) is None
    assert list(translated.members.items()) == list(adopted.members.items())
    # A store growing its own id space translates the id-keyed artifact.
    elsewhere = ProbabilityVolumeStore(volumes)
    assert volumes.members_on(elsewhere.id_space) is None
    assert elsewhere.members is not volumes.members_on(space)
    urls = sorted(strings.antecedents()) + ["h/nowhere.html"]
    assert _lookups(elsewhere, urls) == _lookups(adopted, urls) == _lookups(translated, urls)


def test_online_rebuild_adopts_its_estimators_volumes(trace):
    config = OnlineVolumeConfig(probability_threshold=0.2, rebuild_interval=60.0,
                                pairwise=PairwiseConfig(window=30.0), min_observations=10)
    store = OnlineProbabilityVolumeStore(config)
    oracle = probability_oracle.OnlineProbabilityVolumeStore(config)
    for record in trace:
        store.observe(record)
        oracle.observe(record)
    assert store.rebuilds == oracle.rebuilds > 0
    assert store.members is store.volumes.members_on(store.id_space)
    assert _string_view(store.volumes) == _string_view(oracle.volumes)


def test_concurrent_first_readers_share_one_string_view(estimators):
    estimator, oracle = estimators
    expected = probability_oracle.build_probability_volumes(oracle, 0.0)
    urls = sorted(expected.antecedents())
    for _ in range(5):
        volumes = build_probability_volumes(estimator, 0.0)
        start = threading.Barrier(8)
        seen: list = []

        def read():
            start.wait()
            view = volumes._strings()
            seen.append((view, [volumes.members_of(url) for url in urls]))

        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(seen) == 8
        assert all(view is seen[0][0] for view, _ in seen)
        assert all(answers == [expected.members_of(url) for url in urls]
                   for _, answers in seen)
