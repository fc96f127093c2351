"""The id-space probability stores against the frozen string-keyed oracle.

``probability_oracle`` holds the string-keyed estimator and stores this
repo served from before probability volumes moved onto integer ids.  Two
contracts, for the static store and for the online store:

* **Same answers** — fed the same records and count ceilings, the store
  and the oracle give equal ``lookup`` candidates, ``lookup_version`` s
  and ``P-volume`` strings after every request.
* **Interchangeable state** — state captured from either one restores
  into the other, through JSON as on disk, recaptures to the same
  payload (estimator windows and RNG state included), answers
  identically, and keeps answering identically once traffic resumes.
  That is what lets a state directory written by one implementation
  recover under the other.
"""

from __future__ import annotations

import json
import random

import pytest

import probability_oracle
from repro.core.filters import ProxyFilter
from repro.httpmodel.piggy_codec import format_p_volume
from repro.traces.records import LogRecord
from repro.volumes.online import OnlineProbabilityVolumeStore, OnlineVolumeConfig
from repro.volumes.probability import (
    PairwiseConfig,
    ProbabilityVolumes,
    ProbabilityVolumeStore,
)
from repro.volumes.state import capture_store_state, restore_store_state

HOST = "www.p.example"
EXTENSIONS = ("html", "gif", "jpg", "js", "pdf")

FILTERS = [
    ProxyFilter(max_elements=10),
    ProxyFilter(max_elements=4, min_access_count=2),
    ProxyFilter(max_elements=6, max_resource_size=3000, probability_threshold=0.3,
                excluded_content_types=frozenset({"image"})),
]

PAIRWISE = [
    PairwiseConfig(window=20.0),
    PairwiseConfig(window=20.0, sample_counters=True, sampling_threshold=0.2, seed=3),
    PairwiseConfig(window=30.0, same_directory_level=1),
]


def site_urls() -> list[str]:
    return [
        f"{HOST}/d{directory}/f{index}.{EXTENSIONS[index % len(EXTENSIONS)]}"
        for directory in range(4)
        for index in range(6)
    ] + [f"{HOST}/top{index}.html" for index in range(3)]


def static_volumes(seed: int) -> ProbabilityVolumes:
    """Random volumes over the site, self-membership included."""
    rng = random.Random(seed)
    urls = site_urls()
    return ProbabilityVolumes({
        url: [(other, round(rng.random(), 3)) for other in rng.sample(urls, rng.randrange(1, 7))]
        for url in rng.sample(urls, 18)
    })


def request_stream(seed: int, count: int):
    """Zipf-ish requests from a few sources whose sizes and mtimes drift;
    now and then a filter's count ceiling arrives (``("ceiling", n)``)."""
    rng = random.Random(seed)
    urls = site_urls()
    rng.shuffle(urls)
    weights = [1.0 / rank for rank in range(1, len(urls) + 1)]
    for step in range(count):
        if rng.random() < 0.03:
            yield ("ceiling", rng.randrange(1, 5))
        yield (
            "record",
            LogRecord(
                timestamp=float(step),
                source=f"p{rng.randrange(4)}",
                url=rng.choices(urls, weights)[0],
                size=rng.choice((0, 700, 2000, 4000 + step % 7)),
                last_modified=rng.choice((None, 1.0, float(step // 50))),
            ),
        )


def feed(store, events) -> None:
    for kind, value in events:
        if kind == "ceiling":
            store.note_min_access(value)
        else:
            store.observe(value)


def answers(store, url: str):
    """Everything a server derives from *url*'s volume."""
    version = store.lookup_version(url)
    lookup = store.lookup(url)
    if lookup is None:
        return version, None, None
    candidates = tuple(lookup.candidates)
    wires = []
    for piggy_filter in FILTERS:
        message = piggy_filter.apply(lookup.volume_id, candidates, url)
        wires.append(None if message is None else format_p_volume(message))
    return version, candidates, wires


def assert_same_answers(store, oracle) -> None:
    assert store.volume_count() == oracle.volume_count()
    for url in site_urls() + [f"{HOST}/d0/unseen.html"]:
        assert answers(store, url) == answers(oracle, url), url


def online_config(pairwise: PairwiseConfig) -> OnlineVolumeConfig:
    return OnlineVolumeConfig(
        probability_threshold=0.2, rebuild_interval=60.0, pairwise=pairwise,
        min_observations=20,
    )


def build_pair(kind: str, seed: int, pairwise: PairwiseConfig = PAIRWISE[0]):
    if kind == "static":
        volumes = static_volumes(seed)
        return ProbabilityVolumeStore(volumes), probability_oracle.ProbabilityVolumeStore(volumes)
    config = online_config(pairwise)
    return OnlineProbabilityVolumeStore(config), probability_oracle.OnlineProbabilityVolumeStore(config)


CASES = [("static", PAIRWISE[0])] + [("online", pairwise) for pairwise in PAIRWISE]
CASE_IDS = ["static", "online-exact", "online-sampled", "online-same-directory"]


@pytest.mark.parametrize("kind,pairwise", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_store_answers_like_the_oracle(kind, pairwise, seed):
    store, oracle = build_pair(kind, seed, pairwise)
    for event in request_stream(seed, 500):
        feed(store, [event])
        feed(oracle, [event])
        event_kind, value = event
        if event_kind == "record":
            assert answers(store, value.url) == answers(oracle, value.url)
    if kind == "online":
        assert store.rebuilds == oracle.rebuilds > 0
        assert store.estimator.implications(0.0) == oracle.estimator.implications(0.0)
    assert_same_answers(store, oracle)


def _through_disk(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


@pytest.mark.parametrize("kind,pairwise", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_oracle_state_restores_into_the_store(kind, pairwise, seed):
    events = list(request_stream(seed, 700))
    store, oracle = build_pair(kind, seed, pairwise)
    feed(oracle, events[:400])
    payload = _through_disk(probability_oracle.capture_store(oracle))

    restore_store_state(store, payload)
    assert _through_disk(capture_store_state(store)) == payload
    assert_same_answers(store, oracle)

    feed(store, events[400:])
    feed(oracle, events[400:])
    assert_same_answers(store, oracle)
    assert _through_disk(capture_store_state(store)) == _through_disk(
        probability_oracle.capture_store(oracle)
    )


@pytest.mark.parametrize("kind,pairwise", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_store_state_restores_into_the_oracle(kind, pairwise, seed):
    events = list(request_stream(seed, 700))
    store, oracle = build_pair(kind, seed, pairwise)
    feed(store, events[:400])
    payload = _through_disk(capture_store_state(store))

    probability_oracle.restore_store(oracle, payload)
    assert _through_disk(probability_oracle.capture_store(oracle)) == payload
    assert_same_answers(store, oracle)

    feed(store, events[400:])
    feed(oracle, events[400:])
    assert_same_answers(store, oracle)
    assert _through_disk(capture_store_state(store)) == _through_disk(
        probability_oracle.capture_store(oracle)
    )
