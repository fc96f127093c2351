"""The id-space directory store against the frozen string-keyed oracle.

``directory_oracle`` holds the string-keyed store this repo served from
before its directory store moved onto integer ids.  Two contracts:

* **Same answers** — fed the same records and count ceilings, the store
  and the oracle give equal ``lookup`` candidates, ``lookup_version`` s
  and ``P-volume`` strings after every request, for every maintenance
  knob and for cross-host keying.
* **Interchangeable state** — a layout captured from either one restores
  into the other, through JSON as on disk, recaptures to the same
  payload, answers identically, and keeps answering identically once
  traffic resumes.  That is what lets a state directory written by one
  implementation recover under the other.
"""

from __future__ import annotations

import json
import random

import pytest

import directory_oracle
from repro.core.filters import ProxyFilter
from repro.httpmodel.piggy_codec import format_p_volume
from repro.traces.records import LogRecord
from repro.volumes.directory import DirectoryVolumeConfig, DirectoryVolumeStore
from repro.volumes.sitewide import CrossHostVolumeStore
from repro.volumes.state import capture_store_state, restore_store_state

HOSTS = ("www.a.example", "www.b.example")
EXTENSIONS = ("html", "gif", "jpg", "js", "pdf")

CONFIGS = [
    DirectoryVolumeConfig(level=1),
    DirectoryVolumeConfig(level=0, partition_by_type=False),
    DirectoryVolumeConfig(level=2, move_to_front=False),
    DirectoryVolumeConfig(level=1, max_volume_size=5),
    DirectoryVolumeConfig(level=1, max_volume_size=3, partition_by_type=False,
                          move_to_front=False),
]

FILTERS = [
    ProxyFilter(max_elements=10),
    ProxyFilter(max_elements=4, min_access_count=2),
    ProxyFilter(max_elements=6, max_resource_size=3000,
                excluded_content_types=frozenset({"image"})),
]


def site_urls() -> list[str]:
    return [
        f"{host}/d{directory}/s{sub}/f{index}.{EXTENSIONS[index % len(EXTENSIONS)]}"
        for host in HOSTS
        for directory in range(3)
        for sub in range(2)
        for index in range(4)
    ] + [f"{host}/top{index}.html" for host in HOSTS for index in range(3)]


def request_stream(seed: int, count: int):
    """Zipf-ish requests whose sizes and mtimes drift; now and then a
    filter's count ceiling arrives (``("ceiling", n)``)."""
    rng = random.Random(seed)
    urls = site_urls()
    rng.shuffle(urls)
    weights = [1.0 / rank for rank in range(1, len(urls) + 1)]
    for step in range(count):
        if rng.random() < 0.03:
            yield ("ceiling", rng.randrange(1, 5))
        url = rng.choices(urls, weights)[0]
        yield (
            "record",
            LogRecord(
                timestamp=float(step),
                source=f"p{rng.randrange(3)}",
                url=url,
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
    probes = site_urls() + [f"{host}/d0/s1/unseen.html" for host in HOSTS]
    for url in probes:
        assert answers(store, url) == answers(oracle, url), url


def build_pair(config, cross_host: bool):
    if cross_host:
        return CrossHostVolumeStore(), directory_oracle.CrossHostVolumeStore()
    return DirectoryVolumeStore(config), directory_oracle.DirectoryVolumeStore(config)


PAIRS = [(config, False) for config in CONFIGS] + [(DirectoryVolumeConfig(level=0), True)]
PAIR_IDS = [repr(config) for config in CONFIGS] + ["cross-host"]


@pytest.mark.parametrize("config,cross_host", PAIRS, ids=PAIR_IDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_store_answers_like_the_oracle(config, cross_host, seed):
    store, oracle = build_pair(config, cross_host)
    for event in request_stream(seed, 400):
        feed(store, [event])
        feed(oracle, [event])
        kind, value = event
        if kind == "record":
            assert answers(store, value.url) == answers(oracle, value.url)
    assert_same_answers(store, oracle)


def _through_disk(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


@pytest.mark.parametrize("config", CONFIGS, ids=[repr(c) for c in CONFIGS])
@pytest.mark.parametrize("seed", [0, 1])
def test_oracle_state_restores_into_the_store(config, seed):
    events = list(request_stream(seed, 600))
    oracle = directory_oracle.DirectoryVolumeStore(config)
    feed(oracle, events[:400])
    payload = _through_disk(directory_oracle.capture_directory(oracle))

    store = DirectoryVolumeStore(config)
    restore_store_state(store, payload)
    assert _through_disk(capture_store_state(store)) == payload
    assert_same_answers(store, oracle)

    feed(store, events[400:])
    feed(oracle, events[400:])
    assert_same_answers(store, oracle)


@pytest.mark.parametrize("config", CONFIGS, ids=[repr(c) for c in CONFIGS])
@pytest.mark.parametrize("seed", [0, 1])
def test_store_state_restores_into_the_oracle(config, seed):
    events = list(request_stream(seed, 600))
    store = DirectoryVolumeStore(config)
    feed(store, events[:400])
    payload = _through_disk(capture_store_state(store))

    oracle = directory_oracle.DirectoryVolumeStore(config)
    directory_oracle.restore_directory(oracle, payload)
    assert _through_disk(directory_oracle.capture_directory(oracle)) == payload
    assert_same_answers(store, oracle)

    feed(store, events[400:])
    feed(oracle, events[400:])
    assert_same_answers(store, oracle)
