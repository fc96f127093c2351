"""The piggyback cache-miss path: same answers, bounded work, one order.

Three contracts of the serving path's miss branch:

* **Differential** — seeded random request streams through
  :meth:`PiggybackServer.handle` and through an oracle written here
  (``snapshot_lookup`` → ``ProxyFilter.apply`` → an uncached ``P-volume``
  formatter, with an unbounded per-epoch cache model) yield equal
  ``P-volume`` strings, equal :class:`VolumeVersion` s and equal cache
  hit/miss sequences.
* **Work bound** — a miss with ``maxpiggy=k`` pulls at most
  ``k + rejected + 1`` candidates from a 500-entry volume.  A count, not
  a timing, so it cannot flake and an O(volume) read cannot come back
  unnoticed.
* **Order** — for both directory-store twins, ``iter_most_recent_first``
  is the entries by strictly descending ``last_touch`` under any
  touch/trim sequence, and state capture → restore → capture is a fixed
  point that keeps that order.
"""

from __future__ import annotations

import random
from dataclasses import replace
from urllib.parse import quote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.filters import ProxyFilter
from repro.core.protocol import ProxyRequest
from repro.httpmodel.piggy_codec import parse_piggy_filter
from repro.server.durability import DurableState
from repro.server.piggyback_cache import canonical_filter
from repro.server.resources import ResourceStore
from repro.server.server import PiggybackServer
from repro.traces.records import LogRecord
from repro.volumes.base import VolumeLookup
from repro.volumes.directory import (
    DirectoryVolumeConfig,
    DirectoryVolumeStore,
    _VolumeFifos,
)
from repro.volumes.interned import LAST_TOUCH, URL, _IntVolumeFifos
from repro.volumes.state import capture_store_state, restore_store_state

HOST = "www.miss.example"

# The three filter shapes origin_churn draws from, then the edge cases.
FILTERS = [
    parse_piggy_filter(text)
    for text in (
        "maxpiggy=20",
        "maxpiggy=20; minaccess=2",
        'maxpiggy=5; maxsize=16384; notype="image"',
        "maxpiggy=3; minaccess=4",
        "maxpiggy=8; maxsize=2000",
        'maxpiggy=6; notype="image,applet"',
        "maxpiggy=0",
        'maxpiggy=1; rpv="0,2"',
    )
]


def site_urls() -> list[str]:
    extensions = ("html", "gif", "html", "jpg", "js", "html", "pdf", "png")
    return [
        f"{HOST}/dir{directory}/file{index}.{extensions[index % len(extensions)]}"
        for directory in range(4)
        for index in range(15)
    ] + [f"{HOST}/top{index}.html" for index in range(4)]


def make_resources(rng: random.Random) -> ResourceStore:
    resources = ResourceStore()
    for url in site_urls():
        resources.add(
            url, size=rng.randrange(200, 40_000), last_modified=float(rng.randrange(500))
        )
    return resources


# -- the oracle ---------------------------------------------------------------


def reference_p_volume(message) -> str:
    """``format_p_volume`` as first written: quote every URL, cache nothing."""
    parts = [f"id={message.volume_id}"]
    for element in message:
        url = quote(element.url, safe="/:._-~")
        parts.append(f"e={url}|{int(element.last_modified)}|{element.size}")
    return "; ".join(parts)


class Oracle:
    """The serving decision computed the slow, obvious way.

    Reads the whole volume (``snapshot_lookup``), filters it, serialises
    without memoisation, and models the message cache as an unbounded set
    of (volume version, resource version, URL, canonical filter) keys: a
    probe hits iff that exact key was built before.
    """

    def __init__(self, resources: ResourceStore, store) -> None:
        self.resources = resources
        self.store = store
        self.built: set = set()

    def handle(self, request: ProxyRequest) -> tuple[str | None, bool | None]:
        """(P-volume value or None, cache outcome or None if not probed)."""
        record = self.resources.get(request.url)
        last_modified = self.resources.last_modified(request.url, request.timestamp)
        self.store.observe(
            LogRecord(
                timestamp=request.timestamp,
                source=request.source,
                url=request.url,
                size=record.size,
                last_modified=last_modified,
            )
        )
        piggy_filter = request.piggyback_filter
        if not piggy_filter.enabled:
            return None, None
        self.store.note_min_access(piggy_filter.min_access_count)
        version = self.store.lookup_version(request.url)
        if version is None or version.volume_id in piggy_filter.recently_piggybacked:
            return None, None
        canonical = canonical_filter(piggy_filter)
        key = (version, self.resources.version, request.url, canonical)
        hit = key in self.built
        self.built.add(key)

        lookup, _ = self.store.snapshot_lookup(request.url)
        candidates = [
            replace(
                candidate,
                last_modified=self.resources.last_modified(
                    candidate.url, request.timestamp
                ),
            )
            for candidate in lookup.candidates
        ]
        message = ProxyFilter.apply(
            canonical, lookup.volume_id, candidates, request.url
        )
        return (reference_p_volume(message) if message is not None else None), hit


# -- differential ---------------------------------------------------------------


def build_store(config: DirectoryVolumeConfig, resources, state_dir):
    """(store, closer): direct, or journaled when *state_dir* is given."""
    if state_dir is None:
        return DirectoryVolumeStore(config), lambda: None
    state = DurableState(
        state_dir, lambda: DirectoryVolumeStore(config), resources=resources, sync=False
    )
    return state.store, state.close


@pytest.mark.parametrize("journaled", [False, True], ids=["direct", "journaled"])
@pytest.mark.parametrize("max_volume_size", [None, 6], ids=["unbounded", "trim6"])
@pytest.mark.parametrize("partition_by_type", [True, False], ids=["typed", "flat"])
@pytest.mark.parametrize("move_to_front", [True, False], ids=["mtf", "fifo"])
@pytest.mark.parametrize("seed", [0, 1])
def test_miss_path_matches_oracle(
    tmp_path, seed, move_to_front, partition_by_type, max_volume_size, journaled
):
    config = DirectoryVolumeConfig(
        level=1,
        max_volume_size=max_volume_size,
        partition_by_type=partition_by_type,
        move_to_front=move_to_front,
    )
    rng = random.Random(f"miss-path:{seed}")
    # Two resource stores with identical contents: the oracle must not
    # share mutable state with the server under test.
    server_resources = make_resources(random.Random(seed))
    oracle_resources = make_resources(random.Random(seed))
    server_store, close_server = build_store(
        config, server_resources, tmp_path / "server" if journaled else None
    )
    oracle_store, close_oracle = build_store(
        config, oracle_resources, tmp_path / "oracle" if journaled else None
    )
    try:
        server = PiggybackServer(server_resources, server_store)
        oracle = Oracle(oracle_resources, oracle_store)
        cache = server.piggyback_cache
        urls = site_urls()
        weights = [1.0 / rank for rank in range(1, len(urls) + 1)]
        rng.shuffle(urls)

        for step in range(700):
            if step % 97 == 96:
                # Resource metadata moves: a new cache generation for both.
                url = rng.choice(urls)
                for resources in (server_resources, oracle_resources):
                    resources.set_modified(url, 1000.0 + step)
            # A repeat of the previous URL now and then: the one stream
            # shape that hits the cache on a move-to-front volume.
            if step == 0 or rng.random() >= 0.15:
                url = rng.choices(urls, weights)[0]
            request = ProxyRequest(
                url=url,
                timestamp=10_000.0 + step,
                piggyback_filter=rng.choice(FILTERS),
                source="proxy-a",
            )
            before = cache.stats
            response = server.handle(request)
            after = cache.stats
            expected_wire, expected_hit = oracle.handle(request)

            assert response.piggyback_wire == expected_wire, (step, url)
            assert (response.piggyback is None) == (expected_wire is None)
            assert server_store.lookup_version(url) == oracle_store.lookup_version(url)
            probes = (after.hits - before.hits) + (after.misses - before.misses)
            if expected_hit is None:
                assert probes == 0, (step, url)
            else:
                assert probes == 1
                assert (after.hits > before.hits) == expected_hit, (step, url)

        stats = cache.stats
        assert stats.hits > 0 and stats.misses > 0  # both outcomes were exercised
        # Rebuilds overwrite their slot, so nothing was pushed out.
        assert stats.evictions == 0
    finally:
        close_server()
        close_oracle()


def test_cache_keeps_one_entry_per_url_and_filter_on_a_moving_volume():
    """Every request moves the volume; rebuilds replace, they do not pile up."""
    resources = make_resources(random.Random(3))
    server = PiggybackServer(
        resources, DirectoryVolumeStore(DirectoryVolumeConfig(level=1))
    )
    urls = [url for url in site_urls() if "/dir0/" in url]
    piggy_filter = ProxyFilter(max_elements=5)
    for round_index in range(20):
        for index, url in enumerate(urls):
            server.handle(
                ProxyRequest(
                    url=url,
                    timestamp=100.0 * round_index + index,
                    piggyback_filter=piggy_filter,
                )
            )
    stats = server.piggyback_cache.stats
    assert stats.misses == 20 * len(urls)
    assert stats.entries == len(urls)
    assert stats.evictions == 0


# -- work bound -------------------------------------------------------------------


class CountingStore(DirectoryVolumeStore):
    """Records every candidate a consumer pulls from ``lookup().candidates``."""

    def __init__(self, config: DirectoryVolumeConfig) -> None:
        super().__init__(config)
        self.pulled: list = []

    def lookup(self, url: str) -> VolumeLookup | None:
        found = super().lookup(url)
        if found is None:
            return None

        def counted():
            for candidate in found.candidates:
                self.pulled.append(candidate)
                yield candidate

        return VolumeLookup(found.volume_id, counted())


@pytest.mark.parametrize("enable_cache", [True, False], ids=["cacheable", "uncacheable"])
@pytest.mark.parametrize(
    "piggy_filter",
    [
        ProxyFilter(max_elements=5),
        ProxyFilter(max_elements=20, min_access_count=2),
        ProxyFilter(
            max_elements=5,
            max_resource_size=16384,
            excluded_content_types=frozenset({"image"}),
        ),
    ],
    ids=["k5", "k20-minaccess2", "k5-maxsize-notype"],
)
def test_miss_pulls_no_more_candidates_than_the_filter_needs(piggy_filter, enable_cache):
    volume_size = 500
    rng = random.Random(17)
    resources = ResourceStore()
    urls = [
        f"{HOST}/big/file{index}.{'gif' if index % 3 == 0 else 'html'}"
        for index in range(volume_size)
    ]
    for url in urls:
        resources.add(url, size=rng.randrange(200, 30_000), last_modified=1.0)
    store = CountingStore(DirectoryVolumeConfig(level=1))
    server = PiggybackServer(resources, store, enable_cache=enable_cache)
    # Fill the volume; every entry is seen twice so minaccess=2 admits it.
    for round_index in range(2):
        for index, url in enumerate(urls):
            store.observe(
                LogRecord(
                    timestamp=float(round_index * volume_size + index),
                    source="fill",
                    url=url,
                    size=resources.get(url).size,
                    last_modified=1.0,
                )
            )
    assert store.volume_size(urls[0]) == volume_size

    limit = piggy_filter.max_elements
    for step in range(50):
        url = rng.choice(urls)
        store.pulled.clear()
        response = server.handle(
            ProxyRequest(
                url=url, timestamp=5000.0 + step, piggyback_filter=piggy_filter
            )
        )
        assert response.piggyback is not None
        assert len(response.piggyback) == limit
        rejected = sum(
            1
            for candidate in store.pulled
            if not piggy_filter.admits_element(candidate, url)
        )
        assert len(store.pulled) <= limit + rejected + 1, (step, url)
        assert len(store.pulled) < volume_size // 4


# -- order --------------------------------------------------------------------------

# (url index, content-type index, trim-to or None) per step.
TOUCH_STEPS = st.lists(
    st.tuples(
        st.integers(0, 11), st.integers(0, 2), st.none() | st.integers(1, 8)
    ),
    min_size=1,
    max_size=60,
)
CONTENT_TYPES = ("text", "image", "applet")


@settings(deadline=None, max_examples=150)
@given(steps=TOUCH_STEPS, partition_by_type=st.booleans(), move_to_front=st.booleans())
def test_recency_order_is_descending_last_touch(steps, partition_by_type, move_to_front):
    """Both twins, same steps: one order, strictly by last touch."""
    string_twin = _VolumeFifos(partition_by_type)
    id_twin = _IntVolumeFifos(partition_by_type)
    # A URL keeps the content type of its first touch, as real URLs do.
    type_of: dict[int, int] = {}
    for touch, (url_index, type_index, trim_to) in enumerate(steps, start=1):
        type_index = type_of.setdefault(url_index, type_index)
        record = LogRecord(
            timestamp=float(touch), source="s", url=f"h/d/u{url_index}", size=10 + touch
        )
        string_twin.touch(record, CONTENT_TYPES[type_index], move_to_front, touch)
        id_twin.touch(url_index, 10 + touch, type_index, move_to_front, touch)
        if trim_to is not None:
            assert string_twin.trim_to(trim_to) == id_twin.trim_to(trim_to)

        entries = list(string_twin.iter_most_recent_first())
        touches = [entry.last_touch for entry in entries]
        assert touches == sorted(touches, reverse=True)
        assert len(set(touches)) == len(touches) == len(string_twin)
        partitioned = {
            entry.url for fifo in string_twin._fifos.values() for entry in fifo.values()
        }
        assert {entry.url for entry in entries} == partitioned

        id_entries = list(id_twin.iter_most_recent_first())
        assert [f"h/d/u{entry[URL]}" for entry in id_entries] == [
            entry.url for entry in entries
        ]
        assert [entry[LAST_TOUCH] for entry in id_entries] == touches
        assert len(id_twin) == len(string_twin)


@settings(deadline=None, max_examples=60)
@given(
    steps=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 9)), min_size=1, max_size=80),
    partition_by_type=st.booleans(),
    move_to_front=st.booleans(),
    max_volume_size=st.none() | st.integers(1, 6),
)
def test_capture_restore_is_a_fixed_point_with_order_intact(
    steps, partition_by_type, move_to_front, max_volume_size
):
    config = DirectoryVolumeConfig(
        level=1,
        max_volume_size=max_volume_size,
        partition_by_type=partition_by_type,
        move_to_front=move_to_front,
    )
    extensions = ("html", "gif", "js")
    original = DirectoryVolumeStore(config)
    for touch, (directory, index) in enumerate(steps):
        original.observe(
            LogRecord(
                timestamp=float(touch),
                source="s",
                url=f"h/d{directory}/f{index}.{extensions[index % 3]}",
                size=100 + index,
                last_modified=float(index),
            )
        )
    captured = capture_store_state(original)
    restored = DirectoryVolumeStore(config)
    restore_store_state(restored, captured)
    assert capture_store_state(restored) == captured

    for key, volume in original._volumes.items():
        twin = restored._volumes[key]
        assert [entry.url for entry in twin.iter_most_recent_first()] == [
            entry.url for entry in volume.iter_most_recent_first()
        ]
    # ...and the two stores keep agreeing once traffic resumes.
    for touch, (directory, index) in enumerate(steps[:10], start=len(steps)):
        record = LogRecord(
            timestamp=float(touch),
            source="s",
            url=f"h/d{directory}/f{index}.{extensions[index % 3]}",
            size=100 + index,
            last_modified=float(index),
        )
        original.observe(record)
        restored.observe(record)
    assert capture_store_state(restored) == capture_store_state(original)
