"""Property-based tests (hypothesis) on core invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

import directory_oracle
import replay_oracle
from repro import urls
from repro.analysis.prediction import ReplayConfig, replay
from repro.core.filters import ProxyFilter
from repro.core.piggyback import PiggybackElement, PiggybackMessage
from repro.core.rpv import RpvList
from repro.httpmodel.chunked import decode_chunked, encode_chunked
from repro.httpmodel.headers import Headers
from repro.httpmodel.piggy_codec import (
    format_p_volume,
    format_piggy_filter,
    parse_p_volume,
    parse_piggy_filter,
)
from repro.proxy.cache import ProxyCache
from repro.traces.records import LogRecord, Trace
from repro.volumes.directory import DirectoryVolumeConfig, DirectoryVolumeStore
from repro.volumes.probability import PairwiseConfig, PairwiseEstimator

# --- strategies -----------------------------------------------------------

url_segment = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8)


@st.composite
def canonical_urls(draw):
    host = "www." + draw(url_segment) + ".example"
    depth = draw(st.integers(min_value=0, max_value=4))
    parts = [draw(url_segment) for _ in range(depth)]
    name = draw(url_segment) + draw(st.sampled_from([".html", ".gif", ""]))
    return "/".join([host, *parts, name])


@st.composite
def log_records(draw):
    return LogRecord(
        timestamp=draw(st.floats(min_value=0.0, max_value=1e5,
                                 allow_nan=False, allow_infinity=False)),
        source=draw(st.sampled_from(["s1", "s2", "s3"])),
        url=draw(st.sampled_from([
            "h/a/x.html", "h/a/y.gif", "h/a/z.html",
            "h/b/p.html", "h/b/q.gif", "h/c/r.html",
        ])),
        size=draw(st.integers(min_value=0, max_value=10_000)),
    )


# --- URL invariants ---------------------------------------------------------


class TestUrlProperties:
    @given(canonical_urls())
    def test_canonicalize_idempotent(self, url):
        once = urls.canonicalize(url)
        assert urls.canonicalize(once) == once

    @given(canonical_urls(), st.integers(min_value=0, max_value=6))
    def test_prefix_is_a_prefix_of_the_url(self, url, level):
        prefix = urls.directory_prefix(url, level)
        assert url == prefix or url.startswith(prefix + "/")

    @given(canonical_urls(), st.integers(min_value=0, max_value=5))
    def test_prefixes_nest_by_level(self, url, level):
        shallow = urls.directory_prefix(url, level)
        deep = urls.directory_prefix(url, level + 1)
        assert deep == shallow or deep.startswith(shallow + "/")

    @given(canonical_urls())
    def test_level_never_exceeds_available_directories(self, url):
        deepest = urls.directory_prefix(url, 99)
        assert deepest == urls.directory_prefix(url, urls.directory_levels(url))


# --- wire format round trips -------------------------------------------------


class TestWireProperties:
    @given(st.binary(max_size=5000), st.integers(min_value=1, max_value=600))
    def test_chunked_round_trip(self, body, chunk_size):
        decoded, trailers, rest = decode_chunked(encode_chunked(body, chunk_size=chunk_size))
        assert decoded == body
        assert len(trailers) == 0
        assert rest == b""

    @given(st.binary(max_size=2000),
           st.text(alphabet=string.ascii_letters + string.digits + " ._-", max_size=60))
    def test_chunked_trailer_round_trip(self, body, value):
        trailers = Headers([("P-volume", value.strip() or "x")])
        decoded, parsed, _ = decode_chunked(encode_chunked(body, trailers=trailers))
        assert decoded == body
        assert parsed == trailers

    @given(
        st.lists(
            st.tuples(canonical_urls(),
                      st.integers(min_value=0, max_value=2**40),
                      st.integers(min_value=0, max_value=2**31)),
            max_size=20,
        ),
        st.integers(min_value=0, max_value=32767),
    )
    def test_p_volume_round_trip(self, elements, volume_id):
        message = PiggybackMessage(
            volume_id=volume_id,
            elements=tuple(
                PiggybackElement(url, float(mtime), size) for url, mtime, size in elements
            ),
        )
        parsed = parse_p_volume(format_p_volume(message))
        assert parsed.volume_id == message.volume_id
        assert parsed.urls() == message.urls()
        assert [e.size for e in parsed] == [e.size for e in message]

    @given(
        st.one_of(st.none(), st.integers(min_value=0, max_value=500)),
        st.frozensets(st.integers(min_value=0, max_value=32767), max_size=8),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=0, max_value=100),
        st.frozensets(st.sampled_from(["image", "video", "applet"]), max_size=3),
    )
    def test_piggy_filter_round_trip(self, max_elements, rpv, pthresh, minaccess, notype):
        original = ProxyFilter(
            max_elements=max_elements,
            recently_piggybacked=rpv,
            probability_threshold=round(pthresh, 6),
            min_access_count=minaccess,
            excluded_content_types=notype,
        )
        parsed = parse_piggy_filter(format_piggy_filter(original))
        assert parsed.max_elements == original.max_elements
        assert parsed.recently_piggybacked == original.recently_piggybacked
        assert parsed.min_access_count == original.min_access_count
        assert parsed.excluded_content_types == original.excluded_content_types
        assert abs(parsed.probability_threshold - original.probability_threshold) < 1e-6


# --- stateful-ish invariants --------------------------------------------------


class TestRpvProperties:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=50),
                              st.floats(min_value=0.0, max_value=1000.0,
                                        allow_nan=False)),
                    max_size=60))
    def test_bounded_and_fresh(self, events):
        rpv = RpvList(timeout=100.0, max_entries=5)
        clock = 0.0
        for volume_id, advance in events:
            clock += advance
            rpv.record(volume_id, clock)
            assert len(rpv) <= 5
        active = rpv.active_ids(clock)
        for volume_id in active:
            assert clock - rpv.last_piggyback(volume_id) <= 100.0


class TestCacheProperties:
    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d", "e"]),
                              st.integers(min_value=1, max_value=60)),
                    max_size=40))
    def test_capacity_and_accounting(self, puts):
        cache = ProxyCache(capacity_bytes=100)
        clock = 0.0
        for url, size in puts:
            clock += 1.0
            cache.put(f"h/{url}", size=size, last_modified=0.0, now=clock)
            assert cache.used_bytes == sum(e.size for e in cache.entries())
            assert cache.used_bytes <= 100 or len(cache) == 1


class TestEstimatorProperties:
    @given(st.lists(log_records(), max_size=80))
    def test_probabilities_bounded(self, records):
        estimator = PairwiseEstimator(PairwiseConfig(window=120.0))
        estimator.observe_trace(Trace(records))
        for implication in estimator.implications(0.0):
            assert 0.0 < implication.probability <= 1.0
            assert implication.antecedent != implication.consequent


class TestReplayProperties:
    @settings(deadline=None)
    @given(st.lists(log_records(), max_size=80))
    def test_metric_invariants_on_random_traces(self, records):
        volumes = DirectoryVolumeConfig(level=1)
        config = ReplayConfig(max_elements=10, rpv_min_gap=30.0)
        metrics = replay(Trace(records), DirectoryVolumeStore(volumes), config)
        oracle_store = directory_oracle.DirectoryVolumeStore(volumes)
        assert replay_oracle.replay(Trace(records), oracle_store, config) == metrics
        assert metrics.requests == len(records)
        assert metrics.predicted_requests <= metrics.requests
        assert metrics.predictions_true <= metrics.predictions_opened
        assert metrics.piggyback_messages <= metrics.requests
        assert metrics.prev_occurrence_recent <= metrics.prev_occurrence_within_history
        assert (metrics.prev_occurrence_recent + metrics.updated_by_piggyback
                <= metrics.requests)
        assert 0.0 <= metrics.fraction_predicted <= 1.0
        assert 0.0 <= metrics.true_prediction_fraction <= 1.0
        if metrics.piggyback_messages:
            assert metrics.mean_piggyback_size <= 10.0
