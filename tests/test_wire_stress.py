"""Concurrency stress tests for the wire origin and proxy.

Hammers the live loopback servers with >= 32 concurrent clients sending a
mixed GET / If-Modified-Since workload and asserts the three things a
thread-per-connection server must get right:

* zero corrupted or interleaved responses — every 200 body matches the
  deterministic synthetic body for its URL, byte for byte;
* volume-store invariants hold afterwards (each URL in exactly one
  volume FIFO, access counts reconcile with observed requests);
* request counts reconcile exactly across the layers — nothing lost,
  nothing double-counted, no leaked worker threads.

``REPRO_STRESS_PROFILE=long`` raises the per-client request count for
soak runs; the default profile keeps CI fast.
"""

import os
import threading

import pytest

from repro.httpwire.loadgen import LoadConfig, run_load
from repro.httpwire.netproxy import PiggybackHttpProxy, UpstreamPolicy
from repro.httpwire.netserver import PiggybackHttpServer, synthetic_body
from repro.proxy.proxy import ProxyConfig
from repro.server.resources import ResourceStore
from repro.server.server import PiggybackServer
from repro.volumes.directory import (
    ACCESS_COUNT,
    LAST_TOUCH,
    URL,
    DirectoryVolumeConfig,
    DirectoryVolumeStore,
)
from repro.workloads.sitegen import SiteConfig, generate_site

HOST = "www.stress.example"
CLIENTS = 32
REQUESTS_PER_CLIENT = 40 if os.environ.get("REPRO_STRESS_PROFILE") == "long" else 12


def build_origin_engine(page_count=40, seed=5):
    site = generate_site(
        SiteConfig(host=HOST, page_count=page_count, directory_count=5, seed=seed)
    )
    resources = ResourceStore.from_site(site)
    store = DirectoryVolumeStore(DirectoryVolumeConfig(level=1))
    return PiggybackServer(resources, store), resources


def body_validator(sizes):
    def validate(url, response):
        if response.status == 200:
            return response.body == synthetic_body(url, sizes[url])
        if response.status == 304:
            return response.body == b""
        return False

    return validate


def assert_volume_invariants(store, observed_requests):
    """Structural invariants of a DirectoryVolumeStore after concurrency."""
    urls = store.id_space.urls.strings
    seen_urls = {}
    total_accesses = 0
    for key, volume in store._volumes.items():
        assert len(volume) > 0, f"empty volume {key!r} left behind"
        # The volume-wide recency order indexes exactly the partitions'
        # entries, strictly by last touch.
        ordered = list(volume.iter_most_recent_first())
        touches = [entry[LAST_TOUCH] for entry in ordered]
        assert touches == sorted(set(touches), reverse=True)
        assert sorted(entry[URL] for entry in ordered) == sorted(
            url_id for fifo in volume.fifos.values() for url_id in fifo
        )
        for partition, fifo in volume.fifos.items():
            for url_id, entry in fifo.items():
                assert entry[URL] == url_id
                assert entry[ACCESS_COUNT] >= 1
                url = urls[url_id]
                assert (
                    url not in seen_urls
                ), f"{url} in two volumes/partitions: {seen_urls[url]} and {(key, partition)}"
                seen_urls[url] = (key, partition)
                assert store.volume_key(url) == key
                total_accesses += entry[ACCESS_COUNT]
    # Every observed request touched exactly one entry exactly once.
    assert total_accesses == observed_requests


def run_mixed_load(address, port, urls, sizes, *, absolute, piggy, seed=0):
    config = LoadConfig(
        clients=CLIENTS,
        requests_per_client=REQUESTS_PER_CLIENT,
        seed=seed,
        ims_fraction=0.4,
        piggy_filter="maxpiggy=10" if piggy else None,
        absolute_targets=absolute,
        timeout=30.0,
    )
    return run_load(address, port, urls, config, validate=body_validator(sizes))


@pytest.fixture()
def site_urls():
    engine, resources = build_origin_engine()
    sizes = {
        url: record.size
        for url in resources.urls()
        if (record := resources.get(url)) is not None
    }
    return engine, sorted(sizes), sizes


def test_origin_under_concurrent_mixed_load(site_urls):
    engine, urls, sizes = site_urls
    before = threading.active_count()
    with PiggybackHttpServer(engine, site_host=HOST, max_workers=64) as origin:
        report = run_mixed_load(
            origin.address, origin.port, urls, sizes, absolute=False, piggy=True
        )
        assert origin.active_workers() == 0 or report.errors == 0
    total = CLIENTS * REQUESTS_PER_CLIENT

    assert report.errors == 0
    assert report.corrupted == 0, "interleaved or corrupted response bodies"
    assert report.requests == total
    assert sum(report.status_counts.values()) == total
    assert set(report.status_counts) <= {200, 304}
    # Piggyback trailers flowed under concurrency.
    assert report.piggyback_messages > 0
    assert report.piggyback_bytes > 0

    # Exact reconciliation: every wire request reached the engine once.
    assert engine.stats.requests == total
    assert origin.wire_stats.requests_served == total
    assert origin.wire_stats.bad_requests == 0
    assert origin.wire_stats.internal_errors == 0
    assert (
        engine.stats.ok_responses + engine.stats.not_modified_responses == total
    )

    observed = engine.stats.ok_responses + engine.stats.not_modified_responses
    assert_volume_invariants(engine.volume_store, observed)

    # No leaked worker threads after stop().
    assert origin.active_workers() == 0
    assert threading.active_count() <= before + 1


def test_proxy_under_concurrent_mixed_load(site_urls):
    engine, urls, sizes = site_urls

    def validate(url, response):
        if response.status == 200:
            return response.body == synthetic_body(url, sizes[url])
        return response.status == 304

    config = LoadConfig(
        clients=CLIENTS,
        requests_per_client=REQUESTS_PER_CLIENT,
        seed=3,
        ims_fraction=0.0,
        absolute_targets=True,
        timeout=30.0,
    )
    with PiggybackHttpServer(engine, site_host=HOST, max_workers=64) as origin:
        with PiggybackHttpProxy(
            origins={HOST: (origin.address, origin.port)},
            config=ProxyConfig(name="stress-proxy"),
            upstream_policy=UpstreamPolicy(timeout=10.0, pool_size=32),
            max_workers=64,
        ) as proxy:
            report = run_load(
                proxy.address, proxy.port, urls, config, validate=validate
            )
            stats = proxy.engine.stats
            upstream = proxy.upstream.stats

            total = CLIENTS * REQUESTS_PER_CLIENT
            assert report.errors == 0
            assert report.corrupted == 0
            assert report.requests == total

    # Wire counters are incremented after the response bytes go out, so
    # they are only settled once stop() has joined the workers — assert
    # all reconciliation outside the with blocks.
    # Layer-by-layer, exact: clients -> frontend -> engine -> upstream -> origin.
    assert proxy.wire_stats.requests_served == total
    assert stats.client_requests == total
    assert upstream.retries == 0
    assert upstream.failures == 0
    assert upstream.exchanges == (
        stats.server_requests + stats.prefetch_requests
    )
    assert engine.stats.requests == upstream.exchanges
    # Caching must actually happen under concurrency.
    assert stats.server_requests < total

    observed = engine.stats.ok_responses + engine.stats.not_modified_responses
    assert_volume_invariants(engine.volume_store, observed)
    assert origin.active_workers() == 0
    assert proxy.active_workers() == 0


def test_stress_is_deterministic_in_outcome():
    """Three seeded runs reconcile identically (no order-dependent loss)."""
    for run_index in range(3):
        engine, resources = build_origin_engine(page_count=20, seed=9)
        sizes = {
            url: record.size
            for url in resources.urls()
            if (record := resources.get(url)) is not None
        }
        urls = sorted(sizes)
        with PiggybackHttpServer(engine, site_host=HOST, max_workers=64) as origin:
            config = LoadConfig(
                clients=CLIENTS,
                requests_per_client=6,
                seed=17,
                ims_fraction=0.5,
                piggy_filter="maxpiggy=5",
                timeout=30.0,
            )
            report = run_load(
                origin.address, origin.port, urls, config,
                validate=body_validator(sizes),
            )
        assert report.errors == 0, f"run {run_index}"
        assert report.corrupted == 0, f"run {run_index}"
        assert engine.stats.requests == CLIENTS * 6, f"run {run_index}"
        assert origin.active_workers() == 0, f"run {run_index}"
