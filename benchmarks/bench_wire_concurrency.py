"""Throughput/latency scaling of the hardened wire stack.

Drives the live loopback origin and proxy with the load generator at
increasing client counts and prints how throughput and tail latency
scale.  The interesting shape: with fine-grained locking the origin's
throughput should *grow* with concurrency (body serving is not globally
serialized), and the proxy's upstream pool should keep p95 latency from
exploding as parallel misses fetch in parallel.
"""

from repro.httpwire.loadgen import LoadConfig, run_load
from repro.httpwire.netproxy import PiggybackHttpProxy, UpstreamPolicy
from repro.httpwire.netserver import PiggybackHttpServer
from repro.proxy.proxy import ProxyConfig
from repro.server.resources import ResourceStore
from repro.server.server import PiggybackServer
from repro.volumes.directory import DirectoryVolumeConfig, DirectoryVolumeStore
from repro.workloads.sitegen import SiteConfig, generate_site

HOST = "www.bench.example"
CLIENT_COUNTS = (1, 4, 16, 32)
REQUESTS_PER_CLIENT = 40


def print_series(title: str, header: str, rows) -> None:
    print()
    print(f"=== {title} ===")
    print(header)
    for row in rows:
        print(row)


def _build_engine():
    site = generate_site(
        SiteConfig(host=HOST, page_count=64, directory_count=8, seed=11)
    )
    resources = ResourceStore.from_site(site)
    store = DirectoryVolumeStore(DirectoryVolumeConfig(level=1))
    return PiggybackServer(resources, store), resources


def _run_point(address, port, urls, clients, *, absolute, piggy):
    config = LoadConfig(
        clients=clients,
        requests_per_client=REQUESTS_PER_CLIENT,
        warmup_requests=4,
        seed=clients,
        ims_fraction=0.25,
        piggy_filter="maxpiggy=10" if piggy else None,
        absolute_targets=absolute,
    )
    return run_load(address, port, urls, config)


def _row(clients, report):
    return (
        f"{clients:>7}  {report.throughput_rps:>9.0f}  "
        f"{report.p50 * 1000.0:>8.2f}  {report.p95 * 1000.0:>8.2f}  "
        f"{report.p99 * 1000.0:>8.2f}  {report.errors:>6}"
    )


def run_origin_scaling():
    engine, resources = _build_engine()
    urls = sorted(resources.urls())
    rows = []
    with PiggybackHttpServer(engine, site_host=HOST, max_workers=64) as origin:
        for clients in CLIENT_COUNTS:
            report = _run_point(
                origin.address, origin.port, urls, clients,
                absolute=False, piggy=True,
            )
            rows.append((clients, report))
    return rows


def run_proxy_scaling():
    engine, resources = _build_engine()
    urls = sorted(resources.urls())
    rows = []
    with PiggybackHttpServer(engine, site_host=HOST, max_workers=64) as origin:
        with PiggybackHttpProxy(
            origins={HOST: (origin.address, origin.port)},
            config=ProxyConfig(name="bench-proxy"),
            upstream_policy=UpstreamPolicy(timeout=5.0, pool_size=32),
            max_workers=64,
        ) as proxy:
            for clients in CLIENT_COUNTS:
                report = _run_point(
                    proxy.address, proxy.port, urls, clients,
                    absolute=True, piggy=False,
                )
                rows.append((clients, report))
    return rows


HEADER = (
    f"{'clients':>7}  {'req/s':>9}  {'p50 ms':>8}  {'p95 ms':>8}  "
    f"{'p99 ms':>8}  {'errors':>6}"
)


def test_wire_origin_scaling(benchmark):
    rows = benchmark.pedantic(run_origin_scaling, rounds=1, iterations=1)
    print_series(
        "Wire origin: throughput/latency vs concurrent clients",
        HEADER,
        (_row(clients, report) for clients, report in rows),
    )
    for _, report in rows:
        assert report.errors == 0
    # Concurrency must help, not hurt: the best concurrent point beats
    # one client (the GIL caps gains at the highest client counts).
    assert max(r.throughput_rps for _, r in rows) > rows[0][1].throughput_rps


def test_wire_proxy_scaling(benchmark):
    rows = benchmark.pedantic(run_proxy_scaling, rounds=1, iterations=1)
    print_series(
        "Wire proxy: throughput/latency vs concurrent clients",
        HEADER,
        (_row(clients, report) for clients, report in rows),
    )
    for _, report in rows:
        assert report.errors == 0
    assert max(r.throughput_rps for _, r in rows) > rows[0][1].throughput_rps


if __name__ == "__main__":
    print_series(
        "Wire origin: throughput/latency vs concurrent clients",
        HEADER,
        (_row(clients, report) for clients, report in run_origin_scaling()),
    )
    print_series(
        "Wire proxy: throughput/latency vs concurrent clients",
        HEADER,
        (_row(clients, report) for clients, report in run_proxy_scaling()),
    )
