"""Fault injection against the cluster front tier.

Three failure stories, all required to be invisible to clients:

* a replica whose connections are mangled mid-response (reset, garbage,
  truncation, via :class:`FaultInjectingInterposer`) — the LB replays
  the request bytes on the surviving replica and passively ejects the
  faulty one;
* a replica SIGKILLed under a live request stream (a real
  ``repro serve`` subprocess via :class:`ProcessCluster`) — ejected,
  restarted on its original port, and readmitted by the health prober,
  with zero failed client requests throughout;
* a replica drained through its own ``/.repro/drain`` admin endpoint —
  the prober notices, the table stops routing to it, and pinned clients
  are repinned to the survivor without failures.
"""

from __future__ import annotations

import time

import pytest

from repro.httpmodel.messages import HttpRequest
from repro.httpwire.faults import Fault, FaultInjectingInterposer
from repro.httpwire.netclient import fetch_once
from repro.httpwire.netserver import PiggybackHttpServer, synthetic_body
from repro.lb.balancer import LbHttpServer, LbPolicy
from repro.lb.cluster import ClusterConfig, LocalCluster, ProcessCluster
from repro.lb.health import HealthPolicy
from repro.lb.routing import BackendSlot, RoutingTable
from repro.server.resources import ResourceStore
from repro.server.server import PiggybackServer
from repro.volumes.directory import DirectoryVolumeConfig, DirectoryVolumeStore
from repro.workloads.sitegen import SiteConfig, generate_site

HOST = "www.lbfault.example"
PAGES = {f"{HOST}/d{d}/p{p}.html": 350 + 40 * d + 9 * p
         for d in range(4) for p in range(4)}

FAST_HEALTH = HealthPolicy(interval=0.1, timeout=1.0)
FAST_POLICY = LbPolicy(snapshot_ttl=0.2, backend_timeout=3.0)


def build_engine():
    resources = ResourceStore()
    for url, size in PAGES.items():
        resources.add(url, size=size, last_modified=100.0)
    return PiggybackServer(
        resources, DirectoryVolumeStore(DirectoryVolumeConfig(level=1))
    )


def get_via_lb(lb, target, host, proxy="wire-proxy", timeout=5.0):
    request = HttpRequest(method="GET", target=target)
    request.headers.set("Host", host)
    request.headers.set("X-Proxy-Name", proxy)
    request.headers.set("TE", "chunked")
    request.headers.set("Piggy-filter", "maxpiggy=8")
    request.headers.set("Connection", "close")
    return fetch_once(lb.address, lb.port, request, timeout=timeout)


def pinned_replica(lb):
    """The replica currently taking the traffic (max routed count)."""
    backends = lb.lb_status()["routing"]["backends"]
    top = max(backends, key=lambda b: b["routed"])
    return top["shard"], top["replica"]


# -- transport faults: retry on the surviving replica ----------------------


@pytest.mark.parametrize(
    "fault",
    [Fault.reset_after(60), Fault.truncate_after(40), Fault.garbage()],
    ids=["reset", "truncate", "garbage"],
)
def test_faulty_replica_masked_by_retry_and_ejected(fault):
    """Replica 0 mangles every backend connection; clients still see
    clean responses because the LB replays on replica 1 and ejects 0."""
    with PiggybackHttpServer(build_engine(), site_host=HOST) as faulty:
        with PiggybackHttpServer(build_engine(), site_host=HOST) as healthy:
            with FaultInjectingInterposer(
                (faulty.address, faulty.port), schedule=lambda index: fault
            ) as interposer:
                slots = [
                    BackendSlot(0, 0, interposer.address, interposer.port),
                    BackendSlot(0, 1, healthy.address, healthy.port),
                ]
                table = RoutingTable(1, slots, snapshot_ttl=0.2)
                lb = LbHttpServer(table, policy=FAST_POLICY, site_host=HOST)
                lb.start()
                try:
                    for url in sorted(PAGES)[:8]:
                        target = "/" + url.partition("/")[2]
                        response = get_via_lb(lb, target, HOST)
                        assert response.status == 200
                        assert response.body == synthetic_body(url, PAGES[url])
                    status = lb.lb_status()
                    assert status["retried"] >= 1
                    assert status["routing"]["ejections"] >= 1
                    assert not table.is_healthy(slots[0])
                    assert status["unroutable"] == 0
                finally:
                    lb.stop()


def test_no_survivor_yields_502_not_hang():
    """Both replicas faulty: the LB reports 502 after exhausting retries
    instead of hanging or leaking the raw backend error."""
    with PiggybackHttpServer(build_engine(), site_host=HOST) as origin:
        with FaultInjectingInterposer(
            (origin.address, origin.port),
            schedule=lambda index: Fault.reset_after(30),
        ) as interposer:
            slots = [BackendSlot(0, 0, interposer.address, interposer.port)]
            table = RoutingTable(1, slots, snapshot_ttl=0.2)
            lb = LbHttpServer(table, policy=FAST_POLICY, site_host=HOST)
            lb.start()
            try:
                url = sorted(PAGES)[0]
                response = get_via_lb(lb, "/" + url.partition("/")[2], HOST)
                assert response.status == 502
                follow_up = get_via_lb(lb, "/" + url.partition("/")[2], HOST)
                assert follow_up.status == 503  # now known-unhealthy
                assert lb.lb_status()["unroutable"] == 2
            finally:
                lb.stop()


# -- SIGKILL + restart of a real serve subprocess --------------------------


def test_sigkill_replica_ejected_then_readmitted_zero_failed_requests():
    config = ClusterConfig(
        shards=1,
        replicas=2,
        host="www.killcluster.example",
        pages=12,
        directories=4,
        policy=FAST_POLICY,
        health=FAST_HEALTH,
        startup_timeout=30.0,
    )
    site = generate_site(
        SiteConfig(host=config.host, page_count=config.pages,
                   directory_count=config.directories,
                   max_depth=config.max_depth, seed=config.seed)
    )
    urls = sorted(ResourceStore.from_site(site).urls())
    failures = []
    with ProcessCluster(config) as cluster:
        lb = cluster.lb

        def drive(count, start):
            for index in range(count):
                url = urls[(start + index) % len(urls)]
                response = get_via_lb(lb, "/" + url.partition("/")[2],
                                      config.host)
                if response.status != 200:
                    failures.append((url, response.status))

        drive(10, 0)
        shard, replica = pinned_replica(lb)
        cluster.kill(shard, replica)
        assert cluster.poll() == [(shard, replica, -9)]
        # The very next requests hit the dead backend, get passively
        # ejected, and are replayed on the survivor — no client failures.
        drive(10, 10)
        status = lb.lb_status()["routing"]
        assert status["ejections"] >= 1
        dead_key = f"s{shard}r{replica}"
        dead = next(b for b in status["backends"] if b["key"] == dead_key)
        assert not dead["healthy"]

        cluster.restart(shard, replica)
        dead_slot = next(s for s in cluster.table.slots if s.key == dead_key)
        deadline = time.monotonic() + 15.0
        while not cluster.table.is_healthy(dead_slot):
            assert time.monotonic() < deadline, "replica never readmitted"
            time.sleep(0.05)
        assert cluster.table.status()["readmissions"] >= 1
        drive(6, 20)
    assert failures == []


# -- lame-duck drain -------------------------------------------------------


def test_drained_replica_stops_taking_traffic_without_failures():
    import http.client

    config = ClusterConfig(
        shards=1,
        replicas=2,
        host="www.draincluster.example",
        pages=16,
        directories=4,
        policy=FAST_POLICY,
        health=FAST_HEALTH,
    )
    with LocalCluster(config) as cluster:
        lb = cluster.lb
        urls = cluster.urls
        for url in urls[:6]:
            response = get_via_lb(lb, "/" + url.partition("/")[2], config.host)
            assert response.status == 200
        shard, replica = pinned_replica(lb)
        victim = cluster.origins[(shard, replica)]

        connection = http.client.HTTPConnection(
            victim.address, victim.port, timeout=10
        )
        try:
            connection.request("POST", "/.repro/drain",
                               headers={"Host": config.host})
            assert connection.getresponse().status == 200
        finally:
            connection.close()

        victim_key = f"s{shard}r{replica}"
        victim_slot = next(s for s in cluster.table.slots
                           if s.key == victim_key)
        deadline = time.monotonic() + 10.0
        while cluster.table.is_healthy(victim_slot):
            assert time.monotonic() < deadline, "drained replica never left"
            time.sleep(0.05)
        # Traffic continues, now on the survivor, with zero failures.
        for url in urls[6:14]:
            response = get_via_lb(lb, "/" + url.partition("/")[2], config.host)
            assert response.status == 200
        backends = lb.lb_status()["routing"]["backends"]
        survivor = next(b for b in backends if b["key"] != victim_key)
        assert survivor["healthy"]
        assert lb.lb_status()["unroutable"] == 0
