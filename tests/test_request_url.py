"""One request-target canonicaliser for the origin and the load balancer.

The balancer routes on the partition key of a URL; the origin files the
request's volume state under a URL.  If the two disagreed on any target
form, a proxy's stream for one volume could land on a shard that never
sees the rest of it.  Each case sends one request through a live LB to a
live origin and compares what each side actually used.
"""

from __future__ import annotations

import pytest

from repro.httpmodel.messages import HttpRequest
from repro.httpwire.netclient import fetch_once
from repro.httpwire.netserver import PiggybackHttpServer
from repro.lb import balancer
from repro.lb.balancer import LbHttpServer
from repro.lb.routing import BackendSlot, RoutingTable
from repro.server.resources import ResourceStore
from repro.server.server import PiggybackServer
from repro.urls import request_url
from repro.volumes.directory import DirectoryVolumeConfig, DirectoryVolumeStore

HOST = "www.canon.example"

CASES = {
    "origin-form": ("/d1/p1.html", HOST, f"{HOST}/d1/p1.html"),
    "absolute-URI": (f"http://{HOST}/d1/p1.html", HOST, f"{HOST}/d1/p1.html"),
    "upper-case Host": ("/d1/p1.html", HOST.upper(), f"{HOST}/d1/p1.html"),
    "trailing slash": ("/d1/", HOST, f"{HOST}/d1"),
    "missing Host": ("/d1/p1.html", None, f"{HOST}/d1/p1.html"),
    "bare slash": ("/", HOST, HOST),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_lb_partitions_on_the_url_the_origin_files_under(case, monkeypatch):
    target, host, expected = CASES[case]
    partitioned: list[str] = []
    filed: list[str] = []

    real_partition_key = balancer.partition_key

    def recording_partition_key(url: str) -> str:
        partitioned.append(url)
        return real_partition_key(url)

    monkeypatch.setattr(balancer, "partition_key", recording_partition_key)

    resources = ResourceStore()
    resources.add(f"{HOST}/d1/p1.html", size=200, last_modified=100.0)
    engine = PiggybackServer(
        resources, DirectoryVolumeStore(DirectoryVolumeConfig(level=1))
    )
    real_handle = engine.handle

    def recording_handle(proxy_request):
        filed.append(proxy_request.url)
        return real_handle(proxy_request)

    engine.handle = recording_handle

    with PiggybackHttpServer(engine, site_host=HOST) as origin:
        table = RoutingTable(1, [BackendSlot(0, 0, origin.address, origin.port)])
        with LbHttpServer(table, site_host=HOST) as lb:
            request = HttpRequest(method="GET", target=target)
            if host is not None:
                request.headers.set("Host", host)
            fetch_once(lb.address, lb.port, request, timeout=5.0)

    assert filed == [expected]
    assert partitioned == filed
    assert request_url(target, host, HOST) == expected
