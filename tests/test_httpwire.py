"""Loopback-socket integration tests for the wire server, proxy, and client."""

import contextlib
import errno
import itertools
import os

import pytest

from repro.httpmodel.messages import HttpRequest
from repro.httpmodel.piggy_codec import P_VOLUME_HEADER, parse_p_volume
from repro.httpwire.netclient import HttpConnection, fetch_once
from repro.httpwire.netproxy import PiggybackHttpProxy
from repro.httpwire.netserver import PiggybackHttpServer, synthetic_body
from repro.lb.balancer import LbHttpServer, LbPolicy
from repro.lb.routing import BackendSlot, RoutingTable
from repro.proxy.proxy import ProxyConfig
from repro.server.resources import ResourceStore
from repro.server.server import PiggybackServer
from repro.volumes.directory import DirectoryVolumeConfig, DirectoryVolumeStore

HOST = "www.wire.example"


class FakeClock:
    """Deterministic, strictly increasing clock for wire tests."""

    def __init__(self, start=1000.0):
        self._counter = itertools.count()
        self.start = start

    def __call__(self):
        return self.start + next(self._counter) * 0.5


@pytest.fixture()
def origin():
    resources = ResourceStore()
    resources.add(f"{HOST}/a/page.html", size=1200, last_modified=100.0)
    resources.add(f"{HOST}/a/img.gif", size=300, last_modified=100.0)
    resources.add(f"{HOST}/b/other.html", size=800, last_modified=100.0)
    engine = PiggybackServer(
        resources, DirectoryVolumeStore(DirectoryVolumeConfig(level=1))
    )
    server = PiggybackHttpServer(engine, site_host=HOST, clock=FakeClock())
    with server:
        yield server


def simple_get(path, piggy_filter=None, ims=None):
    request = HttpRequest(method="GET", target=path)
    request.headers.set("Host", HOST)
    if piggy_filter is not None:
        request.headers.set("TE", "chunked")
        request.headers.set("Piggy-filter", piggy_filter)
    if ims is not None:
        request.headers.set("If-Modified-Since", ims)
    return request


class TestOriginServer:
    def test_plain_get_returns_body(self, origin):
        response = fetch_once(origin.address, origin.port, simple_get("/a/page.html"))
        assert response.status == 200
        assert len(response.body) == 1200
        assert response.body == synthetic_body(f"{HOST}/a/page.html", 1200)

    def test_no_filter_means_no_piggyback(self, origin):
        response = fetch_once(origin.address, origin.port, simple_get("/a/page.html"))
        assert response.trailers.get(P_VOLUME_HEADER) is None

    def test_piggyback_in_chunked_trailer(self, origin):
        with HttpConnection(origin.address, origin.port) as connection:
            connection.request(simple_get("/a/img.gif", piggy_filter="maxpiggy=10"))
            response = connection.request(
                simple_get("/a/page.html", piggy_filter="maxpiggy=10")
            )
        assert "chunked" in response.headers.get("Transfer-Encoding", "")
        message = parse_p_volume(response.trailers.get(P_VOLUME_HEADER))
        assert f"{HOST}/a/img.gif" in message.urls()

    def test_rpv_filter_suppresses_piggyback(self, origin):
        with HttpConnection(origin.address, origin.port) as connection:
            connection.request(simple_get("/a/img.gif", piggy_filter="maxpiggy=10"))
            first = connection.request(
                simple_get("/a/page.html", piggy_filter="maxpiggy=10")
            )
            volume_id = parse_p_volume(first.trailers.get(P_VOLUME_HEADER)).volume_id
            second = connection.request(
                simple_get("/a/page.html", piggy_filter=f'maxpiggy=10; rpv="{volume_id}"')
            )
        assert second.trailers.get(P_VOLUME_HEADER) is None

    def test_if_modified_since_validation(self, origin):
        response = fetch_once(
            origin.address, origin.port,
            simple_get("/a/page.html", ims="Mon, 06 Jul 1998 10:30:00 GMT"),
        )
        assert response.status == 304

    def test_unknown_resource_404(self, origin):
        response = fetch_once(origin.address, origin.port, simple_get("/nope.html"))
        assert response.status == 404

    def test_persistent_connection_serves_many(self, origin):
        with HttpConnection(origin.address, origin.port) as connection:
            for _ in range(5):
                assert connection.request(simple_get("/a/page.html")).status == 200

    def test_post_not_implemented(self, origin):
        request = HttpRequest(method="POST", target="/a/page.html", body=b"x=1")
        request.headers.set("Host", HOST)
        assert fetch_once(origin.address, origin.port, request).status == 501


class TestWireProxy:
    def test_end_to_end_caching(self, origin):
        clock = FakeClock(start=2000.0)
        proxy = PiggybackHttpProxy(
            origins={HOST: (origin.address, origin.port)},
            config=ProxyConfig(name="test-proxy", freshness_interval=3600.0),
            clock=clock,
        )
        with proxy:
            request = HttpRequest(method="GET", target=f"http://{HOST}/a/page.html")
            first = fetch_once(proxy.address, proxy.port, request)
            second = fetch_once(proxy.address, proxy.port, request)
        assert first.status == 200
        assert first.body == synthetic_body(f"{HOST}/a/page.html", 1200)
        assert first.headers.get("X-Cache") == "fetched"
        assert second.headers.get("X-Cache") == "cache-fresh"
        assert second.body == first.body
        assert origin.server.stats.requests == 1

    def test_proxy_piggyback_freshens_sibling(self, origin):
        clock = FakeClock(start=3000.0)
        proxy = PiggybackHttpProxy(
            origins={HOST: (origin.address, origin.port)},
            config=ProxyConfig(name="test-proxy", freshness_interval=3600.0),
            clock=clock,
        )
        with proxy:
            for path in ("/a/img.gif", "/a/page.html"):
                request = HttpRequest(method="GET", target=f"http://{HOST}{path}")
                fetch_once(proxy.address, proxy.port, request)
            assert proxy.engine.stats.piggybacks_received >= 1

    def test_unknown_host_400_or_404(self, origin):
        proxy = PiggybackHttpProxy(
            origins={HOST: (origin.address, origin.port)},
            clock=FakeClock(),
        )
        with proxy:
            request = HttpRequest(method="GET", target="/x.html")
            # No Host header: the proxy cannot resolve the origin.
            response = fetch_once(proxy.address, proxy.port, request)
        assert response.status == 400


# -- connection-thread scheduling policy ------------------------------------

needs_sched_batch = pytest.mark.skipif(
    not hasattr(os, "SCHED_BATCH"), reason="SCHED_BATCH is Linux-only"
)


@contextlib.contextmanager
def threaded_tier(tier, origin):
    """Yield a started threaded server of *tier* in front of *origin*, and
    a request it answers with 200."""
    if tier == "origin":
        yield origin, simple_get("/a/page.html")
        return
    if tier == "proxy":
        server = PiggybackHttpProxy(
            origins={HOST: (origin.address, origin.port)},
            config=ProxyConfig(name="test-proxy", freshness_interval=3600.0),
            clock=FakeClock(),
        )
        request = HttpRequest(method="GET", target=f"http://{HOST}/a/page.html")
    else:
        table = RoutingTable(
            1, [BackendSlot(0, 0, origin.address, origin.port)], snapshot_ttl=0.5
        )
        server = LbHttpServer(
            table, policy=LbPolicy(backend_timeout=2.0), site_host=HOST
        )
        request = simple_get("/a/page.html")
    with server:
        yield server, request


def connection_policies(server):
    """Scheduling policy of each of *server*'s live connection threads.

    Read from the server's own connection table: a thread of an earlier
    server can still be exiting under the same name.
    """
    with server._connections_lock:
        threads = [connection.thread for connection in server._connections.values()]
    return [os.sched_getscheduler(thread.native_id) for thread in threads]


@needs_sched_batch
@pytest.mark.parametrize("tier", ["origin", "proxy", "lb"])
def test_connection_threads_run_under_sched_batch(origin, tier):
    """A woken connection thread must not preempt the GIL holder: every
    threaded tier serves each connection under SCHED_BATCH."""
    with threaded_tier(tier, origin) as (server, request):
        with HttpConnection(server.address, server.port) as connection:
            assert connection.request(request).status == 200
            policies = connection_policies(server)
    assert policies == [os.SCHED_BATCH]


@needs_sched_batch
def test_refused_sched_batch_still_serves(origin, monkeypatch):
    def refuse(*args):
        raise PermissionError(errno.EPERM, "Operation not permitted")

    monkeypatch.setattr(os, "sched_setscheduler", refuse)
    with HttpConnection(origin.address, origin.port) as connection:
        for _ in range(3):
            assert connection.request(simple_get("/a/page.html")).status == 200
        policies = connection_policies(origin)
    # The thread keeps the policy it inherited from the test's thread.
    assert policies == [os.sched_getscheduler(0)]
    stats = origin.wire_stats
    assert stats.internal_errors == stats.connection_errors == stats.accept_errors == 0
