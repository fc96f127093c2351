"""Differential suite: the cluster front tier against direct origins.

The load balancer's contract is *wire transparency*: the bytes a client
reads through the LB — status line, headers, chunked framing, and the
``P-volume`` piggyback trailer — must be identical to what a direct
connection to an equivalently warmed origin would have produced.  Both
sides are driven with the same deterministic request stream under a
pinned clock and compared element-wise:

* one shard, keep-alive and ``Connection: close`` modes — pure relay
  transparency;
* many shards against per-shard shadow origins fed the partitioned
  subsequences the hash ring implies — partition coherence: because a
  proxy's stream for a volume always lands on the same shard, that
  shard's RPV state evolves exactly like a single origin's would.

Plus the behavioural consequences: RPV suppression (second visit by the
same proxy carries no trailer; a different proxy still gets one) and the
LB answering its own ``/.repro/`` admin namespace instead of relaying.
"""

from __future__ import annotations

import json
import random
import socket

import pytest

from repro.httpmodel.headers import Headers
from repro.httpmodel.messages import HttpRequest, read_response
from repro.httpmodel.piggy_codec import P_VOLUME_HEADER
from repro.httpwire.netserver import PiggybackHttpServer, PlainHttpServer, synthetic_body
from repro.lb.balancer import LbHttpServer, LbPolicy
from repro.lb.hashring import ConsistentHashRing, partition_key
from repro.lb.routing import BackendSlot, RoutingTable
from repro.server.resources import ResourceStore
from repro.server.server import PiggybackServer
from repro.volumes.directory import DirectoryVolumeConfig, DirectoryVolumeStore

HOST = "www.lbdiff.example"
PAGES = {
    f"{HOST}/d{d}/p{p}.html": 300 + 70 * d + 13 * p
    for d in range(6)
    for p in range(4)
}
LB_CLASSES = {"threaded": LbHttpServer}


class SettableClock:
    def __init__(self, value=1_000_000.0):
        self.value = value

    def __call__(self):
        return self.value


class TeeReader:
    """Binary reader recording every byte ``read_response`` consumes."""

    def __init__(self, raw):
        self.raw = raw
        self.taken = bytearray()

    def read(self, size=-1):
        data = self.raw.read(size)
        self.taken += data
        return data

    def readline(self, limit=-1):
        data = self.raw.readline(limit)
        self.taken += data
        return data


def build_engine():
    resources = ResourceStore()
    for url, size in PAGES.items():
        resources.add(url, size=size, last_modified=100.0)
    return PiggybackServer(
        resources, DirectoryVolumeStore(DirectoryVolumeConfig(level=1))
    )


def request_stream(count=70, seed=23):
    """Deterministic (timestamp, request) stream: revisits from a few
    proxies plus periodic 404 probes, piggyback negotiated throughout."""
    rng = random.Random(seed)
    urls = sorted(PAGES)
    stream = []
    now = 1_000_000.0
    for index in range(count):
        now += rng.expovariate(1.0 / 15.0)
        if index % 17 == 16:
            target = "/missing/nothing.html"
        else:
            target = "/" + rng.choice(urls).partition("/")[2]
        request = HttpRequest(method="GET", target=target)
        request.headers.set("Host", HOST)
        request.headers.set("X-Proxy-Name", f"proxy-{rng.randrange(3)}")
        request.headers.set("TE", "chunked")
        request.headers.set("Piggy-filter", "maxpiggy=8")
        stream.append((now, request))
    return stream


def exchange_all(address, port, stream, clock, keepalive=True):
    """Send *stream* to one endpoint; return exact wire bytes + parses."""
    raws, parsed = [], []

    def exchange(sock, reader, timestamp, request):
        clock.value = timestamp
        sock.sendall(request.serialize())
        tee = TeeReader(reader)
        parsed.append(read_response(tee))
        raws.append(bytes(tee.taken))

    if keepalive:
        with socket.create_connection((address, port), timeout=10.0) as sock:
            reader = sock.makefile("rb")
            for timestamp, request in stream:
                exchange(sock, reader, timestamp, request)
            reader.close()
    else:
        for timestamp, request in stream:
            request = HttpRequest(
                method=request.method,
                target=request.target,
                headers=Headers(request.headers),
            )
            request.headers.set("Connection", "close")
            with socket.create_connection((address, port), timeout=10.0) as sock:
                reader = sock.makefile("rb")
                exchange(sock, reader, timestamp, request)
                reader.close()
    return raws, parsed


class ShardedLb:
    """N single-replica shards (fresh engines) behind one LB frontend."""

    def __init__(self, shards, frontend="threaded", clock=None):
        self.clock = clock or SettableClock()
        self.origins = [
            PiggybackHttpServer(build_engine(), site_host=HOST, clock=self.clock)
            for _ in range(shards)
        ]
        for origin in self.origins:
            origin.start()
        slots = [
            BackendSlot(shard, 0, origin.address, origin.port)
            for shard, origin in enumerate(self.origins)
        ]
        self.table = RoutingTable(shards, slots, snapshot_ttl=0.5)
        self.lb = LB_CLASSES[frontend](
            self.table, policy=LbPolicy(), site_host=HOST
        )
        self.lb.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.lb.stop()
        for origin in self.origins:
            origin.stop()


# -- one shard: pure relay transparency ------------------------------------


@pytest.mark.parametrize("keepalive", [True, False], ids=["keepalive", "close"])
@pytest.mark.parametrize("frontend", sorted(LB_CLASSES), ids=sorted(LB_CLASSES))
def test_single_shard_lb_byte_identical_to_direct_origin(frontend, keepalive):
    stream = request_stream()
    direct_clock = SettableClock()
    with PiggybackHttpServer(
        build_engine(), site_host=HOST, clock=direct_clock
    ) as origin:
        direct_raw, direct_parsed = exchange_all(
            origin.address, origin.port, stream, direct_clock, keepalive
        )
    with ShardedLb(1, frontend=frontend) as cluster:
        lb_raw, _ = exchange_all(
            cluster.lb.address, cluster.lb.port, stream, cluster.clock, keepalive
        )
    assert len(direct_raw) == len(lb_raw) == len(stream)
    for index, (expected, actual) in enumerate(zip(direct_raw, lb_raw)):
        assert expected == actual, f"response {index} diverges through the LB"
    # The stream actually exercised the protocol end to end.
    trailers = [r.trailers.get(P_VOLUME_HEADER) for r in direct_parsed]
    assert any(t is not None for t in trailers)
    assert any(t is None and r.status == 200
               for t, r in zip(trailers, direct_parsed))  # RPV suppression fired
    assert any(r.status == 404 for r in direct_parsed)
    for response, (_, request) in zip(direct_parsed, stream):
        if response.status == 200:
            url = HOST + request.target
            assert response.body == synthetic_body(url, PAGES[url])


def raw_exchange(address, port, wire):
    """Send *wire* on a fresh connection; the response's exact bytes."""
    with socket.create_connection((address, port), timeout=10.0) as sock:
        sock.sendall(wire)
        reader = sock.makefile("rb")
        tee = TeeReader(reader)
        read_response(tee)
        reader.close()
    return bytes(tee.taken)


@pytest.mark.parametrize("frontend", sorted(LB_CLASSES), ids=sorted(LB_CLASSES))
def test_chunked_request_relays_byte_identical_without_ejection(frontend):
    """Regression: the LB re-serialised a chunked request's decoded body
    with a Content-Length added but ``Transfer-Encoding: chunked`` kept,
    so the origin waited for chunk framing until the backend timeout —
    and then the LB ejected the healthy replica.  It now forwards the
    bytes it framed, chunked body included."""
    wire = (
        f"POST /a HTTP/1.1\r\nHost: {HOST}\r\nTransfer-Encoding: chunked\r\n\r\n"
        "5\r\nhello\r\n0\r\nX-Trailer: 1\r\n\r\n"
    ).encode()
    with PlainHttpServer({"/a": (b"plain body", 100.0)}) as origin:
        direct = raw_exchange(origin.address, origin.port, wire)
        table = RoutingTable(1, [BackendSlot(0, 0, origin.address, origin.port)])
        lb = LB_CLASSES[frontend](
            table, policy=LbPolicy(backend_timeout=2.0), site_host=HOST
        )
        with lb:
            relayed = raw_exchange(lb.address, lb.port, wire)
            status = lb.lb_status()
    assert direct.startswith(b"HTTP/1.1 200")
    assert relayed == direct
    assert status["retried"] == 0
    assert status["routing"]["ejections"] == 0


# -- many shards: partition coherence --------------------------------------


def test_multi_shard_lb_byte_identical_to_partitioned_shadow_origins():
    """Each shard's responses through the 3-shard LB must match a shadow
    origin that saw only that shard's subsequence of the stream."""
    shards = 3
    stream = request_stream(count=90)
    ring = ConsistentHashRing(shards)

    def shard_of(request):
        url = HOST + request.target
        return ring.shard_for_key(partition_key(url))

    with ShardedLb(shards) as cluster:
        lb_raw, lb_parsed = exchange_all(
            cluster.lb.address, cluster.lb.port, stream, cluster.clock
        )

    # Shadow pass: per-shard direct origins fed the same subsequences.
    shadow_clock = SettableClock()
    shadow_raw = [b""] * len(stream)
    origins = [
        PiggybackHttpServer(build_engine(), site_host=HOST, clock=shadow_clock)
        for _ in range(shards)
    ]
    connections = []
    try:
        for origin in origins:
            origin.start()
            sock = socket.create_connection(
                (origin.address, origin.port), timeout=10.0
            )
            connections.append((sock, sock.makefile("rb")))
        for index, (timestamp, request) in enumerate(stream):
            sock, reader = connections[shard_of(request)]
            shadow_clock.value = timestamp
            sock.sendall(request.serialize())
            tee = TeeReader(reader)
            read_response(tee)
            shadow_raw[index] = bytes(tee.taken)
    finally:
        for sock, reader in connections:
            reader.close()
            sock.close()
        for origin in origins:
            origin.stop()

    shards_used = {shard_of(request) for _, request in stream}
    assert len(shards_used) >= 2, "stream must actually span shards"
    for index, (expected, actual) in enumerate(zip(shadow_raw, lb_raw)):
        assert expected == actual, f"response {index} diverges across the split"
    assert any(r.trailers.get(P_VOLUME_HEADER) for r in lb_parsed)


# -- RPV suppression is per-proxy through the LB ---------------------------


def test_rpv_suppression_through_lb_is_per_proxy():
    """A proxy's ``rpv=`` filter names *shard-local* volume ids, so the
    suppression round trip only works because stickiness keeps each
    proxy's stream for a volume on the one shard that minted the id."""
    from repro.httpmodel.piggy_codec import parse_p_volume

    directory_urls = [u for u in sorted(PAGES) if "/d0/" in u]
    default_target = "/" + directory_urls[0].partition("/")[2]

    def fetch(cluster, proxy, at, piggy_filter="maxpiggy=8", target=None):
        request = HttpRequest(method="GET", target=target or default_target)
        request.headers.set("Host", HOST)
        request.headers.set("X-Proxy-Name", proxy)
        request.headers.set("TE", "chunked")
        request.headers.set("Piggy-filter", piggy_filter)
        request.headers.set("Connection", "close")
        cluster.clock.value = at
        with socket.create_connection(
            (cluster.lb.address, cluster.lb.port), timeout=10.0
        ) as sock:
            reader = sock.makefile("rb")
            sock.sendall(request.serialize())
            response = read_response(reader)
            reader.close()
        return response

    with ShardedLb(2) as cluster:
        # Warm the volume: candidates exist only once siblings are seen.
        now = 1_000_000.0
        for index, url in enumerate(directory_urls[1:]):
            fetch(cluster, "proxy-warm", now + index,
                  target="/" + url.partition("/")[2])

        first = fetch(cluster, "proxy-a", now + 15.0)
        assert first.status == 200
        trailer = first.trailers.get(P_VOLUME_HEADER)
        assert trailer is not None
        volume_id = parse_p_volume(trailer).volume_id
        # The proxy reports the volume as recently piggybacked: the shard
        # suppresses the repeat trailer (RPV).  The round trip only works
        # because stickiness kept proxy-a on the shard that minted the id.
        repeat = fetch(
            cluster, "proxy-a", now + 30.0,
            piggy_filter=f'maxpiggy=8;rpv="{volume_id}"',
        )
        assert repeat.status == 200
        assert repeat.trailers.get(P_VOLUME_HEADER) is None
        # A proxy with no RPV state for the volume still gets the trailer.
        other = fetch(cluster, "proxy-b", now + 45.0)
        assert other.status == 200
        assert other.trailers.get(P_VOLUME_HEADER) is not None


# -- the LB answers its own admin namespace --------------------------------


def test_lb_admin_status_is_local_not_relayed():
    import http.client

    stream = request_stream(count=30)
    with ShardedLb(2) as cluster:
        exchange_all(cluster.lb.address, cluster.lb.port, stream, cluster.clock)
        connection = http.client.HTTPConnection(
            cluster.lb.address, cluster.lb.port, timeout=10
        )
        try:
            connection.request("GET", "/.repro/status", headers={"Host": HOST})
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
    assert response.status == 200
    assert payload["server"] == "lb"
    lb_section = payload["lb"]
    assert lb_section["routing"]["shards"] == 2
    assert sum(lb_section["shard_routes"]) == len(stream)
    assert lb_section["sticky"]["pins"] >= 1
    assert lb_section["unroutable"] == 0
