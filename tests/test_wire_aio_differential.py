"""Differential suite: the async wire stack against its threaded oracle.

The threaded stack is the reference implementation; the asyncio stack
must be *bit-identical* on the wire.  Both frontends are driven with the
same deterministic request stream against identically built engines
(clock pinned per request), and the raw bytes each server puts on the
socket — status line, headers, chunked framing, ``P-volume`` trailers —
are captured and compared element-wise, in keep-alive and
``Connection: close`` modes.

Beyond byte identity, the async origin gets the same abuse the
threaded one already survives: transport faults via
:class:`FaultInjectingInterposer`, the ``/.repro/`` admin namespace
(status, drain-with-in-flight-request, snapshot, reload), idle
keep-alive reaping, and the open/closed-loop load generator.  The
origin is the only asyncio frontend; every other wire role is
threaded-only.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time

import pytest

import durability_driver as driver
from repro.httpmodel.messages import HttpRequest, read_response
from repro.httpmodel.piggy_codec import P_VOLUME_HEADER
from repro.httpwire.aio import AsyncPiggybackHttpServer
from repro.httpwire.faults import Fault, FaultInjectingInterposer
from repro.httpwire.loadgen import LoadConfig, run_load
from repro.httpwire.netclient import HttpConnection, fetch_once
from repro.httpwire.netserver import PiggybackHttpServer, synthetic_body
from repro.server.durability import DurableState
from repro.server.resources import ResourceStore
from repro.server.server import PiggybackServer
from repro.volumes.directory import DirectoryVolumeConfig, DirectoryVolumeStore

HOST = "www.aiodiff.example"
PAGES = {
    f"{HOST}/d{d}/p{p}.html": 400 + 90 * d + 17 * p
    for d in range(3)
    for p in range(5)
}
BACKEND_CLASSES = {
    "threaded": PiggybackHttpServer,
    "async": AsyncPiggybackHttpServer,
}


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


def request_stream(count=60, seed=11):
    """Deterministic (timestamp, request) stream exercising the piggyback
    path: repeat visits from a handful of proxies, plus a 404 probe."""
    import random

    rng = random.Random(seed)
    urls = sorted(PAGES)
    stream = []
    now = 1_000_000.0
    for index in range(count):
        now += rng.expovariate(1.0 / 15.0)
        if index % 19 == 18:
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


def collect_wire_bytes(server_cls, stream, keepalive):
    """Run *stream* against a fresh engine behind *server_cls*; return the
    exact bytes each response occupied on the wire, plus parsed copies."""
    clock = SettableClock()
    raws, parsed = [], []
    with server_cls(build_engine(), site_host=HOST, clock=clock) as origin:

        def exchange(sock, reader, timestamp, request):
            clock.value = timestamp
            sock.sendall(request.serialize())
            tee = TeeReader(reader)
            response = read_response(tee)
            raws.append(bytes(tee.taken))
            parsed.append(response)

        if keepalive:
            with socket.create_connection(
                (origin.address, origin.port), timeout=10.0
            ) as sock:
                reader = sock.makefile("rb")
                for timestamp, request in stream:
                    exchange(sock, reader, timestamp, request)
        else:
            from repro.httpmodel.headers import Headers

            for timestamp, request in stream:
                request = HttpRequest(
                    method=request.method,
                    target=request.target,
                    headers=Headers(request.headers),
                )
                request.headers.set("Connection", "close")
                with socket.create_connection(
                    (origin.address, origin.port), timeout=10.0
                ) as sock:
                    reader = sock.makefile("rb")
                    exchange(sock, reader, timestamp, request)
    return raws, parsed


# -- byte identity ---------------------------------------------------------


@pytest.mark.parametrize("keepalive", [True, False], ids=["keepalive", "close"])
def test_async_responses_byte_identical_to_threaded(keepalive):
    stream = request_stream()
    threaded_raw, threaded_parsed = collect_wire_bytes(
        PiggybackHttpServer, stream, keepalive
    )
    async_raw, _ = collect_wire_bytes(AsyncPiggybackHttpServer, stream, keepalive)
    assert len(threaded_raw) == len(async_raw) == len(stream)
    for index, (expected, actual) in enumerate(zip(threaded_raw, async_raw)):
        assert expected == actual, f"response {index} diverges on the wire"
    # The stream must actually exercise the protocol, not just agree on
    # trivia: piggyback trailers and a 404 both appear.
    trailers = [
        response.trailers.get(P_VOLUME_HEADER) for response in threaded_parsed
    ]
    assert any(trailer is not None for trailer in trailers)
    assert any(response.status == 404 for response in threaded_parsed)
    for response, (_, request) in zip(threaded_parsed, stream):
        if response.status == 200:
            url = HOST + request.target
            assert response.body == synthetic_body(url, PAGES[url])


def collect_pipelined_bytes(server_cls, pieces, count):
    """Send a pipelined request stream as the given TCP writes; return
    the exact bytes of each of the *count* responses."""
    raws = []
    with server_cls(build_engine(), site_host=HOST, clock=SettableClock()) as origin:
        with socket.create_connection((origin.address, origin.port), timeout=10.0) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for piece in pieces:
                sock.sendall(piece)
                time.sleep(0.001)
            reader = sock.makefile("rb")
            for _ in range(count):
                tee = TeeReader(reader)
                read_response(tee)
                raws.append(bytes(tee.taken))
            reader.close()
    return raws


def test_requests_split_across_tcp_writes_byte_identical():
    """Both frontends frame from a receive buffer: requests cut anywhere —
    mid request line, mid field, mid body, several per write — must come
    back as the same bytes, in order."""
    wires = [request.serialize() for _, request in request_stream(count=30, seed=5)]
    wires.insert(7, HttpRequest(method="POST", target="/d0/p0.html", body=b"k=v").serialize())
    wires.insert(19, (
        f"POST /d1/p1.html HTTP/1.1\r\nHost: {HOST}\r\nTransfer-Encoding: chunked\r\n\r\n"
        "3\r\nabc\r\n0\r\n\r\n"
    ).encode())
    payload = b"".join(wires)
    rng = random.Random(7)
    cuts = sorted(rng.sample(range(1, len(payload)), 40))
    pieces = [payload[a:b] for a, b in zip([0, *cuts], [*cuts, len(payload)])]
    threaded = collect_pipelined_bytes(PiggybackHttpServer, pieces, len(wires))
    async_ = collect_pipelined_bytes(AsyncPiggybackHttpServer, pieces, len(wires))
    for index, (expected, actual) in enumerate(zip(threaded, async_)):
        assert expected == actual, f"response {index} diverges on the wire"
    assert threaded[7].startswith(b"HTTP/1.1 501") and threaded[19].startswith(b"HTTP/1.1 501")
    assert any(b"P-volume" in raw for raw in threaded)


def test_malformed_request_identical_400():
    payload = b"NOT A REQUEST\r\n\r\n"
    replies = {}
    for label, cls in BACKEND_CLASSES.items():
        with cls(build_engine(), site_host=HOST) as origin:
            with socket.create_connection(
                (origin.address, origin.port), timeout=5.0
            ) as sock:
                sock.sendall(payload)
                sock.settimeout(2.0)
                chunks = []
                try:
                    while True:
                        piece = sock.recv(4096)
                        if not piece:
                            break
                        chunks.append(piece)
                except TimeoutError:
                    pass
                replies[label] = b"".join(chunks)
    assert replies["threaded"].startswith(b"HTTP/1.1 400")
    assert replies["threaded"] == replies["async"]


# -- transport faults against the async server -----------------------------


def get_via(connection, url):
    request = HttpRequest(method="GET", target="/" + url.partition("/")[2])
    request.headers.set("Host", HOST)
    return connection.request_once(request)


@pytest.mark.parametrize(
    "fault",
    [
        Fault.reset_after(120),
        Fault.truncate_after(80),
        Fault.garbage(),
        Fault.delay(0.05),
    ],
    ids=["reset", "truncate", "garbage", "delay"],
)
def test_async_origin_survives_client_side_faults(fault):
    """Every odd client connection is mangled by the interposer; the async
    origin must survive and keep answering clean connections perfectly."""
    schedule = lambda index: fault if index % 2 == 0 else Fault.none()
    with AsyncPiggybackHttpServer(build_engine(), site_host=HOST) as origin:
        with FaultInjectingInterposer(
            (origin.address, origin.port), schedule=schedule
        ) as interposer:
            ok = 0
            for attempt, url in enumerate(sorted(PAGES)):
                connection = HttpConnection(
                    interposer.address, interposer.port, timeout=2.0
                )
                try:
                    response = get_via(connection, url)
                    if response.status == 200:
                        assert response.body == synthetic_body(url, PAGES[url])
                        ok += 1
                except (EOFError, TimeoutError, ConnectionError, OSError, ValueError):
                    pass  # the fault's job; the server must not care
                finally:
                    connection.close()
            assert ok >= len(PAGES) // 2  # the clean half got through
        # The origin is still fully healthy after the abuse.
        request = HttpRequest(method="GET", target="/" + sorted(PAGES)[0].partition("/")[2])
        request.headers.set("Host", HOST)
        assert fetch_once(origin.address, origin.port, request).status == 200
    assert origin.active_workers() == 0, "leaked connection tasks"


# -- admin namespace on the async backend ----------------------------------


def admin_request(server, method, path):
    import http.client

    connection = http.client.HTTPConnection(server.address, server.port, timeout=10)
    try:
        connection.request(method, path, headers={"Host": HOST})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


@pytest.mark.parametrize("backend", sorted(BACKEND_CLASSES))
def test_admin_status_and_unknown_paths(backend):
    with BACKEND_CLASSES[backend](build_engine(), site_host=HOST) as origin:
        url = sorted(PAGES)[0]
        request = HttpRequest(method="GET", target="/" + url.partition("/")[2])
        request.headers.set("Host", HOST)
        assert fetch_once(origin.address, origin.port, request).status == 200
        status, body = admin_request(origin, "GET", "/.repro/status")
        assert status == 200
        payload = json.loads(body)
        assert payload["server"].startswith("origin:")
        assert payload["draining"] is False
        assert payload["wire_stats"]["requests_served"] >= 1
        assert payload["wire_stats"]["accept_errors"] == 0
        # Process-wide counts since start: present, and never going back.
        switches = payload["context_switches"]
        assert set(switches) == {"voluntary", "involuntary"}
        later = json.loads(admin_request(origin, "GET", "/.repro/status")[1])
        for kind, count in switches.items():
            assert isinstance(count, int) and count >= 0
            assert later["context_switches"][kind] >= count
        assert admin_request(origin, "GET", "/.repro/snapshot")[0] == 405
        assert admin_request(origin, "GET", "/.repro/bogus")[0] == 404


def test_async_drain_inline_closes_listener_before_ack():
    """Inline (loop-thread) drain: by the time the client has the drain
    acknowledgement, the listener must already refuse new connections —
    the exact ordering the threaded stack guarantees."""
    with AsyncPiggybackHttpServer(build_engine(), site_host=HOST) as origin:
        status, body = admin_request(origin, "POST", "/.repro/drain")
        assert status == 200 and json.loads(body)["draining"] is True
        with pytest.raises(OSError):
            probe = socket.create_connection(
                (origin.address, origin.port), timeout=1.0
            )
            # A refused connect raises above; if the kernel accepted it
            # before close, the server must hang up without answering.
            probe.settimeout(1.0)
            probe.sendall(b"GET /.repro/status HTTP/1.1\r\nHost: h\r\n\r\n")
            if probe.recv(1) != b"":
                raise AssertionError("drained server answered a new connection")
            raise ConnectionError("connection was accepted then dropped")  # noqa: TRY301
        origin.stop()
        assert origin.wire_stats.requests_served == 1


@pytest.fixture()
def durable_async_origin(tmp_path):
    site_resources = ResourceStore()
    for url, size in PAGES.items():
        site_resources.add(url, size=size, last_modified=100.0)
    state = DurableState(tmp_path / "state", driver.make_store,
                         resources=site_resources)
    engine = PiggybackServer(site_resources, state.store)
    server = AsyncPiggybackHttpServer(
        engine, site_host=HOST, durable_state=state
    )
    server.start()
    try:
        yield server, engine, state
    finally:
        server.stop()
        state.close()


def test_async_drain_finishes_in_flight_request(durable_async_origin):
    """Offloaded (executor-thread) drain with a request mid-handler: the
    in-flight request completes, new connections are refused."""
    server, engine, _state = durable_async_origin
    path = "/" + sorted(PAGES)[0].partition("/")[2]
    started = threading.Event()
    release = threading.Event()
    original_handle = engine.handle

    def gated_handle(request):
        started.set()
        assert release.wait(10), "in-flight request was abandoned"
        return original_handle(request)

    engine.handle = gated_handle
    results = {}

    def in_flight():
        results["status"], results["body"] = admin_request(server, "GET", path)

    worker = threading.Thread(target=in_flight, daemon=True)
    worker.start()
    assert started.wait(10)

    status, body = admin_request(server, "POST", "/.repro/drain")
    assert status == 200 and json.loads(body)["draining"] is True

    with pytest.raises(OSError):
        probe = socket.create_connection((server.address, server.port), timeout=1.0)
        probe.settimeout(1.0)
        probe.sendall(b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n")
        if probe.recv(1) == b"":
            raise ConnectionError("accepted then dropped")  # noqa: TRY301
        raise AssertionError("drained server answered a new connection")

    release.set()
    worker.join(10)
    assert not worker.is_alive()
    assert results["status"] == 200

    deadline = time.monotonic() + 5
    while server.active_workers() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server.active_workers() == 0


def test_async_snapshot_and_reload(durable_async_origin):
    server, engine, state = durable_async_origin
    path = "/" + sorted(PAGES)[0].partition("/")[2]
    for _ in range(3):
        assert admin_request(server, "GET", path)[0] == 200
    status, body = admin_request(server, "POST", "/.repro/snapshot")
    assert status == 200
    assert json.loads(body)["last_seq"] >= 1
    base_before = state.store.epoch_base
    status, body = admin_request(server, "POST", "/.repro/reload")
    assert status == 200
    payload = json.loads(body)
    assert payload["last_seq"] == state.store.journal.last_seq
    assert state.store.epoch_base > base_before
    # The origin still serves correctly from the reloaded state.
    assert admin_request(server, "GET", path)[0] == 200


# -- idle keep-alive reaping (both backends) -------------------------------


@pytest.mark.parametrize("backend", sorted(BACKEND_CLASSES), ids=sorted(BACKEND_CLASSES))
def test_idle_keepalive_connection_is_reaped(backend):
    server_cls = BACKEND_CLASSES[backend]
    url = sorted(PAGES)[0]
    with server_cls(
        build_engine(), site_host=HOST, io_timeout=5.0, idle_timeout=0.2
    ) as origin:
        connection = HttpConnection(origin.address, origin.port, timeout=5.0)
        try:
            request = HttpRequest(method="GET", target="/" + url.partition("/")[2])
            request.headers.set("Host", HOST)
            assert connection.request(request).status == 200
            deadline = time.monotonic() + 3.0
            while origin.wire_stats.idle_reaped < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert origin.wire_stats.idle_reaped == 1
            assert origin.wire_stats.idle_timeouts == 0
            # The client's next request transparently reconnects.
            assert connection.request(request).status == 200
        finally:
            connection.close()


@pytest.mark.parametrize("backend", sorted(BACKEND_CLASSES), ids=sorted(BACKEND_CLASSES))
def test_silent_client_counts_as_idle_timeout_not_reap(backend):
    """A connection that never completes a request is an idle *timeout*;
    ``idle_reaped`` counts only post-response keep-alive reaping."""
    server_cls = BACKEND_CLASSES[backend]
    with server_cls(
        build_engine(), site_host=HOST, io_timeout=0.3, idle_timeout=5.0
    ) as origin:
        silent = socket.create_connection((origin.address, origin.port))
        try:
            deadline = time.monotonic() + 3.0
            while origin.wire_stats.idle_timeouts < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert origin.wire_stats.idle_timeouts == 1
            assert origin.wire_stats.idle_reaped == 0
        finally:
            silent.close()


# -- the load generator against the async origin ---------------------------


def loadgen_validator():
    def validate(url, response):
        return response.status == 200 and response.body == synthetic_body(
            url, PAGES[url]
        )

    return validate


def test_loadgen_closed_loop_against_async_origin():
    urls = sorted(PAGES)
    with AsyncPiggybackHttpServer(build_engine(), site_host=HOST) as origin:
        report = run_load(
            origin.address,
            origin.port,
            urls,
            LoadConfig(clients=4, requests_per_client=15, piggy_filter="maxpiggy=8"),
            validate=loadgen_validator(),
        )
    assert report.requests == 60
    assert report.errors == 0
    assert report.corrupted == 0
    assert report.error_breakdown == {
        "connect": 0, "timeout": 0, "reset": 0, "corrupt": 0
    }
    assert report.target_rps is None
    assert report.piggyback_messages > 0
    assert origin.wire_stats.requests_served == 60


def test_loadgen_open_loop_reports_achieved_rate():
    urls = sorted(PAGES)
    with AsyncPiggybackHttpServer(build_engine(), site_host=HOST) as origin:
        report = run_load(
            origin.address,
            origin.port,
            urls,
            LoadConfig(clients=6, requests_per_client=10, mode="open", rate=400.0),
        )
    assert report.requests == 60
    assert report.errors == 0
    assert report.target_rps == 400.0
    text = report.format()
    assert "offered load" in text
    assert "achieved" in text


def test_loadgen_classifies_connect_errors():
    # Grab a free port, close it, and point the load generator at the
    # now-dead address: every request fails to connect.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    address, port = probe.getsockname()
    probe.close()
    report = run_load(
        address,
        port,
        sorted(PAGES),
        LoadConfig(clients=2, requests_per_client=3, timeout=1.0),
    )
    assert report.requests == 6
    assert report.errors == 6
    assert report.error_breakdown["connect"] == 6
    assert "connect 6" in report.format()
