"""Failure injection and concurrency tests for the wire layer."""

import errno
import socket
import threading
import time

import pytest

from repro.httpmodel.messages import HttpParseError, HttpRequest, read_response
from repro.httpwire.aio import AsyncPiggybackHttpServer
from repro.httpwire.netclient import HttpConnection, fetch_once
from repro.httpwire.netserver import PiggybackHttpServer
from repro.lb.balancer import LbHttpServer, LbPolicy
from repro.lb.forward import BackendError, Forwarder
from repro.lb.routing import BackendSlot, RoutingTable
from repro.server.resources import ResourceStore
from repro.server.server import PiggybackServer
from repro.volumes.directory import DirectoryVolumeStore

HOST = "www.robust.example"


@pytest.fixture()
def origin():
    resources = ResourceStore()
    resources.add(f"{HOST}/x.html", size=2048, last_modified=10.0)
    for i in range(10):
        resources.add(f"{HOST}/r{i}.html", size=100 + i, last_modified=10.0)
    engine = PiggybackServer(resources, DirectoryVolumeStore())
    server = PiggybackHttpServer(engine, site_host=HOST, clock=lambda: 1000.0)
    with server:
        yield server


def raw_exchange(server, payload: bytes) -> bytes:
    """Send raw bytes, read whatever comes back until close/timeout."""
    with socket.create_connection((server.address, server.port), timeout=5.0) as sock:
        sock.sendall(payload)
        sock.settimeout(2.0)
        chunks = []
        try:
            while True:
                piece = sock.recv(4096)
                if not piece:
                    break
                chunks.append(piece)
        except socket.timeout:
            pass
        return b"".join(chunks)


class TestMalformedInput:
    def test_garbage_request_line_gets_400(self, origin):
        reply = raw_exchange(origin, b"NOT A REQUEST\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400")

    def test_binary_garbage_gets_400_or_close(self, origin):
        reply = raw_exchange(origin, bytes(range(256)) + b"\r\n\r\n")
        assert reply == b"" or b"400" in reply.split(b"\r\n", 1)[0]

    def test_header_without_colon_gets_400(self, origin):
        reply = raw_exchange(origin, b"GET /x.html HTTP/1.1\r\nbadheader\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400")

    def test_malformed_piggy_filter_does_not_break_the_get(self, origin):
        request = HttpRequest(method="GET", target="/x.html")
        request.headers.set("Host", HOST)
        request.headers.set("Piggy-filter", "maxpiggy=banana")
        # A broken filter is treated as "extension not spoken": the GET
        # succeeds with a plain response and no piggyback trailer.
        response = fetch_once(origin.address, origin.port, request)
        assert response.status == 200
        assert response.trailers.get("P-volume") is None

    def test_malformed_piggy_report_ignored(self, origin):
        request = HttpRequest(method="GET", target="/x.html")
        request.headers.set("Host", HOST)
        request.headers.set("Piggy-report", "r=broken")
        response = fetch_once(origin.address, origin.port, request)
        assert response.status == 200
        assert origin.server.stats.reported_cache_hits == 0


class TestDisconnects:
    def test_client_disconnect_mid_headers_leaves_server_alive(self, origin):
        with socket.create_connection((origin.address, origin.port)) as sock:
            sock.sendall(b"GET /x.html HTTP/1.1\r\nHost: ")
            # Abruptly close mid-header.
        # The server must keep serving other clients.
        request = HttpRequest(method="GET", target="/x.html")
        request.headers.set("Host", HOST)
        assert fetch_once(origin.address, origin.port, request).status == 200

    def test_truncated_body_leaves_server_alive(self, origin):
        payload = b"POST /x.html HTTP/1.1\r\nHost: h\r\nContent-Length: 100\r\n\r\nshort"
        raw_exchange(origin, payload)
        request = HttpRequest(method="GET", target="/x.html")
        request.headers.set("Host", HOST)
        assert fetch_once(origin.address, origin.port, request).status == 200

    def test_connection_reconnects_after_server_side_close(self, origin):
        connection = HttpConnection(origin.address, origin.port)
        request = HttpRequest(method="GET", target="/x.html")
        request.headers.set("Host", HOST)
        assert connection.request(request).status == 200
        # Force-close our socket; the next request must reconnect.
        connection._sock.close()
        assert connection.request(request).status == 200
        connection.close()


class TestConcurrency:
    def test_many_parallel_clients(self, origin):
        errors = []
        counts = []

        def worker(index):
            try:
                with HttpConnection(origin.address, origin.port) as connection:
                    ok = 0
                    for j in range(10):
                        request = HttpRequest(
                            method="GET", target=f"/r{(index + j) % 10}.html"
                        )
                        request.headers.set("Host", HOST)
                        response = connection.request(request)
                        if response.status == 200:
                            ok += 1
                    counts.append(ok)
            except Exception as exc:  # noqa: BLE001 - collected for assertion
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors
        assert sum(counts) == 80
        assert origin.server.stats.requests == 80

    def test_pipelined_requests_on_one_connection(self, origin):
        with socket.create_connection((origin.address, origin.port)) as sock:
            first = HttpRequest(method="GET", target="/r0.html")
            first.headers.set("Host", HOST)
            second = HttpRequest(method="GET", target="/r1.html")
            second.headers.set("Host", HOST)
            sock.sendall(first.serialize() + second.serialize())
            reader = sock.makefile("rb")
            one = read_response(reader)
            two = read_response(reader)
        assert one.status == two.status == 200
        assert len(one.body) == 100
        assert len(two.body) == 101


def build_server(**kwargs):
    resources = ResourceStore()
    resources.add(f"{HOST}/x.html", size=256, last_modified=10.0)
    engine = PiggybackServer(resources, DirectoryVolumeStore())
    return PiggybackHttpServer(
        engine, site_host=HOST, clock=lambda: 1000.0, **kwargs
    )


def wait_until(predicate, deadline=3.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestSocketTimeouts:
    """Regression: accepted sockets used to have NO timeout, so a client
    that connected and never spoke parked a worker thread forever."""

    def test_silent_client_is_reclaimed(self):
        with build_server(io_timeout=0.3) as server:
            silent = socket.create_connection((server.address, server.port))
            try:
                assert wait_until(lambda: server.active_workers() >= 1)
                # The worker must be reclaimed by the idle timeout even
                # though the client never sends a byte or disconnects.
                assert wait_until(lambda: server.active_workers() == 0)
                assert server.wire_stats.idle_timeouts == 1
            finally:
                silent.close()
            # And the server still serves normal traffic afterwards.
            request = HttpRequest(method="GET", target="/x.html")
            request.headers.set("Host", HOST)
            assert fetch_once(server.address, server.port, request).status == 200

    def test_half_request_client_is_reclaimed(self):
        with build_server(io_timeout=0.3) as server:
            stalled = socket.create_connection((server.address, server.port))
            try:
                stalled.sendall(b"GET /x.html HTTP/1.1\r\nHost: h")  # never finishes
                assert wait_until(
                    lambda: server.wire_stats.connections_accepted == 1
                )
                assert wait_until(lambda: server.wire_stats.idle_timeouts == 1)
                assert wait_until(lambda: server.active_workers() == 0)
            finally:
                stalled.close()

    def test_worker_cap_with_silent_clients_recovers(self):
        """Silent clients saturating the worker cap are timed out, and the
        queued well-behaved request is then served (backpressure, no 5xx)."""
        with build_server(io_timeout=0.4, max_workers=2) as server:
            hogs = [
                socket.create_connection((server.address, server.port))
                for _ in range(2)
            ]
            try:
                assert wait_until(lambda: server.active_workers() == 2)
                assert server.active_workers() <= 2
                request = HttpRequest(method="GET", target="/x.html")
                request.headers.set("Host", HOST)
                # Waits in the listen backlog until a hog is reclaimed.
                response = fetch_once(server.address, server.port, request)
                assert response.status == 200
                assert wait_until(lambda: server.wire_stats.idle_timeouts == 2)
            finally:
                for hog in hogs:
                    hog.close()
            assert wait_until(lambda: server.active_workers() == 0)


class FlakyListener:
    """A listening socket whose first ``accept()`` fails with EMFILE."""

    def __init__(self, sock):
        self.sock = sock
        self.failures_left = 1

    def accept(self):
        if self.failures_left:
            self.failures_left -= 1
            raise OSError(errno.EMFILE, "Too many open files")
        return self.sock.accept()

    def close(self):
        self.sock.close()


def test_transient_accept_error_does_not_stop_accepting():
    """Regression: the accept loop took every OSError for a closed
    listener and returned, so one EMFILE left every later client hanging
    until its own timeout."""
    server = build_server()
    server._listener = FlakyListener(server._listener)
    with server:
        request = HttpRequest(method="GET", target="/x.html")
        request.headers.set("Host", HOST)
        assert fetch_once(server.address, server.port, request, timeout=3.0).status == 200
        assert server.wire_stats.accept_errors == 1
        accept_thread = server._accept_thread
    assert not accept_thread.is_alive()


# -- malformed Content-Length, both backends and the LB relay ---------------

BACKENDS = {"threaded": PiggybackHttpServer, "async": AsyncPiggybackHttpServer}
LB_FRONTENDS = {"threaded": LbHttpServer}
# "9" * 5000 is past int()'s default digit limit: int() raises ValueError.
with_bad_lengths = pytest.mark.parametrize(
    "value", ["abc", "5, 5", "-5", "9" * 5000], ids=["abc", "5, 5", "-5", "5000-digits"]
)


def build_backend(backend, **kwargs):
    resources = ResourceStore()
    resources.add(f"{HOST}/x.html", size=256, last_modified=10.0)
    engine = PiggybackServer(resources, DirectoryVolumeStore())
    return BACKENDS[backend](engine, site_host=HOST, clock=lambda: 1000.0, **kwargs)


@with_bad_lengths
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_malformed_content_length_gets_one_counted_400(backend, value):
    """Regression: ``int()`` on the value used to raise a bare ValueError
    out of the request reader — the threaded worker died, the async task
    failed unobserved, no 400 went out and ``bad_requests`` stayed 0 —
    and ``-5`` was accepted, so the bytes after it were served as the
    next request."""
    smuggled = f"GET /x.html HTTP/1.1\r\nHost: {HOST}\r\n\r\n".encode()
    payload = (
        f"POST /x.html HTTP/1.1\r\nHost: {HOST}\r\nContent-Length: {value}\r\n\r\n"
    ).encode() + smuggled
    with build_backend(backend) as server:
        reply = raw_exchange(server, payload)
        assert reply.startswith(b"HTTP/1.1 400")
        assert reply.count(b"HTTP/1.1 ") == 1, "bytes after the bad head were served"
        assert wait_until(lambda: server.wire_stats.bad_requests == 1)
        assert server.wire_stats.internal_errors == 0
        request = HttpRequest(method="GET", target="/x.html")
        request.headers.set("Host", HOST)
        assert fetch_once(server.address, server.port, request).status == 200
        assert wait_until(lambda: server.active_workers() == 0)


class CannedBackend:
    """A backend answering each connection's first request with *reply*."""

    def __init__(self, reply: bytes):
        self.reply = reply
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            with conn:
                conn.settimeout(5.0)
                try:
                    data = b""
                    while b"\r\n\r\n" not in data:
                        piece = conn.recv(4096)
                        if not piece:
                            break
                        data += piece
                    conn.sendall(self.reply)
                except OSError:
                    pass

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc_info):
        self.listener.close()
        self.thread.join(timeout=5.0)


@with_bad_lengths
def test_forwarder_maps_malformed_backend_length_to_backend_error(value):
    reply = f"HTTP/1.1 200 OK\r\nContent-Length: {value}\r\n\r\nhello".encode()
    with CannedBackend(reply) as backend:
        forwarder = Forwarder(timeout=2.0)
        try:
            with pytest.raises(BackendError) as caught:
                forwarder.forward(
                    BackendSlot(0, 0, "127.0.0.1", backend.port),
                    b"GET /x.html HTTP/1.1\r\nHost: h\r\n\r\n",
                )
        finally:
            forwarder.close()
    assert isinstance(caught.value.cause, HttpParseError)


@pytest.mark.parametrize("frontend", sorted(LB_FRONTENDS))
def test_lb_ejects_replica_with_malformed_length_and_retries(frontend):
    """The framer's parse error becomes a BackendError: the replica is
    ejected and the request retried on its sibling — not a 500."""
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\nhello"
    with CannedBackend(reply) as bad, build_backend("threaded") as good:
        slots = [
            BackendSlot(0, 0, "127.0.0.1", bad.port),
            BackendSlot(0, 1, good.address, good.port),
        ]
        lb = LB_FRONTENDS[frontend](
            RoutingTable(1, slots, snapshot_ttl=0.5),
            policy=LbPolicy(backend_timeout=2.0),
            site_host=HOST,
        )
        with lb:
            request = HttpRequest(method="GET", target="/x.html")
            request.headers.set("Host", HOST)
            response = fetch_once(lb.address, lb.port, request)
            status = lb.lb_status()
    assert response.status == 200
    assert status["retried"] == 1
    assert status["routing"]["ejections"] == 1
    assert lb.wire_stats.internal_errors == 0
