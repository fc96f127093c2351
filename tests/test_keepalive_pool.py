"""The one keep-alive pool shared by the wire proxy and the load balancer.

A raw-socket stub origin scripts every answer, so each pool rule is
observable on the wire: which connection answered (the body names it),
how many connections were accepted, and which ones the pool closed.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

import pytest

from repro import telemetry
from repro.core.protocol import ProxyRequest
from repro.httpmodel.messages import HttpRequest, frame_response
from repro.httpwire.netclient import HttpConnection, KeepAlivePool
from repro.httpwire.netproxy import HttpUpstream, PiggybackHttpProxy, UpstreamPolicy
from repro.telemetry import REGISTRY

HOST = "stub.example"


def ok(body: bytes) -> bytes:
    return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body


class StubOrigin:
    """A loopback origin answering each request with ``reply(conn, path)``.

    ``conn`` numbers connections from 1 in accept order; a reply of None
    closes the connection without answering.  ``accepted`` counts
    connections, ``client_closed`` the numbers of those the client closed.
    """

    def __init__(self, reply):
        self.reply = reply
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.2)
        self.address = ("127.0.0.1", self.listener.getsockname()[1])
        self.accepted = 0
        self.client_closed: set[int] = set()
        self._running = True
        self._threads: list[threading.Thread] = []
        self._accept = threading.Thread(target=self._accept_loop, daemon=True)

    def __enter__(self) -> "StubOrigin":
        self._accept.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._running = False
        self._accept.join(timeout=5.0)
        self.listener.close()
        for thread in self._threads:
            thread.join(timeout=5.0)

    def _accept_loop(self) -> None:
        while self._running:
            try:
                sock, _ = self.listener.accept()
            except (TimeoutError, OSError):
                continue
            self.accepted += 1
            thread = threading.Thread(
                target=self._serve, args=(sock, self.accepted), daemon=True
            )
            self._threads.append(thread)
            thread.start()

    def _serve(self, sock: socket.socket, conn: int) -> None:
        sock.settimeout(0.2)
        buffer = b""
        with sock:
            while self._running:
                while b"\r\n\r\n" not in buffer:
                    try:
                        data = sock.recv(65536)
                    except TimeoutError:
                        if not self._running:
                            return
                        continue
                    except OSError:
                        return
                    if not data:
                        self.client_closed.add(conn)
                        return
                    buffer += data
                head, _, buffer = buffer.partition(b"\r\n\r\n")
                reply = self.reply(conn, head.split(b" ")[1].decode())
                if reply is None:
                    return
                sock.sendall(reply)

    def wait_for(self, predicate, timeout: float = 5.0) -> None:
        deadline = time.monotonic() + timeout
        while not predicate():
            assert time.monotonic() < deadline, "stub origin never got there"
            time.sleep(0.005)


def get(path: str) -> bytes:
    request = HttpRequest(method="GET", target=path)
    request.headers.set("Host", HOST)
    return request.serialize()


def name_the_connection(conn: int, path: str) -> bytes:
    return ok(b"%d" % conn)


def fetch(pool: KeepAlivePool, origin: StubOrigin, path: str, key: str = HOST) -> str:
    return pool.exchange(key, origin.address, get(path), frame_response).body.decode()


def make_pool(**overrides) -> KeepAlivePool:
    settings = {"size": 4, "idle_timeout": 30.0, "timeout": 5.0}
    settings.update(overrides)
    return KeepAlivePool(**settings)


def two_parked(pool: KeepAlivePool, origin: StubOrigin, gate: threading.Event,
               before_release=None) -> None:
    """Park connection 2, then connection 1 (a slow exchange held in
    flight by *gate* while connection 2 answers)."""
    slow = threading.Thread(target=fetch, args=(pool, origin, "/slow"))
    slow.start()
    origin.wait_for(lambda: origin.accepted == 1)
    assert fetch(pool, origin, "/fast") == "2"
    if before_release is not None:
        before_release()
    gate.set()
    slow.join(timeout=5.0)


def gated(gate: threading.Event):
    def reply(conn: int, path: str) -> bytes:
        if path == "/slow":
            gate.wait(5.0)
        return ok(b"%d" % conn)

    return reply


# -- the discipline ---------------------------------------------------------


def test_checkout_reuses_the_most_recently_parked_connection():
    gate = threading.Event()
    with StubOrigin(gated(gate)) as origin:
        pool = make_pool()
        try:
            two_parked(pool, origin, gate)
            assert pool.pooled() == 2
            assert fetch(pool, origin, "/again") == "1"
            assert (pool.connects, pool.reuses, pool.retired) == (2, 1, 0)
        finally:
            pool.close()


def test_idle_connection_is_retired_at_checkout():
    with StubOrigin(name_the_connection) as origin:
        pool = make_pool(idle_timeout=0.05)
        try:
            assert fetch(pool, origin, "/a") == "1"
            time.sleep(0.1)
            assert fetch(pool, origin, "/b") == "2"
            assert (pool.connects, pool.reuses, pool.retired) == (2, 0, 1)
            origin.wait_for(lambda: 1 in origin.client_closed)
        finally:
            pool.close()


def test_idle_connection_is_retired_at_checkin():
    gate = threading.Event()
    with StubOrigin(gated(gate)) as origin:
        pool = make_pool(idle_timeout=0.5)
        try:
            # Connection 2 parks, ages past the idle timeout, and the
            # checkin of connection 1 retires it.
            two_parked(pool, origin, gate, before_release=lambda: time.sleep(0.7))
            assert pool.retired == 1
            assert pool.pooled() == 1
            origin.wait_for(lambda: 2 in origin.client_closed)
            assert fetch(pool, origin, "/again") == "1"
        finally:
            pool.close()


def test_overflow_is_closed_not_parked():
    gate = threading.Event()
    with StubOrigin(gated(gate)) as origin:
        pool = make_pool(size=1)
        try:
            two_parked(pool, origin, gate)
            assert pool.pooled() == 1
            assert pool.retired == 0  # overflow is not a retirement
            origin.wait_for(lambda: 1 in origin.client_closed)
            assert fetch(pool, origin, "/again") == "2"
        finally:
            pool.close()


def test_connection_with_bytes_past_its_response_is_closed():
    def reply(conn: int, path: str) -> bytes:
        if conn == 1:
            return ok(b"1") + ok(b"POISON")
        return ok(b"%d" % conn)

    with StubOrigin(reply) as origin:
        pool = make_pool()
        try:
            assert fetch(pool, origin, "/a") == "1"
            assert pool.pooled() == 0
            assert pool.retired == 1
            assert fetch(pool, origin, "/b") == "2"
        finally:
            pool.close()


def test_failed_reused_connection_is_retried_once_on_a_fresh_one():
    def reply(conn: int, path: str) -> bytes | None:
        # Connection 1 answers once, then closes as an idle origin would.
        if conn == 1 and path != "/a":
            return None
        return ok(b"%d" % conn)

    with StubOrigin(reply) as origin:
        pool = make_pool()
        try:
            assert fetch(pool, origin, "/a") == "1"
            assert fetch(pool, origin, "/b") == "2"
            assert (pool.connects, pool.reuses, pool.retired, pool.retries) == (2, 1, 1, 1)
            assert origin.accepted == 2
        finally:
            pool.close()


def test_retry_after_a_failed_reuse_happens_exactly_once():
    def reply(conn: int, path: str) -> bytes | None:
        return None if path == "/drop" else ok(b"%d" % conn)

    with StubOrigin(reply) as origin:
        pool = make_pool()
        try:
            fetch(pool, origin, "/a")
            with pytest.raises(EOFError):
                fetch(pool, origin, "/drop")
            assert origin.accepted == 2
            assert pool.retries == 1
            assert pool.pooled() == 0
        finally:
            pool.close()


def test_failed_fresh_connection_raises_without_retry():
    with StubOrigin(lambda conn, path: None) as origin:
        pool = make_pool()
        try:
            with pytest.raises(EOFError):
                fetch(pool, origin, "/drop")
            assert origin.accepted == 1
            assert (pool.connects, pool.retries, pool.pooled()) == (1, 0, 0)
        finally:
            pool.close()
    dead = socket.create_server(("127.0.0.1", 0))
    address = ("127.0.0.1", dead.getsockname()[1])
    dead.close()
    pool = make_pool()
    with pytest.raises(ConnectionRefusedError):
        pool.exchange(HOST, address, get("/a"), frame_response)
    assert pool.retries == 0


def test_discard_closes_only_that_keys_idle_connections():
    with StubOrigin(name_the_connection) as origin:
        pool = make_pool()
        try:
            assert fetch(pool, origin, "/a", key="one") == "1"
            assert fetch(pool, origin, "/a", key="two") == "2"
            pool.discard("one")
            assert pool.pooled() == 1
            origin.wait_for(lambda: 1 in origin.client_closed)
            assert 2 not in origin.client_closed
            assert fetch(pool, origin, "/b", key="two") == "2"
        finally:
            pool.close()


# -- the proxy's counters follow the pool -----------------------------------


@pytest.fixture()
def telemetry_on():
    telemetry.enable()
    try:
        yield
    finally:
        telemetry.disable()


POOL_COUNTERS = {
    "pool_connects": "proxy_upstream_pool_connects_total",
    "pool_reuses": "proxy_upstream_pool_reuses_total",
    "pool_retired": "proxy_upstream_pool_retired_total",
    "retries": "proxy_upstream_retries_total",
    "exchanges": "proxy_upstream_exchanges_total",
}


def counter_values() -> dict[str, int]:
    return {field: REGISTRY.counter(name).value for field, name in POOL_COUNTERS.items()}


def test_upstream_stats_and_telemetry_count_pool_events(telemetry_on):
    def reply(conn: int, path: str) -> bytes | None:
        # Connection 2 answers twice, then closes as an idle origin would.
        if conn == 2 and path == "/c":
            return None
        return ok(b"%d" % conn)

    with StubOrigin(reply) as origin:
        upstream = HttpUpstream(
            {HOST: origin.address}, policy=UpstreamPolicy(idle_timeout=0.5)
        )
        before = counter_values()
        try:
            for path, pause in (("a", 0.0), ("a2", 0.8), ("b", 0.0), ("c", 0.0)):
                time.sleep(pause)
                response = upstream(ProxyRequest(url=f"{HOST}/{path}", timestamp=0.0))
                assert response.status == 200
        finally:
            upstream.close()
        after = counter_values()
    # a: connect 1.  a2: connection 1 idle-expired, connect 2.  b: reuse 2.
    # c: reuse 2 fails (retired, retried), connect 3.
    stats = upstream.stats
    assert (stats.pool_connects, stats.pool_reuses, stats.pool_retired) == (3, 2, 2)
    assert (stats.exchanges, stats.retries, stats.failures) == (4, 1, 0)
    assert stats.pool_reuse_rate == pytest.approx(2 / 5)
    assert {field: after[field] - before[field] for field in POOL_COUNTERS} == {
        "pool_connects": 3,
        "pool_reuses": 2,
        "pool_retired": 2,
        "retries": 1,
        "exchanges": 4,
    }


# -- the out-of-step origin -------------------------------------------------


def test_proxy_gives_each_path_its_own_body_when_an_origin_answers_twice():
    """An origin that appends an extra complete response to its first
    answer must not shift every later answer on that pooled connection:
    the proxy would cache one path's body under the next path."""
    answered = []

    def reply(conn: int, path: str) -> bytes:
        body = ok(f"body-of-{path}".encode())
        if not answered:
            body += ok(b"POISON")
        answered.append(path)
        return body

    with StubOrigin(reply) as origin:
        with PiggybackHttpProxy({HOST: origin.address}) as proxy:
            with HttpConnection(proxy.address, proxy.port, timeout=5.0) as client:
                bodies = {}
                for path in ("/a", "/b", "/c"):
                    request = HttpRequest(method="GET", target=f"http://{HOST}{path}")
                    response = client.request(request)
                    assert response.status == 200
                    bodies[path] = response.body.decode()
    assert bodies == {path: f"body-of-{path}" for path in ("/a", "/b", "/c")}


def test_concurrent_exchanges_keep_counts_and_answers_exact():
    """More threads than cores hammer one pool with a short switch
    interval: every answer belongs to its own request, and every
    exchange is counted exactly once as a connect or a reuse."""
    threads, per_thread = 8, 40

    def echo_path(conn: int, path: str) -> bytes:
        return ok(path.encode())

    with StubOrigin(echo_path) as origin:
        pool = make_pool(size=3)
        wrong: list[tuple[str, str]] = []

        def worker(index: int) -> None:
            for sequence in range(per_thread):
                path = f"/w{index}/r{sequence}"
                answer = fetch(pool, origin, path)
                if answer != path:
                    wrong.append((path, answer))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in workers)
        finally:
            sys.setswitchinterval(interval)
            pool.close()
    assert wrong == []
    assert pool.connects + pool.reuses == threads * per_thread
    assert pool.connects == origin.accepted
    assert (pool.retired, pool.retries) == (0, 0)
