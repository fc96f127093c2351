"""Shared hardened TCP frontend for every wire-layer server.

All four wire servers (origin, proxy, volume center, fault interposer)
used to hand-roll the same accept-loop/thread-per-connection skeleton with
no socket timeouts and no bound on worker threads — a silent client leaked
a thread forever and a burst of connections could spawn without limit.
:class:`ThreadedWireServer` centralizes the hardened version:

* every accepted socket gets a per-connection I/O timeout, so a client
  that connects and never speaks is reclaimed instead of leaking;
* concurrent workers are capped by a semaphore — excess connections wait
  in the listen backlog (backpressure) rather than exhausting threads;
* live workers and their sockets are tracked, so :meth:`stop` can drain
  them deterministically and tests can assert zero leaked threads;
* each connection receives into one reusable chunk, appends it to one
  framing buffer and frames requests from that buffer with
  :mod:`repro.httpmodel.framing` (:func:`recv_framed`): no file object,
  no per-line reads, and pipelined requests come straight from the buffer;
* 400/500 mapping and keep-alive handling live in one place; subclasses
  implement only :meth:`handle_request`;
* a failed ``accept()`` while the server is running (``EMFILE``,
  ``ENOBUFS``, ``ECONNABORTED``) is counted and retried after a short
  back-off; only :meth:`stop` or :meth:`drain` ends the accept loop;
* each connection thread runs under the Linux ``SCHED_BATCH`` policy
  (:func:`_batch_schedule`).  The GIL already lets one thread of the
  process run Python at a time.  Under the default policy a connection
  thread woken by its request's arrival preempts the thread holding the
  GIL, finds the GIL taken and sleeps again: about one involuntary
  context switch per request with two busy keep-alive connections.
  ``SCHED_BATCH`` has no wakeup preemption, so the woken thread waits
  for the holder to block.  Where the policy is unavailable or refused,
  the thread keeps the policy it inherited.

Everything that is *not* about threads or sockets — the wire counters,
the ``/.repro/metrics`` endpoint, the ``/.repro/`` admin namespace, the
request dispatch with its 500 mapping and trace span — lives in
:class:`WireServerCore`, which the asyncio stack
(:mod:`repro.httpwire.aio`) shares verbatim.  Both frontends therefore
answer byte-identical responses and expose the same admin semantics; the
differential suite in ``tests/test_wire_aio_differential.py`` holds them
to that.

Response *serialization and sending happen on the worker thread with no
engine lock held* — subclasses must confine their locking to metadata
mutation so body serving is never globally serialized.
"""

from __future__ import annotations

import json
import os
import resource
import socket
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any

from ..devtools.lockorder import make_lock
from ..httpmodel.framing import HttpParseError, Progress, need_count
from ..httpmodel.messages import Framer, HttpRequest, HttpResponse, M, frame_request
from ..telemetry import REGISTRY, TRACE_HEADER, TRACER, render_json, render_prometheus

__all__ = [
    "WireServerStats",
    "WireServerCore",
    "ThreadedWireServer",
    "METRICS_PATH",
    "ADMIN_PREFIX",
    "STATUS_PATH",
    "DRAIN_PATH",
    "RECV_SIZE",
    "recv_framed",
]

# Introspection endpoint every wire server answers before dispatching to
# its subclass handler.
METRICS_PATH = "/.repro/metrics"

# Reserved admin namespace: every path under it is answered by the wire
# layer (or a subclass admin hook), never by the application handler.
ADMIN_PREFIX = "/.repro/"
STATUS_PATH = "/.repro/status"
DRAIN_PATH = "/.repro/drain"

# Per-connection receive chunk; framing buffers grow past it only for
# messages that do not fit in one.
RECV_SIZE = 64 * 1024

# Pause after a failed accept(): long enough not to spin while the fd
# table is full, short enough that a queued client barely notices.
ACCEPT_RETRY_DELAY = 0.05

_TEL_CONNECTIONS = REGISTRY.counter(
    "wire_connections_accepted_total", "TCP connections accepted by wire servers"
)
_TEL_REQUESTS = REGISTRY.counter(
    "wire_requests_served_total", "requests answered by wire servers"
)
_TEL_BAD_REQUESTS = REGISTRY.counter(
    "wire_bad_requests_total", "unparseable requests answered with 400"
)
_TEL_IDLE_TIMEOUTS = REGISTRY.counter(
    "wire_idle_timeouts_total", "connections reclaimed by the per-connection io timeout"
)
_TEL_IDLE_REAPED = REGISTRY.counter(
    "server_idle_reaped_total",
    "keep-alive connections retired after idling past the idle timeout",
)
_TEL_CONN_ERRORS = REGISTRY.counter(
    "wire_connection_errors_total", "reads/writes that failed on a dead client"
)
_TEL_ACCEPT_ERRORS = REGISTRY.counter(
    "wire_accept_errors_total", "accept() calls that failed on an open listener"
)
_TEL_INTERNAL_ERRORS = REGISTRY.counter(
    "wire_internal_errors_total", "handler exceptions mapped to 500"
)
_TEL_ACTIVE_WORKERS = REGISTRY.gauge(
    "wire_active_workers", "connection-serving threads currently alive"
)
_TEL_REQUEST_SECONDS = REGISTRY.histogram(
    "wire_request_seconds", "server-side request handling latency"
)

# WireServerStats field -> global telemetry counter, so _count() keeps the
# per-server dataclass and the process-wide registry in one step.
_TEL_COUNTERS = {
    "connections_accepted": _TEL_CONNECTIONS,
    "requests_served": _TEL_REQUESTS,
    "bad_requests": _TEL_BAD_REQUESTS,
    "idle_timeouts": _TEL_IDLE_TIMEOUTS,
    "idle_reaped": _TEL_IDLE_REAPED,
    "connection_errors": _TEL_CONN_ERRORS,
    "accept_errors": _TEL_ACCEPT_ERRORS,
    "internal_errors": _TEL_INTERNAL_ERRORS,
}


@dataclass(slots=True)
class WireServerStats:
    """Wire-level counters, one instance per listening server."""

    connections_accepted: int = 0
    requests_served: int = 0
    bad_requests: int = 0
    idle_timeouts: int = 0
    idle_reaped: int = 0
    connection_errors: int = 0
    accept_errors: int = 0
    internal_errors: int = 0


@dataclass(slots=True)
class _Connection:
    """One live accepted connection: its socket and serving thread."""

    sock: socket.socket
    thread: threading.Thread = field(default=None)  # type: ignore[assignment]


def recv_framed(
    sock: socket.socket, buffer: bytearray, chunk: memoryview, framer: Framer[M]
) -> M:
    """Frame the next message from *buffer*, receiving into it as needed.

    *buffer* is the connection's framing buffer: bytes past the message
    stay in it for the next call (pipelining).  Each ``recv_into`` lands
    in the reusable *chunk* and is appended; a need code that names a
    byte count skips re-framing until that many bytes have arrived, and
    every re-framing resumes where the last one stopped.
    Raises :class:`EOFError` when the peer closes before a message
    starts, :class:`HttpParseError` when it closes inside one, and lets
    socket errors and timeouts through.
    """
    progress: Progress | None = None
    want = 1
    while True:
        if len(buffer) >= want:
            message, code = framer(buffer, progress)
            if message is not None:
                del buffer[:code]
                return message
            if progress is None:
                progress = Progress()
            want = len(buffer) + max(need_count(code), 1)
        count = sock.recv_into(chunk)
        if not count:
            if buffer:
                raise HttpParseError("connection closed inside a message")
            raise EOFError("connection closed before message start")
        buffer += chunk[:count]


def _batch_schedule() -> None:
    """Move the calling thread to ``SCHED_BATCH``, best effort.

    On a platform without the policy, or where the kernel refuses it,
    the thread keeps its policy.
    """
    setscheduler = getattr(os, "sched_setscheduler", None)
    policy = getattr(os, "SCHED_BATCH", None)
    if setscheduler is None or policy is None:
        return
    try:
        setscheduler(0, policy, os.sched_param(0))
    except OSError:
        pass


class WireServerCore:
    """Backend-neutral half of a wire server: counters, admin, dispatch.

    Both :class:`ThreadedWireServer` and the asyncio frontend
    (:class:`repro.httpwire.aio.server.AsyncWireServer`) inherit this, so
    the ``/.repro/`` namespace, the telemetry wiring, and the
    request-routing behavior (including the 500 mapping and the
    ``wire.request`` span) are one implementation — the precondition for
    byte-identical responses across backends.

    The inheriting frontend must provide ``name``, ``address``, ``port``,
    ``wire_stats``, ``_stats_lock``, and ``_draining`` attributes plus an
    :meth:`active_workers` / :meth:`drain` implementation.
    """

    name: str
    address: str
    port: int
    wire_stats: WireServerStats
    _draining: bool

    # -- subclass contract -------------------------------------------------

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        """Map one parsed request to a response (runs off the accept path)."""
        raise NotImplementedError

    def handle_admin(self, request: HttpRequest, path: str) -> HttpResponse | None:
        """Answer a subclass-specific ``/.repro/`` path, or None for 404."""
        return None

    def admin_status(self) -> dict[str, Any]:
        """Extra subclass fields merged into the ``/.repro/status`` body."""
        return {}

    def active_workers(self) -> int:
        """Connections currently being served (threads or coroutine tasks)."""
        raise NotImplementedError

    def drain(self) -> None:
        """Refuse new connections; let in-flight requests finish."""
        raise NotImplementedError

    @property
    def draining(self) -> bool:
        return self._draining

    # -- counters ----------------------------------------------------------

    def _count(self, counter: str, amount: int = 1) -> None:
        with self._stats_lock:
            setattr(self.wire_stats, counter, getattr(self.wire_stats, counter) + amount)
        _TEL_COUNTERS[counter].inc(amount)

    # -- introspection endpoint --------------------------------------------

    def _metrics_response(self, request: HttpRequest) -> HttpResponse:
        """Serve the process-wide telemetry snapshot for ``METRICS_PATH``."""
        snapshot = REGISTRY.snapshot()
        if "format=json" in request.target:
            body = render_json(
                snapshot, spans=[record.to_json() for record in TRACER.recent()]
            ).encode("utf-8")
            content_type = "application/json"
        else:
            body = render_prometheus(snapshot).encode("utf-8")
            content_type = "text/plain; version=0.0.4"
        response = HttpResponse(status=200, body=body)
        response.headers.set("Content-Type", content_type)
        return response

    def _json_response(self, payload: dict[str, Any], status: int = 200) -> HttpResponse:
        response = HttpResponse(
            status=status, body=json.dumps(payload, indent=1).encode("utf-8")
        )
        response.headers.set("Content-Type", "application/json")
        return response

    def _admin_response(self, request: HttpRequest, path: str) -> HttpResponse:
        """Dispatch one request under :data:`ADMIN_PREFIX`."""
        method = request.method.upper()
        if path == STATUS_PATH and method == "GET":
            with self._stats_lock:
                stats = asdict(self.wire_stats)
            usage = resource.getrusage(resource.RUSAGE_SELF)
            payload: dict[str, Any] = {
                "server": self.name,
                "address": self.address,
                "port": self.port,
                "draining": self._draining,
                "active_workers": self.active_workers(),
                "wire_stats": stats,
                # Process-wide, since start: scrape twice and divide the
                # deltas by requests served to get switches per request.
                "context_switches": {
                    "voluntary": usage.ru_nvcsw,
                    "involuntary": usage.ru_nivcsw,
                },
            }
            payload.update(self.admin_status())
            return self._json_response(payload)
        if path == DRAIN_PATH and method == "POST":
            self.drain()
            return self._json_response(
                {"draining": True, "active_workers": self.active_workers()}
            )
        response = self.handle_admin(request, path)
        if response is not None:
            return response
        return HttpResponse(status=404, body=b"unknown admin endpoint\n")

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, request: HttpRequest) -> HttpResponse:
        """Route one parsed request: metrics, admin, or the app handler."""
        path = request.target.split("?", 1)[0]
        if path == METRICS_PATH:
            return self._metrics_response(request)
        if path.startswith(ADMIN_PREFIX):
            return self._admin_response(request, path)
        with _TEL_REQUEST_SECONDS.time(), TRACER.span(
            "wire.request",
            parent_header=request.headers.get(TRACE_HEADER),
        ) as span:
            span.tag("server", self.name)
            span.tag("target", request.target)
            return self.handle_request(request)

    def _respond(self, request: HttpRequest) -> HttpResponse:
        """Dispatch with the 500 mapping applied; never raises."""
        try:
            return self._dispatch(request)
        except Exception:  # noqa: BLE001 - one bad request never kills the worker
            self._count("internal_errors")
            return HttpResponse(status=500)


class ThreadedWireServer(WireServerCore):
    """Thread-per-connection HTTP server with timeouts and a worker cap."""

    def __init__(
        self,
        address: str = "127.0.0.1",
        port: int = 0,
        *,
        backlog: int = 64,
        io_timeout: float = 30.0,
        idle_timeout: float | None = None,
        max_workers: int = 64,
        name: str = "wire",
    ):
        if io_timeout <= 0:
            raise ValueError("io_timeout must be positive")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive when set")
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.io_timeout = io_timeout
        # Keep-alive reaping: once a connection has served a request, the
        # wait for its *next* request is bounded by this instead of the
        # io timeout, so mostly-idle keep-alive clients do not pin a
        # worker thread for the full io_timeout.  None keeps old behavior.
        self.idle_timeout = idle_timeout
        self.max_workers = max_workers
        self.name = name
        self.wire_stats = WireServerStats()
        self._stats_lock = make_lock("ThreadedWireServer._stats_lock")
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((address, port))
        self._listener.listen(backlog)
        # A blocking accept() is not woken by close() from another thread;
        # a short timeout lets the accept loop notice shutdown promptly.
        self._listener.settimeout(0.2)
        self.address, self.port = self._listener.getsockname()
        self._accept_thread: threading.Thread | None = None
        self._running = False
        self._draining = False
        self._worker_slots = threading.BoundedSemaphore(max_workers)
        self._connections: dict[int, _Connection] = {}
        self._connections_lock = make_lock("ThreadedWireServer._connections_lock")
        self._connection_counter = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Begin accepting connections; returns (address, port)."""
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{self.name}:accept", daemon=True
        )
        self._accept_thread.start()
        return self.address, self.port

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Stop accepting, force-close live connections, join workers."""
        self._running = False
        try:
            self._listener.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=drain_timeout)
            self._accept_thread = None
        with self._connections_lock:
            live = list(self._connections.values())
        for connection in live:
            # shutdown() wakes a worker blocked in recv_into with EOF;
            # close() from this thread alone would not.
            try:
                connection.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.sock.close()
            except OSError:
                pass
        for connection in live:
            if connection.thread is not None:
                connection.thread.join(timeout=drain_timeout)

    def drain(self) -> None:
        """Refuse new connections; let in-flight requests finish.

        Closes the listener (new connects get ECONNREFUSED) and flips the
        serve loops into lame-duck mode: each worker completes the request
        it is currently handling — including the drain request itself —
        sends the response, and closes its connection.  Workers blocked
        waiting for a next keep-alive request are reclaimed by EOF or the
        io timeout.  Idempotent; :meth:`stop` remains the hard shutdown.
        """
        self._draining = True
        self._running = False
        try:
            self._listener.close()
        except OSError:
            pass

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def active_workers(self) -> int:
        """Number of connection-serving threads currently alive."""
        with self._connections_lock:
            return len(self._connections)

    # -- accept/serve loops ------------------------------------------------

    def _accept_loop(self) -> None:
        while self._running:
            # Backpressure: when all worker slots are busy, connections sit
            # in the listen backlog instead of spawning unbounded threads.
            if not self._worker_slots.acquire(timeout=0.1):
                continue
            try:
                client, _ = self._listener.accept()
            except TimeoutError:
                self._worker_slots.release()
                continue
            except OSError:
                self._worker_slots.release()
                if not self._running:
                    return  # listener closed by stop() or drain()
                # Out of descriptors or buffers, or a connection aborted
                # before accept: transient, so keep the listener serving.
                self._count("accept_errors")
                time.sleep(ACCEPT_RETRY_DELAY)
                continue
            client.settimeout(self.io_timeout)
            with self._connections_lock:
                self._connection_counter += 1
                key = self._connection_counter
                connection = _Connection(sock=client)
                self._connections[key] = connection
            self._count("connections_accepted")
            worker = threading.Thread(
                target=self._worker_entry,
                args=(key, client),
                name=f"{self.name}:conn-{key}",
                daemon=True,
            )
            connection.thread = worker
            worker.start()

    def _worker_entry(self, key: int, client: socket.socket) -> None:
        _batch_schedule()
        _TEL_ACTIVE_WORKERS.inc()
        try:
            self._serve_connection(client)
        finally:
            with self._connections_lock:
                self._connections.pop(key, None)
            self._worker_slots.release()
            _TEL_ACTIVE_WORKERS.dec()

    def _serve_connection(self, client: socket.socket) -> None:
        buffer = bytearray()
        chunk = memoryview(bytearray(RECV_SIZE))
        send_buffer = bytearray()
        served = 0
        try:
            while self._running:
                try:
                    request = recv_framed(client, buffer, chunk, frame_request)
                except EOFError:
                    return
                except TimeoutError:
                    if served and self.idle_timeout is not None:
                        self._count("idle_reaped")
                    else:
                        self._count("idle_timeouts")
                    return
                except HttpParseError:
                    self._count("bad_requests")
                    self._send(client, HttpResponse(status=400))
                    return
                except (ConnectionError, OSError):
                    self._count("connection_errors")
                    return
                response = self._respond(request)
                if not self._send(client, response, send_buffer):
                    return
                self._count("requests_served")
                served += 1
                if self._draining:
                    return  # lame duck: current request answered, now close
                if (request.headers.get("Connection") or "").lower() == "close":
                    return
                if served == 1 and self.idle_timeout is not None:
                    # Between requests the connection is idle; bound the
                    # wait for the next one by the (shorter) idle timeout.
                    # Set once: every settimeout() is an ioctl.
                    client.settimeout(min(self.io_timeout, self.idle_timeout))
        finally:
            try:
                client.close()
            except OSError:
                pass

    def _send(
        self,
        client: socket.socket,
        response: HttpResponse,
        buffer: bytearray | None = None,
    ) -> bool:
        """Serialize and send with no locks held; False on a dead client.

        Serializes into the caller's reusable per-connection *buffer* (one
        allocation amortized over a keep-alive connection's lifetime) and
        issues a single ``sendall``.
        """
        if buffer is None:
            buffer = bytearray()
        else:
            del buffer[:]
        response.serialize_into(buffer)
        try:
            client.sendall(buffer)
            return True
        except (TimeoutError, ConnectionError, OSError):
            self._count("connection_errors")
            return False
