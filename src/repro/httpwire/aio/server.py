"""Event-loop wire frontend: one thread, one selector, C10K connections.

:class:`AsyncWireServer` is the asyncio twin of
:class:`~repro.httpwire.connbase.ThreadedWireServer`.  Where the threaded
frontend pins one worker thread per connection (capped at ``max_workers``,
so thousands of mostly-idle keep-alive clients exhaust the pool), this
frontend multiplexes every connection onto a single event loop — an idle
keep-alive connection costs one socket and a parked protocol object,
nothing more.

The two frontends share :class:`~repro.httpwire.connbase.WireServerCore`
(counters, ``/.repro/`` admin namespace, request dispatch with its 500
mapping and trace span), so for the same request stream they produce
byte-identical responses — the differential suite in
``tests/test_wire_aio_differential.py`` enforces this.

Threading model
---------------

The event loop runs on a dedicated daemon thread so the public surface —
``start()``, ``stop()``, ``drain()``, ``active_workers()``, the context
manager — stays synchronous and drop-in compatible with the threaded
server; callers never need an event loop of their own.  Cross-thread
control uses ``call_soon_threadsafe`` exclusively.

Handlers are synchronous (:meth:`WireServerCore._respond` and everything
under it).  By default they run inline on the loop thread, which is
correct for the origin's lock-free serving path (volume reads are
epoch-snapshot based precisely so no handler blocks on a contended
lock).  Handlers that *do* block — an origin with journal fsyncs or
access-log flushes — set ``offload_handler=True`` and run on a bounded
thread pool of ``EXECUTOR_WORKERS`` threads instead, keeping the loop
free to shuffle bytes.

Hot-path design
---------------

Each connection is a raw :class:`asyncio.Protocol` feeding a small
owned buffer (:class:`_ConnReader`), not an ``asyncio.StreamReader``:
a whole request is framed from the buffer with one
:mod:`repro.httpmodel.framing` call — the threaded frontend's framer —
instead of a coroutine round-trip per header line, and read timeouts
are enforced by one lazily rescheduled per-connection timer instead of
an ``asyncio.timeout`` context (a timer create/cancel pair) per read.
The timer refreshes its deadline on every received chunk, matching
the threaded stack's per-``recv`` ``settimeout`` semantics.  Together
these keep the event-loop stack at parity with threaded throughput even
at thread-friendly client counts — see
``benchmarks/bench_wire_scaling.py``.

Telemetry adds two loop-specific instruments: a
``wire_async_active_connections`` gauge and a
``wire_eventloop_lag_seconds`` gauge sampled by a heartbeat task (how
late a short sleep fires — the classic event-loop starvation signal).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import socket
import threading

from ...devtools.lockorder import make_lock
from ...httpmodel.framing import HttpParseError, Progress
from ...httpmodel.messages import HttpRequest, HttpResponse, frame_request
from ...telemetry import REGISTRY
from ..connbase import WireServerCore, WireServerStats

__all__ = ["AsyncWireServer"]

#: Handler-offload pool width (``offload_handler=True`` servers only).
EXECUTOR_WORKERS = 32

_TEL_ASYNC_ACTIVE = REGISTRY.gauge(
    "wire_async_active_connections",
    "connections currently multiplexed on async wire servers",
)
_TEL_LOOP_LAG = REGISTRY.gauge(
    "wire_eventloop_lag_seconds",
    "latest sampled event-loop scheduling lag (heartbeat overshoot)",
)


class _ReadTimeout(TimeoutError):
    """Raised into a pending read by the connection watchdog."""


class _ConnReader:
    """One connection's framing buffer, fed by the protocol.

    :meth:`read_request` frames the next request from the buffer with
    :func:`~repro.httpmodel.messages.frame_request` and parks the serve
    task until more bytes, EOF, or an error arrive — one framer call per
    wakeup instead of a coroutine round-trip per header line.  The
    framing progress of the request at the buffer's start is kept here,
    so every call (from the serve task or the inline path) resumes it.
    """

    __slots__ = ("_loop", "_buffer", "_progress", "_eof", "_exc", "_waiter", "_parked")

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._buffer = bytearray()
        self._progress: Progress | None = None
        self._eof = False
        self._exc: BaseException | None = None
        self._waiter: asyncio.Future | None = None
        # True exactly while the serve task is parked inside read_request
        # waiting for bytes — i.e. the buffer starts at a message boundary
        # and the connection protocol may serve complete buffered
        # requests inline (see _WireConnection._serve_inline).
        self._parked = False

    # -- protocol side -----------------------------------------------------

    def feed_eof(self) -> None:
        self._eof = True
        self._wake()

    def set_exception(self, exc: BaseException) -> None:
        self._exc = exc
        self._wake()

    def _wake(self) -> None:
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    async def _wait(self) -> None:
        self._waiter = self._loop.create_future()
        try:
            await self._waiter
        finally:
            self._waiter = None

    # -- reader side -------------------------------------------------------

    def frame(self) -> HttpRequest | None:
        """Frame the request at the buffer's start and drop its bytes, or
        None while it is incomplete; raises :class:`HttpParseError`."""
        request, end = frame_request(self._buffer, self._progress)
        if request is None:
            if self._progress is None:
                self._progress = Progress()
            return None
        del self._buffer[:end]
        self._progress = None
        return request

    async def read_request(self) -> HttpRequest:
        """The next request; the threaded loop's ``recv_framed`` contract."""
        while True:
            request = self.frame()
            if request is not None:
                return request
            if self._exc is not None:
                raise self._exc
            if self._eof:
                if not self._buffer:
                    raise EOFError("connection closed before message start")
                raise HttpParseError("connection closed inside a message")
            self._parked = True
            try:
                await self._wait()
            finally:
                self._parked = False


class _WireConnection(asyncio.BufferedProtocol):
    """One client connection: transport callbacks + watchdog state.

    A ``BufferedProtocol``: the transport recvs straight into the
    server's shared receive buffer (``get_buffer``/``buffer_updated``
    run back-to-back on the loop thread, so one buffer serves every
    connection) instead of allocating a fresh 256 KiB bytes object per
    recv — at high request rates that allocation is an mmap/munmap pair
    per request.
    """

    __slots__ = (
        "server",
        "transport",
        "reader",
        "task",
        "served",
        "reading",
        "read_timeout",
        "deadline",
        "paused",
        "_timer",
        "_unpause_waiter",
        "_tracked",
        "_out",
    )

    def __init__(self, server: "AsyncWireServer") -> None:
        self.server = server
        self.transport: asyncio.Transport | None = None
        self.reader: _ConnReader | None = None
        self.task: asyncio.Task | None = None
        self.served = 0
        self.reading = False
        self.read_timeout = server.io_timeout
        self.deadline = 0.0
        self.paused = False
        self._timer: asyncio.TimerHandle | None = None
        self._unpause_waiter: asyncio.Future | None = None
        self._tracked = False
        self._out = bytearray()  # inline fast path's reusable send buffer

    # -- transport callbacks -----------------------------------------------

    def connection_made(self, transport) -> None:
        server = self.server
        loop = server._loop
        assert loop is not None
        if not server._running:
            # Accepted in the instant between drain() and the listener
            # actually closing: refuse without counting.
            transport.abort()
            return
        if len(server._conn_tasks) >= server.max_connections:
            transport.abort()
            return
        self.transport = transport
        self.reader = _ConnReader(loop)
        self._tracked = True
        _TEL_ASYNC_ACTIVE.inc()
        server._count("connections_accepted")
        self.deadline = loop.time() + server.io_timeout
        self._timer = loop.call_later(server.io_timeout, self._on_timer)
        self.task = loop.create_task(server._serve_guard(self))
        server._conn_tasks.add(self.task)
        self.task.add_done_callback(server._conn_tasks.discard)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.server._recv_view

    def buffer_updated(self, nbytes: int) -> None:
        reader = self.reader
        assert reader is not None
        if self.reading:
            # Per-recv deadline refresh, mirroring the threaded stack's
            # socket ``settimeout`` (which bounds silence, not messages).
            assert self.server._loop is not None
            self.deadline = self.server._loop.time() + self.read_timeout
        reader._buffer += self.server._recv_view[:nbytes]
        if (
            reader._parked
            and self.server._executor is None
            and not self.paused
        ):
            # The serve task is parked at a message boundary and handlers
            # run inline on this thread anyway: dispatch complete
            # buffered requests right here, skipping the future/task
            # wakeup per request.  Malformed bytes and backpressure fall
            # through to the serve task with identical semantics.
            self._serve_inline()
            return
        reader._wake()

    def _serve_inline(self) -> None:
        """Serve complete buffered requests on the hot path.

        Only runs while the serve task is parked inside ``read_request``
        — the buffer provably starts at a message boundary, and nothing
        can resume the task while this (single-threaded) callback runs.
        Every deferral below wakes the task instead, whose slow path
        owns all error semantics, so the two paths stay byte-identical.
        """
        server = self.server
        reader = self.reader
        transport = self.transport
        assert reader is not None and transport is not None
        buffer = reader._buffer
        if not server._running or transport.is_closing():
            # Mirrors the serve loop's top-of-loop running check:
            # draining/stopped connections close without reading more.
            # Checked once, not per request: this callback never yields,
            # so no drain/stop can land mid-loop, and every close below
            # is followed by a return.
            transport.close()
            return
        while True:
            try:
                request = reader.frame()
            except HttpParseError:
                reader._wake()  # the slow path re-frames and answers 400
                return
            if request is None:
                return  # partial request: stay parked, watchdog armed
            response = server._respond(request)
            out = self._out
            del out[:]
            response.serialize_into(out)
            # Passing the reusable buffer itself is safe: the selector
            # transport either sends it in full right away or copies the
            # unsent remainder into its own buffer before returning.
            transport.write(out)
            server._count("requests_served")
            self.served += 1
            if server._draining:
                transport.close()  # lame duck: answered, now close
                return
            if (request.headers.get("Connection") or "").lower() == "close":
                transport.close()
                return
            # Move the parked read onto the idle clock now that >=1
            # request is served.  Without an idle timeout the clock is
            # already right: buffer_updated refreshed the io_timeout
            # deadline when these bytes arrived.
            if server.idle_timeout is not None:
                self.begin_read(min(server.io_timeout, server.idle_timeout))
            if self.paused:
                # Write backpressure: let the serve task's _send wait
                # for the transport to unclog before reading on.
                if buffer:
                    reader._wake()
                return
            if not buffer:
                return  # all buffered requests served: stay parked

    def eof_received(self) -> bool:
        if self.reader is not None:
            self.reader.feed_eof()
        return False  # close our side too

    def connection_lost(self, exc: Exception | None) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self.reader is not None:
            if exc is not None:
                self.reader.set_exception(exc)
            else:
                self.reader.feed_eof()
        if self.paused:
            self.paused = False
            waiter = self._unpause_waiter
            if waiter is not None and not waiter.done():
                waiter.set_result(None)
        if self._tracked:
            self._tracked = False
            _TEL_ASYNC_ACTIVE.dec()

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        waiter = self._unpause_waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    # -- watchdog ----------------------------------------------------------

    def begin_read(self, timeout: float) -> None:
        loop = self.server._loop
        assert loop is not None
        self.read_timeout = timeout
        self.deadline = loop.time() + timeout
        self.reading = True
        # Lazy timer: only rearm when the armed fire time would overshoot
        # the new deadline (e.g. a shorter idle timeout kicking in).  On a
        # busy keep-alive connection this fires once per timeout period,
        # not once per request.
        if self._timer is not None and self._timer.when() > self.deadline + 1e-3:
            self._timer.cancel()
            self._timer = loop.call_later(timeout, self._on_timer)

    def end_read(self) -> None:
        self.reading = False

    def _on_timer(self) -> None:
        loop = self.server._loop
        if loop is None or self.transport is None or self.transport.is_closing():
            self._timer = None
            return
        now = loop.time()
        if self.reading and now >= self.deadline:
            self._timer = None
            assert self.reader is not None
            self.reader.set_exception(_ReadTimeout())
            return
        target = self.deadline if self.reading else now + self.server.io_timeout
        self._timer = loop.call_later(max(target - now, 0.01), self._on_timer)

    # -- writing -----------------------------------------------------------

    async def wait_unpaused(self) -> None:
        assert self.server._loop is not None
        while self.paused:
            self._unpause_waiter = self.server._loop.create_future()
            try:
                await self._unpause_waiter
            finally:
                self._unpause_waiter = None

    def close(self) -> None:
        if self.transport is not None and not self.transport.is_closing():
            self.transport.close()


class AsyncWireServer(WireServerCore):
    """Single-threaded event-loop HTTP server, API-compatible with
    :class:`~repro.httpwire.connbase.ThreadedWireServer`."""

    def __init__(
        self,
        address: str = "127.0.0.1",
        port: int = 0,
        *,
        backlog: int = 128,
        io_timeout: float = 30.0,
        idle_timeout: float | None = None,
        max_connections: int = 20000,
        offload_handler: bool = False,
        lag_interval: float = 0.25,
        name: str = "wire-async",
    ):
        if io_timeout <= 0:
            raise ValueError("io_timeout must be positive")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive when set")
        if max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        self.io_timeout = io_timeout
        self.idle_timeout = idle_timeout
        self.max_connections = max_connections
        self.offload_handler = offload_handler
        self.lag_interval = lag_interval
        self.name = name
        self.wire_stats = WireServerStats()
        self._stats_lock = make_lock("AsyncWireServer._stats_lock")
        # Bind synchronously so .address/.port are known at construction,
        # exactly like the threaded frontend.
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((address, port))
        self._listener.listen(backlog)
        self._listener.setblocking(False)
        self.address, self.port = self._listener.getsockname()
        self._running = False
        self._draining = False
        # Shared receive buffer for every connection's recv_into (see
        # _WireConnection.get_buffer); 64 KiB keeps it under the
        # allocator's mmap threshold.
        self._recv_view = memoryview(bytearray(64 * 1024))
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.Server | None = None
        self._shutdown: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._conn_tasks: set[asyncio.Task] = set()
        self._executor: concurrent.futures.ThreadPoolExecutor | None = None
        if offload_handler:
            self._executor = concurrent.futures.ThreadPoolExecutor(
                max_workers=EXECUTOR_WORKERS, thread_name_prefix=f"{name}:handler"
            )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Start the loop thread and begin serving; returns (address, port)."""
        self._running = True
        self._started.clear()
        self._thread = threading.Thread(
            target=self._run_loop, name=f"{self.name}:loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError(f"{self.name}: event loop failed to start")
        return self.address, self.port

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._amain())
        finally:
            # Unblock start() even if _amain failed before serving.
            self._started.set()
            self._loop = None

    async def _amain(self) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._shutdown = asyncio.Event()
        self._server = await loop.create_server(
            lambda: _WireConnection(self), sock=self._listener
        )
        lag_task = asyncio.create_task(self._lag_monitor())
        self._started.set()
        try:
            await self._shutdown.wait()
        finally:
            lag_task.cancel()
            self._server.close()
            for task in list(self._conn_tasks):
                task.cancel()
            await asyncio.gather(*self._conn_tasks, lag_task, return_exceptions=True)
            try:
                await self._server.wait_closed()
            except (OSError, RuntimeError):  # pragma: no cover - teardown race
                pass

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Stop serving, cancel live connections, join the loop thread."""
        self._running = False
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(self._signal_shutdown)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=drain_timeout + 5.0)
            self._thread = None
        else:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._executor is not None:
            self._executor.shutdown(wait=False)

    def _signal_shutdown(self) -> None:
        if self._shutdown is not None:
            self._shutdown.set()

    def drain(self) -> None:
        """Refuse new connections; let in-flight requests finish.

        Same lame-duck semantics as the threaded frontend: the listener
        closes (new connects are refused), every connection finishes the
        request it is currently answering — including the drain POST
        itself — and closes after responding.  Safe to call from any
        thread, including a handler-offload executor thread; idempotent.
        """
        self._draining = True
        self._running = False
        loop = self._loop
        if loop is not None:
            try:
                current = asyncio.get_running_loop()
            except RuntimeError:
                current = None
            if current is loop:
                # Inline handler on the loop thread: close before the
                # drain response goes out, matching the threaded stack's
                # ordering (listener is dead by the time the client reads
                # the drain acknowledgement).
                self._close_server()
                return
            try:
                # Executor/foreign thread: the callback is queued ahead of
                # the handler's resumption, so the listener still closes
                # before the drain response is written.
                loop.call_soon_threadsafe(self._close_server)
                return
            except RuntimeError:
                pass  # loop already closed; fall through to raw close
        try:
            self._listener.close()
        except OSError:
            pass

    def _close_server(self) -> None:
        if self._server is not None:
            self._server.close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def active_workers(self) -> int:
        """Connections currently being served (live serve tasks)."""
        return len(self._conn_tasks)

    # -- event-loop internals ----------------------------------------------

    async def _lag_monitor(self) -> None:
        """Heartbeat: publish how late a short sleep fires on this loop."""
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(self.lag_interval)
            _TEL_LOOP_LAG.set(max(0.0, loop.time() - before - self.lag_interval))

    async def _serve_guard(self, conn: _WireConnection) -> None:
        try:
            await self._serve_connection(conn)
        except asyncio.CancelledError:
            pass  # hard stop() — connection dropped mid-flight by design
        finally:
            conn.close()

    async def _serve_connection(self, conn: _WireConnection) -> None:
        """Per-connection request loop, mirroring the threaded serve loop.

        The control flow — error-to-counter mapping, keep-alive rules,
        drain lame-duck, idle reaping — matches
        ``ThreadedWireServer._serve_connection`` branch for branch.
        """
        reader = conn.reader
        assert reader is not None
        send_buffer = bytearray()
        while self._running:
            # conn.served (not a loop-local) so requests dispatched by
            # the protocol's inline fast path move this connection onto
            # the idle clock too.
            timeout = self.io_timeout
            if conn.served and self.idle_timeout is not None:
                timeout = min(self.io_timeout, self.idle_timeout)
            conn.begin_read(timeout)
            try:
                request = await reader.read_request()
            except EOFError:
                return
            except TimeoutError:
                if conn.served and self.idle_timeout is not None:
                    self._count("idle_reaped")
                else:
                    self._count("idle_timeouts")
                return
            except HttpParseError:
                self._count("bad_requests")
                await self._send(conn, HttpResponse(status=400), send_buffer)
                return
            except (ConnectionError, OSError):
                self._count("connection_errors")
                return
            finally:
                conn.end_read()
            response = await self._respond_async(request)
            if not await self._send(conn, response, send_buffer):
                return
            self._count("requests_served")
            conn.served += 1
            if self._draining:
                return  # lame duck: current request answered, now close
            if (request.headers.get("Connection") or "").lower() == "close":
                return

    async def _respond_async(self, request) -> HttpResponse:
        """Run the shared sync dispatch inline or on the handler pool.

        Inline keeps the fast lock-free origin path on the loop thread
        (one context switch fewer); offload moves blocking handlers —
        journal fsyncs, access-log flushes — onto a bounded executor so
        the loop never stalls.  Each ``_respond`` call runs
        start-to-finish on one thread either way, so the tracer's
        thread-local span context stays coherent.
        """
        if self._executor is not None:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(self._executor, self._respond, request)
        return self._respond(request)

    async def _send(
        self,
        conn: _WireConnection,
        response: HttpResponse,
        buffer: bytearray,
    ) -> bool:
        """Serialize and send; False on a dead or wedged client."""
        del buffer[:]
        response.serialize_into(buffer)
        transport = conn.transport
        if transport is None or transport.is_closing():
            self._count("connection_errors")
            return False
        try:
            transport.write(bytes(buffer))
            if conn.paused:
                # Transport buffer is over the high-water mark: only now
                # pay for a timer to bound the flush.
                async with asyncio.timeout(self.io_timeout):
                    await conn.wait_unpaused()
            if transport.is_closing():
                self._count("connection_errors")
                return False
            return True
        except (TimeoutError, ConnectionError, OSError):
            self._count("connection_errors")
            return False
