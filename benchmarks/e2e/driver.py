"""The benchmark's own load driver: closed and open loops, due-time correct.

One generator process, one thread per keep-alive connection, built on
the public :class:`repro.httpwire.netclient.HttpConnection`.  The
request stream is generated up front from the seed (:mod:`inputs`); a
pass replays it, so every pass of a run offers identical work and the
per-pass values are repeated measurements of one thing.

Open-loop latency is ``completion - due``: a request that could not be
sent on time because its connection was still busy carries that wait,
which ``completion - send`` would hide.  How late the generator itself
ran is reported separately as *lag* (``send - due``).

Responses are kept and checked *after* the pass, outside the timed
region, so the generator's own work between two requests is a send, a
parse and two clock reads.
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass, field

from repro.httpmodel.headers import Headers
from repro.httpmodel.messages import HttpRequest, HttpResponse
from repro.httpwire.netclient import HttpConnection

from inputs import RequestSpec

__all__ = ["Exchange", "PassResult", "LoadDriver"]

# Everything a dead, slow or garbling peer can raise out of an exchange.
_EXCHANGE_ERRORS = (EOFError, OSError, ValueError)

#: An open-loop pass starts this long after its threads, so both are
#: already waiting when the first arrival falls due.
_OPEN_LOOP_LEAD = 0.02

#: No pass takes more than a few seconds; one that is still running after
#: this long is wedged, and the run fails instead of hanging.
_PASS_DEADLINE = 150.0


@dataclass(slots=True)
class Exchange:
    """One request as the generator saw it."""

    spec: RequestSpec
    conditional_sent: bool
    response: HttpResponse | None  # None: transport or parse failure
    latency: float  # seconds; from send (closed loop) or from due (open loop)
    # Open loop only.  wait: how long after its due time the request went
    # out (its connection was busy, or the generator was late).  lag: the
    # generator's own share of that, measured from the moment the request
    # both was due and had a free connection.
    wait: float = 0.0
    lag: float = 0.0


@dataclass(slots=True)
class PassResult:
    """Everything one pass produced, per connection in send order."""

    exchanges: list[Exchange] = field(default_factory=list)
    duration: float = 0.0  # first send (or first due time) to last completion
    generator_cpu_s: float = 0.0

    @property
    def completed(self) -> int:
        return sum(1 for exchange in self.exchanges if exchange.response is not None)

    @property
    def latencies_ms(self) -> list[float]:
        return [x.latency * 1000.0 for x in self.exchanges if x.response is not None]

    @property
    def lags_ms(self) -> list[float]:
        return [x.lag * 1000.0 for x in self.exchanges]

    def backlog_growing(self, slack_ms: float = 5.0) -> bool:
        """Whether requests queued up behind their due times as the pass
        went on: the last quarter's median wait exceeds the first
        quarter's by more than *slack_ms*."""
        waits = [x.wait * 1000.0 for x in self.exchanges]
        quarter = len(waits) // 4
        if quarter == 0:
            return False
        first = sorted(waits[:quarter])[quarter // 2]
        last = sorted(waits[-quarter:])[quarter // 2]
        return last > first + slack_ms


class LoadDriver:
    """Replays per-connection request streams against one address."""

    def __init__(
        self,
        port: int,
        streams: list[list[RequestSpec]],
        *,
        absolute_targets: bool = False,
        address: str = "127.0.0.1",
        timeout: float = 10.0,
        tracer=None,
    ):
        self.address = address
        self.port = port
        self.streams = streams
        self.absolute_targets = absolute_targets
        self.tracer = tracer
        self._connections = [
            HttpConnection(address, port, timeout=timeout) for _ in streams
        ]
        # IMS memory per connection: url -> Last-Modified as the server sent it.
        self._last_modified: list[dict[str, str]] = [{} for _ in streams]
        self._requests: list[list[tuple[HttpRequest, bool]]] | None = None

    def close(self) -> None:
        for connection in self._connections:
            connection.close()

    def __enter__(self) -> "LoadDriver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request construction ----------------------------------------------

    def build_request(self, index: int, spec: RequestSpec) -> tuple[HttpRequest, bool]:
        """The HTTP request for *spec* on connection *index*, and whether
        it went out conditional."""
        host, _, path = spec.url.partition("/")
        target = f"http://{spec.url}" if self.absolute_targets else "/" + path
        request = HttpRequest(method="GET", target=target, headers=Headers())
        request.headers.set("Host", host)
        # Distinct proxy identities, so a load balancer's sticky pinning runs.
        request.headers.set("X-Proxy-Name", f"e2e-proxy-{index}")
        if spec.piggy_filter is not None:
            request.headers.set("TE", "chunked")
            request.headers.set("Piggy-filter", spec.piggy_filter)
        conditional = False
        if spec.conditional:
            seen = self._last_modified[index].get(spec.url)
            if seen is not None:
                request.headers.set("If-Modified-Since", seen)
                conditional = True
        return request, conditional

    def _note(self, index: int, spec: RequestSpec, response: HttpResponse) -> None:
        seen = response.headers.get("Last-Modified")
        if seen is not None:
            self._last_modified[index][spec.url] = seen

    # -- passes --------------------------------------------------------------

    def warm_up(self) -> PassResult:
        """Replay every stream once, unconditionally, learning each URL's
        Last-Modified; afterwards the pass's requests are fixed."""
        self._requests = [
            [self.build_request(index, spec) for spec in stream]
            for index, stream in enumerate(self.streams)
        ]
        result = self._run(None, learn=True)
        self._requests = [
            [self.build_request(index, spec) for spec in stream]
            for index, stream in enumerate(self.streams)
        ]
        return result

    def run_pass(self, schedules: list[list[float]] | None = None) -> PassResult:
        """One timed pass: closed loop, or open loop on *schedules*
        (per-connection arrival offsets in seconds)."""
        if self._requests is None:
            raise RuntimeError("warm_up() must run before a timed pass")
        return self._run(schedules, learn=False)

    def _run(self, schedules, *, learn: bool) -> PassResult:
        count = len(self.streams)
        outcomes: list[list[Exchange]] = [[] for _ in range(count)]
        ends = [0.0] * count
        barrier = threading.Barrier(count + 1)
        start_box = [0.0]
        # Requests are timed on the connection threads; their spans hang
        # under whatever span the caller has open around this pass.
        parent = self.tracer.current() if self.tracer is not None else None

        def worker(index: int) -> None:
            barrier.wait()
            start = start_box[0]
            schedule = schedules[index] if schedules is not None else None
            ends[index] = self._drive(index, schedule, start, outcomes[index], learn,
                                      parent)

        threads = [
            threading.Thread(target=worker, args=(index,), name=f"e2e-conn-{index}",
                             daemon=True)
            for index in range(count)
        ]
        # A full collection over a pass's worth of kept responses stalls
        # this process for tens of milliseconds; under the open loop one
        # such stall makes dozens of arrivals late.  Nothing a pass
        # allocates is garbage before the pass is checked anyway.
        collecting = gc.isenabled()
        gc.disable()
        try:
            for thread in threads:
                thread.start()
            cpu_before = time.process_time()
            start_box[0] = time.perf_counter() + (_OPEN_LOOP_LEAD if schedules else 0.0)
            barrier.wait()
            deadline = time.monotonic() + _PASS_DEADLINE
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if any(thread.is_alive() for thread in threads):
                raise RuntimeError(f"a pass did not finish within {_PASS_DEADLINE:g} s")
        finally:
            if collecting:
                gc.enable()
        result = PassResult()
        result.generator_cpu_s = time.process_time() - cpu_before
        result.duration = max(ends) - start_box[0]
        for per_connection in outcomes:
            result.exchanges.extend(per_connection)
        return result

    def _drive(self, index: int, schedule, start: float, out: list[Exchange],
               learn: bool, parent: int | None) -> float:
        connection = self._connections[index]
        clock = time.perf_counter
        tracer = self.tracer
        finished = start
        assert self._requests is not None
        for position, (request, conditional) in enumerate(self._requests[index]):
            spec = self.streams[index][position]
            wait = lag = 0.0
            if schedule is not None:
                due = start + schedule[position]
                sendable = max(due, finished)  # due, and the connection is free
                early = due - clock()
                if early > 0:
                    time.sleep(early)
                begun = clock()
                wait = max(0.0, begun - due)
                lag = max(0.0, begun - sendable)
                origin = due
            else:
                begun = origin = clock()
            try:
                response = connection.request(request)
            except _EXCHANGE_ERRORS:
                connection.close()
                response = None
            finished = clock()
            if tracer is not None:
                tracer.record("client.request", begun, finished, parent=parent)
            if response is not None and learn:
                self._note(index, spec, response)
            out.append(Exchange(spec, conditional, response,
                                finished - origin, wait, lag))
        return finished
