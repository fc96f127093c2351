"""Multi-client concurrent load generator for the wire stack.

Drives a :class:`~repro.httpwire.netserver.PiggybackHttpServer` or
:class:`~repro.httpwire.netproxy.PiggybackHttpProxy` with many concurrent
clients and measures what the paper cares about at proxy scale: latency
percentiles (p50/p95/p99), throughput, and piggyback-byte overhead.

Two arrival models:

* **closed-loop** — each client issues its next request as soon as the
  previous response lands (classic benchmark loop; measures capacity);
* **open-loop** — requests fire on a fixed global schedule at a target
  rate regardless of completions (measures behavior under offered load,
  where queueing delay is visible instead of hidden by backpressure).

Runs are deterministic for a given seed: URL choice, IMS mix, and the
open-loop schedule all derive from seeded RNGs.  A ``validate`` hook
checks every response (status + body) so stress tests can assert *zero
corrupted responses*, not just zero transport errors.
"""

from __future__ import annotations

import random
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from ..devtools.lockorder import make_lock
from ..httpmodel.headers import Headers
from ..httpmodel.messages import HttpRequest, HttpResponse
from ..httpmodel.piggy_codec import P_VOLUME_HEADER
from ..telemetry import REGISTRY, TRACE_HEADER, TRACER, MetricsRegistry, PeriodicFlusher
from .netclient import HttpConnection

__all__ = [
    "LoadConfig",
    "LoadReport",
    "ERROR_KINDS",
    "classify_error",
    "percentile",
    "run_load",
]

Validator = Callable[[str, HttpResponse], bool]

# Global mirrors: the run-local registry below is the source of truth for
# the report; these make client-side latency/error families visible on the
# same process-wide snapshot as the server-side wire_* instruments.
_TEL_CLIENT_REQUESTS = REGISTRY.counter(
    "client_requests_total", "load-generator requests issued"
)
_TEL_CLIENT_ERRORS = REGISTRY.counter(
    "client_errors_total", "load-generator requests that failed at the transport"
)
_TEL_CLIENT_REQUEST_SECONDS = REGISTRY.histogram(
    "client_request_seconds", "load-generator end-to-end request latency"
)

# Per-kind failure mirrors backing the report's errors breakdown.
_TEL_ERR_CONNECT = REGISTRY.counter(
    "client_errors_connect_total", "load-generator failures establishing a connection"
)
_TEL_ERR_TIMEOUT = REGISTRY.counter(
    "client_errors_timeout_total", "load-generator requests that timed out"
)
_TEL_ERR_RESET = REGISTRY.counter(
    "client_errors_reset_total", "load-generator connections reset or closed mid-exchange"
)
_TEL_ERR_CORRUPT = REGISTRY.counter(
    "client_errors_corrupt_total", "load-generator responses that failed to parse"
)

# Breakdown key order is also the rendering order in LoadReport.format().
ERROR_KINDS = ("connect", "timeout", "reset", "corrupt")

_TEL_ERROR_KIND = {
    "connect": _TEL_ERR_CONNECT,
    "timeout": _TEL_ERR_TIMEOUT,
    "reset": _TEL_ERR_RESET,
    "corrupt": _TEL_ERR_CORRUPT,
}


def classify_error(exc: BaseException, fresh: bool) -> str:
    """Map a transport exception to one errors-breakdown kind.

    *fresh* says whether the exchange began without an established
    connection — a generic OSError then means the connect itself failed
    rather than an established connection dying under us.
    """
    if isinstance(exc, ConnectionRefusedError):
        return "connect"
    if isinstance(exc, TimeoutError):  # also asyncio.TimeoutError on 3.11+
        return "timeout"
    if isinstance(exc, (EOFError, ConnectionError, BrokenPipeError)):
        return "reset"
    if isinstance(exc, OSError):
        return "connect" if fresh else "reset"
    if isinstance(exc, ValueError):  # HttpParseError and friends
        return "corrupt"
    return "reset"


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending sequence (q in [0,100])."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (q / 100.0) * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = rank - low
    return sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction


@dataclass(frozen=True, slots=True)
class LoadConfig:
    """One load run's parameters."""

    clients: int = 8
    requests_per_client: int = 50
    mode: str = "closed"  # "closed" or "open"
    rate: float = 200.0  # open-loop aggregate arrivals/second
    warmup_requests: int = 0  # per client, excluded from latency stats
    timeout: float = 10.0
    seed: int = 0
    # Fraction of requests sent conditional (If-Modified-Since) once the
    # client has seen a Last-Modified for that URL — the paper's IMS mix.
    ims_fraction: float = 0.0
    piggy_filter: str | None = None  # sent as a Piggy-filter header
    host_header: str | None = None
    absolute_targets: bool = False  # proxy-style absolute-URI targets
    # Keep-alive axis: True reuses one persistent connection per client;
    # False opens a fresh connection per request and sends
    # ``Connection: close`` — the HTTP/1.0-style worst case.
    keepalive: bool = True

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.requests_per_client < 1:
            raise ValueError("requests_per_client must be >= 1")
        if self.mode not in ("closed", "open"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "open" and self.rate <= 0:
            raise ValueError("open-loop mode needs a positive rate")
        if not 0.0 <= self.ims_fraction <= 1.0:
            raise ValueError("ims_fraction must be in [0, 1]")
        if self.warmup_requests >= self.requests_per_client:
            raise ValueError("warmup_requests must be < requests_per_client")


@dataclass(slots=True)
class LoadReport:
    """Aggregated outcome of one load run."""

    mode: str = "closed"
    clients: int = 0
    requests: int = 0
    measured_requests: int = 0
    warmup_requests: int = 0
    errors: int = 0
    corrupted: int = 0
    duration: float = 0.0
    bytes_received: int = 0
    piggyback_messages: int = 0
    piggyback_bytes: int = 0
    status_counts: dict[int, int] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)
    error_breakdown: dict[str, int] = field(default_factory=dict)
    # Offered load for open-loop runs (None for closed loop); rendered
    # against the achieved throughput so saturation is visible.
    target_rps: float | None = None

    @property
    def throughput_rps(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.requests / self.duration

    def latency_percentile(self, q: float) -> float:
        return percentile(sorted(self.latencies), q)

    @property
    def p50(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p95(self) -> float:
        return self.latency_percentile(95.0)

    @property
    def p99(self) -> float:
        return self.latency_percentile(99.0)

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def format(self) -> str:
        """Human-readable multi-line summary (used by ``repro loadtest``)."""
        lines = [
            f"mode                 {self.mode}",
            f"clients              {self.clients}",
            f"requests             {self.requests} "
            f"(measured {self.measured_requests}, warmup {self.warmup_requests})",
            f"errors               {self.errors}{self._format_error_breakdown()}",
            f"corrupted            {self.corrupted}",
            f"duration             {self.duration:.3f}s",
            f"throughput           {self.throughput_rps:.1f} req/s",
            *self._format_offered_load(),
            f"latency p50          {self.p50 * 1000.0:.2f} ms",
            f"latency p95          {self.p95 * 1000.0:.2f} ms",
            f"latency p99          {self.p99 * 1000.0:.2f} ms",
            f"latency mean         {self.mean_latency * 1000.0:.2f} ms",
            f"bytes received       {self.bytes_received}",
            f"piggyback messages   {self.piggyback_messages}",
            f"piggyback bytes      {self.piggyback_bytes}",
        ]
        statuses = ", ".join(
            f"{status}:{count}" for status, count in sorted(self.status_counts.items())
        )
        lines.append(f"status counts        {statuses or 'none'}")
        return "\n".join(lines)

    def _format_error_breakdown(self) -> str:
        if not self.error_breakdown:
            return ""
        parts = ", ".join(
            f"{kind} {self.error_breakdown.get(kind, 0)}" for kind in ERROR_KINDS
        )
        return f" ({parts})"

    def _format_offered_load(self) -> list[str]:
        """Open-loop only: achieved vs target RPS, saturation at a glance."""
        if self.target_rps is None:
            return []
        achieved = self.throughput_rps
        ratio = achieved / self.target_rps * 100.0 if self.target_rps > 0 else 0.0
        return [
            f"offered load         target {self.target_rps:.1f} req/s, "
            f"achieved {achieved:.1f} req/s ({ratio:.1f}%)"
        ]


class _Accumulator:
    """Thread-safe collector backed by a run-local telemetry registry.

    The registry (always enabled, independent of the global gate) is the
    single source of truth for the run's aggregates; :meth:`report`
    projects it into the :class:`LoadReport` shape, whose ``format()``
    output stays byte-identical to the pre-telemetry implementation —
    the latency histogram keeps raw samples so percentiles are exact,
    not bucket-estimated.  Only the per-status breakdown stays a plain
    dict (instruments are unlabelled by design).
    """

    def __init__(self) -> None:
        self.lock = make_lock("loadgen._Accumulator.lock")
        self.registry = MetricsRegistry(enabled=True)
        self._requests = self.registry.counter(
            "loadgen_requests_total", "requests issued this run"
        )
        self._measured = self.registry.counter(
            "loadgen_measured_requests_total", "requests counted in latency stats"
        )
        self._warmup = self.registry.counter(
            "loadgen_warmup_requests_total", "warmup requests excluded from stats"
        )
        self._errors = self.registry.counter(
            "loadgen_errors_total", "requests that failed at the transport"
        )
        self._errors_connect = self.registry.counter(
            "loadgen_errors_connect_total", "failures establishing a connection"
        )
        self._errors_timeout = self.registry.counter(
            "loadgen_errors_timeout_total", "requests that timed out"
        )
        self._errors_reset = self.registry.counter(
            "loadgen_errors_reset_total", "connections reset or closed mid-exchange"
        )
        self._errors_corrupt = self.registry.counter(
            "loadgen_errors_corrupt_total", "responses that failed to parse"
        )
        self._errors_by_kind = {
            "connect": self._errors_connect,
            "timeout": self._errors_timeout,
            "reset": self._errors_reset,
            "corrupt": self._errors_corrupt,
        }
        self._corrupted = self.registry.counter(
            "loadgen_corrupted_total", "responses failing the validate hook"
        )
        self._bytes = self.registry.counter(
            "loadgen_bytes_received_total", "response body bytes received"
        )
        self._piggyback_messages = self.registry.counter(
            "loadgen_piggyback_messages_total", "responses carrying a P-volume trailer"
        )
        self._piggyback_bytes = self.registry.counter(
            "loadgen_piggyback_bytes_total", "P-volume trailer bytes received"
        )
        self._latency = self.registry.histogram(
            "loadgen_latency_seconds",
            "measured request latency",
            keep_samples=True,
        )
        self._status_counts: dict[int, int] = {}

    def record(
        self,
        latency: float,
        response: HttpResponse | None,
        *,
        measured: bool,
        corrupted: bool,
        error_kind: str | None = None,
    ) -> None:
        self._requests.inc()
        if measured:
            self._measured.inc()
        else:
            self._warmup.inc()
        if response is None:
            self._errors.inc()
            kind_counter = self._errors_by_kind.get(error_kind or "")
            if kind_counter is not None:
                kind_counter.inc()
            return
        with self.lock:
            self._status_counts[response.status] = (
                self._status_counts.get(response.status, 0) + 1
            )
        self._bytes.inc(len(response.body))
        trailer = response.trailers.get(P_VOLUME_HEADER)
        if trailer is not None:
            self._piggyback_messages.inc()
            self._piggyback_bytes.inc(len(trailer.encode("latin-1")))
        if corrupted:
            self._corrupted.inc()
        if measured:
            self._latency.observe(latency)

    def report(self) -> LoadReport:
        """Project the registry into the classic LoadReport shape."""
        with self.lock:
            status_counts = dict(self._status_counts)
        return LoadReport(
            requests=self._requests.value,
            measured_requests=self._measured.value,
            warmup_requests=self._warmup.value,
            errors=self._errors.value,
            corrupted=self._corrupted.value,
            bytes_received=self._bytes.value,
            piggyback_messages=self._piggyback_messages.value,
            piggyback_bytes=self._piggyback_bytes.value,
            status_counts=status_counts,
            latencies=list(self._latency.samples),
            error_breakdown={
                kind: counter.value
                for kind, counter in self._errors_by_kind.items()
            },
        )


class _Client:
    """One load-generating client: seeded RNG, IMS memory, persistence."""

    def __init__(
        self,
        index: int,
        address: str,
        port: int,
        urls: Sequence[str],
        config: LoadConfig,
        accumulator: _Accumulator,
        validate: Validator | None,
        schedule: Sequence[float] | None,
        start_time: float,
    ):
        self.index = index
        self.address = address
        self.port = port
        self.config = config
        self.accumulator = accumulator
        self.validate = validate
        self.schedule = schedule  # this client's open-loop arrival offsets
        self.start_time = start_time
        self.urls = urls
        self.rng = random.Random((config.seed << 16) ^ index)
        self.last_modified_seen: dict[str, str] = {}

    def next_url(self) -> str:
        return self.urls[self.rng.randrange(len(self.urls))]

    def build_request(self, url: str) -> HttpRequest:
        """The request for *url*.  RNG draw order is part of a seeded
        run's contract: one draw for the URL, at most one for the IMS coin."""
        host, _, path = url.partition("/")
        target = f"http://{url}" if self.config.absolute_targets else "/" + path
        request = HttpRequest(method="GET", target=target, headers=Headers())
        request.headers.set("Host", self.config.host_header or host)
        request.headers.set("X-Proxy-Name", f"loadgen-{self.index}")
        if self.config.piggy_filter is not None:
            request.headers.set("TE", "chunked")
            request.headers.set("Piggy-filter", self.config.piggy_filter)
        if not self.config.keepalive:
            request.headers.set("Connection", "close")
        ims = self.last_modified_seen.get(url)
        if ims is not None and self.rng.random() < self.config.ims_fraction:
            request.headers.set("If-Modified-Since", ims)
        return request

    def note_response(self, url: str, response: HttpResponse) -> None:
        lm = response.headers.get("Last-Modified")
        if lm is not None:
            self.last_modified_seen[url] = lm

    def run(self) -> None:
        connection = HttpConnection(self.address, self.port, timeout=self.config.timeout)
        try:
            for sequence in range(self.config.requests_per_client):
                if self.schedule is not None:
                    due = self.start_time + self.schedule[sequence]
                    delay = due - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                if not self.config.keepalive:
                    # Fresh connection per request; the server closes its
                    # side after answering a Connection: close request.
                    connection.close()
                url = self.next_url()
                request = self.build_request(url)
                measured = sequence >= self.config.warmup_requests
                _TEL_CLIENT_REQUESTS.inc()
                with TRACER.span("client.request") as span:
                    if span.header is not None:
                        request.headers.set(TRACE_HEADER, span.header)
                        span.tag("url", url)
                    fresh = not connection.connected
                    begin = time.perf_counter()
                    try:
                        response = connection.request(request)
                    except (
                        EOFError, TimeoutError, ConnectionError, OSError, ValueError
                    ) as exc:
                        connection.close()
                        kind = classify_error(exc, fresh)
                        _TEL_CLIENT_ERRORS.inc()
                        _TEL_ERROR_KIND[kind].inc()
                        self.accumulator.record(
                            0.0, None, measured=measured, corrupted=False,
                            error_kind=kind,
                        )
                        continue
                    latency = time.perf_counter() - begin
                _TEL_CLIENT_REQUEST_SECONDS.observe(latency)
                self.note_response(url, response)
                corrupted = bool(self.validate) and not self.validate(url, response)
                self.accumulator.record(
                    latency, response, measured=measured, corrupted=corrupted
                )
        finally:
            connection.close()


def _open_loop_schedules(config: LoadConfig) -> list[list[float]]:
    """Deterministic per-client arrival offsets hitting the target rate.

    Arrivals are Poisson (exponential gaps) across the aggregate stream,
    dealt round-robin to clients, mirroring independent users behind one
    offered-load process.
    """
    rng = random.Random(config.seed)
    total = config.clients * config.requests_per_client
    arrivals: list[float] = []
    now = 0.0
    for _ in range(total):
        now += rng.expovariate(config.rate)
        arrivals.append(now)
    schedules: list[list[float]] = [[] for _ in range(config.clients)]
    for position, offset in enumerate(arrivals):
        schedules[position % config.clients].append(offset)
    return schedules


def run_load(
    address: str,
    port: int,
    urls: Sequence[str],
    config: LoadConfig = LoadConfig(),
    validate: Validator | None = None,
    *,
    flush_path: str | None = None,
    flush_interval: float = 0.5,
) -> LoadReport:
    """Run one load generation pass and return the merged report.

    With *flush_path* set, a :class:`PeriodicFlusher` appends a JSONL
    snapshot of the run-local registry plus the global registry every
    *flush_interval* seconds, turning the run into a time series.
    """
    if not urls:
        raise ValueError("need at least one URL to request")
    accumulator = _Accumulator()
    flusher = (
        PeriodicFlusher(
            [accumulator.registry, REGISTRY], flush_path, interval=flush_interval
        )
        if flush_path is not None
        else None
    )
    schedules = _open_loop_schedules(config) if config.mode == "open" else None
    start_time = time.monotonic()
    clients = [
        _Client(
            index,
            address,
            port,
            urls,
            config,
            accumulator,
            validate,
            schedules[index] if schedules is not None else None,
            start_time,
        )
        for index in range(config.clients)
    ]
    begin = time.perf_counter()
    if flusher is not None:
        flusher.start()
    threads = [
        threading.Thread(target=client.run, name=f"loadgen-{client.index}", daemon=True)
        for client in clients
    ]
    for thread in threads:
        thread.start()
    # Bounded drain: a wedged client fails the run instead of hanging it.
    # Every request is bounded by the connection timeout, so the whole
    # client is bounded by its request budget (plus generous slack).
    deadline = time.monotonic() + max(
        30.0, config.requests_per_client * (config.timeout + 1.0)
    )
    try:
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        if flusher is not None:
            flusher.stop()
    report = accumulator.report()
    report.mode = config.mode
    report.clients = config.clients
    report.duration = time.perf_counter() - begin
    if config.mode == "open":
        report.target_rps = config.rate
    return report
