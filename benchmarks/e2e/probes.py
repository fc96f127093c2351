"""In-process layer probes for the traced run.

A probe feeds the workload's own request stream to one layer's public
function and times every call from outside: two clock reads around the
call, the span stored afterwards.  The reported cost is the *median* call
(a preempted call is an outlier, not the layer's cost), in microseconds.

Probes run in the benchmark's process against objects the benchmark
builds the way the serving path builds them.  They never feed an
end-to-end metric.  Where the benchmark cannot nest a child span from
outside (``server.handle`` contains the volume lookup, the filter and
the serialiser), the child is probed independently and the README says
which to subtract.
"""

from __future__ import annotations

import io
import socket
import statistics
import tempfile
import threading
import time
from pathlib import Path

from inputs import RequestSpec

__all__ = ["wire_layer_probes", "offline_layer_probes", "frontend_probes"]

#: Calls per probe: enough for a stable median, small enough that all
#: probes together take a few seconds.
PROBE_CALLS = 1500
_MIN_CLASS_SAMPLES = 30


def _time_each(tracer, name: str, func, argsets, before=None) -> list[float]:
    """Call ``func(*args)`` for every args tuple, timing each call; store
    one span per call; return the per-call durations in seconds."""
    clock = time.perf_counter
    stamps = []
    for args in argsets:
        if before is not None:
            before()
        begin = clock()
        func(*args)
        stamps.append((begin, clock()))
    # One parent span over the extent of the calls: its self time is the
    # probe's own overhead between calls.
    parent = tracer.record(f"probe:{name}", stamps[0][0], stamps[-1][1])
    for begin, end in stamps:
        tracer.record(name, begin, end, parent=parent)
    return [end - begin for begin, end in stamps]


def _median_us(durations: list[float]) -> float:
    return statistics.median(durations) * 1e6


def _proxy_request(spec: RequestSpec, timestamp: float):
    from repro.core.protocol import ProxyRequest
    from repro.httpmodel.piggy_codec import parse_piggy_filter

    return ProxyRequest(
        url=spec.url,
        timestamp=timestamp,
        piggyback_filter=parse_piggy_filter(spec.piggy_filter),
        source="e2e-probe",
    )


def _build_engine(kind: str, workdir: Path):
    """(engine, closer) configured like the workload's origin."""
    import inputs

    if kind == "static":
        engine, _ = inputs.static_origin_engine()
        return engine, lambda: None
    from repro.server.durability import DurableState
    from repro.server.resources import ResourceStore
    from repro.server.server import PiggybackServer
    from repro.volumes.directory import DirectoryVolumeConfig, DirectoryVolumeStore

    resources = ResourceStore.from_site(inputs.churn_site())
    state = DurableState(
        workdir / "probe-state",
        lambda: DirectoryVolumeStore(DirectoryVolumeConfig(level=1)),
        resources=resources,
        sync=False,
    )
    return PiggybackServer(resources, state.store), state.close


def _handle_probe(tracer, engine, specs) -> tuple[float, float]:
    """(hit µs, miss µs) of ``PiggybackServer.handle``, by cache outcome."""
    cache = engine.piggyback_cache
    requests = [_proxy_request(spec, 1_000_000.0 + i) for i, spec in enumerate(specs)]
    for request in requests:  # warm: sizes known, volume ids allocated
        engine.handle(request)

    hits: list[float] = []
    misses: list[float] = []
    clock = time.perf_counter
    stamps = []
    for request in requests:
        before_hits = cache.stats.hits
        begin = clock()
        engine.handle(request)
        end = clock()
        stamps.append((begin, end, cache.stats.hits > before_hits))
    for begin, end, hit in stamps:
        (hits if hit else misses).append(end - begin)
        tracer.record("server.handle.hit" if hit else "server.handle.miss", begin, end)

    if len(misses) < _MIN_CLASS_SAMPLES:
        # The workload keeps the cache hot; force the miss path.
        misses = _time_each(tracer, "server.handle.miss", engine.handle,
                            [(r,) for r in requests], before=cache.clear)
    if len(hits) < _MIN_CLASS_SAMPLES:
        # The workload never hits; an immediate repeat of the same request
        # finds the volume unmoved, which is the hit path.
        hits = []
        for request in requests:
            engine.handle(request)
            before_hits = cache.stats.hits
            begin = clock()
            engine.handle(request)
            end = clock()
            if cache.stats.hits > before_hits:
                hits.append(end - begin)
                tracer.record("server.handle.hit", begin, end)
    return _median_us(hits or misses), _median_us(misses)


def _stub_upstream(canned: bytes):
    """A canned-bytes upstream: answers every request head with *canned*."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    listener.settimeout(0.2)
    running = threading.Event()
    running.set()

    def serve() -> None:
        while running.is_set():
            try:
                client, _ = listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            client.settimeout(5.0)
            buffered = b""
            try:
                while running.is_set():
                    piece = client.recv(65536)
                    if not piece:
                        break
                    buffered += piece
                    while b"\r\n\r\n" in buffered:
                        _, _, buffered = buffered.partition(b"\r\n\r\n")
                        client.sendall(canned)
            except OSError:
                pass
            finally:
                client.close()

    thread = threading.Thread(target=serve, name="e2e-stub-upstream", daemon=True)
    thread.start()

    def stop() -> None:
        running.clear()
        listener.close()
        thread.join(timeout=5.0)

    return listener.getsockname()[1], stop


def wire_layer_probes(tracer, specs: list[RequestSpec], engine_kind: str,
                      workdir: Path) -> dict[str, float]:
    """Time each wire-side layer's public functions on *specs*.

    *engine_kind* is ``"static"`` (probability volumes that never move)
    or ``"durable"`` (journaled move-to-front directory volumes), the
    engine the workload's origin runs.
    """
    from repro.core.filters import ProxyFilter
    from repro.httpmodel.messages import read_request
    from repro.httpmodel.piggy_codec import format_p_volume, parse_piggy_filter
    from repro.httpwire.netserver import PiggybackHttpServer
    from repro.lb.forward import Forwarder
    from repro.lb.hashring import ConsistentHashRing, partition_key
    from repro.lb.routing import BackendSlot, RoutingTable
    from repro.lb.sticky import StickySessions
    from repro.proxy.proxy import ClientOutcome, PiggybackProxy
    from repro.server.durability.journal import JournalWriter
    from repro.traces.records import LogRecord

    import inputs
    from driver import LoadDriver

    specs = specs[:PROBE_CALLS]
    out: dict[str, float] = {}
    engine, close_engine = _build_engine(engine_kind, workdir)
    try:
        # -- server: the whole of handle(), by cache outcome ----------------
        hit_us, miss_us = _handle_probe(tracer, engine, specs)
        out["server.handle_hit_us"] = hit_us
        out["server.handle_miss_us"] = miss_us

        # -- volumes: the store under the engine ----------------------------
        store = engine.volume_store
        out["volumes.lookup_us"] = _median_us(_time_each(
            tracer, "volumes.snapshot_lookup", store.snapshot_lookup,
            [(spec.url,) for spec in specs]))
        records = [
            LogRecord(timestamp=2_000_000.0 + i, source="e2e-probe", url=spec.url,
                      size=engine.resources.get(spec.url).size, last_modified=0.0)
            for i, spec in enumerate(specs)
        ]
        bumps = 0
        clock = time.perf_counter
        stamps = []
        for record in records:
            before = store.lookup_version(record.url)
            begin = clock()
            store.observe(record)
            stamps.append((begin, clock()))
            if store.lookup_version(record.url) != before:
                bumps += 1
        for begin, end in stamps:
            tracer.record("volumes.observe", begin, end)
        out["volumes.observe_us"] = _median_us([end - begin for begin, end in stamps])
        out["volumes.epoch_bumps_per_request"] = bumps / len(records)

        # -- core: the filter over the volume's candidates ------------------
        applies = []
        messages = []
        for spec in specs:
            snapshot = store.snapshot_lookup(spec.url)
            if snapshot is None:
                continue
            lookup, _ = snapshot
            applies.append((parse_piggy_filter(spec.piggy_filter), lookup.volume_id,
                            lookup.candidates, spec.url))
        durations = []
        for piggy_filter, volume_id, candidates, url in applies:
            begin = clock()
            message = ProxyFilter.apply(piggy_filter, volume_id, candidates, url)
            end = clock()
            durations.append(end - begin)
            tracer.record("core.filter_apply", begin, end)
            if message is not None:
                messages.append(message)
        out["core.filter_apply_us"] = _median_us(durations)

        # -- httpmodel: codecs and message framing --------------------------
        out["httpmodel.piggy_filter_parse_us"] = _median_us(_time_each(
            tracer, "httpmodel.parse_piggy_filter", parse_piggy_filter,
            [(spec.piggy_filter,) for spec in specs]))
        out["httpmodel.p_volume_format_us"] = _median_us(_time_each(
            tracer, "httpmodel.format_p_volume", format_p_volume,
            [(message,) for message in messages]))

        with LoadDriver(0, [specs]) as builder:
            http_requests = [builder.build_request(0, spec)[0] for spec in specs]
        wires = [request.serialize() for request in http_requests]
        out["httpmodel.parse_request_us"] = _median_us(_time_each(
            tracer, "httpmodel.read_request", read_request,
            [(io.BufferedReader(io.BytesIO(wire)),) for wire in wires]))

        app = PiggybackHttpServer(engine, site_host=specs[0].url.partition("/")[0])
        try:
            responses = [app.handle_request(request) for request in http_requests]
        finally:
            app.stop()
        out["httpmodel.serialize_response_us"] = _median_us(_time_each(
            tracer, "httpmodel.serialize_into",
            lambda response: response.serialize_into(bytearray()),
            [(response,) for response in responses]))

        # -- server: one journal append -------------------------------------
        with tempfile.TemporaryDirectory(dir=workdir) as journal_dir:
            journal = JournalWriter(
                Path(journal_dir) / "probe.journal",
                next_seq=1, generation=1, epoch_base=0, sync=False,
            )
            try:
                out["server.journal_append_us"] = _median_us(_time_each(
                    tracer, "server.journal_append", journal.append_observation,
                    [(record,) for record in records]))
            finally:
                journal.close()

        # -- proxy: handle_client_get against the in-process origin ---------
        working_set = {spec.url: engine.resources.get(spec.url).size for spec in specs}
        proxy = PiggybackProxy(
            engine.handle,
            config=inputs.proxy_config(sum(working_set.values()) // 4),
        )
        proxy_hits: list[float] = []
        proxy_misses: list[float] = []
        # Simulated time: 500 requests per second, so a 2 s freshness
        # interval expires entries and both outcomes occur.
        for round_index in range(2):
            for i, spec in enumerate(specs):
                now = 3_000_000.0 + (round_index * len(specs) + i) * 0.002
                begin = clock()
                result = proxy.handle_client_get(spec.url, now)
                end = clock()
                hit = result.outcome is ClientOutcome.CACHE_FRESH
                (proxy_hits if hit else proxy_misses).append(end - begin)
                tracer.record("proxy.handle.hit" if hit else "proxy.handle.miss",
                              begin, end)
        out["proxy.handle_hit_us"] = _median_us(proxy_hits or proxy_misses)
        out["proxy.handle_miss_us"] = _median_us(proxy_misses or proxy_hits)

        # -- lb: the routing decision, then a relay to a stub ---------------
        slots = [BackendSlot(0, 0, "127.0.0.1", 1), BackendSlot(1, 0, "127.0.0.1", 2)]
        table = RoutingTable(2, slots)
        ring = ConsistentHashRing(2)
        sticky = StickySessions()

        def route(url: str, client: str):
            shard = ring.shard_for_key(partition_key(url))
            candidates = table.current().shards[shard]
            slot, _ = sticky.resolve(client, shard, candidates)
            if slot is None:
                slot = candidates[0]
                sticky.pin(client, shard, slot)
            return slot

        out["lb.route_us"] = _median_us(_time_each(
            tracer, "lb.route", route,
            [(spec.url, f"e2e-proxy-{i % 2}") for i, spec in enumerate(specs)]))

        canned = responses[0].serialize()
        port, stop_stub = _stub_upstream(canned)
        forwarder = Forwarder()
        try:
            stub_slot = BackendSlot(0, 0, "127.0.0.1", port)
            out["lb.forward_stub_us"] = _median_us(_time_each(
                tracer, "lb.forward_stub", forwarder.forward,
                [(stub_slot, wire) for wire in wires]))
        finally:
            forwarder.close()
            stop_stub()
    finally:
        close_engine()
    return out


def frontend_probes(tracer, child, host: str, echoes: int = 1500,
                    connects: int = 200) -> dict[str, float]:
    """The wire frontend alone: ``GET /.repro/status`` never reaches the
    engine, so its round trip and CPU bound what any engine change can
    buy; a fresh connection adds accept, thread start and teardown."""
    from repro.httpmodel.messages import HttpRequest
    from repro.httpwire.netclient import HttpConnection

    from procs import ProcSample

    echo = HttpRequest(method="GET", target="/.repro/status")
    echo.headers.set("Host", host)
    closing = HttpRequest(method="GET", target="/.repro/status")
    closing.headers.set("Host", host)
    closing.headers.set("Connection", "close")
    out: dict[str, float] = {}
    with HttpConnection("127.0.0.1", child.port) as connection:
        for _ in range(50):
            connection.request(echo)
        before = child.sample()
        durations = _time_each(tracer, "httpwire.echo", connection.request,
                               [(echo,)] * echoes)
        after = child.sample()
    out["httpwire.echo_rtt_us"] = _median_us(durations)
    out["httpwire.cpu_us_per_echo"] = (
        ProcSample.cpu_between(before, after) / echoes * 1e6
    )

    def connect_and_ask() -> None:
        with HttpConnection("127.0.0.1", child.port) as fresh:
            fresh.request_once(closing)

    out["httpwire.connect_us"] = _median_us(_time_each(
        tracer, "httpwire.connect", connect_and_ask, [()] * connects))
    return out


def offline_layer_probes(tracer, workdir: Path, skip: str | None = None) -> dict[str, float]:
    """Run both offline pipelines on a small reference input (a prefix of
    the ``aiusa`` log) so every offline layer has a number in every traced
    run; *skip* names the workload whose own passes already provide its
    stages."""
    import pickle

    from repro.traces.chunked import write_chunked_trace
    from repro.traces.records import Trace

    import inputs
    import offline

    cleaned, _ = inputs.aiusa_log()
    reference = list(cleaned)[:6000]
    out: dict[str, float] = {}

    def adopt(result: dict, names: dict[str, str]) -> None:
        for span in result["spans"]:
            tracer.record(span["name"], span["start"], span["end"])
        for stage, metric in names.items():
            out[metric] = result["stages"][stage]

    if skip != "replay_stream":
        path = str(workdir / "reference.rpchunk")
        write_chunked_trace(reference, path, chunk_records=2048)
        adopt(offline.run_pass("replay_stream", path, decode_probe=True), {
            "traces.decode": "traces.decode_s",
            "volumes.estimate": "volumes.estimate_s",
            "volumes.build": "volumes.build_s",
            "analysis.replay": "analysis.replay_s",
        })
    if skip != "sweep_inmem":
        path = str(workdir / "reference.pickle")
        with open(path, "wb") as handle:
            pickle.dump(Trace(reference), handle, protocol=pickle.HIGHEST_PROTOCOL)
        adopt(offline.run_pass("sweep_inmem", path), {
            "traces.compile": "traces.compile_s",
            "analysis.sweep": "analysis.sweep_s",
            "analysis.directory_replay": "analysis.directory_replay_s",
        })
    return out
