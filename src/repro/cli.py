"""Command-line interface: generate logs and run the paper's experiments.

::

    repro-web generate --preset sun --out sun.log
    repro-web stats --log sun.log --kind server
    repro-web trace gen --out net.rpchunk --records 1000000
    repro-web trace stats net.rpchunk --kind client
    repro-web fig1 --preset att_client
    repro-web fig2 --preset aiusa
    repro-web fig6 --preset sun
    repro-web table1
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .analysis import experiments
from .traces.clean import CleaningConfig, clean_trace
from .traces.common_log import read_log, write_log
from .traces.records import Trace
from .traces.stats import characterize_client_log, characterize_server_log
from .workloads.synth import (
    CLIENT_PRESETS,
    SERVER_PRESETS,
    client_log_preset,
    server_log_preset,
)

__all__ = ["main", "build_parser"]


def _load_trace(args: argparse.Namespace) -> Trace:
    """Resolve a trace from --log or --preset, cleaned for analysis."""
    if getattr(args, "log", None):
        trace = read_log(args.log)
    elif args.preset in SERVER_PRESETS:
        trace, _ = server_log_preset(args.preset, scale=args.scale)
    elif args.preset in CLIENT_PRESETS:
        trace, _ = client_log_preset(args.preset, scale=args.scale)
    else:
        raise SystemExit(f"unknown preset {args.preset!r}")
    cleaned, _ = clean_trace(trace, CleaningConfig(min_accesses=args.min_accesses))
    return cleaned


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.preset in SERVER_PRESETS:
        trace, _ = server_log_preset(args.preset, scale=args.scale)
    elif args.preset in CLIENT_PRESETS:
        trace, _ = client_log_preset(args.preset, scale=args.scale)
    else:
        raise SystemExit(f"unknown preset {args.preset!r}")
    write_log(trace, args.out)
    print(f"wrote {len(trace)} records to {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.snapshot is not None or args.url is not None:
        return _cmd_stats_telemetry(args)
    trace = _load_trace(args)
    if args.kind == "server":
        stats = characterize_server_log(trace)
        print(f"days                 {stats.days:.1f}")
        print(f"requests             {stats.requests}")
        print(f"clients              {stats.clients}")
        print(f"requests/source      {stats.requests_per_source:.2f}")
        print(f"unique resources     {stats.unique_resources}")
        print(f"top-10% req share    {stats.top_decile_request_share:.1%}")
        print(f"mean response bytes  {stats.mean_response_size:.0f}")
    else:
        stats = characterize_client_log(trace)
        print(f"days                 {stats.days:.1f}")
        print(f"requests             {stats.requests}")
        print(f"distinct servers     {stats.distinct_servers}")
        print(f"unique resources     {stats.unique_resources}")
        print(f"304 fraction         {stats.not_modified_fraction:.1%}")
    return 0


def _cmd_stats_telemetry(args: argparse.Namespace) -> int:
    """Render a telemetry snapshot (file or live endpoint) as tables."""
    from .telemetry.report import (
        instrument_names,
        load_snapshot_file,
        load_snapshot_url,
        missing_families,
        render_report,
    )

    try:
        if args.snapshot is not None:
            snapshot, series = load_snapshot_file(args.snapshot)
        else:
            snapshot, series = load_snapshot_url(args.url)
    except (OSError, ValueError) as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return 2
    print(render_report(snapshot, series), end="")
    if args.require:
        missing = missing_families(instrument_names(snapshot, series), args.require)
        if missing:
            print(
                "stats: missing required metric families: " + ", ".join(missing),
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_trace_gen(args: argparse.Namespace) -> int:
    """Generate an internet-scale trace straight into a chunk file."""
    from .workloads.internet import InternetConfig, write_internet_trace

    config = InternetConfig(
        record_count=args.records,
        origin_count=args.origins,
        client_count=args.clients,
        sessions_per_second=args.rate,
        bot_fraction=args.bot_fraction,
        seed=args.seed,
    )
    records, chunks = write_internet_trace(config, args.out, chunk_records=args.chunk_records)
    import os

    print(
        f"wrote {records} records in {chunks} chunks to {args.out} "
        f"({os.path.getsize(args.out)} bytes)"
    )
    return 0


def _cmd_trace_stats(args: argparse.Namespace) -> int:
    """Characterize an on-disk chunk file in one streaming pass.

    Unlike ``stats`` (which cleans its input), this reports the raw trace:
    the chunk file is the artifact under test, byte for byte.
    """
    from .traces.chunked import ChunkFileError, open_chunked_trace

    try:
        trace = open_chunked_trace(args.chunks)
    except (OSError, ChunkFileError) as exc:
        print(f"trace stats: {exc}", file=sys.stderr)
        return 2
    if args.kind == "server":
        stats = characterize_server_log(trace)
        print(f"days                 {stats.days:.1f}")
        print(f"requests             {stats.requests}")
        print(f"clients              {stats.clients}")
        print(f"requests/source      {stats.requests_per_source:.2f}")
        print(f"unique resources     {stats.unique_resources}")
        print(f"top-10% req share    {stats.top_decile_request_share:.1%}")
        print(f"mean response bytes  {stats.mean_response_size:.0f}")
        print(f"median response bytes {stats.median_response_size:.0f}")
    else:
        stats = characterize_client_log(trace)
        print(f"days                 {stats.days:.1f}")
        print(f"requests             {stats.requests}")
        print(f"distinct servers     {stats.distinct_servers}")
        print(f"unique resources     {stats.unique_resources}")
        print(f"304 fraction         {stats.not_modified_fraction:.1%}")
        print(f"mean response bytes  {stats.mean_response_size:.0f}")
    return 0


def _cmd_trace_verify(args: argparse.Namespace) -> int:
    """Walk every frame of a chunk file, checking CRCs and structure."""
    from .traces.chunked import ChunkFileError, verify_chunk_file

    try:
        info = verify_chunk_file(args.chunks)
    except (OSError, ChunkFileError) as exc:
        print(f"trace verify: {exc}", file=sys.stderr)
        return 1
    print(
        f"{args.chunks}: ok — {info['records']} records, {info['chunks']} chunks, "
        f"{info['urls']} urls, {info['sources']} sources"
    )
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    trace = _load_trace(args)
    rows = experiments.fig1_interarrival(trace)
    print("level  %seen-before  median-interarrival")
    for row in rows:
        print(f"{row.level:>5}  {row.seen_before_fraction:>11.1%}  {row.median_interarrival:>12.1f}s")
    if args.chart:
        from .analysis.ascii_chart import bar_chart

        print("\n% of requests whose prefix was seen before, by level:")
        for line in bar_chart(
            [(f"level {r.level}", 100.0 * r.seen_before_fraction) for r in rows],
            max_value=100.0,
        ):
            print(line)
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    trace = _load_trace(args)
    print("level  filter  avg-piggyback  predicted  updated")
    for point in experiments.fig2_fig3_directory(trace):
        print(
            f"{point.level:>5}  {point.access_filter:>6}  {point.mean_piggyback_size:>13.1f}"
            f"  {point.fraction_predicted:>9.1%}  {point.update_fraction:>7.1%}"
        )
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    trace = _load_trace(args)
    print("level  filter  min-gap  avg-piggyback  predicted")
    for point in experiments.fig4_rpv(trace):
        print(
            f"{point.level:>5}  {point.access_filter:>6}  {point.min_gap:>7.0f}"
            f"  {point.mean_piggyback_size:>13.1f}  {point.fraction_predicted:>9.1%}"
        )
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    trace = _load_trace(args)
    points = experiments.fig6_fig7_fig8_probability(trace)
    print("variant         p_t   avg-size  predicted  true-pred")
    for point in points:
        print(
            f"{point.variant:<14} {point.probability_threshold:>4.2f}"
            f"  {point.mean_piggyback_size:>8.2f}  {point.fraction_predicted:>9.1%}"
            f"  {point.true_prediction_fraction:>9.1%}"
        )
    if args.chart:
        from .analysis.ascii_chart import scatter_plot

        series: dict[str, list[tuple[float, float]]] = {}
        for point in points:
            series.setdefault(point.variant, []).append(
                (point.mean_piggyback_size, 100.0 * point.fraction_predicted)
            )
        print("\nFigure 6: fraction predicted (%) vs avg piggyback size:")
        for line in scatter_plot(series, x_label="avg piggyback size",
                                 y_label="% predicted"):
            print(line)
    return 0


def _cmd_roc(args: argparse.Namespace) -> int:
    from .analysis.rate_of_change import estimate_delta_savings, rate_of_change

    if getattr(args, "log", None):
        raise SystemExit("roc needs Last-Modified values; use a --preset")
    trace, _ = server_log_preset(args.preset, scale=args.scale)
    stats = rate_of_change(trace)
    savings = estimate_delta_savings(trace, max_transfers=300)
    print(f"repeat accesses        {stats.repeat_accesses}")
    print(f"changed fraction       {stats.changed_fraction:.1%}")
    for content_type in sorted(stats.by_content_type):
        print(f"  {content_type:<8}             "
              f"{stats.changed_fraction_for(content_type):.1%}")
    if savings.changed_transfers:
        print(f"delta savings          {savings.savings_fraction:.1%} "
              f"({savings.changed_transfers} changed transfers sampled)")
    return 0


def _cmd_build_volumes(args: argparse.Namespace) -> int:
    from .analysis.pairwise import VolumeBuildConfig, build_volumes_from_trace
    from .volumes.state import save_volumes

    trace = _load_trace(args)
    config = VolumeBuildConfig(
        probability_threshold=args.threshold,
        window=args.window,
        effectiveness_threshold=args.effectiveness,
        combine_level=args.combine_level,
    )
    volumes = build_volumes_from_trace(trace, config)
    save_volumes(
        volumes,
        args.out,
        probability_threshold=args.threshold,
        window=args.window,
        effectiveness_threshold=args.effectiveness,
        combine_level=args.combine_level,
        source_log=args.log or args.preset,
    )
    print(f"built {len(volumes)} volumes "
          f"({volumes.implication_count()} implications) -> {args.out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .analysis.simulator import EndToEndSimulator, SimulationConfig
    from .proxy.prefetch import PrefetchPolicy
    from .proxy.proxy import ProxyConfig
    from .volumes.directory import DirectoryVolumeConfig, DirectoryVolumeStore
    from .workloads.synth import SERVER_PRESETS

    if args.preset not in SERVER_PRESETS:
        raise SystemExit(f"simulate needs a server preset, got {args.preset!r}")
    trace, site = server_log_preset(args.preset, scale=args.scale)
    cleaned, _ = clean_trace(trace, CleaningConfig(min_accesses=args.min_accesses))
    config = SimulationConfig(
        proxy=ProxyConfig(
            freshness_interval=args.freshness,
            prefetch=PrefetchPolicy(enabled=args.prefetch),
        ),
    )
    simulator = EndToEndSimulator(
        site, DirectoryVolumeStore(DirectoryVolumeConfig(level=args.level)),
        config, horizon=cleaned.end_time + 1.0,
    )
    result = simulator.run(cleaned)
    print(f"client requests      {result.client_requests}")
    print(f"fresh hit rate       {result.fresh_hit_rate:.1%}")
    print(f"server contact rate  {result.server_contact_rate:.1%}")
    print(f"stale rate           {result.stale_rate:.2%}")
    print(f"piggyback messages   {result.piggyback_messages}")
    print(f"piggyback bytes      {result.piggyback_bytes}")
    if args.prefetch:
        stats = simulator.proxy.prefetcher.stats
        print(f"prefetches           {stats.issued} "
              f"(useful {stats.useful}, futile {stats.futile})")
    return 0


_FAULT_PROFILES = ("none", "delay", "throttle", "reset", "truncate", "garbage", "mixed")


def _fault_schedule(profile: str):
    """Deterministic per-connection fault plan for a named profile."""
    from .httpwire.faults import Fault

    if profile == "none":
        return None
    plans = {
        "delay": [Fault.none(), Fault.delay(0.2)],
        "throttle": [Fault.none(), Fault.throttle(64 * 1024)],
        "reset": [Fault.none(), Fault.none(), Fault.reset_after(64)],
        "truncate": [Fault.none(), Fault.none(), Fault.truncate_after(200)],
        "garbage": [Fault.none(), Fault.none(), Fault.garbage()],
        "mixed": [
            Fault.none(),
            Fault.delay(0.1),
            Fault.none(),
            Fault.reset_after(64),
            Fault.none(),
            Fault.truncate_after(200),
            Fault.none(),
            Fault.garbage(),
        ],
    }
    return plans[profile]


def _bind_error(kind: str, exc: OSError, address: str, port: int) -> int:
    """Print the actionable one-liner for a port collision; re-raise others."""
    import errno

    if exc.errno != errno.EADDRINUSE:
        raise exc
    print(
        f"{kind}: cannot listen on {address}:{port} — the port is already in "
        f"use (stop the process bound to it, pick a different --port, or use "
        f"--port 0 to let the kernel choose a free one)",
        file=sys.stderr,
    )
    return 2


def _reject_flags(command: str, context: str, flags: dict[str, bool]) -> bool:
    """Name the first given flag that *context* would ignore; True if any."""
    for flag, given in flags.items():
        if given:
            print(f"{command}: {flag} does not apply {context}", file=sys.stderr)
            return True
    return False


def _origin_scale(args: argparse.Namespace) -> dict:
    """The origin's worker cap: a threaded-frontend knob; the event loop
    takes its own (much higher) connection cap instead."""
    return {"max_workers": args.max_workers} if args.backend == "threaded" else {}


def _dump_telemetry(path: str) -> None:
    from .telemetry import REGISTRY, render_json, render_prometheus

    snapshot = REGISTRY.snapshot()
    rendered = (
        render_json(snapshot)
        if path.endswith(".json")
        else render_prometheus(snapshot)
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(rendered)
    print(f"telemetry snapshot   {path}")


def _print_cluster_report(status: dict) -> float:
    """Per-shard balance + stickiness section; returns the max/min ratio."""
    shard_routes = status["shard_routes"]
    total = max(1, sum(shard_routes))
    parts = ", ".join(
        f"s{index} {count / total:.0%} ({count})"
        for index, count in enumerate(shard_routes)
    )
    ratio = max(shard_routes) / max(1, min(shard_routes))
    sticky = status["sticky"]
    lookups = max(1, sticky["hits"] + sticky["misses"] + sticky["repins"])
    routing = status["routing"]
    print(f"shard balance        {parts}  (max/min {ratio:.2f})")
    print(f"sticky sessions      pins {sticky['pins']}, "
          f"hit rate {sticky['hits'] / lookups:.1%} "
          f"(hits {sticky['hits']}, misses {sticky['misses']}, "
          f"repins {sticky['repins']})")
    print(f"health               ejections {routing['ejections']}, "
          f"readmissions {routing['readmissions']}")
    print(f"routing snapshot     version {routing['snapshot_version']}, "
          f"age {routing['snapshot_age_seconds']:.2f}s "
          f"(ttl {routing['snapshot_ttl']:.1f}s)")
    print(f"lb retries           {status['retried']} "
          f"(unroutable {status['unroutable']})")
    return ratio


def _cmd_loadtest_cluster(args: argparse.Namespace) -> int:
    """Drive an in-process sharded cluster through its LB front tier."""
    from .httpwire.loadgen import LoadConfig, run_load
    from .httpwire.netserver import synthetic_body
    from .lb.balancer import LbPolicy
    from .lb.cluster import ClusterConfig, LocalCluster

    if args.telemetry_out or args.telemetry_series:
        from . import telemetry

        telemetry.enable()

    config = ClusterConfig(
        shards=args.shards,
        replicas=args.replicas,
        pages=args.pages,
        seed=args.seed,
        max_workers=args.max_workers,
        idle_timeout=args.idle_timeout,
        policy=LbPolicy(snapshot_ttl=args.snapshot_ttl),
    )
    with LocalCluster(config) as cluster:
        sizes = cluster.sizes

        def validate(url: str, response) -> bool:
            if response.status == 200:
                return response.body == synthetic_body(url, sizes[url])
            return response.status in (304, 404, 502)

        try:
            load = LoadConfig(
                clients=args.clients,
                requests_per_client=args.requests,
                mode=args.mode,
                rate=args.rate,
                warmup_requests=args.warmup,
                seed=args.seed,
                ims_fraction=args.ims_fraction,
                piggy_filter="maxpiggy=10",
                keepalive=args.keepalive,
            )
        except ValueError as exc:
            print(f"loadtest: {exc}", file=sys.stderr)
            return 2
        report = run_load(
            cluster.lb.address, cluster.lb.port, cluster.urls, load,
            validate=validate,
            flush_path=args.telemetry_series,
            flush_interval=args.flush_interval,
        )
        if args.telemetry_out:
            _dump_telemetry(args.telemetry_out)
        print(f"target               cluster "
              f"({args.shards} shards x {args.replicas} replicas)")
        print(f"keep-alive           {'on' if args.keepalive else 'off'}")
        print(report.format())
        ratio = _print_cluster_report(cluster.status())
    if report.corrupted:
        return 1
    if args.balance_within is not None and ratio > args.balance_within:
        print(
            f"loadtest: shard balance {ratio:.2f} exceeds "
            f"--balance-within {args.balance_within:.2f}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from .httpwire.backends import origin_server_class
    from .httpwire.faults import FaultInjectingInterposer
    from .httpwire.loadgen import LoadConfig, run_load
    from .httpwire.netproxy import PiggybackHttpProxy, UpstreamPolicy
    from .httpwire.netserver import synthetic_body
    from .proxy.proxy import ProxyConfig
    from .server.resources import ResourceStore
    from .server.server import PiggybackServer
    from .volumes.directory import DirectoryVolumeConfig, DirectoryVolumeStore
    from .workloads.sitegen import SiteConfig, generate_site

    if args.target == "cluster":
        if _reject_flags("loadtest", "to --target cluster", {
            "--backend async": args.backend == "async",
            "--fault": args.fault != "none",
            "--state-dir": args.state_dir is not None,
        }):
            return 2
        return _cmd_loadtest_cluster(args)
    if _reject_flags("loadtest", f"to --target {args.target}", {
        "--balance-within": args.balance_within is not None,
    }):
        return 2

    telemetry_requested = args.telemetry_out or args.telemetry_series
    if telemetry_requested:
        from . import telemetry

        telemetry.enable()

    host = "www.load.example"
    site = generate_site(SiteConfig(host=host, page_count=args.pages,
                                    directory_count=6, seed=args.seed))
    resources = ResourceStore.from_site(site)
    sizes = {url: record.size for url in resources.urls()
             if (record := resources.get(url)) is not None}
    urls = sorted(sizes)
    durable = None
    if args.state_dir:
        from .server.durability import DurableState

        durable = DurableState(
            args.state_dir,
            lambda: DirectoryVolumeStore(DirectoryVolumeConfig(level=1)),
            resources=resources,
        )
        store = durable.store
    else:
        store = DirectoryVolumeStore(DirectoryVolumeConfig(level=1))
    engine = PiggybackServer(resources, store)

    origin_cls = origin_server_class(args.backend)

    with ExitStack() as stack:
        if durable is not None:
            stack.callback(durable.close, snapshot=True)
        origin = stack.enter_context(
            origin_cls(engine, site_host=host, durable_state=durable,
                       idle_timeout=args.idle_timeout, **_origin_scale(args))
        )
        origin_address = (origin.address, origin.port)
        if args.fault != "none":
            interposer = stack.enter_context(
                FaultInjectingInterposer(origin_address,
                                         schedule=_fault_schedule(args.fault))
            )
            origin_address = (interposer.address, interposer.port)

        if args.target == "origin":
            address, port = origin_address
            absolute_targets = False
            piggy_filter = "maxpiggy=10"
        else:
            proxy = stack.enter_context(
                PiggybackHttpProxy(
                    origins={host: origin_address},
                    config=ProxyConfig(name="loadtest-proxy"),
                    upstream_policy=UpstreamPolicy(timeout=2.0, max_attempts=3,
                                                   backoff=0.02),
                    idle_timeout=args.idle_timeout,
                    max_workers=args.max_workers,
                )
            )
            address, port = proxy.address, proxy.port
            absolute_targets = True
            piggy_filter = None

        def validate(url: str, response) -> bool:
            if response.status == 200:
                stale = (response.headers.get("X-Cache") or "") == "stale"
                return stale or response.body == synthetic_body(url, sizes[url])
            return response.status in (304, 404, 502)

        try:
            config = LoadConfig(
                clients=args.clients,
                requests_per_client=args.requests,
                mode=args.mode,
                rate=args.rate,
                warmup_requests=args.warmup,
                seed=args.seed,
                ims_fraction=args.ims_fraction,
                piggy_filter=piggy_filter,
                absolute_targets=absolute_targets,
                keepalive=args.keepalive,
            )
        except ValueError as exc:
            print(f"loadtest: {exc}", file=sys.stderr)
            return 2
        report = run_load(
            address, port, urls, config, validate=validate,
            flush_path=args.telemetry_series,
            flush_interval=args.flush_interval,
        )
        if args.telemetry_out:
            _dump_telemetry(args.telemetry_out)

        keepalive_label = "on" if args.keepalive else "off"
        print(f"target               {args.target} (fault profile: {args.fault})")
        print(f"origin backend       {args.backend}")
        print(f"keep-alive           {keepalive_label}")
        print(report.format())
        if args.target == "proxy":
            stats = proxy.engine.stats
            pool = proxy.upstream.stats
            print(f"proxy server reqs    {stats.server_requests} "
                  f"(contact rate {stats.server_contact_rate:.1%})")
            print(f"upstream retries     {pool.retries} "
                  f"(failures {pool.failures})")
            print(f"upstream pool        reuses {pool.pool_reuses}, "
                  f"connects {pool.pool_connects}, retired {pool.pool_retired} "
                  f"(reuse rate {pool.pool_reuse_rate:.1%})")
            print(f"stale responses      {proxy.stale_responses}")
            print(f"proxy workers live   {proxy.active_workers()}")
        if engine.piggyback_cache is not None:
            cache_stats = engine.piggyback_cache.stats
            print(f"piggyback cache      hits {cache_stats.hits}, "
                  f"misses {cache_stats.misses}, "
                  f"evictions {cache_stats.evictions} "
                  f"(hit rate {cache_stats.hit_rate:.1%})")
        print(f"origin requests      {engine.stats.requests}")
        print(f"origin workers live  {origin.active_workers()}")
        if durable is not None:
            journal = durable.store.journal
            print(f"durable state        generation {durable.generation}, "
                  f"journal seq {journal.last_seq} "
                  f"({journal.bytes_written} bytes)")
    return 0 if report.corrupted == 0 else 1


def _wait_serving(server, max_seconds: float | None) -> None:
    """Foreground wait loop shared by serve/cluster: until drained,
    interrupted, or the optional deadline."""
    import time as time_mod

    deadline = (None if max_seconds is None
                else time_mod.monotonic() + max_seconds)
    try:
        while deadline is None or time_mod.monotonic() < deadline:
            time_mod.sleep(0.05)
            if server.draining and server.active_workers() == 0:
                break
    except KeyboardInterrupt:
        pass


def _parse_backend_specs(specs: list[str]):
    """``SHARD:HOST:PORT`` triples → BackendSlots with per-shard replicas."""
    from .lb.routing import BackendSlot

    slots: list[BackendSlot] = []
    replicas: dict[int, int] = {}
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad --backends entry {spec!r} "
                             f"(expected SHARD:HOST:PORT)")
        try:
            shard, port = int(parts[0]), int(parts[2])
        except ValueError as exc:
            raise ValueError(f"bad --backends entry {spec!r}: {exc}") from exc
        replica = replicas.get(shard, 0)
        replicas[shard] = replica + 1
        slots.append(BackendSlot(shard, replica, parts[1], port))
    if not slots:
        raise ValueError("--lb needs at least one --backends entry")
    shard_count = max(slot.shard for slot in slots) + 1
    missing = sorted(set(range(shard_count)) - set(replicas))
    if missing:
        raise ValueError(f"shards with no backend: {missing}")
    return shard_count, slots


def _cmd_serve_lb(args: argparse.Namespace) -> int:
    """Run only the LB front tier against already-running origins."""
    from .lb.balancer import LbHttpServer, LbPolicy
    from .lb.health import HealthChecker, HealthPolicy
    from .lb.routing import RoutingTable

    if _reject_flags("serve", "to --lb", {
        "--backend async": args.backend == "async",
        "--state-dir": args.state_dir is not None,
        "--access-log": args.access_log is not None,
    }):
        return 2
    try:
        shard_count, slots = _parse_backend_specs(args.backends or [])
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    table = RoutingTable(shard_count, slots, snapshot_ttl=args.snapshot_ttl)
    try:
        lb = LbHttpServer(
            table,
            address=args.address,
            port=args.port,
            policy=LbPolicy(snapshot_ttl=args.snapshot_ttl),
            site_host=args.host,
            idle_timeout=args.idle_timeout,
            max_workers=args.max_workers,
        )
    except OSError as exc:
        return _bind_error("serve", exc, args.address, args.port)
    checker = HealthChecker(
        table, HealthPolicy(interval=args.probe_interval),
        on_transition=lb.on_backend_transition,
    )
    try:
        with lb:
            checker.start()
            print(f"load balancer on {lb.address}:{lb.port} "
                  f"({shard_count} shards, "
                  f"{len(slots)} backends)")
            sys.stdout.flush()
            _wait_serving(lb, args.max_seconds)
    finally:
        checker.stop()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .httpwire.backends import origin_server_class
    from .server.durability import BufferedAccessLogger, DurableState
    from .server.resources import ResourceStore
    from .server.server import PiggybackServer
    from .volumes.directory import DirectoryVolumeConfig, DirectoryVolumeStore
    from .volumes.state import StateFormatError
    from .workloads.sitegen import SiteConfig, generate_site

    if args.lb:
        return _cmd_serve_lb(args)
    if not args.state_dir:
        print("serve: --state-dir is required (except with --lb)",
              file=sys.stderr)
        return 2

    site = generate_site(SiteConfig(host=args.host, page_count=args.pages,
                                    directory_count=args.directories,
                                    max_depth=args.max_depth, seed=args.seed))
    resources = ResourceStore.from_site(site)
    try:
        state = DurableState(
            args.state_dir,
            lambda: DirectoryVolumeStore(DirectoryVolumeConfig(level=args.level)),
            resources=resources,
            sync=args.sync,
        )
    except StateFormatError as exc:
        print(f"serve: cannot recover state: {exc}", file=sys.stderr)
        return 2
    engine = PiggybackServer(resources, state.store)
    logger = None
    if args.access_log:
        logger = BufferedAccessLogger(args.access_log,
                                      interval=args.flush_interval)
    origin_cls = origin_server_class(args.backend)
    try:
        try:
            origin = origin_cls(
                engine,
                site_host=args.host,
                address=args.address,
                port=args.port,
                access_logger=logger,
                durable_state=state,
                idle_timeout=args.idle_timeout,
                **_origin_scale(args),
            )
        except OSError as exc:
            return _bind_error("serve", exc, args.address, args.port)
        with origin:
            recovery = state.recovery
            print(f"serving {args.host} on {origin.address}:{origin.port} "
                  f"({args.backend} backend)")
            print(f"state dir            {state.state_dir}")
            print(f"generation           {state.generation}")
            print(f"recovered            seq {recovery.last_seq} "
                  f"(snapshot {'yes' if recovery.snapshot_loaded else 'no'}, "
                  f"replayed {recovery.replayed_records}, "
                  f"torn tail bytes {recovery.torn_tail_bytes})")
            sys.stdout.flush()
            _wait_serving(origin, args.max_seconds)
    finally:
        if logger is not None:
            logger.close()
        state.close(snapshot=args.snapshot_on_exit)
    journal = state.store.journal
    print(f"journal              seq {journal.last_seq} "
          f"({journal.bytes_written} bytes)")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Spawn a sharded origin fleet and serve through the LB front tier."""
    import time as time_mod

    from .lb.balancer import LbPolicy
    from .lb.cluster import ClusterConfig, ClusterError, ProcessCluster
    from .lb.health import HealthPolicy

    config = ClusterConfig(
        shards=args.shards,
        replicas=args.replicas,
        host=args.host,
        pages=args.pages,
        seed=args.seed,
        level=args.level,
        address=args.address,
        lb_port=args.port,
        max_workers=args.max_workers,
        idle_timeout=args.idle_timeout,
        policy=LbPolicy(snapshot_ttl=args.snapshot_ttl),
        health=HealthPolicy(interval=args.probe_interval),
        state_dir=args.state_dir,
        sync_journal=args.sync,
    )
    cluster = ProcessCluster(config)
    try:
        try:
            address, port = cluster.start()
        except ClusterError as exc:
            print(f"cluster: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            return _bind_error("cluster", exc, args.address, args.port)
        print(f"cluster lb on {address}:{port} "
              f"({args.shards} shards x "
              f"{args.replicas} replicas)")
        print(f"state base           {cluster.state_base}")
        for shard, replica, backend_port, state_dir in cluster.layout():
            print(f"  shard {shard} replica {replica}   "
                  f"{config.address}:{backend_port}  {state_dir}")
        sys.stdout.flush()
        deadline = (None if args.max_seconds is None
                    else time_mod.monotonic() + args.max_seconds)
        try:
            while deadline is None or time_mod.monotonic() < deadline:
                time_mod.sleep(0.2)
                for shard, replica, code in cluster.poll():
                    print(f"cluster: shard {shard} replica {replica} exited "
                          f"with code {code}", file=sys.stderr)
        except KeyboardInterrupt:
            pass
    finally:
        cluster.stop()
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.sweeps import directory_sweep, threshold_sweep

    trace = _load_trace(args)
    if args.kind == "thresholds":
        results = threshold_sweep(
            trace,
            args.thresholds,
            processes=args.processes,
        )
    else:
        results = directory_sweep(
            trace,
            levels=args.levels,
            access_filters=args.filters,
            processes=args.processes,
        )
    print(f"{'point':<28} {'avg-piggyback':>13} {'predicted':>9} {'true-pred':>9}")
    rows = []
    for result in results:
        metrics = result.metrics
        rows.append(
            {
                "label": result.label,
                "params": dict(result.params),
                "mean_piggyback_size": metrics.mean_piggyback_size,
                "fraction_predicted": metrics.fraction_predicted,
                "true_prediction_fraction": metrics.true_prediction_fraction,
                "piggyback_messages": metrics.piggyback_messages,
                "piggyback_bytes": metrics.piggyback_bytes,
            }
        )
        print(
            f"{result.label:<28} {metrics.mean_piggyback_size:>13.2f}"
            f" {metrics.fraction_predicted:>9.1%}"
            f" {metrics.true_prediction_fraction:>9.1%}"
        )
    if args.out:
        import json

        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"kind": args.kind, "points": rows}, handle, indent=2)
        print(f"wrote {len(rows)} sweep points to {args.out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .devtools.lint import Baseline, run_lint

    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"lint: root {args.root!r} is not a directory", file=sys.stderr)
        return 2
    paths = [Path(p) for p in args.paths] or None

    baseline = None
    baseline_path = root / args.baseline
    if not args.write_baseline and not args.no_baseline and baseline_path.is_file():
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, OSError) as exc:
            print(f"lint: cannot read baseline {baseline_path}: {exc}", file=sys.stderr)
            return 2

    try:
        report = run_lint(
            root, paths, baseline=baseline, interprocedural=args.interprocedural
        )
    except OSError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        Baseline.from_findings(report.findings).save(baseline_path)
        print(f"wrote {len(report.findings)} fingerprint(s) to {baseline_path}")
        return 0

    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render_text())
    return 0 if report.clean else 1


def _cmd_flow(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .devtools.flow import build_callgraph
    from .devtools.lint.engine import LintReport, _parse_modules, collect_files

    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"flow: root {args.root!r} is not a directory", file=sys.stderr)
        return 2
    paths = [Path(p) for p in args.paths] or None
    scratch = LintReport()
    files = collect_files(root, paths)
    modules = _parse_modules(root, files, scratch)
    graph = build_callgraph(modules)

    if args.dot:
        output = graph.to_dot(include_external=args.external)
    else:
        edges = sum(
            len(site.targets) for sites in graph.calls.values() for site in sites
        )
        output = "\n".join(
            (
                f"modules:   {len(modules)}",
                f"functions: {len(graph.functions)}",
                f"classes:   {len(graph.classes)}",
                f"edges:     {edges}",
            )
        )
    if args.out:
        Path(args.out).write_text(output + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(output)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    presets = args.presets or ["aiusa", "apache", "sun"]
    print("log     <2hr    <5min   updated  avg-piggyback")
    for name in presets:
        trace, _ = server_log_preset(name, scale=args.scale)
        cleaned, _ = clean_trace(trace, CleaningConfig(min_accesses=args.min_accesses))
        row = experiments.table1_update_fraction(cleaned, name)
        print(
            f"{row.log:<7} {row.prev_occurrence_2hr:>5.1%}  {row.prev_occurrence_5min:>6.1%}"
            f"  {row.updated_by_piggyback:>7.1%}  {row.mean_piggyback_size:>13.1f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-web",
        description="Server volumes and proxy filters (SIGCOMM 1998) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--preset", default="aiusa",
                       help="named synthetic log (server or client preset)")
        p.add_argument("--log", default=None, help="read a Common Log Format file instead")
        p.add_argument("--scale", type=float, default=1.0, help="session-count multiplier")
        p.add_argument("--min-accesses", type=int, default=10,
                       help="popularity floor during cleaning (Appendix A)")
        p.add_argument("--chart", action="store_true",
                       help="render an ASCII chart of the series")

    generate = sub.add_parser("generate", help="write a synthetic log in CLF")
    generate.add_argument("--preset", default="aiusa")
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=_cmd_generate)

    stats = sub.add_parser(
        "stats",
        help="characterize a log (Tables 2/3) or render a telemetry snapshot")
    add_common(stats)
    stats.add_argument("--kind", choices=("server", "client"), default="server")
    stats.add_argument("--snapshot", default=None,
                       help="render a telemetry dump (Prometheus text, JSON, or JSONL)")
    stats.add_argument("--url", default=None,
                       help="fetch and render a live /.repro/metrics endpoint")
    stats.add_argument("--require", nargs="*", default=None,
                       help="metric-family prefixes that must be present (exit 1 if not)")
    stats.set_defaults(handler=_cmd_stats)

    trace = sub.add_parser(
        "trace",
        help="chunked trace files: generate at scale, characterize, verify")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_gen = trace_sub.add_parser(
        "gen",
        help="stream a multi-tenant internet-scale trace into a chunk file")
    trace_gen.add_argument("--out", required=True, help="chunk file to write")
    trace_gen.add_argument("--records", type=int, default=1_000_000,
                           help="exact number of records to emit")
    trace_gen.add_argument("--origins", type=int, default=200,
                           help="origin server count (each gets its own site)")
    trace_gen.add_argument("--clients", type=int, default=2_000_000,
                           help="client population size (Zipf-sampled by rank)")
    trace_gen.add_argument("--rate", type=float, default=0.25,
                           help="base session arrivals per second")
    trace_gen.add_argument("--bot-fraction", type=float, default=0.05,
                           help="fraction of sessions that are crawler sweeps")
    trace_gen.add_argument("--chunk-records", type=int, default=65536,
                           help="records per chunk frame")
    trace_gen.add_argument("--seed", type=int, default=0)
    trace_gen.set_defaults(handler=_cmd_trace_gen)

    trace_stats = trace_sub.add_parser(
        "stats",
        help="characterize an on-disk chunk file in one streaming pass")
    trace_stats.add_argument("chunks", help="chunk file to read")
    trace_stats.add_argument("--kind", choices=("server", "client"), default="server")
    trace_stats.set_defaults(handler=_cmd_trace_stats)

    trace_verify = trace_sub.add_parser(
        "verify", help="check every frame CRC and the trailer of a chunk file")
    trace_verify.add_argument("chunks", help="chunk file to read")
    trace_verify.set_defaults(handler=_cmd_trace_verify)

    for name, handler, help_text in (
        ("fig1", _cmd_fig1, "directory-prefix locality (Figure 1)"),
        ("fig2", _cmd_fig2, "directory volumes: size and accuracy (Figures 2-3)"),
        ("fig4", _cmd_fig4, "RPV pacing (Figure 4)"),
        ("fig6", _cmd_fig6, "probability volumes (Figures 5-8)"),
    ):
        command = sub.add_parser(name, help=help_text)
        add_common(command)
        command.set_defaults(handler=handler)

    sweep = sub.add_parser(
        "sweep",
        help="run a declarative config sweep on the interned replay engine")
    add_common(sweep)
    sweep.add_argument("--kind", choices=("thresholds", "directory"),
                       default="thresholds",
                       help="probability-threshold or directory-volume sweep")
    sweep.add_argument("--thresholds", type=float, nargs="*",
                       default=[0.1, 0.2, 0.25, 0.3, 0.5],
                       help="probability thresholds (kind=thresholds)")
    sweep.add_argument("--levels", type=int, nargs="*", default=[0, 1, 2],
                       help="directory levels (kind=directory)")
    sweep.add_argument("--filters", type=int, nargs="*", default=[1, 10, 100],
                       help="access filters (kind=directory)")
    sweep.add_argument("--processes", type=int, default=None,
                       help="worker processes (default: one per CPU)")
    sweep.add_argument("--out", default=None, help="write sweep points as JSON")
    sweep.set_defaults(handler=_cmd_sweep)

    lint = sub.add_parser(
        "lint",
        help="static invariant checks (determinism, locks, resources, API)")
    lint.add_argument("paths", nargs="*",
                      help="files or directories (default: src/ and benchmarks/)")
    lint.add_argument("--root", default=".",
                      help="repository root paths are resolved against")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--baseline", default="lint-baseline.json",
                      help="baseline file (relative to --root)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore the committed baseline")
    lint.add_argument("--write-baseline", action="store_true",
                      help="rewrite the baseline from current findings")
    lint.add_argument("--interprocedural", action="store_true",
                      help="additionally run the whole-program flow passes "
                           "(call-graph construction; slower)")
    lint.set_defaults(handler=_cmd_lint)

    flow = sub.add_parser(
        "flow",
        help="whole-program call graph: export DOT or summary statistics")
    flow.add_argument("paths", nargs="*",
                      help="files or directories (default: src/ and benchmarks/)")
    flow.add_argument("--root", default=".",
                      help="repository root paths are resolved against")
    flow.add_argument("--dot", action="store_true",
                      help="emit the resolved call graph as Graphviz DOT")
    flow.add_argument("--external", action="store_true",
                      help="include dashed edges to external callees in DOT")
    flow.add_argument("--out", default=None, help="write output to a file")
    flow.set_defaults(handler=_cmd_flow)

    table1 = sub.add_parser("table1", help="update fractions (Table 1)")
    table1.add_argument("--presets", nargs="*", default=None)
    table1.add_argument("--scale", type=float, default=1.0)
    table1.add_argument("--min-accesses", type=int, default=10)
    table1.set_defaults(handler=_cmd_table1)

    build = sub.add_parser("build-volumes",
                           help="build and persist probability volumes")
    add_common(build)
    build.add_argument("--out", required=True)
    build.add_argument("--threshold", type=float, default=0.25)
    build.add_argument("--window", type=float, default=300.0)
    build.add_argument("--effectiveness", type=float, default=0.2)
    build.add_argument("--combine-level", type=int, default=None)
    build.set_defaults(handler=_cmd_build_volumes)

    simulate = sub.add_parser("simulate",
                              help="end-to-end proxy/server simulation")
    add_common(simulate)
    simulate.add_argument("--level", type=int, default=1)
    simulate.add_argument("--freshness", type=float, default=600.0)
    simulate.add_argument("--prefetch", action="store_true")
    simulate.set_defaults(handler=_cmd_simulate)

    roc = sub.add_parser("roc", help="rate of change and delta savings")
    roc.add_argument("--preset", default="aiusa")
    roc.add_argument("--scale", type=float, default=0.3)
    roc.set_defaults(handler=_cmd_roc)

    loadtest = sub.add_parser(
        "loadtest",
        help="concurrent load against the live wire stack (latency/throughput)")
    loadtest.add_argument("--target", choices=("origin", "proxy", "cluster"),
                          default="proxy",
                          help="hit the origin directly, go through the proxy, "
                               "or drive a sharded cluster through its LB")
    loadtest.add_argument("--shards", type=int, default=3,
                          help="cluster shard count (target=cluster)")
    loadtest.add_argument("--replicas", type=int, default=1,
                          help="replicas per shard (target=cluster)")
    loadtest.add_argument("--snapshot-ttl", type=float, default=1.0,
                          help="LB routing-snapshot TTL in seconds "
                               "(target=cluster)")
    loadtest.add_argument("--balance-within", type=float, default=None,
                          help="fail if per-shard route counts differ by more "
                               "than this max/min factor (target=cluster)")
    loadtest.add_argument("--backend", choices=("threaded", "async"),
                          default="threaded",
                          help="origin frontend: thread-per-connection or event "
                               "loop (the proxy is always threaded; "
                               "target=origin|proxy)")
    loadtest.add_argument("--clients", type=int, default=8)
    loadtest.add_argument("--requests", type=int, default=25,
                          help="requests per client")
    loadtest.add_argument("--mode", choices=("closed", "open"), default="closed")
    loadtest.add_argument("--rate", type=float, default=200.0,
                          help="open-loop aggregate arrivals/second")
    loadtest.add_argument("--warmup", type=int, default=2,
                          help="per-client warmup requests excluded from latency")
    loadtest.add_argument("--ims-fraction", type=float, default=0.3,
                          help="fraction of revisits sent If-Modified-Since")
    loadtest.add_argument("--pages", type=int, default=48,
                          help="synthetic site size")
    loadtest.add_argument("--max-workers", type=int, default=64,
                          help="worker cap of each threaded server")
    loadtest.add_argument("--idle-timeout", type=float, default=None,
                          help="server-side keep-alive idle reap timeout in "
                               "seconds (default: no reaping)")
    loadtest.add_argument("--fault", choices=_FAULT_PROFILES, default="none",
                          help="fault-injection profile in front of the origin "
                               "(target=origin|proxy)")
    loadtest.add_argument("--keepalive", action=argparse.BooleanOptionalAction,
                          default=True,
                          help="reuse persistent client connections "
                               "(--no-keepalive forces one connection per request)")
    loadtest.add_argument("--seed", type=int, default=0)
    loadtest.add_argument("--telemetry-out", default=None,
                          help="enable telemetry and dump a final snapshot "
                               "(Prometheus text, or JSON for *.json paths)")
    loadtest.add_argument("--telemetry-series", default=None,
                          help="enable telemetry and flush a JSONL time series here")
    loadtest.add_argument("--flush-interval", type=float, default=0.5,
                          help="seconds between time-series flushes")
    loadtest.add_argument("--state-dir", default=None,
                          help="serve from a durable state directory "
                               "(journal + snapshot, recovered on start; "
                               "target=origin|proxy)")
    loadtest.set_defaults(handler=_cmd_loadtest)

    serve = sub.add_parser(
        "serve",
        help="run a durable piggyback origin (or, with --lb, a cluster "
             "front tier) until interrupted")
    serve.add_argument("--state-dir", default=None,
                       help="state directory (journal, snapshot, meta); "
                            "created and recovered on start "
                            "(required except with --lb)")
    serve.add_argument("--lb", action="store_true",
                       help="serve the load-balancer front tier instead of "
                            "an origin, routing to --backends")
    serve.add_argument("--backends", nargs="*", default=None,
                       metavar="SHARD:HOST:PORT",
                       help="origin backends for --lb; repeat a shard id to "
                            "add replicas (e.g. 0:127.0.0.1:8081 "
                            "0:127.0.0.1:8082 1:127.0.0.1:8083)")
    serve.add_argument("--snapshot-ttl", type=float, default=1.0,
                       help="LB routing-snapshot TTL in seconds (--lb)")
    serve.add_argument("--probe-interval", type=float, default=0.5,
                       help="LB health-probe interval in seconds (--lb)")
    serve.add_argument("--host", default="www.serve.example",
                       help="synthetic site host name")
    serve.add_argument("--address", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--pages", type=int, default=48,
                       help="synthetic site size")
    serve.add_argument("--directories", type=int, default=6,
                       help="synthetic site directory count")
    serve.add_argument("--max-depth", type=int, default=4,
                       help="synthetic site directory nesting depth")
    serve.add_argument("--level", type=int, default=1,
                       help="directory-volume level")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--backend", choices=("threaded", "async"),
                       default="threaded",
                       help="origin frontend: thread-per-connection or event "
                            "loop (the --lb front tier is always threaded)")
    serve.add_argument("--max-workers", type=int, default=64,
                       help="worker cap of the threaded origin or LB")
    serve.add_argument("--idle-timeout", type=float, default=None,
                       help="server-side keep-alive idle reap timeout in "
                            "seconds (default: no reaping)")
    serve.add_argument("--access-log", default=None,
                       help="buffered CLF access log path (not with --lb)")
    serve.add_argument("--flush-interval", type=float, default=1.0,
                       help="access-log flush period in seconds")
    serve.add_argument("--max-seconds", type=float, default=None,
                       help="exit after this many seconds (smoke tests)")
    serve.add_argument("--sync", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="fsync each journal append "
                            "(--no-sync trades durability for speed)")
    serve.add_argument("--snapshot-on-exit", action=argparse.BooleanOptionalAction,
                       default=False,
                       help="fold the journal into a snapshot on clean exit")
    serve.set_defaults(handler=_cmd_serve)

    cluster = sub.add_parser(
        "cluster",
        help="spawn a sharded origin fleet behind the LB front tier")
    cluster.add_argument("--shards", type=int, default=3)
    cluster.add_argument("--replicas", type=int, default=1,
                         help="origin replicas per shard")
    cluster.add_argument("--state-dir", default=None,
                         help="base directory for per-shard durable state "
                              "(default: a fresh temporary directory)")
    cluster.add_argument("--host", default="www.cluster.example",
                         help="synthetic site host name")
    cluster.add_argument("--address", default="127.0.0.1")
    cluster.add_argument("--port", type=int, default=0,
                         help="LB listen port (0 picks a free one)")
    cluster.add_argument("--pages", type=int, default=48,
                         help="synthetic site size")
    cluster.add_argument("--level", type=int, default=1,
                         help="directory-volume level")
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--max-workers", type=int, default=32,
                         help="worker cap per origin and for the LB")
    cluster.add_argument("--idle-timeout", type=float, default=None,
                         help="server-side keep-alive idle reap timeout")
    cluster.add_argument("--snapshot-ttl", type=float, default=1.0,
                         help="LB routing-snapshot TTL in seconds")
    cluster.add_argument("--probe-interval", type=float, default=0.5,
                         help="health-probe interval in seconds")
    cluster.add_argument("--max-seconds", type=float, default=None,
                         help="exit after this many seconds (smoke tests)")
    cluster.add_argument("--sync", action=argparse.BooleanOptionalAction,
                         default=False,
                         help="fsync each origin journal append")
    cluster.set_defaults(handler=_cmd_cluster)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
