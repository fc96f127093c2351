"""Running a workload: set-up, timed passes, checks, and the traced run.

The untraced run produces the end-to-end metrics; a metric's value is
the median of its per-pass values.  The traced run is a separate run
that produces only per-layer metrics: it pairs passes against a plain
stack with passes against a ``REPRO_TELEMETRY=1`` stack (the difference
is the tracing overhead), scrapes counts from the traced children, and
runs the in-process layer probes.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import checks
import inputs
import offline
import probes
import procs
import stats
import workloads
from driver import LoadDriver, PassResult
from workloads import CONNECTIONS, Workload

__all__ = ["END_TO_END", "PER_LAYER", "run_untraced", "run_traced", "RunResult"]

#: name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "cpu_us_per_op": "us",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "httpwire.echo_rtt_us": "us",
    "httpwire.cpu_us_per_echo": "us",
    "httpwire.connect_us": "us",
    "httpwire.async_over_threaded": "ratio",
    "httpmodel.parse_request_us": "us",
    "httpmodel.serialize_response_us": "us",
    "httpmodel.piggy_filter_parse_us": "us",
    "httpmodel.p_volume_format_us": "us",
    "core.filter_apply_us": "us",
    "core.piggyback_bytes_per_response": "B",
    "core.piggyback_elements_per_response": "count",
    "volumes.lookup_us": "us",
    "volumes.observe_us": "us",
    "volumes.epoch_bumps_per_request": "ratio",
    "volumes.estimate_s": "s",
    "volumes.build_s": "s",
    "volumes.counter_count": "count",
    "server.handle_hit_us": "us",
    "server.handle_miss_us": "us",
    "server.cache_hit_ratio": "ratio",
    "server.journal_append_us": "us",
    "server.journal_bytes_per_request": "B",
    "server.cpu_per_request": "us/req",
    "proxy.handle_hit_us": "us",
    "proxy.handle_miss_us": "us",
    "proxy.cache_hit_ratio": "ratio",
    "proxy.origin_contact_ratio": "ratio",
    "proxy.pool_reuse_ratio": "ratio",
    "proxy.cpu_per_request": "us/req",
    "lb.route_us": "us",
    "lb.forward_stub_us": "us",
    "lb.sticky_hit_ratio": "ratio",
    "lb.pool_reuse_ratio": "ratio",
    "lb.shard_balance_max_over_min": "ratio",
    "lb.cpu_per_request": "us/req",
    "lb.p50_over_direct": "ratio",
    "traces.decode_s": "s",
    "traces.compile_s": "s",
    "traces.file_bytes_per_record": "B",
    "analysis.replay_s": "s",
    "analysis.sweep_s": "s",
    "analysis.directory_replay_s": "s",
    "analysis.scale_cost_ratio": "ratio",
    "workloads.gen_records_per_s": "1/s",
    "telemetry.traced_overhead_ratio": "ratio",
    "loadgen.latency_p50_ms": "ms",
    "loadgen.latency_p99_ms": "ms",
    "loadgen.lag_over_latency_p99": "ratio",
    "loadgen.cpu_per_request": "us/req",
    "loadgen.max_rate_within_limit": "1/s",
    "host.steal_ratio": "ratio",
    "host.passes_discarded": "count",
}

#: A pass whose steal ratio exceeds this is discarded and run again.
STEAL_LIMIT = 0.05
#: ... at most this many times per run.
MAX_EXTRA_PASSES = 3
#: Rate search: p99 from due time within this, no failures, no growing backlog.
LATENCY_LIMIT_MS = 10.0
#: A run stops adding passes past this many seconds (the caller's limit is 180).
RUN_DEADLINE_S = 120.0


class RunResult:
    """What one benchmark run reports."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failure_reasons: dict[str, int] = {}
        self.details: dict = {}

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.failure_reasons[reason] = self.failure_reasons.get(reason, 0) + count

    def absorb(self, tally: checks.WireTally) -> None:
        self.attempted += tally.attempted
        self.failed += tally.failed
        for reason, count in tally.reasons.items():
            self.failure_reasons[reason] = self.failure_reasons.get(reason, 0) + count

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


# ---------------------------------------------------------------------------
# CPU placement
# ---------------------------------------------------------------------------


def place_generator() -> set[int]:
    """Pin this process to the first allowed CPU and return the CPUs left
    for the system under test.

    With the generator and the system under test on disjoint CPUs the
    scheduler stops migrating either, which on the 2-core reference host
    cut per-pass CPU-time scatter from about +-25% to about +-5%.  With a
    single CPU (or no affinity support) nothing is pinned.
    """
    if not hasattr(os, "sched_getaffinity"):
        return set()
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return set()
    os.sched_setaffinity(0, {allowed[0]})
    return set(allowed[1:])


# ---------------------------------------------------------------------------
# Wire workloads: one timed pass
# ---------------------------------------------------------------------------


class _PassRecord:
    """Per-pass values of one timed pass, and the checked exchanges."""

    def __init__(self, result: PassResult, tally: checks.WireTally, steal: float,
                 cpu_by_tier: dict[str, float]):
        self.result = result
        self.tally = tally
        self.steal = steal
        self.cpu_by_tier = cpu_by_tier
        completed = max(1, result.completed)
        latencies = result.latencies_ms
        self.values = {
            "throughput_ops_s": result.completed / result.duration,
            "latency_p50_ms": stats.percentile(latencies, 50.0),
            "latency_p99_ms": stats.percentile(latencies, 99.0),
            "cpu_us_per_op": sum(cpu_by_tier.values()) / completed * 1e6,
        }
        self.generator_cpu_us = result.generator_cpu_s / completed * 1e6
        lags = result.lags_ms
        self.lag_p99_ms = stats.percentile(lags, 99.0) if any(lags) else 0.0
        self.failed_latency_limit = (
            tally.failed > 0
            or self.values["latency_p99_ms"] > LATENCY_LIMIT_MS
            or result.backlog_growing()
        )


def _timed_pass(stack, driver: LoadDriver, schedules) -> _PassRecord:
    before = {child: child.sample() for child in stack.children}
    host_before = stats.HostCpu.read()
    result = driver.run_pass(schedules)
    host_after = stats.HostCpu.read()
    cpu_by_tier: dict[str, float] = {}
    for tier, children in stack.tiers.items():
        cpu_by_tier[tier] = sum(
            procs.ProcSample.cpu_between(before[child], child.sample())
            for child in children
        )
    tally = checks.check_exchanges(result.exchanges, stack.sizes, stack.via_proxy)
    return _PassRecord(result, tally, stats.HostCpu.steal_ratio(host_before, host_after),
                       cpu_by_tier)


class _Discards:
    """The run-wide budget of passes that may be discarded for steal."""

    def __init__(self) -> None:
        self.discarded = 0

    def should_discard(self, steal: float) -> bool:
        if steal > STEAL_LIMIT and self.discarded < MAX_EXTRA_PASSES:
            self.discarded += 1
            return True
        return False


def _kept_pass(stack, driver, schedules, discards: _Discards, outcome: RunResult) -> _PassRecord:
    """Run passes until one is kept; every pass's checks count."""
    while True:
        record = _timed_pass(stack, driver, schedules)
        outcome.absorb(record.tally)
        if not discards.should_discard(record.steal):
            return record


def _peak_rss(stack) -> float:
    return max(child.sample().peak_rss_mb for child in stack.children)


def _summaries(per_pass: dict[str, list[float]]) -> dict[str, dict]:
    return {name: stats.summarize(values) for name, values in per_pass.items()}


def _raw_fetch(port: int, wire: bytes) -> bytes:
    """One exchange on a fresh connection, returning the exact bytes."""
    import socket

    from repro.lb.forward import read_raw_response

    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(wire)
        with sock.makefile("rb") as reader:
            return read_raw_response(reader).raw


def _check_lb_identity(stack, driver: LoadDriver, streams, outcome: RunResult,
                       samples: int = 24) -> None:
    """Sampled requests through the load balancer must come back byte for
    byte as the owning shard answers them directly."""
    from repro.lb.hashring import ConsistentHashRing

    ring = ConsistentHashRing(len(stack.tiers["server"]))
    stream = streams[0]
    step = max(1, len(stream) // samples)
    for spec in stream[::step][:samples]:
        request, _ = driver.build_request(0, spec)
        request.headers.remove("If-Modified-Since")
        wire = request.serialize()
        shard = stack.tiers["server"][ring.shard_for_url(spec.url)]
        outcome.attempted += 1
        try:
            if _raw_fetch(stack.front.port, wire) != _raw_fetch(shard.port, wire):
                outcome.fail("lb-not-byte-identical")
        except (OSError, EOFError, ValueError):
            outcome.fail("lb-identity-transport")


def _wire_expectation(workload: Workload, seed: int) -> checks.Expectation:
    return checks.Expectation(workload.name, seed, f"pass_requests={workload.pass_requests}")


def _run_wire(workload: Workload, seed: int, seconds: float, sut_cpus: set[int],
              record_expected: bool) -> RunResult:
    outcome = RunResult()
    passes_per_setup = workload.passes_per_setup(seconds)
    discards = _Discards()
    per_pass: dict[str, list[float]] = {name: [] for name in (
        "throughput_ops_s", "latency_p50_ms", "latency_p99_ms", "cpu_us_per_op")}
    setup_times: list[float] = []
    rss: list[float] = []
    steals: list[float] = []
    measured = checks.WireTally()
    started = time.monotonic()

    for setup_index in range(workload.setup_repeats):
        setup_begin = time.perf_counter()
        inputs.aiusa_log.cache_clear()
        inputs.churn_site.cache_clear()
        with procs.Harness(cpus=sut_cpus) as harness:
            stack = workloads.start_stack(harness, workload)
            streams = workloads.request_streams(workload, seed, setup_index)
            with LoadDriver(stack.front.port, streams,
                            absolute_targets=stack.via_proxy) as driver:
                warm = driver.warm_up()
                setup_times.append(time.perf_counter() - setup_begin)
                outcome.absorb(checks.check_exchanges(
                    warm.exchanges, stack.sizes, stack.via_proxy))
                for _ in range(passes_per_setup):
                    schedules = workloads.arrival_schedules(
                        workload, seed, len(per_pass["cpu_us_per_op"]))
                    record = _kept_pass(stack, driver, schedules, discards, outcome)
                    for name, value in record.values.items():
                        per_pass[name].append(value)
                    steals.append(record.steal)
                    measured.merge(record.tally)
                    if time.monotonic() - started > RUN_DEADLINE_S:
                        break
                if workload.stack == "lb":
                    _check_lb_identity(stack, driver, streams, outcome)
            rss.append(_peak_rss(stack))

    expectation = _wire_expectation(workload, seed)
    piggyback = measured.piggyback_bytes_per_response
    if record_expected:
        expectation.record({"piggyback_bytes_per_response": piggyback})
    elif not expectation.within("piggyback_bytes_per_response", piggyback,
                                checks.PIGGYBACK_TOLERANCE):
        outcome.attempted += 1
        outcome.fail("piggyback-bytes-off-expectation")

    summaries = _summaries({**per_pass, "setup_s": setup_times, "peak_rss_mb": rss})
    outcome.metrics = {name: summaries[name]["median"] for name in END_TO_END}
    outcome.details = {
        "loop": workload.loop,
        "connections": CONNECTIONS,
        "pass_requests": workload.pass_requests,
        "rate": workload.rate or None,
        "passes": len(per_pass["cpu_us_per_op"]),
        "samples_per_pass": workload.pass_requests,
        "per_pass": summaries,
        "steal_ratio": {"max": max(steals), "median": statistics.median(steals)},
        "passes_discarded": discards.discarded,
        "piggyback_bytes_per_response": piggyback,
        "statuses": {str(k): v for k, v in sorted(measured.statuses.items())},
        "x_cache": measured.x_cache,
    }
    return outcome


# ---------------------------------------------------------------------------
# Offline workloads
# ---------------------------------------------------------------------------


def _offline_values(result: dict) -> dict[str, float]:
    operations = result["records"] * result["configs"]
    wall_ms = result["wall_s"] * 1000.0
    return {
        "throughput_ops_s": operations / result["wall_s"],
        # What a user of an offline job waits for is one whole pass.
        "latency_p50_ms": wall_ms,
        "cpu_us_per_op": result["cpu_s"] / operations * 1e6,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _offline_expectation(workload: Workload, seed: int) -> checks.Expectation:
    return checks.Expectation(workload.name, seed, f"size={workload.offline_size:g}")


def _kept_offline_pass(harness, workload: Workload, path, discards: _Discards,
                       extra: list[str] | None = None) -> dict:
    while True:
        host_before = stats.HostCpu.read()
        result = harness.run_offline(workload.name, path, extra)
        result["steal"] = stats.HostCpu.steal_ratio(host_before, stats.HostCpu.read())
        if not discards.should_discard(result["steal"]):
            return result


def _check_offline(results: list[dict], workload: Workload, seed: int,
                   outcome: RunResult, record_expected: bool) -> None:
    """All passes agree exactly; the default seed also matches the file."""
    first = results[0]
    for result in results:
        outcome.attempted += 1
        if (result["fingerprint"] != first["fingerprint"]
                or result["counter_count"] != first["counter_count"]):
            outcome.fail("passes-disagree")
    expectation = _offline_expectation(workload, seed)
    observed = {"fingerprint": first["fingerprint"],
                "counter_count": first["counter_count"], "records": first["records"]}
    if record_expected:
        expectation.record(observed)
        return
    outcome.attempted += 1
    if not all(expectation.equals(name, value) for name, value in observed.items()):
        outcome.fail("result-off-expectation")


def _run_offline(workload: Workload, seed: int, seconds: float, sut_cpus: set[int],
                 record_expected: bool) -> RunResult:
    outcome = RunResult()
    passes_per_setup = workload.passes_per_setup(seconds)
    discards = _Discards()
    per_pass: dict[str, list[float]] = {name: [] for name in END_TO_END if name != "setup_s"}
    setup_times: list[float] = []
    results: list[dict] = []
    started = time.monotonic()

    for _ in range(workload.setup_repeats):
        setup_begin = time.perf_counter()
        with procs.Harness(cpus=sut_cpus) as harness:
            path = harness.workdir / "input"
            offline.write_input(workload.name, str(path), workload.offline_size, seed)
            setup_times.append(time.perf_counter() - setup_begin)
            for _ in range(passes_per_setup):
                result = _kept_offline_pass(harness, workload, path, discards)
                results.append(result)
                for name, value in _offline_values(result).items():
                    per_pass[name].append(value)
                if time.monotonic() - started > RUN_DEADLINE_S:
                    break

    _check_offline(results, workload, seed, outcome, record_expected)
    summaries = _summaries({**per_pass, "setup_s": setup_times})
    outcome.metrics = {name: summaries[name]["median"] for name in END_TO_END}
    steals = [result["steal"] for result in results]
    outcome.details = {
        "loop": "offline",
        "records": results[0]["records"],
        "configs": results[0]["configs"],
        "passes": len(results),
        "samples_per_pass": 1,
        "per_pass": summaries,
        "stages": {name: statistics.median(r["stages"][name] for r in results)
                   for name in results[0]["stages"]},
        "steal_ratio": {"max": max(steals), "median": statistics.median(steals)},
        "passes_discarded": discards.discarded,
    }
    return outcome


def run_untraced(workload: Workload, seed: int, seconds: float, sut_cpus: set[int],
                 record_expected: bool = False) -> RunResult:
    """The end-to-end run: every metric in :data:`END_TO_END`."""
    if workload.kind == "wire":
        return _run_wire(workload, seed, seconds, sut_cpus, record_expected)
    return _run_offline(workload, seed, seconds, sut_cpus, record_expected)


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def _scrape(child, target: str) -> dict:
    from repro.httpmodel.messages import HttpRequest
    from repro.httpwire.netclient import fetch_once

    request = HttpRequest(method="GET", target=target)
    request.headers.set("Host", "localhost")
    request.headers.set("Connection", "close")
    response = fetch_once("127.0.0.1", child.port, request, timeout=10.0)
    if response.status != 200:
        raise procs.HarnessError(f"{child.role} answered {response.status} for {target}")
    return json.loads(response.body.decode("utf-8"))


class _Scrape:
    """Telemetry and status of every child of a stack at one instant."""

    def __init__(self, stack):
        self.metrics = {
            child: _scrape(child, "/.repro/metrics?format=json") for child in stack.children
        }
        self.status = {child: _scrape(child, "/.repro/status") for child in stack.children}

    def counter(self, children, name: str) -> float:
        return sum(self.metrics[child]["counters"].get(name, 0) for child in children)

    def histogram_sum(self, children, name: str) -> float:
        return sum(
            self.metrics[child]["histograms"].get(name, {}).get("sum", 0.0)
            for child in children
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _scraped_metrics(stack, before: _Scrape, after: _Scrape) -> dict[str, float]:
    """Ratios from the traced children's own counters, between two scrapes."""
    out: dict[str, float] = {}

    def delta(children, name: str) -> float:
        return after.counter(children, name) - before.counter(children, name)

    servers = stack.tiers["server"]
    origin_requests = delta(servers, "server_requests_total")
    hits = delta(servers, "server_piggyback_cache_hits_total")
    misses = delta(servers, "server_piggyback_cache_misses_total")
    out["server.cache_hit_ratio"] = _ratio(hits, hits + misses)
    journal = 0.0
    for child in servers:
        state_after = after.status[child].get("durable_state")
        state_before = before.status[child].get("durable_state")
        if state_after and state_before:
            journal += (state_after["journal"]["bytes_written"]
                        - state_before["journal"]["bytes_written"])
    out["server.journal_bytes_per_request"] = _ratio(journal, origin_requests)

    proxies = stack.tiers.get("proxy", [])
    if proxies:
        clients = delta(proxies, "proxy_client_requests_total")
        out["proxy.cache_hit_ratio"] = _ratio(
            delta(proxies, "proxy_outcome_cache_fresh_total"), clients)
        out["proxy.origin_contact_ratio"] = _ratio(
            delta(proxies, "proxy_upstream_exchanges_total"), clients)
        reuses = delta(proxies, "proxy_upstream_pool_reuses_total")
        connects = delta(proxies, "proxy_upstream_pool_connects_total")
        out["proxy.pool_reuse_ratio"] = _ratio(reuses, reuses + connects)
        # The clients of a proxy never see a trailer; take the piggyback
        # volume per origin response from the origin's own instruments.
        out["core.piggyback_bytes_per_response"] = _ratio(
            after.histogram_sum(servers, "server_piggyback_wire_bytes")
            - before.histogram_sum(servers, "server_piggyback_wire_bytes"),
            origin_requests)
        out["core.piggyback_elements_per_response"] = _ratio(
            after.histogram_sum(servers, "server_piggyback_elements")
            - before.histogram_sum(servers, "server_piggyback_elements"),
            origin_requests)

    balancers = stack.tiers.get("lb", [])
    if balancers:
        lb_after = after.status[balancers[0]]["lb"]
        lb_before = before.status[balancers[0]]["lb"]
        routed = [a - b for a, b in zip(lb_after["shard_routes"], lb_before["shard_routes"])]
        out["lb.sticky_hit_ratio"] = _ratio(
            lb_after["sticky"]["hits"] - lb_before["sticky"]["hits"], sum(routed))
        out["lb.shard_balance_max_over_min"] = _ratio(max(routed), min(routed))
        # A shard's accepted connections are the balancer's pool connects
        # plus one per status request: health probes and these scrapes
        # each open (and close) their own.
        pool_connects = 0
        for child, relayed in zip(servers, routed):
            wire_after = after.status[child]["wire_stats"]
            wire_before = before.status[child]["wire_stats"]
            accepted = wire_after["connections_accepted"] - wire_before["connections_accepted"]
            served = wire_after["requests_served"] - wire_before["requests_served"]
            pool_connects += max(0, accepted - (served - relayed))
        out["lb.pool_reuse_ratio"] = 1.0 - _ratio(pool_connects, sum(routed))
    return out


def _median_of(records: list[_PassRecord], name: str) -> float:
    return statistics.median(record.values[name] for record in records)


def _paired_passes(stacks_and_drivers, schedules_for, pairs: int, discards: _Discards,
                   outcome: RunResult, tracer) -> list[list[_PassRecord]]:
    """Alternate passes between several (stack, driver, label) triples so
    slow drift of the host lands on all of them alike."""
    kept: list[list[_PassRecord]] = [[] for _ in stacks_and_drivers]
    for index in range(pairs):
        for slot, (stack, driver, label) in enumerate(stacks_and_drivers):
            with tracer.span(f"pass:{label}"):
                kept[slot].append(
                    _kept_pass(stack, driver, schedules_for(index), discards, outcome))
    return kept


def _trace_wire(workload: Workload, seed: int, seconds: float, sut_cpus: set[int],
                tracer, outcome: RunResult) -> dict[str, float]:
    layer: dict[str, float] = {}
    discards = _Discards()
    pairs = min(4, max(2, workload.passes_per_setup(seconds)))
    streams = workloads.request_streams(workload, seed)
    steals: list[float] = []

    def schedules_for(index: int):
        return workloads.arrival_schedules(workload, seed, index)

    with procs.Harness(cpus=sut_cpus) as plain, \
            procs.Harness(telemetry=True, cpus=sut_cpus) as traced:
        with tracer.span("setup"):
            stack_plain = workloads.start_stack(plain, workload)
            stack_traced = workloads.start_stack(traced, workload)
        with LoadDriver(stack_plain.front.port, streams,
                        absolute_targets=stack_plain.via_proxy) as driver_plain, \
                LoadDriver(stack_traced.front.port, streams,
                           absolute_targets=stack_traced.via_proxy,
                           tracer=tracer) as driver_traced:
            for stack, driver in ((stack_plain, driver_plain), (stack_traced, driver_traced)):
                with tracer.span("warm-up"):
                    warm = driver.warm_up()
                outcome.absorb(checks.check_exchanges(warm.exchanges, stack.sizes,
                                                      stack.via_proxy))
            before = _Scrape(stack_traced)
            plain_passes, traced_passes = _paired_passes(
                [(stack_plain, driver_plain, "plain"),
                 (stack_traced, driver_traced, "traced")],
                schedules_for, pairs, discards, outcome, tracer)
            after = _Scrape(stack_traced)
            layer.update(_scraped_metrics(stack_traced, before, after))
            steals += [record.steal for record in plain_passes + traced_passes]

            layer["telemetry.traced_overhead_ratio"] = (
                _median_of(traced_passes, "cpu_us_per_op")
                / _median_of(plain_passes, "cpu_us_per_op") - 1.0
            )
            # Per-process accounting and the generator's own view need no
            # telemetry: they come from the plain stack's passes.
            for tier in stack_plain.tiers:
                layer[f"{tier}.cpu_per_request"] = statistics.median(
                    record.cpu_by_tier[tier] / max(1, record.result.completed) * 1e6
                    for record in plain_passes)
            layer["loadgen.cpu_per_request"] = statistics.median(
                record.generator_cpu_us for record in plain_passes)
            layer["loadgen.latency_p50_ms"] = _median_of(plain_passes, "latency_p50_ms")
            layer["loadgen.latency_p99_ms"] = _median_of(plain_passes, "latency_p99_ms")
            layer["loadgen.lag_over_latency_p99"] = statistics.median(
                _ratio(record.lag_p99_ms, record.values["latency_p99_ms"])
                for record in plain_passes)
            if not stack_traced.via_proxy:
                seen = checks.WireTally()
                for record in traced_passes:
                    seen.merge(record.tally)
                layer["core.piggyback_bytes_per_response"] = seen.piggyback_bytes_per_response
                layer["core.piggyback_elements_per_response"] = (
                    seen.piggyback_elements_per_response)

            if workload.loop == "open":
                layer["loadgen.max_rate_within_limit"] = _rate_search(
                    workload, seed, stack_plain, driver_plain, plain_passes,
                    discards, outcome, tracer)
            if workload.stack == "lb":
                layer["lb.p50_over_direct"] = _relay_over_direct(
                    stack_plain, driver_plain, streams, discards, outcome, tracer)
            with tracer.span("frontend-probes"):
                layer.update(probes.frontend_probes(
                    tracer, stack_plain.origin, stack_plain.host))

        if workload.name == "origin_hot":
            layer["httpwire.async_over_threaded"] = _async_over_threaded(
                workload, plain, stack_plain, streams, discards, outcome, tracer)

    _check_cache_behaviour(workload, layer, outcome)
    engine_kind = "durable" if workload.stack == "durable" else "static"
    probe_specs = [
        spec if spec.piggy_filter is not None
        # What a proxy's clients send carries no filter; the origin sees
        # the proxy's own, so that is what the origin-side layers get.
        else inputs.RequestSpec(spec.url, inputs.HOT_FILTER, spec.conditional)
        for spec in streams[0]
    ]
    with procs.Harness() as scratch:
        with tracer.span("wire-layer-probes"):
            layer.update(probes.wire_layer_probes(
                tracer, probe_specs, engine_kind, scratch.workdir))
        with tracer.span("offline-layer-probes"):
            layer.update(probes.offline_layer_probes(tracer, scratch.workdir))
    layer["host.steal_ratio"] = max(steals)
    layer["host.passes_discarded"] = float(discards.discarded)
    return layer


def _check_cache_behaviour(workload: Workload, layer: dict[str, float],
                           outcome: RunResult) -> None:
    """The two origin workloads are defined by what the piggyback cache
    does on them; a run where it does otherwise measured something else."""
    ratio = layer["server.cache_hit_ratio"]
    outcome.attempted += 1
    if workload.stack == "durable":
        if ratio > 0.15:
            outcome.fail("churn-cache-hit-ratio-not-near-zero")
    elif workload.kind == "wire" and ratio < 0.9:
        outcome.fail("hot-cache-hit-ratio-below-0.9")


def _rate_search(workload, seed, stack, driver, base_passes, discards, outcome,
                 tracer) -> float:
    """Single passes at half, twice and four times the workload's rate:
    the highest offered rate that kept p99 from due time within the
    limit, with no failure and no growing backlog."""
    best = 0.0
    if not any(record.failed_latency_limit for record in base_passes):
        best = workload.rate
    for factor in (0.5, 2.0, 4.0):
        rate = workload.rate * factor
        schedules = workloads.arrival_schedules(workload, seed, 0, rate)
        with tracer.span(f"rate-search:{rate:g}"):
            record = _kept_pass(stack, driver, schedules, discards, outcome)
        if not record.failed_latency_limit:
            best = max(best, rate)
    return best


def _relay_over_direct(stack, driver_lb, streams, discards, outcome, tracer,
                       pairs: int = 3) -> float:
    """Median latency through the balancer over the same traffic sent
    straight to one shard (every shard holds the whole site)."""
    shard = stack.origin
    direct_stack = workloads.Stack(shard, {"server": [shard]}, stack.sizes, stack.host)
    with LoadDriver(shard.port, streams) as driver_direct:
        outcome.absorb(checks.check_exchanges(
            driver_direct.warm_up().exchanges, stack.sizes))
        relayed, direct = _paired_passes(
            [(stack, driver_lb, "relayed"), (direct_stack, driver_direct, "direct")],
            lambda index: None, pairs, discards, outcome, tracer)
    return _median_of(relayed, "latency_p50_ms") / _median_of(direct, "latency_p50_ms")


def _async_over_threaded(workload, harness, stack_threaded, streams, discards, outcome,
                         tracer, pairs: int = 3) -> float:
    """Throughput of the asyncio frontend over the threaded one on paired
    ``origin_hot`` passes at this benchmark's two connections."""
    stack_async = workloads.start_stack(harness, workload, backend="async")
    with LoadDriver(stack_threaded.front.port, streams) as driver_threaded, \
            LoadDriver(stack_async.front.port, streams) as driver_async:
        for stack, driver in ((stack_threaded, driver_threaded), (stack_async, driver_async)):
            outcome.absorb(checks.check_exchanges(
                driver.warm_up().exchanges, stack.sizes))
        threaded, asynchronous = _paired_passes(
            [(stack_threaded, driver_threaded, "threaded"),
             (stack_async, driver_async, "async")],
            lambda index: None, pairs, discards, outcome, tracer)
    return (_median_of(asynchronous, "throughput_ops_s")
            / _median_of(threaded, "throughput_ops_s"))


def _trace_offline(workload: Workload, seed: int, seconds: float, sut_cpus: set[int],
                   tracer, outcome: RunResult) -> dict[str, float]:
    layer: dict[str, float] = {}
    discards = _Discards()
    plain_results: list[dict] = []
    traced_results: list[dict] = []
    stage_metrics = {
        "traces.decode": "traces.decode_s",
        "volumes.estimate": "volumes.estimate_s",
        "volumes.build": "volumes.build_s",
        "analysis.replay": "analysis.replay_s",
        "traces.compile": "traces.compile_s",
        "analysis.sweep": "analysis.sweep_s",
        "analysis.directory_replay": "analysis.directory_replay_s",
    }
    with procs.Harness(cpus=sut_cpus) as plain, \
            procs.Harness(telemetry=True, cpus=sut_cpus) as traced:
        path = plain.workdir / "input"
        with tracer.span("setup"):
            begin = time.perf_counter()
            facts = offline.write_input(workload.name, str(path), workload.offline_size, seed)
            generation_s = time.perf_counter() - begin
        for _ in range(2):
            with tracer.span("pass:plain"):
                plain_results.append(_kept_offline_pass(plain, workload, path, discards))
            with tracer.span("pass:traced"):
                traced_results.append(_kept_offline_pass(
                    traced, workload, path, discards, ["--decode-probe"]))
        # Telemetry must not change what the engines compute.
        _check_offline(plain_results + traced_results, workload, seed, outcome, False)
        for result in traced_results:
            for span in result["spans"]:
                tracer.record(span["name"], span["start"], span["end"])
        for stage, metric in stage_metrics.items():
            if stage in traced_results[0]["stages"]:
                layer[metric] = statistics.median(
                    result["stages"][stage] for result in traced_results)

        def cpu_per_op(results: list[dict]) -> float:
            return statistics.median(
                _offline_values(result)["cpu_us_per_op"] for result in results)

        layer["telemetry.traced_overhead_ratio"] = (
            cpu_per_op(traced_results) / cpu_per_op(plain_results) - 1.0)
        if workload.name == "replay_stream":
            layer["volumes.counter_count"] = float(traced_results[0]["counter_count"])
            layer["traces.file_bytes_per_record"] = facts["file_bytes"] / facts["records"]
            layer["workloads.gen_records_per_s"] = facts["records"] / generation_s
            prefix = plain.workdir / "prefix"
            prefix_records = offline.write_prefix(str(path), str(prefix), facts["records"] // 4)
            with tracer.span("pass:prefix"):
                small = _kept_offline_pass(plain, workload, prefix, discards)
            full_cost = statistics.median(
                result["wall_s"] for result in plain_results) / facts["records"]
            layer["analysis.scale_cost_ratio"] = full_cost / (small["wall_s"] / prefix_records)
        # The wire layers are off this workload's path; probe them on the
        # reference stack so every layer has a number in every traced run.
        hot = workloads.WORKLOADS["origin_hot"]
        hot_streams = workloads.request_streams(hot, seed)
        reference = workloads.start_stack(plain, hot)
        with LoadDriver(reference.front.port, hot_streams) as driver:
            outcome.absorb(checks.check_exchanges(
                driver.warm_up().exchanges, reference.sizes))
            with tracer.span("pass:reference"):
                record = _kept_pass(reference, driver, None, discards, outcome)
        layer["loadgen.latency_p50_ms"] = record.values["latency_p50_ms"]
        layer["loadgen.latency_p99_ms"] = record.values["latency_p99_ms"]
        with tracer.span("frontend-probes"):
            layer.update(probes.frontend_probes(tracer, reference.origin, reference.host))
        with tracer.span("wire-layer-probes"):
            layer.update(probes.wire_layer_probes(
                tracer, hot_streams[0], "static", plain.workdir))
        with tracer.span("offline-layer-probes"):
            layer.update(probes.offline_layer_probes(
                tracer, plain.workdir, skip=workload.name))
    steals = [result["steal"] for result in plain_results + traced_results]
    layer["host.steal_ratio"] = max(steals)
    layer["host.passes_discarded"] = float(discards.discarded)
    return layer


def run_traced(workload: Workload, seed: int, seconds: float, sut_cpus: set[int],
               tracer) -> RunResult:
    """The traced run: every metric in :data:`PER_LAYER`; a layer that is
    not on this workload's path and has nothing to count reads 0."""
    outcome = RunResult()
    runner = _trace_wire if workload.kind == "wire" else _trace_offline
    with tracer.span(f"run:{workload.name}"):
        layer = runner(workload, seed, seconds, sut_cpus, tracer, outcome)
    unknown = set(layer) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"layer metrics not declared in PER_LAYER: {sorted(unknown)}")
    outcome.metrics = {name: float(layer.get(name, 0.0)) for name in PER_LAYER}
    outcome.details = {"spans": len(tracer.spans)}
    return outcome
