"""The seven workloads: what each offers, to which stack, and why.

Names are stable identifiers (``BENCHMARK.json`` lists the same seven).
Work per pass is fixed by *count*; ``--seconds`` only chooses how many
passes a run makes, through each workload's committed nominal pass
time, so two commits measured with the same ``--seconds`` do exactly the
same work and grow the same state.
"""

from __future__ import annotations

from dataclasses import dataclass

import inputs

__all__ = [
    "Workload", "WORKLOADS", "CONNECTIONS", "SETUP_REPEATS", "Stack", "start_stack",
    "request_streams", "arrival_schedules",
]

#: One generator process, this many keep-alive connections (= nproc here).
CONNECTIONS = 2

#: A run sets up this many times and measures on every one of them:
#: ``setup_s`` is the median, and per-process layout luck (ASLR, page
#: placement) is averaged inside a run instead of across runs.
SETUP_REPEATS = 3


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    kind: str  # "wire" or "offline"
    why: str
    # wire workloads
    stack: str = ""  # static | durable | lb | proxy
    loop: str = "closed"  # closed | open
    pass_requests: int = 0  # per pass, over all connections
    rate: float = 0.0  # open loop: arrivals per second
    # both kinds: what one pass takes on the reference host, used only to
    # turn --seconds into a pass count
    nominal_pass_seconds: float = 1.0
    # offline workloads: input size (records, or preset scale)
    offline_size: float = 0.0
    setup_repeats: int = SETUP_REPEATS

    def passes_per_setup(self, seconds: float) -> int:
        return max(1, round(seconds / (self.setup_repeats * self.nominal_pass_seconds)))


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "origin_hot", "wire", stack="static", pass_requests=3200,
        nominal_pass_seconds=0.5,
        why="static probability volumes: epochs never move, so the piggyback-cache hit "
            "path and per-message wire cost do nearly all the work",
    ),
    Workload(
        "origin_churn", "wire", stack="durable", pass_requests=4000,
        nominal_pass_seconds=1.1,
        why="journaled move-to-front directory volumes: every access is a write, the "
            "cache always misses, so lookup, filter, build and serialise dominate",
    ),
    Workload(
        "origin_open", "wire", stack="static", loop="open", pass_requests=3200,
        rate=2000.0, nominal_pass_seconds=1.6,
        why="origin_hot under seeded Poisson arrivals timed from due time: latency as "
            "independent proxies see it, where queueing shows before throughput moves",
    ),
    Workload(
        "lb_relay", "wire", stack="lb", pass_requests=3200,
        nominal_pass_seconds=1.1,
        why="origin_hot traffic through the load balancer to 2 shards: with the cheapest "
            "origin behind it the relay hop's share of a request is maximal",
    ),
    Workload(
        "proxy_chain", "wire", stack="proxy", pass_requests=6400,
        nominal_pass_seconds=1.3,
        why="clients to caching proxy to origin, cache at 25% of the working set and 2 s "
            "freshness: hits bypass the origin, validations and replacement do real work",
    ),
    Workload(
        "replay_stream", "offline", nominal_pass_seconds=1.0, offline_size=40000,
        why="on-disk chunked internet trace through estimate, build and one-pass "
            "multi-config replay: chunk decode, per-source state and pruning dominate",
    ),
    Workload(
        "sweep_inmem", "offline", nominal_pass_seconds=1.0, offline_size=0.7,
        why="in-memory aiusa log through compile, a 9-threshold sweep and a directory "
            "replay: the path every paper figure uses, no chunk decode, no pruning",
    ),
)}


class Stack:
    """A running wire stack: the child the driver talks to, every tier by
    layer name, and what the generated site says each body must be."""

    def __init__(self, front, tiers: dict[str, list], sizes: dict[str, int],
                 host: str, via_proxy: bool = False):
        self.front = front
        self.tiers = tiers
        self.sizes = sizes
        self.host = host
        self.via_proxy = via_proxy

    @property
    def children(self) -> list:
        return [child for group in self.tiers.values() for child in group]

    @property
    def origin(self):
        """An origin child (the first shard behind a load balancer)."""
        return self.tiers["server"][0]


def _aiusa_sizes() -> dict[str, int]:
    _, site = inputs.aiusa_log()
    return {url: resource.size for url, resource in site.resources.items()}


def start_stack(harness, workload: Workload, backend: str = "threaded") -> Stack:
    """Start every tier of *workload*'s stack and wait for readiness."""
    kind = workload.stack
    if kind == "static":
        (origin,) = harness.start_all([lambda: harness.spawn_static_origin(backend)])
        return Stack(origin, {"server": [origin]}, _aiusa_sizes(), inputs.AIUSA_HOST)
    if kind == "durable":
        site = inputs.churn_site()
        (origin,) = harness.start_all(
            [lambda: harness.spawn_durable_origin(inputs.CHURN_SITE)]
        )
        sizes = {url: resource.size for url, resource in site.resources.items()}
        return Stack(origin, {"server": [origin]}, sizes, site.host)
    if kind == "lb":
        shards = harness.start_all([
            lambda: harness.spawn_static_origin(role="shard-0"),
            lambda: harness.spawn_static_origin(role="shard-1"),
        ])
        (lb,) = harness.start_all([
            lambda: harness.spawn_lb(inputs.AIUSA_HOST, [s.port for s in shards])
        ])
        return Stack(lb, {"lb": [lb], "server": shards}, _aiusa_sizes(), inputs.AIUSA_HOST)
    if kind == "proxy":
        (origin,) = harness.start_all([lambda: harness.spawn_static_origin()])
        sizes = _aiusa_sizes()
        cleaned, _ = inputs.aiusa_log()
        working_set = sum(sizes[url] for url in {record.url for record in cleaned})
        (proxy,) = harness.start_all([
            lambda: harness.spawn_proxy(inputs.AIUSA_HOST, origin.port, working_set // 4)
        ])
        return Stack(proxy, {"proxy": [proxy], "server": [origin]}, sizes,
                     inputs.AIUSA_HOST, via_proxy=True)
    raise ValueError(f"workload {workload.name} has no wire stack")


def request_streams(workload: Workload, seed: int, setup_index: int = 0):
    """The seeded per-connection request streams of one pass.

    Each of a run's set-ups draws its own streams from the seed: a run
    then samples several stretches of the trace, and its medians depend
    less on which stretch one seed happened to pick.
    """
    per_connection = workload.pass_requests // CONNECTIONS
    draw = f"{seed}/{setup_index}"
    if workload.stack == "durable":
        return inputs.zipf_stream(draw, CONNECTIONS, per_connection)
    if workload.stack == "proxy":
        # Clients of a proxy speak plain HTTP: no filter, no validators.
        return inputs.trace_order_stream(draw, CONNECTIONS, per_connection, None, 0.0)
    return inputs.trace_order_stream(draw, CONNECTIONS, per_connection, inputs.HOT_FILTER)


def arrival_schedules(workload: Workload, seed: int, pass_index: int,
                      rate: float | None = None):
    """Open-loop arrival offsets per connection for one pass, or None for
    a closed loop."""
    if workload.loop != "open":
        return None
    return inputs.poisson_schedule(
        seed, rate or workload.rate, CONNECTIONS,
        workload.pass_requests // CONNECTIONS, pass_index,
    )
