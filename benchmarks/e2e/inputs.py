"""Input generation: sites, volumes and seeded request streams.

The *sites* are fixed — the ``aiusa`` preset and one generated site —
so that a run's cost does not depend on which seed it got; ``--seed``
drives everything a client decides: where in the trace each connection
starts, which URLs a Zipf stream draws, which filter and which
``If-Modified-Since`` coin each request gets, and the open-loop arrival
times.  Children rebuild the same site from the same constants, so the
system under test only ever sees generated requests.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

__all__ = [
    "AIUSA_HOST",
    "CHURN_SITE",
    "RequestSpec",
    "aiusa_log",
    "static_origin_engine",
    "proxy_config",
    "churn_site",
    "trace_order_stream",
    "zipf_stream",
    "poisson_schedule",
]

AIUSA_HOST = "www.aiusa.example"
AIUSA_SCALE = 0.6
PROBABILITY_THRESHOLD = 0.2

HOT_FILTER = "maxpiggy=10"
CHURN_FILTERS = (
    "maxpiggy=20",
    "maxpiggy=20; minaccess=2",
    'maxpiggy=5; maxsize=16384; notype="image"',
)
IMS_FRACTION = 0.3
ZIPF_ALPHA = 1.0


@dataclass(frozen=True, slots=True)
class ChurnSite:
    """The generated site ``origin_churn`` serves, as CLI arguments."""

    host: str = "www.churn.example"
    page_count: int = 1536
    directory_count: int = 48
    max_depth: int = 2
    seed: int = 11


CHURN_SITE = ChurnSite()


@dataclass(frozen=True, slots=True)
class RequestSpec:
    """One generated request: what to ask for and how."""

    url: str  # canonical host/path
    piggy_filter: str | None
    conditional: bool  # send If-Modified-Since once a Last-Modified is known


# -- sites and engines ------------------------------------------------------


@functools.lru_cache(maxsize=1)
def aiusa_log():
    """(cleaned trace, site) of the ``aiusa`` preset at benchmark scale."""
    from repro.traces.clean import CleaningConfig, clean_trace
    from repro.workloads.synth import server_log_preset

    trace, site = server_log_preset("aiusa", scale=AIUSA_SCALE)
    cleaned, _ = clean_trace(trace, CleaningConfig(min_accesses=10))
    return cleaned, site


def static_origin_engine():
    """The ``origin_hot`` engine: static probability volumes, cache on."""
    from repro.server.resources import ResourceStore
    from repro.server.server import PiggybackServer
    from repro.volumes.probability import (
        PairwiseConfig,
        ProbabilityVolumeStore,
        build_probability_volumes,
        estimate_pairwise,
    )

    cleaned, site = aiusa_log()
    estimator = estimate_pairwise(cleaned, PairwiseConfig())
    volumes = build_probability_volumes(estimator, PROBABILITY_THRESHOLD)
    engine = PiggybackServer(
        ResourceStore.from_site(site), ProbabilityVolumeStore(volumes)
    )
    return engine, site.host


def proxy_config(capacity_bytes: int):
    from repro.proxy.proxy import ProxyConfig

    return ProxyConfig(
        name="e2e-proxy",
        freshness_interval=2.0,
        rpv_timeout=1.0,
        max_piggyback_elements=10,
        cache_capacity_bytes=capacity_bytes,
    )


@functools.lru_cache(maxsize=1)
def churn_site():
    """The site ``repro serve`` generates for :data:`CHURN_SITE`."""
    from repro.workloads.sitegen import SiteConfig, generate_site

    spec = CHURN_SITE
    return generate_site(SiteConfig(
        host=spec.host, page_count=spec.page_count,
        directory_count=spec.directory_count, max_depth=spec.max_depth,
        seed=spec.seed,
    ))


# -- request streams --------------------------------------------------------


def trace_order_stream(
    seed: int | str, connections: int, per_connection: int, piggy_filter: str | None,
    ims_fraction: float = IMS_FRACTION,
) -> list[list[RequestSpec]]:
    """Each connection replays the preset trace's own URL order from a
    seeded starting offset, so Zipf skew and co-access are the log's."""
    cleaned, _ = aiusa_log()
    urls = [record.url for record in cleaned]
    rng = random.Random(f"trace-order:{seed}")
    streams = []
    for _ in range(connections):
        offset = rng.randrange(len(urls))
        streams.append([
            RequestSpec(
                urls[(offset + position) % len(urls)],
                piggy_filter,
                rng.random() < ims_fraction,
            )
            for position in range(per_connection)
        ])
    return streams


def zipf_stream(seed: int | str, connections: int, per_connection: int) -> list[list[RequestSpec]]:
    """A seeded Zipf multiset over the churn site with a filter mix."""
    from repro.workloads.zipf import ZipfSampler

    site = churn_site()
    # Popularity order is fixed (not seeded): a seed must change which
    # requests are drawn, not which resource is the hottest.
    ranked = sorted(site.resources)
    random.Random("churn-popularity").shuffle(ranked)
    sampler = ZipfSampler(ranked, alpha=ZIPF_ALPHA)
    rng = random.Random(f"zipf:{seed}")
    return [
        [
            RequestSpec(
                sampler.sample(rng),
                CHURN_FILTERS[rng.randrange(len(CHURN_FILTERS))],
                rng.random() < IMS_FRACTION,
            )
            for _ in range(per_connection)
        ]
        for _ in range(connections)
    ]


def poisson_schedule(seed: int, rate: float, connections: int,
                     per_connection: int, pass_index: int = 0) -> list[list[float]]:
    """Seeded Poisson arrival offsets at *rate*/s, dealt round-robin.

    Each pass of a run draws its own schedule: a tail percentile over a
    few thousand arrivals is set by that schedule's few worst bursts, so
    one schedule per run would make the run's p99 a property of its seed.
    """
    rng = random.Random(f"arrivals:{seed}:{rate}:{pass_index}")
    schedules: list[list[float]] = [[] for _ in range(connections)]
    now = 0.0
    for position in range(connections * per_connection):
        now += rng.expovariate(rate)
        schedules[position % connections].append(now)
    return schedules
