"""Sharded multi-origin cluster behind a volume-aware load balancer.

The paper's piggyback protocol keeps per-proxy state on the origin: the
replicated proxy volume (RPV) remembers which volumes each proxy has
already been sent, so follow-up responses can suppress redundant
piggybacks.  Scaling the origin past one process therefore cannot be a
dumb round-robin — a client bouncing between backends would find its RPV
state missing on every other request and be re-sent volumes it already
holds.  This package is the front tier that makes horizontal scale
protocol-aware:

* **partitioning** — volume stores are shared-nothing: URLs are mapped to
  shards by consistent hashing on the origin host plus top-level
  directory prefix (:mod:`.hashring`), so one shard owns all the state
  for one directory volume and its trailers are exactly what a
  single-process origin serving that partition would emit;
* **stickiness** — within a shard's replica set, each client (proxy) is
  pinned to one backend (:mod:`.sticky`), keeping its RPV/piggyback
  state coherent across requests;
* **balance** — first requests and re-pins pick the healthy replica with
  the lowest inflight/weight score (weighted least-connections);
* **health** — active probes of each origin's ``/.repro/status`` admin
  endpoint eject dead or draining backends and readmit recovered ones
  (:mod:`.health`); forwarding failures eject passively and retry on a
  surviving replica;
* **hot path** — per-request routing reads one immutable
  :class:`~repro.lb.routing.RoutingSnapshot` attribute, rebuilt at most
  once per snapshot TTL, and relays origin response bytes verbatim
  (:mod:`.forward`) — no response re-serialization, which is also what
  makes trailer byte-identity through the front tier structural rather
  than incidental.

:mod:`.cluster` supervises the origin processes themselves (in-process
for tests and ``repro loadtest``, subprocesses with per-shard state
directories for ``repro cluster``).
"""

from .balancer import LbHttpServer, LbPolicy
from .cluster import (
    ClusterConfig,
    ClusterError,
    LocalCluster,
    ProcessCluster,
)
from .forward import BackendError, Forwarder, RelayedResponse
from .hashring import ConsistentHashRing, partition_key
from .health import HealthChecker, HealthPolicy
from .routing import BackendSlot, RoutingSnapshot, RoutingTable
from .sticky import StickySessions

__all__ = [
    "BackendError",
    "BackendSlot",
    "ClusterConfig",
    "ClusterError",
    "ConsistentHashRing",
    "Forwarder",
    "HealthChecker",
    "HealthPolicy",
    "LbHttpServer",
    "LbPolicy",
    "LocalCluster",
    "ProcessCluster",
    "RelayedResponse",
    "RoutingSnapshot",
    "RoutingTable",
    "StickySessions",
]
