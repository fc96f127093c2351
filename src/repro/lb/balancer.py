"""The front-tier request path: partition, pin, pick, relay, retry.

:class:`LbHttpServer` holds routing, stickiness, and forwarding on the
threaded frontend, the only one the load balancer has.

Per-request work, in order:

1. canonicalize the URL with the origin's own function
   (:func:`repro.urls.request_url`), take its partition key, and map it
   to a shard on the consistent-hash ring;
2. read the routing snapshot (one attribute load on the fast path);
3. resolve the client's sticky pin for that shard, else pick the
   healthy replica with the lowest weighted-least-connections score;
4. forward the request bytes the frontend framed, with only the
   hop-by-hop ``Connection`` line dropped, and relay the origin's
   response bytes verbatim — neither direction is re-serialized, so a
   chunked request body reaches the origin with its own framing;
5. on a backend failure: eject the replica passively, drop its pins and
   pooled connections, and retry the same request bytes on a surviving
   replica of the same shard — the client sees one response, not the
   failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..devtools.lockorder import make_lock
from ..httpmodel.framing import drop_field
from ..httpmodel.messages import HttpRequest, HttpResponse
from ..httpwire.connbase import ThreadedWireServer
from ..telemetry import REGISTRY
from ..urls import request_url
from .forward import BackendError, Forwarder
from .hashring import ConsistentHashRing, partition_key
from .routing import BackendSlot, RoutingTable
from .sticky import StickySessions

__all__ = ["LbHttpServer", "LbPolicy"]

_TEL_ROUTES = REGISTRY.counter(
    "lb_route_total", "requests routed to a backend shard"
)
_TEL_STICKY_HITS = REGISTRY.counter(
    "lb_sticky_hits_total", "requests served by the client's pinned replica"
)
_TEL_RETRIES = REGISTRY.counter(
    "lb_retries_total", "requests replayed on another replica after a backend failure"
)
_TEL_BACKEND_ERRORS = REGISTRY.counter(
    "lb_backend_errors_total", "forwarding attempts that failed (connect, I/O, parse)"
)
_TEL_UNROUTABLE = REGISTRY.counter(
    "lb_unroutable_total", "requests refused because a shard had no healthy replica"
)


@dataclass(slots=True)
class LbPolicy:
    """Tunables for the front tier."""

    snapshot_ttl: float = 1.0
    vnodes: int = 64
    sticky_capacity: int = 4096
    backend_timeout: float = 10.0
    pool_size: int = 32
    pool_idle_timeout: float = 30.0
    # Replicas tried per request beyond the first pick; each retry
    # replays the identical request bytes (GET/HEAD traffic — safe).
    retries: int = 1

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.backend_timeout <= 0:
            raise ValueError("backend_timeout must be positive")


class LbHttpServer(ThreadedWireServer):
    """Threaded front-tier server over a routing table."""

    def __init__(
        self,
        table: RoutingTable,
        address: str = "127.0.0.1",
        port: int = 0,
        *,
        policy: LbPolicy | None = None,
        site_host: str = "origin.example",
        backlog: int = 64,
        io_timeout: float = 30.0,
        idle_timeout: float | None = None,
        max_workers: int = 64,
        name: str = "lb",
    ):
        super().__init__(
            address,
            port,
            backlog=backlog,
            io_timeout=io_timeout,
            idle_timeout=idle_timeout,
            max_workers=max_workers,
            name=name,
        )
        self.lb_policy = policy or LbPolicy()
        self.lb_table = table
        self.site_host = site_host
        self.lb_ring = ConsistentHashRing(table.shard_count, vnodes=self.lb_policy.vnodes)
        self.lb_sticky = StickySessions(self.lb_policy.sticky_capacity)
        self.lb_forwarder = Forwarder(
            timeout=self.lb_policy.backend_timeout,
            pool_size=self.lb_policy.pool_size,
            idle_timeout=self.lb_policy.pool_idle_timeout,
        )
        self._lb_stats_lock = make_lock("LbHttpServer._lb_stats_lock")
        self._lb_shard_routes = [0] * table.shard_count
        self._lb_retried = 0
        self._lb_unroutable = 0

    def stop(self, drain_timeout: float = 5.0) -> None:
        super().stop(drain_timeout=drain_timeout)
        self.lb_forwarder.close()

    # -- replica selection -------------------------------------------------

    @staticmethod
    def _least_loaded(candidates: tuple[BackendSlot, ...]) -> BackendSlot:
        best = candidates[0]
        best_score = best.load_score()
        for slot in candidates[1:]:
            score = slot.load_score()
            if score < best_score:
                best, best_score = slot, score
        return best

    def _pick(
        self,
        client: str,
        shard: int,
        excluded: set[str],
    ) -> tuple[BackendSlot | None, bool]:
        """The replica to try next for (client, shard), honoring pins.

        Reads a fresh snapshot each call: after a passive ejection the
        table version has moved, so the retry sees the survivor set.
        """
        snapshot = self.lb_table.current()
        candidates = tuple(
            slot for slot in snapshot.shards[shard] if slot.key not in excluded
        )
        if not candidates:
            return None, False
        slot, hit = self.lb_sticky.resolve(client, shard, candidates)
        if slot is not None:
            return slot, hit
        slot = self._least_loaded(candidates)
        self.lb_sticky.pin(client, shard, slot)
        return slot, False

    # -- request path ------------------------------------------------------

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        url = request_url(request.target, request.headers.get("Host"), self.site_host)
        shard = self.lb_ring.shard_for_key(partition_key(url))
        client = request.headers.get("X-Proxy-Name") or "wire-proxy"
        # ``Connection`` governs the client-LB hop only; forwarding it
        # would let a ``Connection: close`` client tear down a pooled
        # backend connection per request.  Every other byte — Host,
        # ``Piggy-filter``, ``X-Proxy-Name``, body framing — goes out
        # exactly as received, which the trailer-identity guarantee needs.
        wire = request.raw
        if "Connection" in request.headers:
            wire = drop_field(wire, "connection")

        _TEL_ROUTES.inc()
        with self._lb_stats_lock:
            self._lb_shard_routes[shard] += 1

        excluded: set[str] = set()
        attempts = self.lb_policy.retries + 1
        for attempt in range(attempts):
            slot, sticky_hit = self._pick(client, shard, excluded)
            if slot is None:
                break
            if sticky_hit:
                _TEL_STICKY_HITS.inc()
            if attempt:
                _TEL_RETRIES.inc()
                with self._lb_stats_lock:
                    self._lb_retried += 1
            slot.begin()
            try:
                # The relay blocks on its backend socket.  Only the threaded
                # frontend serves the LB; the call graph also links the
                # asyncio origin's dispatch here, through the shared base.
                # repro: allow[flow-blocking-reachable]
                return self.lb_forwarder.forward(slot, wire)
            except BackendError:
                _TEL_BACKEND_ERRORS.inc()
                slot.note_error()
                excluded.add(slot.key)
                # Passive ejection: the active prober readmits the
                # backend once it answers status probes again.
                self.lb_table.eject(slot, reason="forward")
                self.lb_sticky.forget_slot(slot)
                self.lb_forwarder.discard_backend(slot)
            finally:
                slot.finish()
        _TEL_UNROUTABLE.inc()
        with self._lb_stats_lock:
            self._lb_unroutable += 1
        status = 503 if not excluded else 502
        body = (
            b"no healthy replica for shard\n"
            if status == 503
            else b"all replicas for shard failed\n"
        )
        response = HttpResponse(status=status, body=body)
        response.headers.set("Content-Type", "text/plain")
        return response

    def on_backend_transition(self, slot: BackendSlot, transition: str) -> None:
        """Health-checker callback: scrub the pins and pooled connections
        of a backend the prober ejected."""
        if transition == "ejected":
            self.lb_sticky.forget_slot(slot)
            self.lb_forwarder.discard_backend(slot)

    # -- introspection -----------------------------------------------------

    def lb_status(self) -> dict[str, Any]:
        with self._lb_stats_lock:
            shard_routes = list(self._lb_shard_routes)
            retried = self._lb_retried
            unroutable = self._lb_unroutable
        return {
            "routing": self.lb_table.status(),
            "sticky": self.lb_sticky.stats(),
            "shard_routes": shard_routes,
            "retried": retried,
            "unroutable": unroutable,
            "pooled_backend_connections": self.lb_forwarder.pooled(),
        }

    def admin_status(self) -> dict[str, Any]:
        return {"lb": self.lb_status()}
