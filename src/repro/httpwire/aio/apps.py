"""Async wire frontend for the piggyback origin.

The class pairs the backend-neutral origin core (the same mixin the
threaded frontend uses) with :class:`.server.AsyncWireServer`, so the
two backends share one implementation of request translation, admin
endpoints, and piggyback trailer handling — and therefore answer
byte-identical responses.

The serving path is lock-free (epoch snapshots + the piggyback trailer
cache), so handlers run inline on the loop by default; attaching an
access logger or durable state (journal fsyncs) flips on executor
offload so disk I/O never stalls the loop.
"""

from __future__ import annotations

from collections.abc import Callable

from ...server.server import PiggybackServer
from ..netserver import PiggybackOriginApp
from .server import AsyncWireServer

__all__ = ["AsyncPiggybackHttpServer"]


class AsyncPiggybackHttpServer(PiggybackOriginApp, AsyncWireServer):
    """Event-loop wire frontend for one :class:`PiggybackServer`."""

    def __init__(
        self,
        server: PiggybackServer,
        site_host: str,
        address: str = "127.0.0.1",
        port: int = 0,
        clock: Callable[[], float] | None = None,
        access_logger=None,
        io_timeout: float = 30.0,
        idle_timeout: float | None = None,
        max_connections: int = 20000,
        durable_state=None,
    ):
        AsyncWireServer.__init__(
            self,
            address,
            port,
            io_timeout=io_timeout,
            idle_timeout=idle_timeout,
            max_connections=max_connections,
            # Disk I/O (access-log flushes, journal fsyncs) must not run
            # on the event loop; the pure in-memory path stays inline.
            offload_handler=access_logger is not None or durable_state is not None,
            name=f"origin:{site_host}",
        )
        self._init_origin_app(server, site_host, clock, access_logger, durable_state)
