"""Event-loop origin frontend: the asyncio twin of the threaded origin.

One role only — the piggyback origin, picked with ``--backend async`` on
``repro serve`` and ``repro loadtest`` (see
:mod:`repro.httpwire.backends`).  It parks thousands of idle keep-alive
connections on one loop where the threaded pool would pin a worker each.
Every other wire role (proxy, load balancer, volume center, clients,
load generator) is threaded-only.  The threaded origin remains the
differential oracle: both share the application core and must produce
byte-identical responses.
"""

from .server import AsyncWireServer
from .apps import AsyncPiggybackHttpServer

__all__ = [
    "AsyncWireServer",
    "AsyncPiggybackHttpServer",
]
