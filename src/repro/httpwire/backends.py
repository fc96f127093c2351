"""Backend registry: one name → the matching wire-server class.

``repro serve``, ``repro loadtest``, and test harnesses pick the origin
frontend by name — ``threaded`` (thread-per-connection, the differential
oracle) or ``async`` (single event loop, for origins holding many idle
keep-alive connections).  Every other wire role is threaded-only; the
proxy lookup keeps its name argument for callers that pass
``"threaded"``.  The asyncio package is imported lazily so merely
importing :mod:`repro.httpwire` never pays for it.

``max_workers`` (threaded) and ``max_connections`` (async) remain
backend-specific tuning knobs of the origin.
"""

from __future__ import annotations

import importlib

__all__ = ["BACKENDS", "origin_server_class", "proxy_server_class"]

BACKENDS = ("threaded", "async")


def origin_server_class(backend: str):
    """The piggyback origin frontend class for *backend*."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown wire backend {backend!r} (choose from {BACKENDS})")
    if backend == "async":
        return importlib.import_module("repro.httpwire.aio").AsyncPiggybackHttpServer
    from .netserver import PiggybackHttpServer

    return PiggybackHttpServer


def proxy_server_class(backend: str):
    """The caching proxy frontend class; the proxy is threaded-only."""
    if backend != "threaded":
        raise ValueError(f"the proxy has only the threaded backend, not {backend!r}")
    from .netproxy import PiggybackHttpProxy

    return PiggybackHttpProxy
