"""Loopback-socket demonstration of the piggybacking protocol."""

from .connbase import ThreadedWireServer, WireServerCore, WireServerStats
from .netclient import HttpConnection, KeepAlivePool, fetch_once
from .netserver import PiggybackHttpServer, PlainHttpServer, synthetic_body
from .netproxy import HttpUpstream, PiggybackHttpProxy, UpstreamPolicy, UpstreamStats
from .netcenter import TransparentHttpVolumeCenter
from .loadgen import LoadConfig, LoadReport, percentile, run_load
from .faults import Fault, FaultInjectingInterposer
from .backends import BACKENDS

__all__ = [
    "ThreadedWireServer",
    "WireServerCore",
    "WireServerStats",
    "BACKENDS",
    "HttpConnection",
    "KeepAlivePool",
    "fetch_once",
    "PiggybackHttpServer",
    "PlainHttpServer",
    "synthetic_body",
    "HttpUpstream",
    "PiggybackHttpProxy",
    "UpstreamPolicy",
    "UpstreamStats",
    "TransparentHttpVolumeCenter",
    "LoadConfig",
    "LoadReport",
    "percentile",
    "run_load",
    "Fault",
    "FaultInjectingInterposer",
]
