"""Cluster supervision: origin fleets behind one LB front tier.

Two supervisors share one configuration surface:

* :class:`LocalCluster` — every origin is an in-process wire server.
  This is what the differential/fault tests and ``repro loadtest
  --target cluster`` use: fast to start, no subprocess management, and
  the engines are reachable for white-box assertions.
* :class:`ProcessCluster` — every origin is a ``repro serve`` subprocess
  with its own durable ``--state-dir`` (the PR 6 journal/snapshot
  machinery), preassigned ports so a restarted shard comes back at the
  same address, and startup monitoring that surfaces a shard's bind
  failure *with its shard id* instead of a silent hang.  This is
  ``repro cluster``.

Every origin replica serves the same synthetic site (same host, pages,
seed) but owns a private volume store — shared-nothing, as the tentpole
requires.  The consistent-hash ring decides which shard actually sees
each partition's access stream, so each shard's store warms only for the
volumes it owns.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..devtools.lockorder import make_lock
from ..httpmodel.messages import HttpParseError, HttpRequest
from ..httpwire.connbase import STATUS_PATH
from ..httpwire.netclient import fetch_once
from ..httpwire.netserver import PiggybackHttpServer
from .balancer import LbHttpServer, LbPolicy
from .health import HealthChecker, HealthPolicy
from .routing import BackendSlot, RoutingTable

__all__ = ["ClusterConfig", "ClusterError", "LocalCluster", "ProcessCluster"]

_PROBE_ERRORS = (
    EOFError,
    HttpParseError,
    ConnectionError,
    BrokenPipeError,
    OSError,
    TimeoutError,
    ValueError,
)


class ClusterError(RuntimeError):
    """A shard failed to start, bind, or stay up."""


@dataclass(slots=True)
class ClusterConfig:
    """Topology and tuning for one cluster (both supervisor kinds)."""

    shards: int = 2
    replicas: int = 1
    host: str = "www.cluster.example"
    pages: int = 48
    # A flat directory tree (depth 1) spreads partition keys across the
    # ring; the generator's default preferential growth yields only a
    # handful of top-level prefixes, which no hash can balance.
    directories: int = 16
    max_depth: int = 1
    seed: int = 0
    level: int = 1
    address: str = "127.0.0.1"
    lb_port: int = 0
    max_workers: int = 32
    idle_timeout: float | None = None
    policy: LbPolicy = field(default_factory=LbPolicy)
    health: HealthPolicy = field(default_factory=HealthPolicy)
    start_health_checker: bool = True
    # ProcessCluster only: base directory for per-shard durable state
    # (None → a fresh temporary directory) and journal fsync policy.
    state_dir: str | None = None
    sync_journal: bool = False
    startup_timeout: float = 20.0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")


class _ClusterBase:
    """Shared LB/health lifecycle over a built routing table."""

    config: ClusterConfig
    table: RoutingTable
    lb: Any
    health: HealthChecker | None

    def _start_front_tier(self, slots: list[BackendSlot]) -> tuple[str, int]:
        config = self.config
        self.table = RoutingTable(
            config.shards, slots, snapshot_ttl=config.policy.snapshot_ttl
        )
        self.lb = LbHttpServer(
            self.table,
            address=config.address,
            port=config.lb_port,
            policy=config.policy,
            site_host=config.host,
            idle_timeout=config.idle_timeout,
            max_workers=config.max_workers,
        )
        self.lb.start()
        self.health = None
        if config.start_health_checker:
            self.health = HealthChecker(
                self.table, config.health, on_transition=self.lb.on_backend_transition
            )
            self.health.start()
        return self.lb.address, self.lb.port

    def _stop_front_tier(self) -> None:
        if getattr(self, "health", None) is not None:
            self.health.stop()
            self.health = None
        if getattr(self, "lb", None) is not None:
            self.lb.stop()
            self.lb = None

    def status(self) -> dict[str, Any]:
        return self.lb.lb_status()


class LocalCluster(_ClusterBase):
    """All origins in-process: the harness for tests and loadtest."""

    def __init__(self, config: ClusterConfig):
        from ..server.resources import ResourceStore
        from ..server.server import PiggybackServer
        from ..volumes.directory import DirectoryVolumeConfig, DirectoryVolumeStore
        from ..workloads.sitegen import SiteConfig, generate_site

        self.config = config
        site = generate_site(
            SiteConfig(host=config.host, page_count=config.pages,
                       directory_count=config.directories,
                       max_depth=config.max_depth, seed=config.seed)
        )
        self.sizes: dict[str, int] = {}
        self.engines: dict[tuple[int, int], PiggybackServer] = {}
        self.origins: dict[tuple[int, int], Any] = {}
        for shard in range(config.shards):
            for replica in range(config.replicas):
                # Shared-nothing: a private resource + volume store per
                # replica, all built from the same deterministic site.
                resources = ResourceStore.from_site(site)
                if not self.sizes:
                    self.sizes = {
                        url: record.size
                        for url in resources.urls()
                        if (record := resources.get(url)) is not None
                    }
                store = DirectoryVolumeStore(DirectoryVolumeConfig(level=config.level))
                engine = PiggybackServer(resources, store)
                self.engines[(shard, replica)] = engine
                self.origins[(shard, replica)] = PiggybackHttpServer(
                    engine,
                    site_host=config.host,
                    address=config.address,
                    idle_timeout=config.idle_timeout,
                    max_workers=config.max_workers,
                )
        self.urls = sorted(self.sizes)
        self.lb = None
        self.health = None

    def start(self) -> tuple[str, int]:
        """Start every origin plus the front tier; returns the LB address."""
        slots = []
        for (shard, replica), origin in self.origins.items():
            origin.start()
            slots.append(BackendSlot(shard, replica, origin.address, origin.port))
        return self._start_front_tier(slots)

    def stop(self) -> None:
        self._stop_front_tier()
        for origin in self.origins.values():
            origin.stop()

    def __enter__(self) -> "LocalCluster":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


@dataclass(slots=True)
class _ShardProcess:
    """One supervised ``repro serve`` child."""

    shard: int
    replica: int
    port: int
    state_dir: str
    proc: subprocess.Popen | None = None


class ProcessCluster(_ClusterBase):
    """All origins as ``repro serve`` subprocesses with durable state."""

    def __init__(self, config: ClusterConfig):
        self.config = config
        base = config.state_dir or tempfile.mkdtemp(prefix="repro-cluster-")
        self.state_base = Path(base)
        self.state_base.mkdir(parents=True, exist_ok=True)
        self._lock = make_lock("ProcessCluster._lock")
        self._shards: dict[tuple[int, int], _ShardProcess] = {}
        for shard in range(config.shards):
            for replica in range(config.replicas):
                state_dir = self.state_base / f"shard-{shard}-replica-{replica}"
                self._shards[(shard, replica)] = _ShardProcess(
                    shard=shard,
                    replica=replica,
                    port=_free_port(config.address),
                    state_dir=str(state_dir),
                )
        self.lb = None
        self.health = None

    # -- child management --------------------------------------------------

    def _spawn(self, entry: _ShardProcess) -> subprocess.Popen:
        config = self.config
        command = [
            sys.executable, "-u", "-m", "repro.cli", "serve",
            "--state-dir", entry.state_dir,
            "--host", config.host,
            "--address", config.address,
            "--port", str(entry.port),
            "--pages", str(config.pages),
            "--directories", str(config.directories),
            "--max-depth", str(config.max_depth),
            "--seed", str(config.seed),
            "--level", str(config.level),
            "--max-workers", str(config.max_workers),
        ]
        if not config.sync_journal:
            command.append("--no-sync")
        env = os.environ.copy()
        src = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        return subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )

    def _wait_ready(self, entry: _ShardProcess) -> None:
        """Block until the child answers its status endpoint.

        A child that exits first — the bind-failure case — is reported
        as :class:`ClusterError` carrying the shard id and the child's
        own diagnostic (``repro serve`` prints a one-line explanation
        for a port collision rather than a traceback).
        """
        deadline = time.monotonic() + self.config.startup_timeout
        proc = entry.proc
        assert proc is not None
        label = f"shard {entry.shard} replica {entry.replica}"
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                output, _ = proc.communicate()
                detail = _last_line(output) or f"exit code {proc.returncode}"
                raise ClusterError(
                    f"{label} failed to start on "
                    f"{self.config.address}:{entry.port}: {detail}"
                )
            request = HttpRequest(method="GET", target=STATUS_PATH)
            request.headers.set("Connection", "close")
            try:
                response = fetch_once(
                    self.config.address, entry.port, request, timeout=1.0
                )
                if response.status == 200:
                    return
            except _PROBE_ERRORS:
                pass
            time.sleep(0.05)
        raise ClusterError(
            f"{label} did not become ready on "
            f"{self.config.address}:{entry.port} "
            f"within {self.config.startup_timeout:.0f}s"
        )

    def start(self) -> tuple[str, int]:
        """Spawn every shard, wait for readiness, start the front tier."""
        try:
            for entry in self._shards.values():
                entry.proc = self._spawn(entry)
            for entry in self._shards.values():
                self._wait_ready(entry)
        except BaseException:
            self._terminate_children()
            raise
        slots = [
            BackendSlot(entry.shard, entry.replica, self.config.address, entry.port)
            for entry in self._shards.values()
        ]
        return self._start_front_tier(slots)

    def layout(self) -> list[tuple[int, int, int, str]]:
        """``(shard, replica, port, state_dir)`` per backend, sorted."""
        return sorted(
            (entry.shard, entry.replica, entry.port, entry.state_dir)
            for entry in self._shards.values()
        )

    def poll(self) -> list[tuple[int, int, int]]:
        """Dead children as ``(shard, replica, returncode)`` triples."""
        dead = []
        with self._lock:
            entries = list(self._shards.values())
        for entry in entries:
            if entry.proc is not None and entry.proc.poll() is not None:
                dead.append((entry.shard, entry.replica, entry.proc.returncode))
        return dead

    def kill(self, shard: int, replica: int = 0) -> None:
        """SIGKILL one shard replica (fault-injection hook)."""
        entry = self._shards[(shard, replica)]
        if entry.proc is not None and entry.proc.poll() is None:
            entry.proc.send_signal(signal.SIGKILL)
            entry.proc.wait(timeout=10.0)

    def restart(self, shard: int, replica: int = 0) -> None:
        """Respawn a dead replica on its original port.

        The replica recovers its durable state from its own journal and
        the health checker readmits it once status probes pass — the
        supervisor does not touch the routing table directly.
        """
        entry = self._shards[(shard, replica)]
        if entry.proc is not None and entry.proc.poll() is None:
            raise ClusterError(
                f"shard {shard} replica {replica} is still running; kill it first"
            )
        entry.proc = self._spawn(entry)
        self._wait_ready(entry)

    def _terminate_children(self) -> None:
        with self._lock:
            entries = list(self._shards.values())
        for entry in entries:
            if entry.proc is not None and entry.proc.poll() is None:
                entry.proc.terminate()
        for entry in entries:
            if entry.proc is not None:
                try:
                    entry.proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    entry.proc.kill()
                    entry.proc.wait(timeout=5.0)
                if entry.proc.stdout is not None:
                    entry.proc.stdout.close()

    def stop(self) -> None:
        self._stop_front_tier()
        self._terminate_children()

    def __enter__(self) -> "ProcessCluster":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _free_port(address: str) -> int:
    """Reserve an ephemeral port by bind-and-release.

    The kernel keeps recently released ports out of ephemeral reuse long
    enough for the child to bind it; preassignment is what lets a
    restarted shard come back at the same address so the routing table
    never changes shape.
    """
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind((address, 0))
        return int(probe.getsockname()[1])
    finally:
        probe.close()


def _last_line(output: str | None) -> str:
    if not output:
        return ""
    lines = [line.strip() for line in output.splitlines() if line.strip()]
    return lines[-1] if lines else ""
