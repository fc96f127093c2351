"""Child-process harness: every system-under-test tier gets its own pid.

The generator stays alone in the benchmark's process; origins, the
proxy, the load balancer and the offline passes each run as a child, so
per-tier CPU time and peak memory are read from ``/proc/<pid>`` with no
instrumentation inside ``src/``.  This file is both the harness the
benchmark imports and the entry point those children run::

    python benchmarks/e2e/procs.py origin --backend threaded
    python benchmarks/e2e/procs.py proxy --origin-port 4242 --capacity 123456
    python benchmarks/e2e/procs.py offline --workload replay_stream --input FILE

A wire child prints ``READY <port>`` once it is listening and serves
until its stdin reaches end of file (the parent closing the pipe, or the
parent dying) or it is signalled.  The two tiers that exist as CLI
commands — the durable origin and the load balancer — are launched
through ``python -m repro serve`` itself.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

__all__ = ["Child", "Harness", "ProcSample", "HarnessError"]

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100
_READY_TIMEOUT = 30.0
_CLI_PORT = re.compile(r" on [0-9.]+:(\d+)")


class HarnessError(RuntimeError):
    """A child failed to start, died early, or would not stop."""


class ProcSample:
    """CPU time and peak RSS of one pid at one instant, from ``/proc``.

    ``/proc/<pid>/stat`` counts in clock ticks (10 ms), which is 2-3% of
    one pass; ``/proc/<pid>/task/*/schedstat`` counts the same time in
    nanoseconds but only for threads still alive.  :meth:`cpu_between`
    therefore sums per-thread deltas (a thread that exited in between
    loses only its last slice) and falls back to the tick counter where
    schedstat is not available.
    """

    __slots__ = ("tick_cpu_s", "task_ns", "peak_rss_mb")

    def __init__(self, tick_cpu_s: float, task_ns: dict[int, int], peak_rss_mb: float):
        self.tick_cpu_s = tick_cpu_s
        self.task_ns = task_ns
        self.peak_rss_mb = peak_rss_mb

    @classmethod
    def read(cls, pid: int) -> "ProcSample":
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
        # The command name may contain spaces; fields resume after ')'.
        fields = stat[stat.rindex(b")") + 2:].split()
        tick_cpu_s = (int(fields[11]) + int(fields[12])) / _CLK_TCK
        task_ns: dict[int, int] = {}
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                try:
                    with open(f"/proc/{pid}/task/{tid}/schedstat", "rb") as handle:
                        task_ns[int(tid)] = int(handle.read().split()[0])
                except (OSError, ValueError, IndexError):
                    continue  # the thread exited while we were listing
        except OSError:
            pass
        peak_kb = 0
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    peak_kb = int(line.split()[1])
                    break
        return cls(tick_cpu_s, task_ns, peak_kb / 1024.0)

    @staticmethod
    def cpu_between(before: "ProcSample", after: "ProcSample") -> float:
        """CPU seconds (user+system) the pid used between two samples."""
        if not after.task_ns:
            return after.tick_cpu_s - before.tick_cpu_s
        total_ns = 0
        for tid, runtime in after.task_ns.items():
            total_ns += runtime - before.task_ns.get(tid, 0)
        return total_ns / 1e9


class Child:
    """One running tier: its role, process, port and captured output."""

    def __init__(self, role: str, process: subprocess.Popen, port: int | None,
                 interrupt: bool):
        self.role = role
        self.process = process
        self.port = port
        # CLI children shut down cleanly on SIGINT (KeyboardInterrupt in
        # their wait loop); the benchmark's own children on stdin EOF.
        self._interrupt = interrupt

    @property
    def pid(self) -> int:
        return self.process.pid

    def sample(self) -> ProcSample:
        return ProcSample.read(self.pid)

    def stop(self, timeout: float = 5.0) -> None:
        process = self.process
        if process.poll() is None:
            try:
                if process.stdin is not None:
                    process.stdin.close()
                if self._interrupt:
                    process.send_signal(signal.SIGINT)
            except OSError:
                pass
            try:
                process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                process.terminate()
                try:
                    process.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait(timeout=5.0)
        for stream in (process.stdin, process.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass


class Harness:
    """Starts children, owns a scratch directory, and tears both down.

    Use as a context manager: on success, on any exception and on
    Ctrl-C/SIGTERM (which :func:`run.main` turns into exceptions) every
    child is stopped and waited for and the scratch directory removed.
    """

    def __init__(self, telemetry: bool = False, cpus: set[int] | None = None):
        self.telemetry = telemetry
        # CPUs the children may run on (the generator keeps the others).
        self.cpus = cpus
        self.children: list[Child] = []
        self._workdir: str | None = None

    def __enter__(self) -> "Harness":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def workdir(self) -> Path:
        """Scratch directory inside the checkout, created on first use."""
        if self._workdir is None:
            base = ROOT / ".bench_tmp"
            base.mkdir(exist_ok=True)
            self._workdir = tempfile.mkdtemp(prefix="e2e-", dir=base)
        return Path(self._workdir)

    def close(self) -> None:
        children, self.children = self.children, []
        for child in reversed(children):
            child.stop()
        if self._workdir is not None:
            shutil.rmtree(self._workdir, ignore_errors=True)
            self._workdir = None
            try:
                (ROOT / ".bench_tmp").rmdir()
            except OSError:
                pass  # another run's scratch directory is still there

    def stop(self, child: Child) -> None:
        child.stop()
        if child in self.children:
            self.children.remove(child)

    # -- launching ---------------------------------------------------------

    def _env(self) -> dict[str, str]:
        env = dict(os.environ)
        extra = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
        if self.telemetry:
            env["REPRO_TELEMETRY"] = "1"
        else:
            env.pop("REPRO_TELEMETRY", None)
        return env

    def _spawn(self, role: str, argv: list[str], interrupt: bool) -> Child:
        process = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,
            env=self._env(),
            cwd=str(ROOT),
            text=True,
        )
        child = Child(role, process, None, interrupt)
        self.children.append(child)
        return child

    def _own(self, role: str, *args: str) -> Child:
        return self._spawn(role, [sys.executable, str(HERE / "procs.py"), *args], False)

    def _cli(self, role: str, *args: str) -> Child:
        return self._spawn(role, [sys.executable, "-m", "repro", *args], True)

    def _await_port(self, child: Child, pattern: re.Pattern) -> None:
        """Read the child's stdout until it names its port, then probe."""
        deadline = time.monotonic() + _READY_TIMEOUT
        assert child.process.stdout is not None
        while True:
            line = child.process.stdout.readline()
            if not line:
                code = child.process.wait(timeout=5.0)
                raise HarnessError(f"{child.role} exited with {code} before readiness")
            match = pattern.search(line)
            if match:
                child.port = int(match.group(1))
                break
            if time.monotonic() > deadline:
                raise HarnessError(f"{child.role} printed no port within {_READY_TIMEOUT}s")
        self._await_status(child, deadline)

    @staticmethod
    def _await_status(child: Child, deadline: float) -> None:
        from repro.httpmodel.messages import HttpRequest
        from repro.httpwire.netclient import fetch_once

        probe = HttpRequest(method="GET", target="/.repro/status")
        probe.headers.set("Host", "localhost")
        probe.headers.set("Connection", "close")
        while True:
            try:
                if fetch_once("127.0.0.1", child.port, probe, timeout=2.0).status == 200:
                    return
            except (OSError, EOFError, ValueError):
                pass
            if child.process.poll() is not None:
                raise HarnessError(f"{child.role} died during readiness probing")
            if time.monotonic() > deadline:
                raise HarnessError(f"{child.role} never answered /.repro/status")
            time.sleep(0.01)

    def start_all(self, starters) -> list[Child]:
        """Run *starters* (callables that spawn one child each), then wait
        for every child's readiness — children initialise in parallel."""
        started = [starter() for starter in starters]
        for child, pattern in started:
            self._await_port(child, pattern)
            self._pin(child)
        return [child for child, _ in started]

    def _pin(self, child: Child) -> None:
        """Confine every thread the child has so far; the connection
        workers it starts later inherit the mask from their creator."""
        if not self.cpus or not hasattr(os, "sched_setaffinity"):
            return
        try:
            for tid in os.listdir(f"/proc/{child.pid}/task"):
                os.sched_setaffinity(int(tid), self.cpus)
        except OSError:
            pass  # the child is exiting; its failure surfaces elsewhere

    # Each ``spawn_*`` returns (child, port-line pattern) for start_all.

    def spawn_static_origin(self, backend: str = "threaded", role: str = "origin"):
        """Origin over the aiusa site with static probability volumes."""
        return self._own(role, "origin", "--backend", backend), _READY

    def spawn_durable_origin(self, site, role: str = "origin"):
        """``repro serve`` exactly as the CLI builds it (journaled MTF
        directory volumes), over the site *site* describes."""
        state_dir = self.workdir / f"state-{len(self.children)}"
        child = self._cli(
            role, "serve",
            "--state-dir", str(state_dir),
            "--host", site.host,
            "--pages", str(site.page_count),
            "--directories", str(site.directory_count),
            "--max-depth", str(site.max_depth),
            "--seed", str(site.seed),
            "--level", "1",
            "--no-sync",
            "--max-seconds", "600",
        )
        return child, _CLI_PORT

    def spawn_proxy(self, origin_host: str, origin_port: int, capacity_bytes: int):
        child = self._own(
            "proxy", "proxy",
            "--origin-host", origin_host,
            "--origin-port", str(origin_port),
            "--capacity", str(capacity_bytes),
        )
        return child, _READY

    def spawn_lb(self, host: str, shard_ports: list[int]):
        backends = [f"{shard}:127.0.0.1:{port}" for shard, port in enumerate(shard_ports)]
        child = self._cli(
            "lb", "serve", "--lb",
            "--backends", *backends,
            "--host", host,
            "--max-seconds", "600",
        )
        return child, _CLI_PORT

    # -- offline passes ----------------------------------------------------

    def run_offline(self, workload: str, input_path: Path, extra: list[str] | None = None,
                    timeout: float = 170.0) -> dict:
        """One offline pass in a fresh child; returns its JSON result (the
        timed region's wall and CPU seconds, the child's peak RSS)."""
        argv = [sys.executable, str(HERE / "procs.py"), "offline",
                "--workload", workload, "--input", str(input_path), *(extra or [])]
        process = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=None,
            env=self._env(), cwd=str(ROOT), text=True,
        )
        child = Child("offline", process, None, False)
        self.children.append(child)
        self._pin(child)
        try:
            out, _ = process.communicate(timeout=timeout)
        finally:
            self.stop(child)
        if process.returncode != 0:
            raise HarnessError(f"offline pass {workload} exited with {process.returncode}")
        return json.loads(out.strip().splitlines()[-1])


_READY = re.compile(r"^READY (\d+)$")


# ---------------------------------------------------------------------------
# Child entry points
# ---------------------------------------------------------------------------


def _serve_until_stdin_closes(server) -> None:
    """Serve until the parent closes our stdin (or dies), or signals us."""

    def _stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _stop)
    with server:
        print(f"READY {server.port}", flush=True)
        try:
            sys.stdin.read()
        except KeyboardInterrupt:
            pass


def _child_origin(args) -> int:
    from repro.httpwire.backends import origin_server_class

    import inputs

    engine, site_host = inputs.static_origin_engine()
    _serve_until_stdin_closes(
        origin_server_class(args.backend)(engine, site_host=site_host)
    )
    return 0


def _child_proxy(args) -> int:
    from repro.httpwire.backends import proxy_server_class

    import inputs

    config = inputs.proxy_config(args.capacity)
    _serve_until_stdin_closes(
        proxy_server_class("threaded")(
            {args.origin_host: ("127.0.0.1", args.origin_port)}, config=config
        )
    )
    return 0


def _child_offline(args) -> int:
    import resource

    import offline

    result = offline.run_pass(args.workload, args.input, args.decode_probe)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="role", required=True)
    origin = sub.add_parser("origin")
    origin.add_argument("--backend", default="threaded")
    proxy = sub.add_parser("proxy")
    proxy.add_argument("--origin-host", required=True)
    proxy.add_argument("--origin-port", type=int, required=True)
    proxy.add_argument("--capacity", type=int, required=True)
    off = sub.add_parser("offline")
    off.add_argument("--workload", required=True)
    off.add_argument("--input", required=True)
    off.add_argument("--decode-probe", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    return {"origin": _child_origin, "proxy": _child_proxy,
            "offline": _child_offline}[args.role](args)


if __name__ == "__main__":
    sys.exit(main())
