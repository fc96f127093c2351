#!/usr/bin/env python
"""Shard-scaling of the cluster front tier: 1/2/4 origins behind the LB.

Four scenarios, all real processes (``repro serve`` children supervised
by :class:`ProcessCluster`, the LB front tier in this process):

* **direct-1** — the loadgen against a single origin subprocess with no
  LB in the path: the single-origin baseline every speedup is quoted
  against.
* **lb-N** — the same workload through the LB over N shared-nothing
  shards (one tier per ``--tiers`` entry).  Each entry reports absolute
  throughput, the speedup vs *direct-1*, the relay overhead vs *lb-1*,
  and the per-shard balance ratio from the LB's own routing stats.
* **snapshot-TTL ablation** — the largest tier re-run with
  ``snapshot_ttl=0`` (every request revalidates the routing snapshot
  under the table lock) against the default TTL, isolating what the
  lock-free snapshot fast path is worth.

Shard scaling is a *parallelism* claim: N origin processes only beat
one when there are cores for them to occupy.  The report therefore
records ``cpu_count``, and the ``--min-speedup`` gate is enforced only
when the machine has at least ``--gate-min-cores`` cores (default 2) —
on a single-core box the premise is unmeetable and the gate downgrades
to a printed notice (override with ``--strict-gate``).

    python benchmarks/bench_lb_scaling.py --out BENCH_lb.json --min-speedup 2.0
    python benchmarks/bench_lb_scaling.py --tiers 1,2 --requests 30 \
        --repeat 1 --balance-within 2.0          # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.httpmodel.messages import HttpRequest  # noqa: E402
from repro.httpwire.loadgen import LoadConfig, percentile, run_load  # noqa: E402
from repro.httpwire.netclient import fetch_once  # noqa: E402
from repro.lb.balancer import LbPolicy  # noqa: E402
from repro.lb.cluster import ClusterConfig, ProcessCluster, _free_port  # noqa: E402
from repro.server.resources import ResourceStore  # noqa: E402
from repro.workloads.sitegen import SiteConfig, generate_site  # noqa: E402

HOST = "www.lbbench.example"
ADDRESS = "127.0.0.1"


def _site_urls(pages: int, directories: int, seed: int) -> list[str]:
    site = generate_site(
        SiteConfig(host=HOST, page_count=pages, directory_count=directories,
                   max_depth=1, seed=seed)
    )
    return sorted(ResourceStore.from_site(site).urls())


def _wait_status(port: int, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        request = HttpRequest(method="GET", target="/.repro/status")
        request.headers.set("Connection", "close")
        try:
            if fetch_once(ADDRESS, port, request, timeout=1.0).status == 200:
                return
        except (OSError, EOFError, ValueError, ConnectionError, TimeoutError):
            pass
        time.sleep(0.05)
    raise RuntimeError(f"origin on port {port} never became ready")


def _start_direct_origin(args) -> tuple[subprocess.Popen, int, str]:
    """One ``repro serve`` child, no LB in front: the baseline."""
    port = _free_port(ADDRESS)
    state_dir = tempfile.mkdtemp(prefix="repro-lbbench-")
    command = [
        sys.executable, "-u", "-m", "repro.cli", "serve",
        "--state-dir", state_dir,
        "--host", HOST, "--address", ADDRESS, "--port", str(port),
        "--pages", str(args.pages), "--directories", str(args.directories),
        "--max-depth", "1", "--seed", str(args.seed),
        "--sync" if args.sync else "--no-sync",
    ]
    env = os.environ.copy()
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        command, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT, env=env
    )
    _wait_status(port)
    return proc, port, state_dir


def _measure(address: str, port: int, urls: list[str], args) -> tuple[float, int]:
    """Median throughput over ``--repeat`` timed passes (one warmup)."""
    config = LoadConfig(
        clients=args.clients, requests_per_client=args.requests,
        warmup_requests=2, seed=args.seed, piggy_filter="maxpiggy=10",
    )
    run_load(address, port, urls, config)  # warmup: caches, sticky pins
    passes, errors = [], 0
    for _ in range(args.repeat):
        report = run_load(address, port, urls, config)
        passes.append(report.throughput_rps)
        errors += report.errors + report.corrupted
    return percentile(sorted(passes), 50.0), errors


def _cluster_config(shards: int, snapshot_ttl: float, args) -> ClusterConfig:
    return ClusterConfig(
        shards=shards, replicas=1, host=HOST, address=ADDRESS,
        pages=args.pages, directories=args.directories, max_depth=1,
        seed=args.seed, sync_journal=args.sync,
        # 256 vnodes: with only tens of partition keys (one per top-level
        # directory) the default 64-vnode ring is visibly lumpy at 4 shards.
        policy=LbPolicy(snapshot_ttl=snapshot_ttl, vnodes=256),
        startup_timeout=90.0,
    )


def _run_tier(shards: int, snapshot_ttl: float, urls: list[str], args) -> dict:
    with ProcessCluster(_cluster_config(shards, snapshot_ttl, args)) as cluster:
        rps, errors = _measure(cluster.lb.address, cluster.lb.port, urls, args)
        status = cluster.status()
    shard_routes = status["shard_routes"]
    balance = max(shard_routes) / max(1, min(shard_routes))
    return {
        "shards": shards,
        "snapshot_ttl": snapshot_ttl,
        "rps": round(rps, 1),
        "errors": errors,
        "balance_max_over_min": round(balance, 2),
        "sticky_hit_rate": round(
            status["sticky"]["hits"]
            / max(1, status["sticky"]["hits"] + status["sticky"]["misses"]
                  + status["sticky"]["repins"]),
            3,
        ),
        "unroutable": status["unroutable"],
    }


def _run_ablation(shards: int, urls: list[str], args) -> dict:
    """Snapshot-TTL ablation on ONE cluster, TTL alternated per pass.

    Separate cluster instances differ by enough (port luck, page-cache
    warmth, scheduler phase) to drown a fast-path effect; flipping
    ``snapshot_ttl`` on the live routing table between interleaved
    passes measures the same fleet under both policies.
    """
    config = LoadConfig(
        clients=args.clients, requests_per_client=args.requests,
        warmup_requests=2, seed=args.seed, piggy_filter="maxpiggy=10",
    )
    passes: dict[float, list[float]] = {args.snapshot_ttl: [], 0.0: []}
    with ProcessCluster(
        _cluster_config(shards, args.snapshot_ttl, args)
    ) as cluster:
        address, port = cluster.lb.address, cluster.lb.port
        run_load(address, port, urls, config)  # warmup
        for _ in range(args.repeat):
            for ttl in (args.snapshot_ttl, 0.0):
                cluster.table.snapshot_ttl = ttl
                report = run_load(address, port, urls, config)
                passes[ttl].append(report.throughput_rps)
    warm = percentile(sorted(passes[args.snapshot_ttl]), 50.0)
    cold = percentile(sorted(passes[0.0]), 50.0)
    return {
        "shards": shards,
        "ttl_default_rps": round(warm, 1),
        "ttl_zero_rps": round(cold, 1),
        "snapshot_fast_path_gain": round(warm / max(cold, 1e-9), 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiers", default="1,2,4",
                        help="comma-separated shard counts to sweep")
    parser.add_argument("--pages", type=int, default=192)
    parser.add_argument("--directories", type=int, default=64)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=120,
                        help="requests per client per timed pass")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed passes per scenario; medians compared")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sync", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="run every origin with per-append journal fsync")
    parser.add_argument("--snapshot-ttl", type=float, default=1.0,
                        help="routing-snapshot TTL for the lb-N tiers")
    parser.add_argument("--skip-ablation", action="store_true",
                        help="skip the snapshot-TTL=0 ablation re-run")
    parser.add_argument("--out", default=None,
                        help="write the report to this JSON file")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless largest-tier rps / direct-1 rps "
                             ">= this (enforced only with enough cores)")
    parser.add_argument("--gate-min-cores", type=int, default=2,
                        help="cores required before --min-speedup is binding")
    parser.add_argument("--strict-gate", action="store_true",
                        help="enforce --min-speedup regardless of core count")
    parser.add_argument("--balance-within", type=float, default=None,
                        help="fail if any tier's max/min shard balance "
                             "exceeds this ratio")
    args = parser.parse_args(argv)

    tiers = sorted({int(raw) for raw in args.tiers.split(",") if raw.strip()})
    urls = _site_urls(args.pages, args.directories, args.seed)
    cores = os.cpu_count() or 1
    print(f"site: {len(urls)} urls, {args.directories} top-level directories; "
          f"{cores} cpu core(s)")

    proc, port, _state = _start_direct_origin(args)
    try:
        direct_rps, direct_errors = _measure(ADDRESS, port, urls, args)
    finally:
        proc.terminate()
        proc.wait(timeout=10.0)
    print(f"direct-1             {direct_rps:7.0f} rps  (errors {direct_errors})")

    entries = []
    for shards in tiers:
        entry = _run_tier(shards, args.snapshot_ttl, urls, args)
        entry["speedup_vs_direct"] = round(entry["rps"] / max(direct_rps, 1e-9), 3)
        entries.append(entry)
        print(f"lb-{shards:<2}                {entry['rps']:7.0f} rps  "
              f"(x{entry['speedup_vs_direct']:.2f} vs direct, balance "
              f"{entry['balance_max_over_min']:.2f}, errors {entry['errors']})")
    lb1 = next((e for e in entries if e["shards"] == 1), None)
    if lb1 is not None:
        for entry in entries:
            entry["speedup_vs_lb1"] = round(entry["rps"] / max(lb1["rps"], 1e-9), 3)

    ablation = None
    if not args.skip_ablation:
        widest = max(tiers)
        ablation = _run_ablation(widest, urls, args)
        print(f"ttl ablation (lb-{widest})  ttl={args.snapshot_ttl:g}: "
              f"{ablation['ttl_default_rps']:.0f} rps, ttl=0: "
              f"{ablation['ttl_zero_rps']:.0f} rps "
              f"(fast path x{ablation['snapshot_fast_path_gain']:.2f})")

    report = {
        "schema": 1,
        "lb_scaling": {
            "cpu_count": cores,
            "sync_journal": args.sync,
            "workload": {
                "urls": len(urls), "clients": args.clients,
                "requests_per_client": args.requests, "passes": args.repeat,
            },
            "direct_1_rps": round(direct_rps, 1),
            "tiers": entries,
            "snapshot_ttl_ablation": ablation,
        },
    }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")

    failed = False
    total_errors = direct_errors + sum(e["errors"] for e in entries)
    if total_errors:
        print(f"{total_errors} load-generation errors — results untrustworthy")
        failed = True
    if args.balance_within is not None:
        for entry in entries:
            if entry["shards"] > 1 and \
                    entry["balance_max_over_min"] > args.balance_within:
                print(f"lb-{entry['shards']} balance "
                      f"{entry['balance_max_over_min']:.2f} exceeds "
                      f"{args.balance_within:g}")
                failed = True
    if args.min_speedup is not None:
        speedup = entries[-1]["speedup_vs_direct"]
        if cores >= args.gate_min_cores or args.strict_gate:
            if speedup < args.min_speedup:
                print(f"largest tier speedup x{speedup:.2f} below required "
                      f"x{args.min_speedup:g}")
                failed = True
        else:
            print(f"speedup gate x{args.min_speedup:g} not binding: "
                  f"{cores} core(s) < {args.gate_min_cores} "
                  f"(measured x{speedup:.2f}; use --strict-gate to enforce)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
