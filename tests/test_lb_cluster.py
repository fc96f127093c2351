"""Cluster supervision and CLI surface: LocalCluster/ProcessCluster
lifecycles, the ``repro cluster`` / ``serve --lb`` / ``loadtest
--target cluster`` entry points, friendly bind-failure diagnostics, and
the ``lb_*`` telemetry contract enforced via ``repro stats --require``.
"""

from __future__ import annotations

import socket

import pytest

from repro.cli import _parse_backend_specs, main
from repro.httpwire.aio import AsyncPiggybackHttpServer
from repro.httpwire.backends import origin_server_class, proxy_server_class
from repro.httpwire.netproxy import PiggybackHttpProxy
from repro.httpwire.netserver import PiggybackHttpServer
from repro.lb.balancer import LbPolicy
from repro.lb.cluster import ClusterConfig, ClusterError, LocalCluster, ProcessCluster
from repro.lb.health import HealthPolicy

from test_lb_faults import get_via_lb

FAST = dict(policy=LbPolicy(snapshot_ttl=0.2),
            health=HealthPolicy(interval=0.1, timeout=1.0))


@pytest.fixture(autouse=True)
def _reset_global_telemetry():
    """CLI paths with --telemetry-out enable the process-wide registry;
    put it back so later suites still see the disabled default."""
    yield
    from repro import telemetry

    telemetry.disable()
    telemetry.REGISTRY.reset()
    telemetry.TRACER.reset()


# -- supervisors -----------------------------------------------------------


def test_local_cluster_spreads_traffic_and_pins_proxies():
    config = ClusterConfig(shards=3, pages=36, host="www.localc.example", **FAST)
    with LocalCluster(config) as cluster:
        assert len(cluster.origins) == 3
        for index, url in enumerate(cluster.urls):
            proxy = f"proxy-{index % 4}"
            response = get_via_lb(cluster.lb, "/" + url.partition("/")[2],
                                  config.host, proxy=proxy)
            assert response.status == 200
        # revisits: sticky hits accumulate
        for url in cluster.urls[:12]:
            response = get_via_lb(cluster.lb, "/" + url.partition("/")[2],
                                  config.host, proxy="proxy-0")
            assert response.status == 200
        status = cluster.status()
        assert sum(status["shard_routes"]) == len(cluster.urls) + 12
        assert sum(1 for count in status["shard_routes"] if count) >= 2, (
            "partitioning never spread traffic past one shard"
        )
        assert status["sticky"]["hits"] >= 1
        assert status["unroutable"] == 0
        assert status["routing"]["ejections"] == 0


def test_cluster_config_validates_topology():
    with pytest.raises(ValueError):
        ClusterConfig(shards=0)
    with pytest.raises(ValueError):
        ClusterConfig(replicas=0)


def test_backend_registry_async_is_origin_only():
    assert origin_server_class("threaded") is PiggybackHttpServer
    assert origin_server_class("async") is AsyncPiggybackHttpServer
    assert proxy_server_class("threaded") is PiggybackHttpProxy
    for lookup, backend in ((proxy_server_class, "async"), (origin_server_class, "fibers")):
        with pytest.raises(ValueError):
            lookup(backend)


def test_process_cluster_bind_failure_names_the_shard():
    config = ClusterConfig(shards=2, pages=8, startup_timeout=20.0,
                           host="www.bindfail.example")
    cluster = ProcessCluster(config)
    victim = cluster._shards[(1, 0)]
    thief = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        thief.bind((config.address, victim.port))
        thief.listen(1)
        with pytest.raises(ClusterError) as excinfo:
            cluster.start()
    finally:
        thief.close()
        cluster.stop()
    message = str(excinfo.value)
    assert "shard 1 replica 0" in message
    assert str(victim.port) in message
    # The child's own friendly one-liner is surfaced, not a traceback.
    assert "already in use" in message
    assert "Traceback" not in message


# -- backend spec parsing (serve --lb) -------------------------------------


def test_parse_backend_specs_groups_replicas_by_shard():
    shard_count, slots = _parse_backend_specs(
        ["0:127.0.0.1:9001", "0:127.0.0.1:9002", "1:127.0.0.1:9003"]
    )
    assert shard_count == 2
    assert [(s.shard, s.replica, s.port) for s in slots] == [
        (0, 0, 9001), (0, 1, 9002), (1, 0, 9003)
    ]


@pytest.mark.parametrize(
    "specs",
    [[], ["nonsense"], ["0:host"], ["x:host:80"], ["0:h:80", "2:h:81"]],
    ids=["empty", "no-colon", "two-fields", "bad-shard", "gap"],
)
def test_parse_backend_specs_rejects_bad_input(specs):
    with pytest.raises(ValueError):
        _parse_backend_specs(specs)


# -- CLI: friendly bind errors ---------------------------------------------


def occupy_port():
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    sock.listen(1)
    return sock, sock.getsockname()[1]


def test_cli_serve_reports_port_in_use_without_traceback(tmp_path, capsys):
    sock, port = occupy_port()
    try:
        code = main(["serve", "--state-dir", str(tmp_path / "state"),
                     "--pages", "4", "--port", str(port)])
    finally:
        sock.close()
    captured = capsys.readouterr()
    assert code == 2
    assert "already in use" in captured.err
    assert str(port) in captured.err
    assert "Traceback" not in captured.err


def test_cli_serve_lb_reports_port_in_use(capsys):
    sock, port = occupy_port()
    try:
        code = main(["serve", "--lb", "--backends", "0:127.0.0.1:9001",
                     "--port", str(port)])
    finally:
        sock.close()
    captured = capsys.readouterr()
    assert code == 2
    assert "already in use" in captured.err


def test_cli_serve_requires_state_dir(capsys):
    assert main(["serve", "--pages", "4"]) == 2
    assert "--state-dir" in capsys.readouterr().err


def test_cli_serve_lb_rejects_malformed_backends(capsys):
    assert main(["serve", "--lb", "--backends", "bogus"]) == 2
    assert "SHARD:HOST:PORT" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["loadtest", "--target", "cluster", "--fault", "reset"], "--fault"),
        (["loadtest", "--target", "cluster", "--state-dir", "{tmp}"], "--state-dir"),
        (["loadtest", "--target", "cluster", "--backend", "async"], "--backend async"),
        (["loadtest", "--target", "origin", "--balance-within", "2"], "--balance-within"),
        (["loadtest", "--target", "proxy", "--balance-within", "2"], "--balance-within"),
        (["serve", "--lb", "--state-dir", "{tmp}"], "--state-dir"),
        (["serve", "--lb", "--access-log", "{tmp}/access.log"], "--access-log"),
        (["serve", "--lb", "--backend", "async"], "--backend async"),
    ],
    ids=[
        "cluster-fault", "cluster-state-dir", "cluster-async", "origin-balance",
        "proxy-balance", "lb-state-dir", "lb-access-log", "lb-async",
    ],
)
def test_cli_rejects_flags_the_target_would_ignore(argv, flag, tmp_path, capsys):
    """A flag the chosen target cannot honour fails fast (exit 2, one
    stderr line naming it) before anything starts or touches disk."""
    state = tmp_path / "state"
    argv = [arg.replace("{tmp}", str(state)) for arg in argv]
    if argv[0] == "loadtest":
        argv += ["--clients", "2", "--requests", "5"]
    else:
        argv += ["--backends", "0:127.0.0.1:9", "--max-seconds", "0.1"]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and flag in err[0], err
    assert not state.exists()


# -- CLI: loadtest --target cluster + telemetry contract -------------------


def test_cli_loadtest_cluster_report_and_required_metrics(tmp_path, capsys):
    snapshot = tmp_path / "telemetry.json"
    code = main([
        "loadtest", "--target", "cluster", "--shards", "2",
        "--clients", "3", "--requests", "8", "--warmup", "1",
        "--pages", "24", "--balance-within", "4.0",
        "--telemetry-out", str(snapshot),
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.out + captured.err
    out = captured.out
    assert "shard balance" in out
    assert "hit rate" in out
    assert "routing snapshot" in out
    assert snapshot.exists()

    # The satellite contract: every lb_* metric the runbook names must be
    # present in a snapshot taken from cluster traffic.
    code = main([
        "stats", "--snapshot", str(snapshot), "--require",
        "lb_route_total", "lb_sticky_hits_total",
        "lb_health_ejections_total", "lb_routing_snapshot_age_seconds",
    ])
    assert code == 0, capsys.readouterr().out


def test_cli_cluster_runs_and_prints_layout(capsys):
    code = main([
        "cluster", "--shards", "2", "--pages", "8",
        "--max-seconds", "0.5",
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.out + captured.err
    assert "cluster lb on" in captured.out
    assert "shard 0 replica 0" in captured.out
    assert "shard 1 replica 0" in captured.out
