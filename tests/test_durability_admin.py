"""Admin-endpoint tests: status, drain, snapshot-now under load, reload,
and the ``repro serve`` CLI end to end."""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import durability_driver as driver
from repro.httpwire.netserver import PiggybackHttpServer
from repro.server.durability import DurableState, recover_state
from repro.server.resources import ResourceStore
from repro.server.server import PiggybackServer
from repro.workloads.sitegen import SiteConfig, generate_site

HOST = "www.admin.example"


@pytest.fixture()
def origin(tmp_path):
    site = generate_site(
        SiteConfig(host=HOST, page_count=10, directory_count=4, seed=2)
    )
    resources = ResourceStore.from_site(site)
    state = DurableState(tmp_path / "state", driver.make_store,
                         resources=resources)
    engine = PiggybackServer(resources, state.store)
    server = PiggybackHttpServer(engine, site_host=HOST, durable_state=state)
    server.start()
    try:
        yield server, engine, state, resources
    finally:
        server.stop()
        state.close()


def _request(server, method, path, headers=None):
    connection = http.client.HTTPConnection(
        server.address, server.port, timeout=10
    )
    try:
        connection.request(method, path, headers={"Host": HOST, **(headers or {})})
        response = connection.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        connection.close()


def _site_paths(resources):
    return sorted("/" + url.split("/", 1)[1] for url in resources.urls())


def test_status_reports_durable_state(origin):
    server, _engine, state, resources = origin
    _request(server, "GET", _site_paths(resources)[0])
    status, body, _ = _request(server, "GET", "/.repro/status")
    assert status == 200
    payload = json.loads(body)
    assert payload["server"].startswith("origin:")
    assert payload["draining"] is False
    assert payload["wire_stats"]["requests_served"] >= 1
    durable = payload["durable_state"]
    assert durable["generation"] == state.generation
    assert durable["journal"]["last_seq"] >= 1
    assert durable["recovery"]["last_seq"] == 0


def test_admin_endpoints_refuse_wrong_method_and_unknown_paths(origin):
    server, _engine, _state, _resources = origin
    assert _request(server, "GET", "/.repro/snapshot")[0] == 405
    assert _request(server, "GET", "/.repro/reload")[0] == 405
    assert _request(server, "GET", "/.repro/bogus")[0] == 404


def test_admin_namespace_never_reaches_the_engine(origin):
    server, engine, _state, _resources = origin
    before = engine.stats.requests
    _request(server, "GET", "/.repro/status")
    _request(server, "GET", "/.repro/bogus")
    assert engine.stats.requests == before


def test_drain_refuses_new_connections_but_finishes_in_flight(origin):
    server, engine, _state, resources = origin
    path = _site_paths(resources)[0]
    started = threading.Event()
    release = threading.Event()
    original_handle = engine.handle

    def gated_handle(request):
        started.set()
        assert release.wait(10), "in-flight request was abandoned"
        return original_handle(request)

    engine.handle = gated_handle
    results: dict[str, object] = {}

    def in_flight():
        results["status"], results["body"], _ = _request(server, "GET", path)

    worker = threading.Thread(target=in_flight, daemon=True)
    worker.start()
    assert started.wait(10)

    # Drain while that request is still being handled.
    status, body, _ = _request(server, "POST", "/.repro/drain")
    assert status == 200 and json.loads(body)["draining"] is True

    # New connections are refused once the listener is closed.
    with pytest.raises(OSError):
        probe = http.client.HTTPConnection(server.address, server.port, timeout=2)
        probe.request("GET", path, headers={"Host": HOST})
        probe.getresponse()

    # The in-flight request still completes successfully.
    release.set()
    worker.join(10)
    assert not worker.is_alive()
    assert results["status"] == 200
    # Lame-duck workers wind down without stop() having to force them.
    deadline = time.monotonic() + 5
    while server.active_workers() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server.active_workers() == 0


def test_snapshot_now_is_serializable_with_concurrent_load(origin):
    server, _engine, state, resources = origin
    paths = _site_paths(resources)
    errors: list[str] = []
    stop = threading.Event()

    def hammer(worker_id: int):
        index = worker_id
        while not stop.is_set():
            path = paths[index % len(paths)]
            index += 1
            status, _, _ = _request(
                server, "GET", path, headers={"Piggy-filter": "maxpiggy=10"}
            )
            if status != 200:
                errors.append(f"GET {path} -> {status}")
                return

    workers = [
        threading.Thread(target=hammer, args=(i,), daemon=True) for i in range(4)
    ]
    for worker in workers:
        worker.start()
    snapshots = []
    for _ in range(5):
        status, body, _ = _request(server, "POST", "/.repro/snapshot")
        assert status == 200
        snapshots.append(json.loads(body)["last_seq"])
        time.sleep(0.02)
    stop.set()
    for worker in workers:
        worker.join(10)
    assert not errors
    assert snapshots == sorted(snapshots)  # cuts advance monotonically

    # The disk state recovers to exactly the live in-memory state: every
    # journaled record after the last cut replays on top of the snapshot.
    urls = sorted(resources.urls())
    live = driver.trailer_map(state.store, urls)
    recovered, report = recover_state(state.state_dir, driver.make_store)
    assert report.snapshot_loaded
    assert report.last_seq == state.store.journal.last_seq
    assert driver.trailer_map(recovered, urls) == live


def test_reload_swaps_state_and_invalidates_the_piggyback_cache(origin):
    server, engine, state, resources = origin
    paths = _site_paths(resources)
    for path in paths[:6]:
        _request(server, "GET", path, headers={"Piggy-filter": "maxpiggy=10"})
    assert engine.piggyback_cache is not None
    assert len(engine.piggyback_cache) > 0
    base_before = state.store.epoch_base
    urls = sorted(resources.urls())
    trailers_before = driver.trailer_map(state.store, urls)

    status, body, _ = _request(server, "POST", "/.repro/reload")
    assert status == 200
    report = json.loads(body)
    assert report["last_seq"] == state.store.journal.last_seq

    assert len(engine.piggyback_cache) == 0  # invalidate hook ran
    assert state.store.epoch_base > base_before  # stale keys can't collide
    # Same state, served at higher epochs: trailers are unchanged and
    # requests keep working (repopulating the cache).
    assert driver.trailer_map(state.store, urls) == trailers_before
    status, _, _ = _request(
        server, "GET", paths[0], headers={"Piggy-filter": "maxpiggy=10"}
    )
    assert status == 200


def test_reload_never_hides_a_known_resource(tmp_path):
    """A request during ``reload()`` finds every resource: recovery fills
    a copy, and the copy is swapped in whole under the store lock."""
    site = generate_site(
        SiteConfig(host=HOST, page_count=1000, directory_count=6, seed=3)
    )
    resources = ResourceStore.from_site(site)
    state = DurableState(tmp_path / "state", driver.make_store,
                         resources=resources)
    state.snapshot_now()  # the snapshot carries the resource records
    urls = sorted(resources.urls())
    missing = []
    reads = 0
    stop = threading.Event()

    def reader():
        nonlocal reads
        while not stop.is_set():
            for url in urls:
                if resources.get(url) is None:
                    missing.append(url)
            reads += len(urls)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # interleave the reader with reload
    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    try:
        for _ in range(30):
            state.reload()
    finally:
        stop.set()
        thread.join(10)
        sys.setswitchinterval(interval)
        state.close()
    assert not thread.is_alive()
    assert reads > 0
    assert missing == [], f"{len(missing)} of {reads} reads missed a resource"
    assert resources.urls() == set(urls)


def test_serve_cli_end_to_end(tmp_path):
    """`repro serve --state-dir` boots, serves, drains, and exits cleanly."""
    state_dir = tmp_path / "state"
    access_log = tmp_path / "access.log"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve",
         "--state-dir", str(state_dir), "--pages", "8",
         "--access-log", str(access_log), "--flush-interval", "0.1",
         "--max-seconds", "20"],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        port = None
        assert process.stdout is not None
        for line in process.stdout:
            match = re.search(r"serving .* on 127\.0\.0\.1:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        assert port is not None, "serve never announced its port"

        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        connection.request("GET", "/.repro/status")
        payload = json.loads(connection.getresponse().read())
        assert payload["durable_state"]["generation"] == 1
        connection.close()

        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        connection.request("GET", "/d0/img0.gif",
                           headers={"Host": "www.serve.example"})
        assert connection.getresponse().status in (200, 404)
        connection.close()

        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        connection.request("POST", "/.repro/drain")
        assert connection.getresponse().status == 200
        connection.close()
        assert process.wait(timeout=20) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert (state_dir / "meta.json").exists()
    assert access_log.exists() and access_log.read_text().strip()
