"""Tests for the runtime race sanitizer (``REPRO_RACE=1``).

Covers the lockset state machine (exclusive phase, clean handoff,
candidate-set narrowing, the raise on interleaved unlocked writes), the
proxy's read/write split, factory composition with the lock-order
layer, and the wired-up hot objects in the serving stack.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import pytest

from repro.devtools import racecheck
from repro.devtools.racecheck import (
    RaceError,
    RaceLock,
    RaceMonitor,
    SharedStateProxy,
    share,
    wrap_lock,
)


@pytest.fixture
def race_on(monkeypatch):
    monkeypatch.setenv("REPRO_RACE", "1")


def run_threads(*targets):
    errors: list[BaseException] = []

    def wrap(fn):
        def runner():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - collected for asserts
                errors.append(exc)

        return runner

    threads = [threading.Thread(target=wrap(t)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


# -- gating ----------------------------------------------------------------


def test_share_is_identity_when_disabled(monkeypatch):
    monkeypatch.delenv("REPRO_RACE", raising=False)
    obj: dict[str, int] = {}
    assert share(obj, "x") is obj
    lock = threading.Lock()
    assert wrap_lock(lock, "x") is lock


def test_share_wraps_when_enabled(race_on):
    proxy = share({}, "x")
    assert isinstance(proxy, SharedStateProxy)
    assert isinstance(wrap_lock(threading.Lock(), "x"), RaceLock)


# -- proxy surface ---------------------------------------------------------


def test_proxy_forwards_container_surface(race_on):
    inner: OrderedDict[str, int] = OrderedDict()
    proxy = share(inner, "cache")
    proxy["a"] = 1
    proxy.update(b=2)
    proxy.setdefault("c", 3)
    proxy.move_to_end("a")
    assert proxy["a"] == 1
    assert "b" in proxy
    assert len(proxy) == 3
    assert list(proxy) == ["b", "c", "a"]
    assert proxy.get("missing") is None
    assert bool(proxy)
    assert proxy == inner
    del proxy["b"]
    assert proxy.pop("c") == 3
    proxy.clear()
    assert len(inner) == 0


# -- lockset state machine -------------------------------------------------


def test_single_thread_mutation_never_raises(race_on):
    proxy = share({}, "solo")
    for i in range(100):
        proxy[i] = i
    assert len(proxy) == 100


def test_clean_ownership_handoff_is_silent(race_on):
    proxy = share({}, "handoff")
    proxy["built"] = 1  # main thread builds...

    def worker():
        for i in range(50):  # ...one worker mutates from then on
            proxy[i] = i

    assert run_threads(worker) == []


def test_interleaved_unlocked_writes_raise(race_on):
    # Deterministic interleave: A writes, B writes, A writes again.
    # The transition write (B's) is silent by design; A's next write
    # interleaves with it unprotected and must raise.
    proxy = share({}, "racy")
    turn_b = threading.Event()
    turn_a = threading.Event()

    def writer_a():
        proxy["a-1"] = 1
        turn_b.set()
        assert turn_a.wait(timeout=5)
        proxy["a-2"] = 2  # raises

    def writer_b():
        assert turn_b.wait(timeout=5)
        proxy["b-1"] = 1
        turn_a.set()

    errors = run_threads(writer_a, writer_b)
    assert len(errors) == 1
    assert isinstance(errors[0], RaceError)
    message = str(errors[0])
    assert "racy" in message
    assert "no common lock" in message


def test_common_lock_keeps_writes_clean(race_on):
    proxy = share({}, "guarded")
    lock = wrap_lock(threading.Lock(), "guarded.lock")
    barrier = threading.Barrier(2)

    def writer(name):
        def run():
            barrier.wait()
            for i in range(2000):
                with lock:
                    proxy[f"{name}-{i}"] = i

        return run

    assert run_threads(writer("a"), writer("b")) == []
    assert len(proxy) == 4000


def test_disjoint_locks_still_race(race_on):
    # Each writer holds *a* lock — but not the same one, so the
    # candidate set empties and the interleaved write raises.
    proxy = share({}, "split")
    lock_a = wrap_lock(threading.Lock(), "lock.a")
    lock_b = wrap_lock(threading.Lock(), "lock.b")
    turn_b = threading.Event()
    turn_a = threading.Event()

    def writer_a():
        with lock_a:
            proxy["a-1"] = 1
        turn_b.set()
        assert turn_a.wait(timeout=5)
        with lock_a:
            proxy["a-2"] = 2  # raises: candidate {lock.b} & {lock.a} = {}

    def writer_b():
        assert turn_b.wait(timeout=5)
        with lock_b:
            proxy["b-1"] = 1
        turn_a.set()

    errors = run_threads(writer_a, writer_b)
    assert len(errors) == 1
    assert isinstance(errors[0], RaceError)


def test_reads_after_join_never_raise(race_on):
    proxy = share({}, "readback")
    lock = wrap_lock(threading.Lock(), "readback.lock")

    def writer():
        for i in range(100):
            with lock:
                proxy[i] = i

    assert run_threads(writer, writer) == []
    # Join-synchronized reads from the main thread: always fine.
    assert len(proxy) == 100
    assert proxy[7] == 7
    assert sorted(proxy) == sorted(range(100))


def test_rlock_reentrancy_balances(race_on):
    monitor = RaceMonitor()
    lock = RaceLock(threading.RLock(), "re.lock", monitor)
    with lock:
        with lock:
            assert monitor.lockset() == {"re.lock"}
        assert monitor.lockset() == {"re.lock"}
    assert monitor.lockset() == frozenset()


# -- wired hot objects -----------------------------------------------------


def test_piggyback_cache_entries_are_proxied(race_on):
    from repro.server.piggyback_cache import PiggybackMessageCache

    cache = PiggybackMessageCache(max_entries=4)
    assert isinstance(cache._entries, SharedStateProxy)


def test_upstream_pools_are_proxied(race_on):
    from repro.httpwire.netproxy import HttpUpstream
    from repro.lb.forward import Forwarder

    upstream = HttpUpstream(origins={})
    assert isinstance(upstream.pool._idle, SharedStateProxy)
    assert isinstance(upstream._bodies, SharedStateProxy)
    assert isinstance(Forwarder().pool._idle, SharedStateProxy)


def test_metrics_registry_instruments_are_proxied(race_on):
    from repro.telemetry.registry import MetricsRegistry

    registry = MetricsRegistry()
    assert isinstance(registry._instruments, SharedStateProxy)


def test_volume_store_tables_and_lock_are_wrapped(race_on):
    from repro.volumes.directory import DirectoryVolumeStore

    store = DirectoryVolumeStore()
    assert isinstance(store._volumes, SharedStateProxy)
    assert isinstance(store._epochs, SharedStateProxy)
    assert isinstance(store._key_of, SharedStateProxy)
    # The id space the store grows is store state too.
    id_space = store.id_space
    level = store.config.level
    prefixes = id_space.directory_prefix_table(level)
    for table in (id_space.urls, id_space.content_types, prefixes):
        assert isinstance(table._ids, SharedStateProxy)
        assert isinstance(table._strings, SharedStateProxy)
    assert isinstance(id_space.directory_prefix_ids(level), SharedStateProxy)
    assert isinstance(id_space.content_type_ids(), SharedStateProxy)
    assert isinstance(id_space.url_counts(), SharedStateProxy)
    assert isinstance(store.lock, RaceLock)


def test_wired_objects_plain_when_disabled(monkeypatch):
    monkeypatch.delenv("REPRO_RACE", raising=False)
    from repro.server.piggyback_cache import PiggybackMessageCache
    from repro.volumes.directory import DirectoryVolumeStore

    cache = PiggybackMessageCache(max_entries=4)
    assert isinstance(cache._entries, OrderedDict)
    store = DirectoryVolumeStore()
    assert isinstance(store._volumes, dict)
    assert isinstance(store._key_of, list)
    assert isinstance(store.id_space.urls._ids, dict)
    assert isinstance(store.id_space.content_type_ids(), list)


def test_seeded_unsynchronized_store_mutation_detected(race_on):
    """The sanitizer catches a deliberately unsynchronized mutation of a
    wired object — the acceptance fixture for the whole subsystem."""
    from repro.volumes.directory import DirectoryVolumeStore
    from repro.traces.records import LogRecord

    store = DirectoryVolumeStore()
    turn_b = threading.Event()
    turn_a = threading.Event()

    def record(tag, i):
        # A fresh URL in a fresh directory per observation forces writes
        # to the id space, _key_of and _volumes.
        return LogRecord(
            timestamp=float(i),
            source=f"client-{tag}",
            url=f"/{tag}{i}/page.html",
            size=100,
        )

    def observer_a():
        # Bypass store.lock on purpose: interleaved observe() calls
        # mutate the store's tables unsynchronized.
        store.observe(record("a", 1))
        turn_b.set()
        assert turn_a.wait(timeout=5)
        store.observe(record("a", 2))  # raises

    def observer_b():
        assert turn_b.wait(timeout=5)
        store.observe(record("b", 1))
        turn_a.set()

    errors = run_threads(observer_a, observer_b)
    assert errors, "unsynchronized store.observe() must trip the sanitizer"
    assert all(isinstance(e, RaceError) for e in errors)


def test_locked_store_mutation_clean(race_on):
    from repro.volumes.directory import DirectoryVolumeStore
    from repro.traces.records import LogRecord

    store = DirectoryVolumeStore()
    barrier = threading.Barrier(2)

    def observer(offset):
        def run():
            barrier.wait()
            for i in range(300):
                with store.lock:
                    store.observe(
                        LogRecord(
                            timestamp=float(offset * 1000 + i),
                            source=f"client{offset}",
                            url=f"/dir{offset}/page{i}.html",
                            size=100,
                        )
                    )

        return run

    assert run_threads(observer(1), observer(2)) == []


def test_enabled_reflects_environment(monkeypatch):
    monkeypatch.setenv("REPRO_RACE", "yes")
    assert racecheck.enabled()
    monkeypatch.setenv("REPRO_RACE", "0")
    assert not racecheck.enabled()
    monkeypatch.delenv("REPRO_RACE")
    assert not racecheck.enabled()
