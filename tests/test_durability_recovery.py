"""Recovery semantics: edge cases, idempotence, duplicate and gapped
journals, epoch monotonicity across generations, and lock-order
instrumented recovery."""

from __future__ import annotations

import json

import pytest

import durability_driver as driver
from repro.server.durability import (
    DurableState,
    JournalWriter,
    StateFormatError,
    recover_state,
)
from repro.server.durability.state import GENERATION_STRIDE, journal_name
from repro.volumes.online import OnlineProbabilityVolumeStore, OnlineVolumeConfig
from repro.volumes.state import capture_store_state

RECORDS = driver.make_records(seed=11, count=40)
URLS = driver.record_urls(RECORDS)


def _state_equal(a, b) -> bool:
    return json.dumps(capture_store_state(a), sort_keys=True) == json.dumps(
        capture_store_state(b), sort_keys=True
    )


def test_empty_state_dir_recovers_to_fresh_store(tmp_path):
    store, report = recover_state(tmp_path, driver.make_store)
    assert report.last_seq == 0
    assert not report.snapshot_loaded
    assert report.journal_files == 0
    assert report.generation == 1
    assert report.epoch_base == GENERATION_STRIDE
    assert store.epoch_base == GENERATION_STRIDE
    assert _state_equal(store, driver.make_store())
    assert list(tmp_path.iterdir()) == []  # recovery is read-only


def test_journal_without_snapshot(tmp_path):
    state = DurableState(tmp_path, driver.make_store)
    driver.feed(state.store, RECORDS)
    state.close()

    recovered, report = recover_state(tmp_path, driver.make_store)
    assert report.last_seq == 40 and report.replayed_records == 40
    assert not report.snapshot_loaded
    never_died = driver.feed(driver.make_store(), RECORDS)
    assert driver.trailer_map(recovered, URLS) == driver.trailer_map(never_died, URLS)


def test_snapshot_without_journal(tmp_path):
    state = DurableState(tmp_path, driver.make_store)
    driver.feed(state.store, RECORDS)
    state.snapshot_now()
    state.close()
    for entry in list(tmp_path.iterdir()):
        if entry.name.startswith("journal-"):
            entry.unlink()

    recovered, report = recover_state(tmp_path, driver.make_store)
    assert report.snapshot_loaded and report.snapshot_seq == 40
    assert report.last_seq == 40 and report.replayed_records == 0
    never_died = driver.feed(driver.make_store(), RECORDS)
    assert driver.trailer_map(recovered, URLS) == driver.trailer_map(never_died, URLS)


def test_duplicate_journal_records_are_skipped(tmp_path):
    """A retried flush that appended the same record twice is harmless."""
    state = DurableState(tmp_path, driver.make_store)
    driver.feed(state.store, RECORDS[:10])
    journal_path = state.store.journal.path
    state.close()
    data = journal_path.read_bytes()
    # Re-append the final frame's bytes verbatim: same seq, same payload —
    # exactly what a retried append after a partial failure produces.
    start = _frame_start_of_last(data)
    journal_path.write_bytes(data + data[start:])

    recovered, report = recover_state(tmp_path, driver.make_store)
    assert report.duplicate_records >= 1
    assert report.last_seq == 10
    journal_path.write_bytes(data)
    pristine, pristine_report = recover_state(tmp_path, driver.make_store)
    assert pristine_report.duplicate_records < report.duplicate_records
    assert _state_equal(recovered, pristine)


def _frame_start_of_last(data: bytes) -> int:
    """Byte offset where the last frame of *data* begins."""
    import struct

    header = struct.Struct("<2sII")
    offset = 0
    last = 0
    while offset < len(data):
        _, length, _ = header.unpack_from(data, offset)
        last = offset
        offset += header.size + length
    return last


def test_sequence_gap_stops_replay_at_the_gap(tmp_path):
    state = DurableState(tmp_path, driver.make_store)
    driver.feed(state.store, RECORDS[:10])
    state.close()
    # A second-generation journal that skips ahead: seqs 14, 15, ...
    writer = JournalWriter(
        tmp_path / journal_name(2), next_seq=14, generation=2, epoch_base=0
    )
    for record in RECORDS[13:16]:
        writer.append_observation(record)
    writer.close()

    recovered, report = recover_state(tmp_path, driver.make_store)
    assert report.last_seq == 10  # nothing past the gap is applied
    assert report.tail_reason is not None and "gap" in report.tail_reason
    prefix_only = driver.feed(driver.make_store(), RECORDS[:10])
    assert driver.trailer_map(recovered, URLS) == driver.trailer_map(prefix_only, URLS)


@pytest.mark.parametrize("snapshot_at", [-1, 7, 39])
def test_recovery_is_idempotent(tmp_path, snapshot_at):
    state = DurableState(tmp_path, driver.make_store)
    for index, record in enumerate(RECORDS):
        driver.feed(state.store, [record])
        if index == snapshot_at:
            state.snapshot_now()
    state.close()

    first, report_a = recover_state(tmp_path, driver.make_store)
    second, report_b = recover_state(tmp_path, driver.make_store)
    assert report_a == report_b
    assert _state_equal(first, second)
    # And recovery agrees with the never-died store.
    never_died = driver.feed(driver.make_store(), RECORDS)
    assert driver.trailer_map(first, URLS) == driver.trailer_map(never_died, URLS)


def test_epochs_are_monotone_across_generations(tmp_path):
    state = DurableState(tmp_path, driver.make_store)
    driver.feed(state.store, RECORDS[:20])
    with state.store.lock:
        versions_before = {
            url: state.store.lookup_version(url) for url in URLS
        }
    max_epoch_before = max(
        v.epoch for v in versions_before.values() if v is not None
    )
    state.close()

    restarted = DurableState(tmp_path, driver.make_store)
    assert restarted.generation == 2
    with restarted.store.lock:
        versions_after = {
            url: restarted.store.lookup_version(url) for url in URLS
        }
    min_epoch_after = min(
        v.epoch for v in versions_after.values() if v is not None
    )
    # Every post-restart epoch strictly exceeds every pre-crash epoch, so
    # no piggyback cache key can ever collide across the restart.
    assert min_epoch_after > max_epoch_before
    # Volume *identities* are stable; only epochs moved.
    assert {u: v.volume_id for u, v in versions_after.items() if v} == {
        u: v.volume_id for u, v in versions_before.items() if v
    }
    restarted.close()


def test_meta_floor_holds_even_without_journal_or_snapshot(tmp_path):
    """Crash before the first append: meta.json alone carries the base."""
    state = DurableState(tmp_path, driver.make_store)
    base_one = state.store.epoch_base
    # Simulate the crash: no close, drop everything but meta.
    for entry in list(tmp_path.iterdir()):
        if entry.name != "meta.json":
            entry.unlink()
    store, report = recover_state(tmp_path, driver.make_store)
    assert report.epoch_base > base_one
    assert report.generation == 2


def test_corrupt_snapshot_refuses_recovery(tmp_path):
    state = DurableState(tmp_path, driver.make_store)
    driver.feed(state.store, RECORDS[:5])
    state.snapshot_now()
    state.close()
    snapshot = tmp_path / "snapshot.json"
    snapshot.write_bytes(snapshot.read_bytes()[:-40])
    with pytest.raises(StateFormatError):
        recover_state(tmp_path, driver.make_store)


def test_recovery_under_lockorder_instrumentation(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_LOCKORDER", "1")
    state = DurableState(tmp_path / "state", driver.make_store)
    driver.feed(state.store, RECORDS[:15])
    state.snapshot_now()
    driver.feed(state.store, RECORDS[15:30])
    state.reload()
    driver.feed(state.store, RECORDS[30:])
    state.close()
    recovered, report = recover_state(tmp_path / "state", driver.make_store)
    assert report.last_seq == 40
    never_died = driver.feed(driver.make_store(), RECORDS)
    assert driver.trailer_map(recovered, URLS) == driver.trailer_map(never_died, URLS)


def test_online_store_recovery_is_bit_identical(tmp_path):
    """The streaming pairwise store (windows, counters, RNG) also recovers."""

    def factory():
        return OnlineProbabilityVolumeStore(OnlineVolumeConfig())

    records = driver.make_records(seed=5, count=60)
    state = DurableState(tmp_path, factory)
    driver.feed(state.store, records[:35])
    state.snapshot_now()
    driver.feed(state.store, records[35:])
    state.close()

    recovered, report = recover_state(tmp_path, factory)
    assert report.last_seq == 60
    never_died = driver.feed(factory(), records)
    assert _state_equal(recovered, never_died)
    # Future behavior matches too: feed both the same continuation.
    more = driver.make_records(seed=6, count=20)
    driver.feed(recovered, more)
    driver.feed(never_died, more)
    assert _state_equal(recovered, never_died)
