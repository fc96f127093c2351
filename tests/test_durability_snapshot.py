"""Tests for snapshot/meta persistence: atomicity, checksums, and the
resource-store codec."""

from __future__ import annotations

import json

import pytest

import durability_driver as driver
from repro.server.durability import (
    SNAPSHOT_NAME,
    StateFormatError,
    StateMeta,
    load_meta,
    load_snapshot,
    write_snapshot,
)
from repro.server.durability.state import journal_generation, journal_name
from repro.server.resources import ResourceStore
from repro.volumes.state import (
    capture_resources,
    capture_store_state,
    restore_resources,
    write_meta,
)


def _store_state():
    store = driver.feed(driver.make_store(), driver.make_records(3, 25))
    return store, capture_store_state(store)


def test_snapshot_roundtrip(tmp_path):
    store, state = _store_state()
    resources = ResourceStore()
    resources.add("www.s.example/a.html", size=10, last_modified=5.0)
    resources.add("www.s.example/b.gif", size=20, last_modified=6.0)
    size = write_snapshot(
        tmp_path,
        generation=4,
        state_epoch_base=1 << 40,
        last_seq=25,
        store_state=state,
        resources_state=capture_resources(resources),
    )
    assert size == (tmp_path / SNAPSHOT_NAME).stat().st_size

    loaded = load_snapshot(tmp_path)
    assert loaded is not None
    assert (loaded.generation, loaded.state_epoch_base, loaded.last_seq) == (
        4, 1 << 40, 25,
    )
    restored = driver.make_store()
    from repro.volumes.state import restore_store_state

    restore_store_state(restored, loaded.store_state)
    urls = driver.record_urls(driver.make_records(3, 25))
    assert driver.trailer_map(restored, urls) == driver.trailer_map(store, urls)

    fresh_resources = ResourceStore()
    restore_resources(fresh_resources, loaded.resources_state)
    assert fresh_resources.urls() == resources.urls()
    assert fresh_resources.version == resources.version
    record = fresh_resources.get("www.s.example/a.html")
    assert record is not None and record.size == 10 and record.last_modified == 5.0


def test_missing_snapshot_is_none_and_tmp_is_ignored(tmp_path):
    assert load_snapshot(tmp_path) is None
    (tmp_path / (SNAPSHOT_NAME + ".tmp")).write_text("{ torn")
    assert load_snapshot(tmp_path) is None


def test_snapshot_write_leaves_no_temp_file(tmp_path):
    _, state = _store_state()
    write_snapshot(
        tmp_path, generation=1, state_epoch_base=0, last_seq=1,
        store_state=state, resources_state=None,
    )
    assert [p.name for p in tmp_path.iterdir()] == [SNAPSHOT_NAME]


def test_snapshot_checksum_mismatch_raises(tmp_path):
    _, state = _store_state()
    write_snapshot(
        tmp_path, generation=1, state_epoch_base=0, last_seq=1,
        store_state=state, resources_state=None,
    )
    path = tmp_path / SNAPSHOT_NAME
    payload = json.loads(path.read_text())
    payload["last_seq"] = 999  # metadata is fine to edit...
    assert load_snapshot(tmp_path)  # sanity: still valid before the edit lands
    payload["store"]["state"]["touch_counter"] = 12345  # ...state is not
    path.write_text(json.dumps(payload))
    with pytest.raises(StateFormatError, match="checksum"):
        load_snapshot(tmp_path)


def test_snapshot_garbage_raises(tmp_path):
    (tmp_path / SNAPSHOT_NAME).write_bytes(b"\x00\xffnot json")
    with pytest.raises(StateFormatError, match="JSON"):
        load_snapshot(tmp_path)


def test_snapshot_wrong_format_or_version_raises(tmp_path):
    path = tmp_path / SNAPSHOT_NAME
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(StateFormatError):
        load_snapshot(tmp_path)
    path.write_text(json.dumps({"format": "repro-state-snapshot", "version": 99}))
    with pytest.raises(StateFormatError, match="version"):
        load_snapshot(tmp_path)


def test_meta_roundtrip_and_absence(tmp_path):
    assert load_meta(tmp_path) is None
    write_meta(tmp_path, StateMeta(generation=3, epoch_base=2 << 40))
    assert load_meta(tmp_path) == StateMeta(generation=3, epoch_base=2 << 40)
    # Rewrites replace atomically, no temp residue.
    write_meta(tmp_path, StateMeta(generation=4, epoch_base=3 << 40))
    assert load_meta(tmp_path) == StateMeta(generation=4, epoch_base=3 << 40)
    assert all(not p.name.endswith(".tmp") for p in tmp_path.iterdir())


def test_corrupt_meta_raises(tmp_path):
    (tmp_path / "meta.json").write_text("[1, 2, 3]")
    with pytest.raises(StateFormatError):
        load_meta(tmp_path)


def test_journal_names_roundtrip():
    assert journal_name(7) == "journal-00000007.log"
    assert journal_generation("journal-00000007.log") == 7
    assert journal_generation("journal-00000007.log.tmp") is None
    assert journal_generation("snapshot.json") is None
    assert journal_generation("journal-abc.log") is None
