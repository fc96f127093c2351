"""Seeded fuzzing of a state directory's files.

These cover the damage SIGKILL cannot produce — a machine crash losing
un-synced page-cache tails, disk bit rot inside the file — by mutating
real bytes directly.

Journal mutations (truncation, bit flips, garbage suffixes) use the same
prefix-consistency oracle the chaos harness uses: recovery must never
raise, and the recovered store must equal a fresh store fed some prefix
of the original stream.  ``snapshot.json`` and ``meta.json`` are written
atomically, so damage to them is never a crash artifact: after any
single bit flip, recovery must raise ``StateFormatError`` or return
exactly what the undamaged directory recovers to.
"""

from __future__ import annotations

import json
import os
import random

import pytest

import durability_driver as driver
from repro.server.durability import DurableState, StateFormatError, recover_state
from repro.server.resources import ResourceStore
from repro.volumes.state import capture_resources, capture_store_state

COUNT = 30
_LONG = os.environ.get("REPRO_STRESS_PROFILE") == "long"
CASES = 60 if _LONG else 24


def _build_state_dir(tmp_path, seed: int):
    """A real state directory: journal only, or snapshot plus journal."""
    rng = random.Random(seed)
    records = driver.make_records(seed, COUNT)
    state = DurableState(tmp_path, driver.make_store)
    snapshot_at = rng.randrange(COUNT) if rng.random() < 0.4 else None
    for index, record in enumerate(records):
        driver.feed(state.store, [record])
        if index == snapshot_at:
            state.snapshot_now()
    journal_path = state.store.journal.path
    state.close()
    return records, journal_path


def _mutate(journal_path, rng: random.Random) -> str:
    data = bytearray(journal_path.read_bytes())
    mutation = rng.choice(["truncate", "flip", "garbage", "flip+truncate"])
    if mutation == "truncate":
        data = data[: rng.randrange(len(data) + 1)]
    elif mutation == "flip":
        position = rng.randrange(len(data))
        data[position] ^= 1 << rng.randrange(8)
    elif mutation == "garbage":
        data += bytes(rng.randrange(256) for _ in range(rng.randrange(1, 300)))
    else:
        position = rng.randrange(len(data))
        data[position] ^= 1 << rng.randrange(8)
        data = data[: rng.randrange(position, len(data) + 1)]
    journal_path.write_bytes(bytes(data))
    return mutation


@pytest.mark.parametrize("seed", range(CASES))
def test_fuzzed_journal_recovers_to_a_consistent_prefix(tmp_path, seed):
    records, journal_path = _build_state_dir(tmp_path, seed)
    rng = random.Random(1000 + seed)
    mutation = _mutate(journal_path, rng)

    recovered, report = recover_state(tmp_path, driver.make_store)
    applied = report.last_seq
    assert 0 <= applied <= COUNT, mutation
    urls = driver.record_urls(records)
    prefix_store = driver.feed(driver.make_store(), records[:applied])
    assert driver.trailer_map(recovered, urls) == driver.trailer_map(
        prefix_store, urls
    ), f"{mutation}: fuzzed recovery is not a clean prefix"

    # And the directory is still serviceable: a new generation opens,
    # finishes the stream, and matches the never-died endpoint.
    resumed = DurableState(tmp_path, driver.make_store)
    driver.feed(resumed.store, records[applied:])
    final = driver.trailer_map(resumed.store, urls)
    resumed.close()
    never_died = driver.trailer_map(driver.feed(driver.make_store(), records), urls)
    assert final == never_died, mutation


def test_fuzzing_actually_reduces_the_applied_count_sometimes(tmp_path):
    """Meta-check: the fuzzer is not a no-op — damage really costs records."""
    losses = 0
    for seed in range(CASES):
        case_dir = tmp_path / f"case-{seed}"
        case_dir.mkdir()
        _, journal_path = _build_state_dir(case_dir, seed)
        _mutate(journal_path, random.Random(1000 + seed))
        _, report = recover_state(case_dir, driver.make_store)
        if report.last_seq < COUNT:
            losses += 1
    assert losses > CASES // 4


# --- snapshot.json and meta.json -------------------------------------------

DOCUMENTS = ("snapshot.json", "meta.json")


def _documents_dir(tmp_path):
    """A state directory with a snapshot, a journal tail past it, and
    resource records in both."""
    resources = ResourceStore()
    resources.add(f"{driver.HOST}/d0/page0.html", size=10, last_modified=3.0)
    state = DurableState(tmp_path, driver.make_store, resources=resources)
    records = driver.make_records(7, COUNT)
    driver.feed(state.store, records[:10])
    state.journal_resource(f"{driver.HOST}/d1/page1.gif", 20, "image", 4.0)
    state.snapshot_now()
    driver.feed(state.store, records[10:])
    state.close()
    return driver.record_urls(records)


def _recovery(state_dir, urls):
    resources = ResourceStore()
    store, report = recover_state(state_dir, driver.make_store, resources)
    return (driver.trailer_map(store, urls), capture_store_state(store),
            capture_resources(resources), report)


def _refused_or_undamaged(state_dir, urls, undamaged, what):
    try:
        recovered = _recovery(state_dir, urls)
    except StateFormatError:
        return True
    assert recovered == undamaged, f"{what}: damaged document changed the recovery"
    return False


def _flip(path, position, bit):
    data = bytearray(path.read_bytes())
    data[position] ^= 1 << bit
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("seed", range(CASES))
def test_document_bit_flip_is_refused_or_harmless(tmp_path, seed):
    urls = _documents_dir(tmp_path)
    undamaged = _recovery(tmp_path, urls)
    rng = random.Random(2000 + seed)
    path = tmp_path / rng.choice(DOCUMENTS)
    position = rng.randrange(path.stat().st_size)
    _flip(path, position, rng.randrange(8))
    _refused_or_undamaged(tmp_path, urls, undamaged, f"{path.name}@{position}")


@pytest.mark.parametrize("name", DOCUMENTS)
def test_every_header_bit_flip_is_refused_or_harmless(tmp_path, name):
    """Every bit of every byte before the state payload: format, version,
    generation, epoch base, journal position and the checksum itself."""
    urls = _documents_dir(tmp_path)
    undamaged = _recovery(tmp_path, urls)
    path = tmp_path / name
    original = path.read_bytes()
    end = original.find(b'"store"') if name == "snapshot.json" else len(original)
    assert end > 0
    refused = 0
    for position in range(end):
        for bit in range(8):
            _flip(path, position, bit)
            refused += _refused_or_undamaged(tmp_path, urls, undamaged,
                                             f"{name}@{position}^{bit}")
            path.write_bytes(original)
    assert refused > 7 * end  # nearly every flip is caught, not shrugged off


def test_rewritten_last_seq_is_refused(tmp_path):
    """Moving a snapshot's journal position would skip acknowledged
    records as duplicates; the whole-document checksum refuses it."""
    _documents_dir(tmp_path)
    path = tmp_path / "snapshot.json"
    document = json.loads(path.read_text())
    assert document["last_seq"] == 11
    document["last_seq"] = 21
    path.write_text(json.dumps(document, indent=1))
    with pytest.raises(StateFormatError, match="checksum"):
        recover_state(tmp_path, driver.make_store)


def test_rewritten_meta_is_refused(tmp_path):
    _documents_dir(tmp_path)
    path = tmp_path / "meta.json"
    document = json.loads(path.read_text())
    document["epoch_base"] = 0
    path.write_text(json.dumps(document, indent=1))
    with pytest.raises(StateFormatError, match="checksum"):
        recover_state(tmp_path, driver.make_store)
