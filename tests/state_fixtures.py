"""State files kept from the previous on-disk formats, and their answers.

``tests/data/state_v1/`` holds what the code before the v2 state codec
wrote: two durable state directories (v1 ``snapshot.json`` and
``meta.json`` plus a journal tail) and a v2 volume artifact from
``repro build-volumes``.  ``answers.json`` next to them records what that
code answered after recovering or loading each one.  The migration test
(``tests/test_state_migration.py``) holds the current code to the same
answers.

Run as a script, this module writes the fixtures and the answers into
the directory given on the command line::

    PYTHONPATH=src python tests/state_fixtures.py tests/data/state_v1

Run it against the commit whose formats the fixtures should capture:
run against the current code it writes the current formats instead.
The helpers use only names every version of the codec exports.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

import durability_driver as driver
from repro.server.durability import DurableState, recover_state
from repro.server.resources import ResourceStore
from repro.traces.records import LogRecord
from repro.volumes import load_volumes
from repro.volumes.online import OnlineProbabilityVolumeStore, OnlineVolumeConfig
from repro.volumes.probability import ProbabilityVolumeStore
from repro.volumes.state import capture_store_state

DATA = Path(__file__).resolve().parent / "data" / "state_v1"
DIRECTORY = "directory"
ONLINE = "online"
ARTIFACT = "volumes-v2.json"
ANSWERS = "answers.json"

RECORDS = driver.make_records(seed=21, count=48)
URLS = driver.record_urls(RECORDS)
EXTRA_URL = f"{driver.HOST}/d9/extra.html"
ARTIFACT_ARGS = ["--preset", "aiusa", "--scale", "0.03", "--min-accesses", "2",
                 "--threshold", "0.3"]
ARTIFACT_RECORDS = 200


def online_factory() -> OnlineProbabilityVolumeStore:
    return OnlineProbabilityVolumeStore(
        OnlineVolumeConfig(rebuild_interval=8.0, min_observations=10)
    )


def baseline_resources() -> ResourceStore:
    """The resource records a directory-fixture origin starts from."""
    resources = ResourceStore()
    for record in RECORDS:
        resources.add(record.url, size=record.size,
                      last_modified=record.last_modified)
    return resources


def _json(value):
    return json.loads(json.dumps(value))


def digest(value) -> str:
    """SHA-256 of *value*'s canonical JSON: bulky answers are kept as this."""
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def store_answers(store, urls: list[str]) -> dict:
    """Trailer map, lookups, versions and recapture of *store*.

    Lookups and the recaptured state are kept as digests.
    """
    answers = {"trailers": driver.trailer_map(store, urls)}
    lookups, versions = {}, {}
    with store.lock:
        for url in urls:
            lookup = store.lookup(url)
            lookups[url] = None if lookup is None else [
                lookup.volume_id,
                [list(dataclasses.astuple(c)) for c in lookup.candidates],
            ]
        for url in urls:
            version = store.lookup_version(url)
            versions[url] = None if version is None else [version.volume_id,
                                                          version.epoch]
        answers.update(lookups=digest(_json(lookups)), versions=versions,
                       state=digest(_json(capture_store_state(store))))
    return _json(answers)


def resource_answers(resources: ResourceStore) -> dict:
    records = [resources.get(url) for url in sorted(resources.urls())]
    return {
        "version": resources.version,
        "records": [[r.url, r.size, r.content_type, r.last_modified]
                    for r in records if r is not None],
    }


def recovery_answers(state_dir: Path, factory, resources=None) -> dict:
    store, report = recover_state(state_dir, factory, resources)
    answers = store_answers(store, URLS + [EXTRA_URL])
    answers["report"] = _json(dataclasses.asdict(report))
    if resources is not None:
        answers["resources"] = resource_answers(resources)
    return answers


def artifact_answers(path: Path) -> dict:
    """The artifact's parameters and members, and a store serving it
    after a seeded stream of requests over the artifact's URLs."""
    artifact = load_volumes(path)
    volumes = artifact.volumes
    universe = sorted({url for antecedent in volumes.antecedents()
                       for url in [antecedent, *(c for c, _ in volumes.members_of(antecedent))]})
    rng = random.Random(21)
    records = [
        LogRecord(timestamp=1000.0 + i, source=f"client{rng.randrange(4)}",
                  url=(url := rng.choice(universe)), size=100 + len(url) * rng.randrange(1, 9),
                  last_modified=float(rng.randrange(3)))
        for i in range(ARTIFACT_RECORDS)
    ]
    store = ProbabilityVolumeStore(volumes)
    with store.lock:
        for record in records:
            store.observe(record)
    urls = sorted({record.url for record in records})
    return {
        "parameters": [artifact.probability_threshold, artifact.window,
                       artifact.effectiveness_threshold, artifact.combine_level,
                       artifact.source_log],
        "members": digest(_json({a: volumes.members_of(a)
                                 for a in sorted(volumes.antecedents())})),
        "store": store_answers(store, urls),
    }


def _write_directory_fixture(state_dir: Path) -> None:
    """Two generations: a snapshot mid-way through the first, a journal
    tail of observations, ceiling raises and resource updates after it."""
    state = DurableState(state_dir, driver.make_store,
                         resources=baseline_resources())
    for index, record in enumerate(RECORDS[:30]):
        driver.feed(state.store, [record])
        if index == 10:
            state.journal_resource(RECORDS[0].url, 4321, "text", 77.0)
        if index == 20:
            with state.store.lock:
                state.store.note_min_access(2)
            state.snapshot_now()
    state.journal_resource(EXTRA_URL, 99, "text", 5.0)
    state.close()
    state = DurableState(state_dir, driver.make_store,
                         resources=baseline_resources())
    driver.feed(state.store, RECORDS[30:])
    with state.store.lock:
        state.store.note_min_access(3)
    state.close()


def _write_online_fixture(state_dir: Path) -> None:
    state = DurableState(state_dir, online_factory)
    driver.feed(state.store, RECORDS[:32])
    state.snapshot_now()
    driver.feed(state.store, RECORDS[32:])
    state.close()


def write_fixtures(out: Path) -> None:
    from repro.cli import main

    out.mkdir(parents=True, exist_ok=True)
    _write_directory_fixture(out / DIRECTORY)
    _write_online_fixture(out / ONLINE)
    assert main(["build-volumes", *ARTIFACT_ARGS, "--out", str(out / ARTIFACT)]) == 0
    answers = {
        DIRECTORY: recovery_answers(out / DIRECTORY, driver.make_store,
                                    baseline_resources()),
        ONLINE: recovery_answers(out / ONLINE, online_factory),
        ARTIFACT: artifact_answers(out / ARTIFACT),
    }
    (out / ANSWERS).write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_fixtures(Path(sys.argv[1]))
