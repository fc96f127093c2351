"""Files written by the previous formats still recover to the same answers.

``tests/data/state_v1/`` holds two state directories with v1 snapshots
and meta files plus a journal tail, and a v2 volume artifact; see
``tests/state_fixtures.py`` for how they were written and what
``answers.json`` records.  The current code must recover each one to
those answers, write only the current versions from then on, and read
back what it wrote.
"""

from __future__ import annotations

import json
import shutil

import pytest

import durability_driver as driver
import state_fixtures as fx
from repro.server.durability import DurableState, recover_state
from repro.volumes.state import StateFormatError, load_volumes, save_volumes

ANSWERS = json.loads((fx.DATA / fx.ANSWERS).read_text())
FACTORIES = {fx.DIRECTORY: driver.make_store, fx.ONLINE: fx.online_factory}


def _version(path) -> int:
    return json.loads(path.read_text())["version"]


def _copy(name, tmp_path):
    target = tmp_path / name
    shutil.copytree(fx.DATA / name, target)
    return target


def _resources(name):
    return fx.baseline_resources() if name == fx.DIRECTORY else None


@pytest.mark.parametrize("name", [fx.DIRECTORY, fx.ONLINE])
def test_v1_state_dir_recovers_to_the_recorded_answers(tmp_path, name):
    state_dir = _copy(name, tmp_path)
    assert _version(state_dir / "snapshot.json") == 1
    assert _version(state_dir / "meta.json") == 1
    answers = fx.recovery_answers(state_dir, FACTORIES[name], _resources(name))
    assert answers == ANSWERS[name]
    assert sorted(p.name for p in state_dir.iterdir()) == sorted(
        p.name for p in (fx.DATA / name).iterdir()
    ), "recovery wrote to the state directory"


@pytest.mark.parametrize("name", [fx.DIRECTORY, fx.ONLINE])
def test_v1_state_dir_is_rewritten_as_v2_and_read_back(tmp_path, name):
    state_dir = _copy(name, tmp_path)
    factory = FACTORIES[name]
    expected = ANSWERS[name]

    state = DurableState(state_dir, factory, resources=_resources(name))
    assert _version(state_dir / "meta.json") == 2
    assert _version(state_dir / "snapshot.json") == 1  # untouched until folded
    state.snapshot_now()
    state.close()
    assert _version(state_dir / "snapshot.json") == 2

    # What the new code wrote recovers to the same store and resources;
    # only the epoch base moved on, one generation later.
    again = fx.recovery_answers(state_dir, factory, _resources(name))
    for key in ("trailers", "lookups", "state", "resources"):
        assert again.get(key) == expected.get(key), key
    assert again["report"]["generation"] == expected["report"]["generation"] + 1
    assert again["report"]["last_seq"] == expected["report"]["last_seq"]
    assert again["report"]["epoch_base"] > expected["report"]["epoch_base"]
    # Volume ids are stable; epochs carry the new base.
    assert {url: v and v[0] for url, v in again["versions"].items()} == {
        url: v and v[0] for url, v in expected["versions"].items()
    }


def test_v2_artifact_loads_to_the_recorded_answers():
    path = fx.DATA / fx.ARTIFACT
    assert _version(path) == 2
    assert fx.artifact_answers(path) == ANSWERS[fx.ARTIFACT]


def test_v1_artifact_loads_to_the_same_answers(tmp_path):
    document = json.loads((fx.DATA / fx.ARTIFACT).read_text())
    document["version"] = 1
    del document["checksum"]
    path = tmp_path / "volumes-v1.json"
    path.write_text(json.dumps(document))
    assert fx.artifact_answers(path) == ANSWERS[fx.ARTIFACT]


def test_artifact_is_rewritten_as_v3_and_read_back(tmp_path):
    artifact = load_volumes(fx.DATA / fx.ARTIFACT)
    path = tmp_path / "volumes-v3.json"
    save_volumes(artifact.volumes, path, artifact.probability_threshold,
                 artifact.window, artifact.effectiveness_threshold,
                 artifact.combine_level, artifact.source_log)
    assert _version(path) == 3
    assert fx.artifact_answers(path) == ANSWERS[fx.ARTIFACT]


def test_damaged_v1_snapshot_is_still_refused(tmp_path):
    """v1 checksums covered store and resources; damage there is caught."""
    state_dir = _copy(fx.DIRECTORY, tmp_path)
    path = state_dir / "snapshot.json"
    document = json.loads(path.read_text())
    document["store"]["state"]["touch_counter"] += 1
    path.write_text(json.dumps(document))
    with pytest.raises(StateFormatError, match="checksum"):
        recover_state(state_dir, driver.make_store)
