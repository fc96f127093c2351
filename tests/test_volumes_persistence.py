"""Unit tests for probability-volume persistence."""

import json

import pytest

from repro.volumes.state import (
    StateFormatError,
    load_volumes,
    save_volumes,
)
from repro.volumes.probability import ProbabilityVolumes


def sample_volumes():
    return ProbabilityVolumes(
        {
            "h/a": [("h/b", 0.9), ("h/c", 0.25)],
            "h/d": [("h/e", 0.5)],
        }
    )


class TestRoundTrip:
    def test_volumes_survive_round_trip(self, tmp_path):
        path = tmp_path / "volumes.json"
        save_volumes(sample_volumes(), path, probability_threshold=0.2,
                     window=300.0, effectiveness_threshold=0.2,
                     combine_level=None, source_log="sun")
        artifact = load_volumes(path)
        assert artifact.volumes.members_of("h/a") == [("h/b", 0.9), ("h/c", 0.25)]
        assert artifact.volumes.members_of("h/d") == [("h/e", 0.5)]
        assert artifact.probability_threshold == 0.2
        assert artifact.window == 300.0
        assert artifact.effectiveness_threshold == 0.2
        assert artifact.combine_level is None
        assert artifact.source_log == "sun"

    def test_none_parameters_preserved(self, tmp_path):
        path = tmp_path / "v.json"
        save_volumes(sample_volumes(), path, probability_threshold=0.5)
        artifact = load_volumes(path)
        assert artifact.effectiveness_threshold is None
        assert artifact.combine_level is None

    def test_empty_volumes(self, tmp_path):
        path = tmp_path / "empty.json"
        save_volumes(ProbabilityVolumes({}), path, probability_threshold=0.1)
        artifact = load_volumes(path)
        assert len(artifact.volumes) == 0

    def test_output_is_deterministic(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_volumes(sample_volumes(), first, probability_threshold=0.2)
        save_volumes(sample_volumes(), second, probability_threshold=0.2)
        assert first.read_text() == second.read_text()


class TestErrorHandling:
    def test_not_json(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("this is not json")
        with pytest.raises(StateFormatError):
            load_volumes(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(StateFormatError):
            load_volumes(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "future.json"
        payload = {"format": "repro-probability-volumes", "version": 99,
                   "parameters": {}, "volumes": {}}
        path.write_text(json.dumps(payload))
        with pytest.raises(StateFormatError):
            load_volumes(path)

    def test_missing_parameters(self, tmp_path):
        path = tmp_path / "partial.json"
        payload = {"format": "repro-probability-volumes", "version": 1,
                   "parameters": {}, "volumes": {}}
        path.write_text(json.dumps(payload))
        with pytest.raises(StateFormatError):
            load_volumes(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"format": "repro-probability-volumes", "x": "\xe9"}')
        with pytest.raises(StateFormatError, match="JSON"):
            load_volumes(path)

    @pytest.mark.parametrize("volumes", [[], "h/a", 3, None])
    def test_v1_volumes_not_a_mapping(self, tmp_path, volumes):
        path = tmp_path / "v1.json"
        payload = {"format": "repro-probability-volumes", "version": 1,
                   "parameters": {"probability_threshold": 0.2, "window": 300.0,
                                  "effectiveness_threshold": None,
                                  "combine_level": None},
                   "volumes": volumes}
        path.write_text(json.dumps(payload))
        with pytest.raises(StateFormatError):
            load_volumes(path)

    def test_checksum_covers_parameters(self, tmp_path):
        path = tmp_path / "v.json"
        save_volumes(sample_volumes(), path, probability_threshold=0.2)
        payload = json.loads(path.read_text())
        payload["parameters"]["probability_threshold"] = 0.9
        path.write_text(json.dumps(payload))
        with pytest.raises(StateFormatError, match="checksum"):
            load_volumes(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_volumes(tmp_path / "nope.json")
