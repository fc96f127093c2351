"""The sweep engine: declarative grids, parallel fan-out, CLI integration."""

from __future__ import annotations

import json

import pytest

import replay_oracle
from repro.analysis.prediction import ReplayConfig
from repro.analysis.sweeps import (
    SweepPoint,
    directory_sweep,
    rpv_sweep,
    run_sweep,
    threshold_sweep,
)
from repro.cli import main
from repro.volumes.directory import DirectoryVolumeConfig
from repro.volumes.probability import (
    PairwiseConfig,
    build_probability_volumes_multi,
    estimate_pairwise,
)


@pytest.fixture(scope="module")
def server_trace(small_server_log):
    trace, _ = small_server_log
    return trace


def _reference(trace, entries) -> list:
    """The frozen serial reference replay of (store spec, config) entries."""
    return replay_oracle.replay_many(trace, entries)


class TestRunSweep:
    def test_empty(self, server_trace):
        assert run_sweep(server_trace, []) == []

    def test_fast_matches_reference(self, server_trace):
        points = [
            SweepPoint("a", DirectoryVolumeConfig(level=1),
                       ReplayConfig(max_elements=10), (("level", 1),)),
            SweepPoint("b", DirectoryVolumeConfig(level=1),
                       ReplayConfig(max_elements=10, access_filter=3)),
            SweepPoint("c", DirectoryVolumeConfig(level=0),
                       ReplayConfig(rpv_min_gap=30.0)),
        ]
        fast = run_sweep(server_trace, points)
        reference = _reference(server_trace, [(p.store, p.config) for p in points])
        assert [r.metrics for r in fast] == reference
        assert [r.label for r in fast] == ["a", "b", "c"]
        assert fast[0].param("level") == 1
        assert fast[1].param("level", default=-1) == -1

    def test_parallel_matches_serial(self, server_trace):
        points = [
            SweepPoint(f"f={f}", DirectoryVolumeConfig(level=1),
                       ReplayConfig(max_elements=20, access_filter=f))
            for f in (1, 2, 5, 10)
        ]
        serial = run_sweep(server_trace, points, processes=1)
        parallel = run_sweep(server_trace, points, processes=2)
        assert [r.metrics for r in serial] == [r.metrics for r in parallel]

    def test_unknown_engine(self, server_trace):
        for engine in ("warp", "reference"):
            with pytest.raises(ValueError, match="unknown engine"):
                run_sweep(server_trace, [SweepPoint("a", DirectoryVolumeConfig())],
                          engine=engine)


class TestCannedSweeps:
    def test_threshold_sweep_fast_equals_reference(self, server_trace):
        thresholds = (0.1, 0.25, 0.5)
        fast = threshold_sweep(server_trace, thresholds)
        volumes = build_probability_volumes_multi(
            estimate_pairwise(server_trace, PairwiseConfig(window=300.0)), thresholds
        )
        config = ReplayConfig(max_elements=200)
        reference = _reference(
            server_trace, [(volumes[t], config) for t in sorted(thresholds)]
        )
        assert [r.metrics for r in fast] == reference
        assert [r.param("threshold") for r in fast] == sorted(thresholds)
        # Raising the threshold can only shrink volumes, never grow messages.
        sizes = [r.metrics.mean_piggyback_size for r in fast]
        assert sizes == sorted(sizes, reverse=True)

    def test_directory_sweep_fast_equals_reference(self, server_trace):
        fast = directory_sweep(server_trace, levels=(0, 1), access_filters=(1, 5))
        reference = _reference(server_trace, [
            (DirectoryVolumeConfig(level=level),
             ReplayConfig(max_elements=200, access_filter=access_filter))
            for level in (0, 1) for access_filter in (1, 5)
        ])
        assert [r.metrics for r in fast] == reference
        assert len(fast) == 4

    def test_rpv_sweep_fast_equals_reference(self, server_trace):
        fast = rpv_sweep(server_trace, levels=(0,), access_filters=(5,),
                         min_gaps=(0.0, 60.0))
        reference = _reference(server_trace, [
            (DirectoryVolumeConfig(level=0),
             ReplayConfig(max_elements=200, access_filter=5, rpv_min_gap=gap))
            for gap in (None, 60.0)
        ])
        assert [r.metrics for r in fast] == reference
        paced = {r.param("min_gap"): r.metrics for r in fast}
        assert paced[60.0].piggyback_messages <= paced[0.0].piggyback_messages


class TestSweepCli:
    def test_threshold_sweep_json(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main([
            "sweep", "--preset", "aiusa", "--scale", "0.1",
            "--kind", "thresholds", "--thresholds", "0.1", "0.25",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "thresholds"
        assert len(payload["points"]) == 2
        assert payload["points"][0]["params"] == {"threshold": 0.1}
        assert "avg-piggyback" in capsys.readouterr().out

    def test_directory_sweep_stdout(self, capsys):
        code = main([
            "sweep", "--preset", "aiusa", "--scale", "0.1",
            "--kind", "directory", "--levels", "0", "--filters", "1", "10",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # header + 2 points
