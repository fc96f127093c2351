"""The two offline workloads: input files and the timed pass.

Set-up (in the benchmark's process) writes the pass's input to a file;
the pass itself runs in a fresh child (``procs.py offline``) so that the
compile cache is cold and ``ru_maxrss`` is the pass's own peak.  Each
stage is one call into a layer's public function with a span around it;
the stage times are reported in both modes and become per-layer metrics
in a traced run.
"""

from __future__ import annotations

import pickle
import time
from itertools import islice

__all__ = ["write_input", "write_prefix", "run_pass"]

SWEEP_THRESHOLDS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6)
REPLAY_CONFIGS = 2  # one directory and one probability configuration
SWEEP_CONFIGS = len(SWEEP_THRESHOLDS) + 1  # nine thresholds + one directory


def write_input(workload: str, path: str, size: float, seed: int) -> dict:
    """Generate one pass's input file; returns facts about it.

    ``replay_stream``: *size* records of the multi-tenant internet trace,
    straight into the on-disk chunk format.  ``sweep_inmem``: the cleaned
    ``aiusa`` preset at scale *size* with the sessions drawn from *seed*,
    pickled (read back only by this benchmark's own child).
    """
    import os

    if workload == "replay_stream":
        from repro.workloads.internet import InternetConfig, write_internet_trace

        config = InternetConfig(
            record_count=int(size),
            origin_count=120,
            client_count=2_000_000,
            sessions_per_second=2.0,
            bot_fraction=0.05,
            seed=seed,
        )
        records, chunks = write_internet_trace(config, path, chunk_records=16384)
        return {"records": records, "chunks": chunks,
                "file_bytes": os.path.getsize(path)}
    if workload == "sweep_inmem":
        from dataclasses import replace

        from repro.traces.clean import CleaningConfig, clean_trace
        from repro.workloads.synth import SERVER_PRESETS, generate_server_log

        preset = SERVER_PRESETS["aiusa"]
        # The site keeps the preset's seed (generate_server_log xors the
        # two), so a run's seed moves the sessions, not the site.
        config = replace(
            preset,
            session_count=max(1, int(preset.session_count * size)),
            seed=preset.seed ^ seed,
            site=replace(preset.site, seed=preset.site.seed ^ seed),
        )
        trace, _ = generate_server_log(config)
        cleaned, _ = clean_trace(trace, CleaningConfig(min_accesses=10))
        with open(path, "wb") as handle:
            pickle.dump(cleaned, handle, protocol=pickle.HIGHEST_PROTOCOL)
        return {"records": len(cleaned), "file_bytes": os.path.getsize(path)}
    raise ValueError(f"unknown offline workload {workload!r}")


def write_prefix(source: str, path: str, records: int) -> int:
    """Write the first *records* records of chunk file *source* to *path*."""
    from repro.traces.chunked import open_chunked_trace, write_chunked_trace

    written, _ = write_chunked_trace(
        islice(open_chunked_trace(source).records(), records), path,
        chunk_records=16384,
    )
    return written


class _Stages:
    """Stage timer: ``with stages("name"):`` records one span per stage."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.seconds: dict[str, float] = {}

    def __call__(self, name: str) -> "_Stage":
        return _Stage(self, name)


class _Stage:
    def __init__(self, owner: _Stages, name: str):
        self.owner = owner
        self.name = name

    def __enter__(self) -> None:
        self.start = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self.owner.spans.append({"name": self.name, "start": self.start, "end": end})
        self.owner.seconds[self.name] = end - self.start


def _fingerprint(metrics) -> list[str]:
    return [repr(m) for m in metrics]


def _replay_stream(path: str, stages: _Stages) -> dict:
    from repro.analysis.fastreplay import replay_interned_multi
    from repro.analysis.prediction import ReplayConfig
    from repro.traces.chunked import open_chunked_trace
    from repro.volumes.directory import DirectoryVolumeConfig
    from repro.volumes.probability import (
        PairwiseConfig,
        build_probability_volumes,
        estimate_pairwise,
    )

    with stages("traces.open"):
        trace = open_chunked_trace(path)
    # The paper's own state-bounding knobs (same-directory restriction,
    # sampled counters); without them crawler traffic makes pair state
    # quadratic in the window and the pass measures that blow-up instead.
    pairwise = PairwiseConfig(
        window=30.0, same_directory_level=1, sample_counters=True, seed=1
    )
    with stages("volumes.estimate"):
        estimator = estimate_pairwise(trace, pairwise)
    with stages("volumes.build"):
        volumes = build_probability_volumes(estimator, 0.1)
    with stages("analysis.replay"):
        metrics = replay_interned_multi(
            trace,
            [
                (DirectoryVolumeConfig(level=1), ReplayConfig(max_elements=10)),
                (volumes, ReplayConfig(max_elements=10, enable_probability=0.9, seed=7)),
            ],
        )
    return {
        "records": len(trace),
        "configs": REPLAY_CONFIGS,
        "fingerprint": _fingerprint(metrics),
        "counter_count": estimator.counter_count,
    }


def _decode_only(path: str, stages: _Stages) -> None:
    """Open and drain ``chunks()``: chunk decode with nothing consuming it."""
    from repro.traces.chunked import open_chunked_trace

    with stages("traces.decode"):
        trace = open_chunked_trace(path)
        for chunk in trace.chunks():
            len(chunk)


def _sweep_inmem(path: str, stages: _Stages) -> dict:
    from repro.analysis.prediction import ReplayConfig, replay_many
    from repro.analysis.sweeps import threshold_sweep
    from repro.traces.intern import compile_trace
    from repro.volumes.directory import DirectoryVolumeConfig

    with open(path, "rb") as handle:
        trace = pickle.load(handle)  # written by write_input above
    begin = (time.perf_counter(), time.process_time())
    with stages("traces.compile"):
        compiled = compile_trace(trace)
    with stages("analysis.sweep"):
        sweep = threshold_sweep(
            trace, SWEEP_THRESHOLDS, engine="fast", processes=1
        )
    with stages("analysis.directory_replay"):
        directory = replay_many(
            trace,
            [(DirectoryVolumeConfig(level=1),
              ReplayConfig(max_elements=200, access_filter=10))],
        )
    return {
        "records": len(compiled),
        "configs": SWEEP_CONFIGS,
        "fingerprint": _fingerprint([r.metrics for r in sweep] + directory),
        "counter_count": 0,
        "timed_from": begin,
    }


def run_pass(workload: str, path: str, decode_probe: bool = False) -> dict:
    """One timed pass over *path*; returns counts, the result fingerprint,
    the wall and CPU time of the timed region and the per-stage times."""
    stages = _Stages()
    begin = (time.perf_counter(), time.process_time())
    if workload == "replay_stream":
        result = _replay_stream(path, stages)
    elif workload == "sweep_inmem":
        result = _sweep_inmem(path, stages)
        # Loading the pickle is input delivery, not the measured pipeline.
        begin = result.pop("timed_from")
    else:
        raise ValueError(f"unknown offline workload {workload!r}")
    result["wall_s"] = time.perf_counter() - begin[0]
    result["cpu_s"] = time.process_time() - begin[1]
    if decode_probe and workload == "replay_stream":
        # Measured independently, after the pass: the streaming engines
        # pull chunks from inside, where the benchmark cannot nest a span.
        _decode_only(path, stages)
    result["stages"] = stages.seconds
    result["spans"] = stages.spans
    return result
