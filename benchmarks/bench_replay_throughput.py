#!/usr/bin/env python
"""Replay-core throughput trajectory: reference vs interned engines.

Measures records/second for the three hot paths the interned core
rewrites — single-config replay, pairwise estimation, and a
multi-threshold sweep — and writes the results to ``BENCH_replay.json``.
The ``reference`` columns time the frozen per-record reference replay
kept in ``tests/replay_oracle.py``.
The committed copy of that file is the perf baseline; CI reruns this
script at reduced scale and fails when the fast engine regresses by more
than ``--max-regression`` against the committed numbers.

Run directly (no pytest involvement)::

    python benchmarks/bench_replay_throughput.py --scale 0.6 --out BENCH_replay.json
    python benchmarks/bench_replay_throughput.py --scale 0.2 \
        --baseline BENCH_replay.json --max-regression 2.0
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import replay_oracle  # noqa: E402
from repro.analysis.prediction import ReplayConfig, replay_many  # noqa: E402
from repro.analysis.sweeps import threshold_sweep  # noqa: E402
from repro.traces.clean import CleaningConfig, clean_trace  # noqa: E402
from repro.traces.intern import compile_trace  # noqa: E402
from repro.volumes.directory import (  # noqa: E402
    DirectoryVolumeConfig,
    DirectoryVolumeStore,
)
from repro.volumes.probability import (  # noqa: E402
    PairwiseConfig,
    PairwiseEstimator,
    ProbabilityVolumeStore,
    build_probability_volumes,
    build_probability_volumes_multi,
    estimate_pairwise,
)
from repro.workloads.synth import server_log_preset  # noqa: E402

SCHEMA_VERSION = 1
THRESHOLDS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.7)


def _best_seconds(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _entry(records: int, reference_s: float, fast_s: float, *, points: int = 1) -> dict:
    total = records * points
    return {
        "records": records,
        "points": points,
        "reference_seconds": round(reference_s, 4),
        "fast_seconds": round(fast_s, 4),
        "reference_rps": round(total / reference_s, 1),
        "fast_rps": round(total / fast_s, 1),
        "speedup": round(reference_s / fast_s, 2),
    }


def run_benchmarks(preset: str, scale: float, repeat: int) -> dict:
    trace, _ = server_log_preset(preset, scale=scale)
    trace, _ = clean_trace(trace, CleaningConfig(min_accesses=10))
    records = len(trace)
    compiled = compile_trace(trace)  # compile once, as sweeps do
    print(f"workload: {preset} scale={scale:g} -> {records} records, "
          f"{len(compiled.urls)} urls")

    results: dict[str, dict] = {}

    # -- 1. single-config directory replay ---------------------------------
    config = ReplayConfig(max_elements=200, access_filter=10)
    ref_s = _best_seconds(
        lambda: replay_oracle.replay(
            trace, DirectoryVolumeStore(DirectoryVolumeConfig(level=1)), config
        ),
        repeat,
    )
    fast_s = _best_seconds(
        lambda: replay_many(compiled, [(DirectoryVolumeConfig(level=1), config)]),
        repeat,
    )
    results["replay_directory"] = _entry(records, ref_s, fast_s)

    # -- 2. single-config probability replay --------------------------------
    estimator = PairwiseEstimator(PairwiseConfig(window=300.0))
    estimator.observe_trace(trace)
    volumes = build_probability_volumes(estimator, 0.2)
    prob_config = ReplayConfig(max_elements=200)
    ref_s = _best_seconds(
        lambda: replay_oracle.replay(trace, ProbabilityVolumeStore(volumes), prob_config),
        repeat,
    )
    fast_s = _best_seconds(
        lambda: replay_many(compiled, [(volumes, prob_config)]), repeat
    )
    results["replay_probability"] = _entry(records, ref_s, fast_s)

    # -- 3. pairwise estimation ---------------------------------------------
    def run_reference_estimator():
        est = PairwiseEstimator(PairwiseConfig(window=300.0))
        est.observe_trace(trace)
        est.implications(0.05)

    def run_interned_estimator():
        est = estimate_pairwise(compiled, PairwiseConfig(window=300.0))
        est.implications(0.05)

    ref_s = _best_seconds(run_reference_estimator, repeat)
    fast_s = _best_seconds(run_interned_estimator, repeat)
    results["pairwise_estimation"] = _entry(records, ref_s, fast_s)

    # -- 4. end-to-end multi-threshold sweep --------------------------------
    # The reference path is one estimator pass and one volume build for
    # all thresholds, then one full per-record replay per threshold.
    def run_reference_sweep():
        estimator = estimate_pairwise(trace, PairwiseConfig(window=300.0))
        volumes = build_probability_volumes_multi(estimator, THRESHOLDS)
        sweep_config = ReplayConfig(max_elements=200)
        replay_oracle.replay_many(trace, [(volumes[t], sweep_config) for t in THRESHOLDS])

    ref_s = _best_seconds(run_reference_sweep, repeat)
    fast_s = _best_seconds(lambda: threshold_sweep(compiled, THRESHOLDS), repeat)
    results["threshold_sweep"] = _entry(records, ref_s, fast_s,
                                        points=len(THRESHOLDS))

    return {
        "schema": SCHEMA_VERSION,
        "preset": preset,
        "scale": scale,
        "records": records,
        "benchmarks": results,
    }


def check_regression(report: dict, baseline_path: Path, max_regression: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    failures = 0
    for name, entry in report["benchmarks"].items():
        base_entry = baseline.get("benchmarks", {}).get(name)
        if base_entry is None:
            print(f"  {name}: no baseline entry, skipping")
            continue
        floor = base_entry["fast_rps"] / max_regression
        status = "ok" if entry["fast_rps"] >= floor else "REGRESSION"
        if status != "ok":
            failures += 1
        print(f"  {name}: fast {entry['fast_rps']:.0f} rec/s vs baseline "
              f"{base_entry['fast_rps']:.0f} (floor {floor:.0f}) -> {status}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="aiusa")
    parser.add_argument("--scale", type=float, default=0.6,
                        help="workload scale factor (smaller = faster)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="timing repetitions; best run is kept")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here")
    parser.add_argument("--baseline", default=None,
                        help="compare against a committed BENCH_replay.json")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="fail if fast rec/s drops below baseline/this")
    args = parser.parse_args(argv)

    report = run_benchmarks(args.preset, args.scale, args.repeat)

    print(f"\n{'benchmark':<22} {'reference':>12} {'fast':>12} {'speedup':>8}")
    for name, entry in report["benchmarks"].items():
        print(f"{name:<22} {entry['reference_rps']:>10.0f}/s "
              f"{entry['fast_rps']:>10.0f}/s {entry['speedup']:>7.2f}x")

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {args.out}")

    if args.baseline:
        print(f"\nregression check vs {args.baseline} "
              f"(max {args.max_regression:g}x):")
        failures = check_regression(report, Path(args.baseline),
                                    args.max_regression)
        if failures:
            print(f"{failures} benchmark(s) regressed")
            return 1
        print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
