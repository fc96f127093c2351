#!/usr/bin/env python
"""Telemetry overhead: the replay hot path with metrics off vs on.

The telemetry contract is "free when disabled": every instrument call
starts with an enabled check, and ``Histogram.time()`` returns a shared
null timer that never reads the clock.  This benchmark pins that claim
with numbers — fastreplay throughput with the global registry disabled
(the default) and enabled, plus per-operation microbenchmarks for the
instrument primitives — and writes ``BENCH_telemetry.json``.

The disabled-path figures are directly comparable to the committed
``BENCH_replay.json`` (same workload, same engine); ``--baseline`` turns
that comparison into a regression gate::

    python benchmarks/bench_telemetry_overhead.py --scale 0.6 --out BENCH_telemetry.json
    python benchmarks/bench_telemetry_overhead.py --scale 0.2 \
        --baseline BENCH_replay.json --max-regression 1.5
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro.telemetry as telemetry  # noqa: E402
from repro.analysis.prediction import ReplayConfig, replay_many  # noqa: E402
from repro.analysis.sweeps import threshold_sweep  # noqa: E402
from repro.telemetry import MetricsRegistry, Tracer  # noqa: E402
from repro.traces.clean import CleaningConfig, clean_trace  # noqa: E402
from repro.traces.intern import compile_trace  # noqa: E402
from repro.volumes.directory import DirectoryVolumeConfig  # noqa: E402
from repro.workloads.synth import server_log_preset  # noqa: E402

SCHEMA_VERSION = 1
# Matches bench_replay_throughput.py so the sweep figures stay comparable
# to the committed BENCH_replay.json baseline.
THRESHOLDS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.7)
MICRO_OPS = 200_000


def _best_seconds(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _entry(records: int, disabled_s: float, enabled_s: float, *, points: int = 1) -> dict:
    total = records * points
    return {
        "records": records,
        "points": points,
        "disabled_seconds": round(disabled_s, 4),
        "enabled_seconds": round(enabled_s, 4),
        "disabled_rps": round(total / disabled_s, 1),
        "enabled_rps": round(total / enabled_s, 1),
        "overhead_pct": round((enabled_s / disabled_s - 1.0) * 100.0, 2),
    }


def _timed_pair(fn, repeat: int) -> tuple[float, float]:
    """Best-of-*repeat* seconds for *fn* with telemetry disabled, then enabled."""
    telemetry.disable()
    try:
        disabled_s = _best_seconds(fn, repeat)
        telemetry.enable()
        enabled_s = _best_seconds(fn, repeat)
    finally:
        telemetry.disable()
    return disabled_s, enabled_s


def run_replay_benchmarks(preset: str, scale: float, repeat: int) -> dict:
    trace, _ = server_log_preset(preset, scale=scale)
    trace, _ = clean_trace(trace, CleaningConfig(min_accesses=10))
    records = len(trace)
    compiled = compile_trace(trace)
    print(f"workload: {preset} scale={scale:g} -> {records} records, "
          f"{len(compiled.urls)} urls")

    results: dict[str, dict] = {}

    config = ReplayConfig(max_elements=200, access_filter=10)
    disabled_s, enabled_s = _timed_pair(
        lambda: replay_many(compiled, [(DirectoryVolumeConfig(level=1), config)]),
        repeat,
    )
    results["replay_directory"] = _entry(records, disabled_s, enabled_s)

    disabled_s, enabled_s = _timed_pair(
        lambda: threshold_sweep(compiled, THRESHOLDS), repeat
    )
    results["threshold_sweep"] = _entry(
        records, disabled_s, enabled_s, points=len(THRESHOLDS)
    )

    return {"records": records, "benchmarks": results}


def run_micro_benchmarks(repeat: int) -> dict:
    """Per-operation cost of the instrument primitives, in nanoseconds."""
    results: dict[str, dict] = {}
    for state in ("disabled", "enabled"):
        registry = MetricsRegistry(enabled=(state == "enabled"))
        tracer = Tracer(enabled=(state == "enabled"))
        counter = registry.counter("bench_counter_total", "microbenchmark counter")
        histogram = registry.histogram("bench_histogram_seconds", "microbenchmark histogram")

        def inc_loop():
            for _ in range(MICRO_OPS):
                counter.inc()

        def observe_loop():
            for _ in range(MICRO_OPS):
                histogram.observe(0.001)

        def span_loop():
            for _ in range(MICRO_OPS // 10):
                with tracer.span("bench.span"):
                    pass

        for name, fn, ops in (
            ("counter_inc", inc_loop, MICRO_OPS),
            ("histogram_observe", observe_loop, MICRO_OPS),
            ("tracer_span", span_loop, MICRO_OPS // 10),
        ):
            seconds = _best_seconds(fn, repeat)
            results.setdefault(name, {})[state + "_ns"] = round(
                seconds / ops * 1e9, 1
            )
    return results


def check_regression(report: dict, baseline_path: Path, max_regression: float) -> int:
    """Disabled-path throughput must stay near the committed replay baseline."""
    baseline = json.loads(baseline_path.read_text())
    failures = 0
    for name, entry in report["benchmarks"].items():
        base_entry = baseline.get("benchmarks", {}).get(name)
        if base_entry is None:
            print(f"  {name}: no baseline entry, skipping")
            continue
        floor = base_entry["fast_rps"] / max_regression
        status = "ok" if entry["disabled_rps"] >= floor else "REGRESSION"
        if status != "ok":
            failures += 1
        print(f"  {name}: disabled {entry['disabled_rps']:.0f} rec/s vs baseline "
              f"{base_entry['fast_rps']:.0f} (floor {floor:.0f}) -> {status}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="aiusa")
    parser.add_argument("--scale", type=float, default=0.6,
                        help="workload scale factor (smaller = faster)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions; best run is kept")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here")
    parser.add_argument("--baseline", default=None,
                        help="compare the disabled path against BENCH_replay.json")
    parser.add_argument("--max-regression", type=float, default=1.02,
                        help="fail if disabled rec/s drops below baseline/this")
    args = parser.parse_args(argv)

    report = run_replay_benchmarks(args.preset, args.scale, args.repeat)
    report = {
        "schema": SCHEMA_VERSION,
        "preset": args.preset,
        "scale": args.scale,
        **report,
        "micro_ns_per_op": run_micro_benchmarks(args.repeat),
    }

    print(f"\n{'benchmark':<22} {'disabled':>12} {'enabled':>12} {'overhead':>9}")
    for name, entry in report["benchmarks"].items():
        print(f"{name:<22} {entry['disabled_rps']:>10.0f}/s "
              f"{entry['enabled_rps']:>10.0f}/s {entry['overhead_pct']:>8.2f}%")
    print(f"\n{'primitive':<22} {'disabled':>12} {'enabled':>12}")
    for name, entry in report["micro_ns_per_op"].items():
        print(f"{name:<22} {entry['disabled_ns']:>10.1f}ns "
              f"{entry['enabled_ns']:>10.1f}ns")

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
