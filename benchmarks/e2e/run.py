#!/usr/bin/env python3
"""One end-to-end benchmark with layer attribution — the command.

    python3 benchmarks/e2e/run.py --workload origin_hot --seed 0
    python3 benchmarks/e2e/run.py --workload lb_relay --seed 0 --traced --out lb.json

An untraced run (``--trace 0``, the default) prints every end-to-end
metric; a traced run (``--trace 1`` or ``--traced``) prints every
per-layer metric and writes the span file.  Both check the program's
outputs, print every metric by name with its unit, and end with one JSON
object on the last line of standard output::

    {"correct": true, "attempted": 76800, "failed": 0,
     "metrics": {"setup_s": {"value": 1.18, "unit": "s"}, ...}}

The exit code is 0 when every output check passed, 1 when one failed,
and 2 when the benchmark could not run at all (no result line then).
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"


def _parse(argv: list[str] | None, workload_names: list[str], default_seconds: float):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n", 1)[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of every generated input (default 0)")
    parser.add_argument("--seconds", type=float, default=default_seconds,
                        help="nominal measuring time; sets the number of fixed-size "
                             f"passes (default {default_seconds:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--out", default=None, help="also write the full report here")
    parser.add_argument("--spans", default=None,
                        help="where a traced run writes its spans "
                             "(default .bench_out/<workload>-seed<N>.spans.json)")
    parser.add_argument("--record-expected", action="store_true",
                        help="maintainers: rewrite expected/<workload>-seed<N>.json "
                             "from this run instead of checking against it")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or not math.isfinite(args.seconds):
        parser.error("--seconds must be a positive number")
    args.traced = args.traced or args.trace == 1
    return args


def _terminate(signum, frame):
    # Unwind through every ``with Harness()`` so no child outlives us.
    raise KeyboardInterrupt(f"signal {signum}")


def _print_report(args, units: dict[str, str], result, elapsed: float, provenance: dict) -> None:
    kind = "per-layer (traced run)" if args.traced else "end-to-end"
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"{kind} metrics")
    per_pass = result.details.get("per_pass", {})
    for name, unit in units.items():
        line = f"  {name:38s} {result.metrics[name]:16.6f} {unit}"
        summary = per_pass.get(name)
        if summary is not None:
            line += (f"   [n={len(summary['values'])} q1={summary['q1']:.6g} "
                     f"q3={summary['q3']:.6g} spread={summary['spread']:.3f}]")
        print(line)
    for name, summary in per_pass.items():
        if name not in units:
            # Measured and recorded, but too noisy here to carry a bound.
            print(f"  ({name:36s} {summary['median']:16.6f}      "
                  f"[n={len(summary['values'])} spread={summary['spread']:.3f}] not gated)")
    for key in ("loop", "connections", "pass_requests", "rate", "records", "configs",
                "passes", "samples_per_pass", "passes_discarded", "steal_ratio", "spans"):
        if result.details.get(key) is not None:
            print(f"  {key}: {result.details[key]}")
    print(f"  checks: attempted {result.attempted}, failed {result.failed}"
          + (f" {result.failure_reasons}" if result.failed else ""))
    print(f"  host: nproc {provenance['nproc']}, load {provenance['loadavg']}, "
          f"python {provenance['python']}, git {provenance['git_sha'][:12]}; "
          f"run took {elapsed:.1f} s")


def main(argv: list[str] | None = None) -> int:
    if not MANIFEST.is_file() or not (SRC / "repro").is_dir():
        print(f"run.py: needs {MANIFEST.name} and src/repro under {ROOT}", file=sys.stderr)
        return 2
    with open(MANIFEST, encoding="utf-8") as handle:
        manifest = json.load(handle)
    args = _parse(argv, [w["name"] for w in manifest["workloads"]],
                  float(manifest["run_seconds"]))

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import compileall

    # The only build step: byte-compile the package once per checkout so
    # that every child of every set-up starts from the same warm cache.
    compileall.compile_dir(str(SRC), quiet=2)

    import measure
    import stats
    import trace
    import workloads

    signal.signal(signal.SIGTERM, _terminate)
    workload = workloads.WORKLOADS[args.workload]
    started = time.monotonic()
    sut_cpus = measure.place_generator()
    if args.traced:
        units = measure.PER_LAYER
        tracer = trace.Tracer(f"{args.workload}-seed{args.seed}")
        result = measure.run_traced(workload, args.seed, args.seconds, sut_cpus, tracer)
        spans_path = Path(args.spans) if args.spans else (
            ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}.spans.json")
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
        result.details["span_file"] = str(spans_path)
    else:
        units = measure.END_TO_END
        result = measure.run_untraced(workload, args.seed, args.seconds, sut_cpus,
                                      record_expected=args.record_expected)
    elapsed = time.monotonic() - started

    for name in units:
        if not math.isfinite(result.metrics[name]):
            result.fail(f"non-finite-{name}")
            result.metrics[name] = 0.0
    provenance = stats.provenance(ROOT)
    _print_report(args, units, result, elapsed, provenance)
    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    if args.out:
        report = dict(line)
        report.update({
            "schema": 1,
            "workload": args.workload,
            "why": workload.why,
            "seed": args.seed,
            "seconds": args.seconds,
            "traced": args.traced,
            "elapsed_s": elapsed,
            "failure_reasons": result.failure_reasons,
            "details": result.details,
            "provenance": provenance,
        })
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    print(json.dumps(line), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt as interrupt:
        print(f"run.py: interrupted ({interrupt})", file=sys.stderr)
        sys.exit(130)
