"""Trace-driven evaluation workflow, end to end.

Reproduces the paper's analysis pipeline on a synthetic Sun-like log:
generate -> write/read Common Log Format -> clean (Appendix A) ->
characterize (Table 3) -> build directory and probability volumes ->
replay and compare recall/precision/size (Figures 3 vs 6-8) -> pick an
operating point.

Run:  python examples/log_analysis.py
"""

import tempfile
from pathlib import Path

from repro.analysis.prediction import ReplayConfig, replay
from repro.traces.clean import CleaningConfig, clean_trace
from repro.traces.common_log import read_log, write_log
from repro.traces.stats import characterize_server_log
from repro.volumes.directory import DirectoryVolumeConfig
from repro.volumes.probability import (
    PairwiseConfig,
    PairwiseEstimator,
    build_probability_volumes,
)
from repro.volumes.thinning import measure_effectiveness, thin_by_effectiveness
from repro.workloads.synth import server_log_preset


def main() -> None:
    # 1. Generate and round-trip through Common Log Format.
    raw, _site = server_log_preset("sun", scale=0.08)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "access.log"
        write_log(raw, path)
        loaded = read_log(path)
    print(f"wrote and re-read {len(loaded)} CLF records")

    # 2. Clean per Appendix A.
    trace, report = clean_trace(loaded, CleaningConfig(min_accesses=10))
    print(f"cleaning kept {report.kept_fraction:.1%} "
          f"({report.dropped_unpopular} unpopular records dropped)")

    # CLF lines do not carry the host, so restore it for prefix analysis.
    trace = trace.map_urls(lambda u: "www.sun.example" + u if u.startswith("/") else u)

    # 3. Characterize (Table 3 row).
    stats = characterize_server_log(trace)
    print(f"log: {stats.requests} requests, {stats.unique_resources} resources, "
          f"{stats.requests_per_source:.1f} requests/source, "
          f"top-10% share {stats.top_decile_request_share:.0%}\n")

    # 4. Evaluate volume construction schemes.
    print(f"{'scheme':<28} {'avg size':>8} {'recall':>7} {'precision':>9}")

    for level in (1, 2):
        metrics = replay(trace, DirectoryVolumeConfig(level=level),
                         ReplayConfig(max_elements=200, access_filter=50))
        print(f"{f'directory level {level} (f=50)':<28} "
              f"{metrics.mean_piggyback_size:>8.1f} "
              f"{metrics.fraction_predicted:>7.1%} "
              f"{metrics.true_prediction_fraction:>9.1%}")

    estimator = PairwiseEstimator(PairwiseConfig(window=300.0))
    estimator.observe_trace(trace)
    for threshold in (0.1, 0.25):
        base = build_probability_volumes(estimator, threshold)
        effectiveness = measure_effectiveness(trace, base, window=300.0)
        thinned = thin_by_effectiveness(base, effectiveness, 0.2)
        for name, volumes in ((f"probability p_t={threshold}", base),
                              (f"  + effective 0.2", thinned)):
            metrics = replay(trace, volumes, ReplayConfig(max_elements=200))
            print(f"{name:<28} {metrics.mean_piggyback_size:>8.1f} "
                  f"{metrics.fraction_predicted:>7.1%} "
                  f"{metrics.true_prediction_fraction:>9.1%}")

    print("\nthe paper's conclusion, visible above: probability volumes with")
    print("effectiveness thinning reach directory-level recall at a fraction")
    print("of the piggyback size, with far better precision.")


if __name__ == "__main__":
    main()
