"""Ablations of the design choices DESIGN.md calls out.

1. Sampled vs exact pair counters (Section 3.3.1's memory-saving trick).
2. Move-to-front vs plain FIFO volume ordering (Section 3.2.1).
3. RPV pacing vs random-enable pacing (Section 2.2's two pacing families).
4. Per-content-type partitioned FIFOs vs a single FIFO.
"""

from _bench_util import print_series

from repro.analysis.prediction import ReplayConfig, replay
from repro.volumes.directory import DirectoryVolumeConfig
from repro.volumes.probability import (
    PairwiseConfig,
    PairwiseEstimator,
    build_probability_volumes,
)


def test_ablation_sampled_counters(benchmark, sun_log):
    trace, _ = sun_log

    def build(sampled):
        estimator = PairwiseEstimator(
            PairwiseConfig(window=300.0, sample_counters=sampled,
                           sampling_threshold=0.2, seed=17)
        )
        estimator.observe_trace(trace)
        volumes = build_probability_volumes(estimator, 0.2)
        return estimator.counter_count, volumes.implication_count()

    def run():
        return build(False), build(True)

    (exact_counters, exact_impls), (sampled_counters, sampled_impls) = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    print_series(
        "Ablation: sampled vs exact pair counters (sun preset, p_t=0.2)",
        f"{'variant':<8}  {'counters':>9}  {'implications':>12}",
        (
            f"{'exact':<8}  {exact_counters:>9}  {exact_impls:>12}",
            f"{'sampled':<8}  {sampled_counters:>9}  {sampled_impls:>12}",
        ),
    )
    assert sampled_counters < exact_counters, "sampling must save memory"
    # Frequent pairs keep their counters: most implications survive.
    assert sampled_impls > 0.5 * exact_impls


def test_ablation_move_to_front(benchmark, aiusa_log):
    trace, _ = aiusa_log

    def run_variant(move_to_front):
        config = DirectoryVolumeConfig(level=1, move_to_front=move_to_front)
        return replay(trace, config, ReplayConfig(max_elements=10, access_filter=10))

    def run():
        return run_variant(True), run_variant(False)

    mtf, fifo = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(
        "Ablation: move-to-front vs plain FIFO (aiusa, maxpiggy=10)",
        f"{'ordering':<14}  {'predicted':>9}  {'true pred':>9}",
        (
            f"{'move-to-front':<14}  {mtf.fraction_predicted:>9.1%}"
            f"  {mtf.true_prediction_fraction:>9.1%}",
            f"{'plain FIFO':<14}  {fifo.fraction_predicted:>9.1%}"
            f"  {fifo.true_prediction_fraction:>9.1%}",
        ),
    )
    # Under a tight element cap, leading with recently accessed resources
    # must not hurt — recency is the popularity approximation the paper
    # chose precisely because it predicts better.
    assert mtf.fraction_predicted >= 0.9 * fifo.fraction_predicted


def test_ablation_rpv_vs_random_pacing(benchmark, apache_log):
    trace, _ = apache_log
    base = ReplayConfig(max_elements=50, access_filter=10)

    def run_variant(config):
        return replay(trace, DirectoryVolumeConfig(level=1), config)

    def run():
        from dataclasses import replace

        unpaced = run_variant(base)
        rpv = run_variant(replace(base, rpv_min_gap=30.0))
        # Random-enable pacing matched to the message rate RPV achieved:
        # same budget, but it drops piggybacks blindly instead of
        # suppressing the redundant ones.
        rate = rpv.piggyback_messages / max(unpaced.piggyback_messages, 1)
        random_paced = run_variant(replace(base, enable_probability=rate, seed=5))
        return unpaced, rpv, random_paced

    unpaced, rpv, random_paced = benchmark.pedantic(run, rounds=1, iterations=1)

    print_series(
        "Ablation: RPV vs random-enable pacing (apache, maxpiggy=50)",
        f"{'pacing':<8}  {'messages':>8}  {'predicted':>9}  {'avg size':>9}",
        (
            f"{'none':<8}  {unpaced.piggyback_messages:>8}"
            f"  {unpaced.fraction_predicted:>9.1%}  {unpaced.mean_piggyback_size:>9.1f}",
            f"{'rpv-30s':<8}  {rpv.piggyback_messages:>8}"
            f"  {rpv.fraction_predicted:>9.1%}  {rpv.mean_piggyback_size:>9.1f}",
            f"{'random':<8}  {random_paced.piggyback_messages:>8}"
            f"  {random_paced.fraction_predicted:>9.1%}  {random_paced.mean_piggyback_size:>9.1f}",
        ),
    )
    assert rpv.piggyback_messages < unpaced.piggyback_messages
    assert rpv.fraction_predicted > 0.7 * unpaced.fraction_predicted
    # At a matched message budget, RPV retains at least as much recall as
    # blind random pacing (it drops the redundant messages specifically).
    assert rpv.fraction_predicted >= random_paced.fraction_predicted - 0.02


def test_ablation_type_partitioning(benchmark, sun_log):
    trace, _ = sun_log

    def run_variant(partitioned):
        config = DirectoryVolumeConfig(level=1, partition_by_type=partitioned,
                                       max_volume_size=50)
        return replay(trace, config, ReplayConfig(max_elements=10))

    def run():
        return run_variant(True), run_variant(False)

    partitioned, single = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(
        "Ablation: per-type FIFOs vs single FIFO (sun, volume cap 50)",
        f"{'layout':<12}  {'predicted':>9}  {'avg size':>9}",
        (
            f"{'partitioned':<12}  {partitioned.fraction_predicted:>9.1%}"
            f"  {partitioned.mean_piggyback_size:>9.1f}",
            f"{'single':<12}  {single.fraction_predicted:>9.1%}"
            f"  {single.mean_piggyback_size:>9.1f}",
        ),
    )
    # Partitioning balances what survives trimming; both must stay in the
    # same ballpark — this ablation documents the cost, not a winner.
    assert abs(partitioned.fraction_predicted - single.fraction_predicted) < 0.3


def test_ablation_offline_vs_online_volumes(benchmark, sun_log):
    """Offline whole-trace volumes (the paper's method) vs periodic daily
    rebuilds (the deployable variant of Section 3.3.1)."""
    from repro.volumes.online import OnlineProbabilityVolumeStore, OnlineVolumeConfig

    trace, _ = sun_log

    def run_offline():
        estimator = PairwiseEstimator(PairwiseConfig(window=300.0))
        estimator.observe_trace(trace)
        volumes = build_probability_volumes(estimator, 0.25)
        return replay(trace, volumes, ReplayConfig(max_elements=50))

    def run_online():
        store = OnlineProbabilityVolumeStore(
            OnlineVolumeConfig(probability_threshold=0.25,
                               rebuild_interval=86_400.0,
                               pairwise=PairwiseConfig(window=300.0))
        )
        metrics = replay(trace, store, ReplayConfig(max_elements=50))
        return metrics, store.rebuilds

    def run():
        offline = run_offline()
        online, rebuilds = run_online()
        return offline, online, rebuilds

    offline, online, rebuilds = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(
        "Ablation: offline whole-trace vs daily-rebuilt volumes (sun)",
        f"{'variant':<8}  {'predicted':>9}  {'true pred':>9}  {'avg size':>9}",
        (
            f"{'offline':<8}  {offline.fraction_predicted:>9.1%}"
            f"  {offline.true_prediction_fraction:>9.1%}"
            f"  {offline.mean_piggyback_size:>9.1f}",
            f"{'online':<8}  {online.fraction_predicted:>9.1%}"
            f"  {online.true_prediction_fraction:>9.1%}"
            f"  {online.mean_piggyback_size:>9.1f}  ({rebuilds} rebuilds)",
        ),
    )
    assert rebuilds >= 1
    # Online volumes know nothing on day one, so recall trails the
    # offline oracle; it must still capture a solid share of it.
    assert online.fraction_predicted <= offline.fraction_predicted + 0.02
    assert online.fraction_predicted >= 0.4 * offline.fraction_predicted
