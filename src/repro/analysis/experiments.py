"""One entry point per paper figure and table.

Every function takes a trace (plus knobs mirroring the paper's axes) and
returns plain result rows.  ``benchmarks/paper.py`` runs them at preset
scale and records the rows in PAPER_RESULTS.json; the CLI's figure and
table commands call the same functions.  The per-experiment index in
DESIGN.md maps each function to its figure/table; EXPERIMENTS.md records
paper-vs-measured.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..traces.records import Trace
from ..traces.stats import (
    ClientLogStats,
    ServerLogStats,
    characterize_client_log,
    characterize_server_log,
)
from ..volumes.directory import DirectoryVolumeConfig
from ..volumes.probability import (
    PairwiseConfig,
    PairwiseEstimator,
    ProbabilityVolumes,
    build_probability_volumes,
    build_probability_volumes_multi,
    estimate_pairwise,
)
from ..volumes.thinning import (
    combine_with_directory,
    measure_effectiveness,
    thin_by_effectiveness,
)
from .interarrival import PrefixLocality, directory_locality
from .metrics import ReplayMetrics
from .pairwise import implication_probabilities
from .prediction import ReplayConfig, replay, replay_many

__all__ = [
    "DirectoryPoint",
    "RpvPoint",
    "ProbabilityPoint",
    "Table1Row",
    "OverheadSummary",
    "PrefetchTradeoffPoint",
    "fig1_interarrival",
    "fig2_fig3_directory",
    "fig4_rpv",
    "prob_variants",
    "fig5b_implication_cdf",
    "fig6_fig7_fig8_probability",
    "table1_update_fraction",
    "table2_client_stats",
    "table3_server_stats",
    "sec23_overhead",
    "sec4_prefetch_tradeoffs",
]

DEFAULT_THRESHOLDS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.7)


# ---------------------------------------------------------------------------
# Figure 1


def fig1_interarrival(trace: Trace, levels=(0, 1, 2, 3, 4)) -> list[PrefixLocality]:
    """Figure 1: directory-prefix locality of a client trace."""
    return directory_locality(trace, levels)


# ---------------------------------------------------------------------------
# Figures 2 and 3: directory volumes


@dataclass(frozen=True, slots=True)
class DirectoryPoint:
    """One (level, access-filter) cell of Figures 2 and 3."""

    level: int
    access_filter: int
    mean_piggyback_size: float
    fraction_predicted: float
    update_fraction: float
    true_prediction_fraction: float
    piggyback_message_rate: float


def fig2_fig3_directory(
    trace: Trace,
    levels=(0, 1, 2),
    access_filters=(1, 5, 10, 50, 100, 500, 1000),
    prediction_window: float = 300.0,
    history_window: float = 7200.0,
    max_elements: int = 200,
) -> list[DirectoryPoint]:
    """Figures 2, 3(a), 3(b): piggyback size and accuracy of directory
    volumes across access filters.

    ``max_elements`` mirrors the paper's post-processing cap of 200
    elements per piggyback message.  The whole grid is scored in one trace
    pass (all points at one level share volume maintenance).
    """
    cells = []
    entries = []
    for level in levels:
        config = DirectoryVolumeConfig(level=level)
        for access_filter in access_filters:
            cells.append((level, access_filter))
            entries.append(
                (
                    config,
                    ReplayConfig(
                        prediction_window=prediction_window,
                        history_window=history_window,
                        max_elements=max_elements,
                        access_filter=access_filter,
                    ),
                )
            )
    results = replay_many(trace, entries)
    return [
        _directory_point(level, access_filter, metrics)
        for (level, access_filter), metrics in zip(cells, results)
    ]


def _directory_point(level: int, access_filter: int, metrics: ReplayMetrics) -> DirectoryPoint:
    return DirectoryPoint(
        level=level,
        access_filter=access_filter,
        mean_piggyback_size=metrics.mean_piggyback_size,
        fraction_predicted=metrics.fraction_predicted,
        update_fraction=metrics.update_fraction,
        true_prediction_fraction=metrics.true_prediction_fraction,
        piggyback_message_rate=metrics.piggyback_message_rate,
    )


# ---------------------------------------------------------------------------
# Figure 4: RPV pacing


@dataclass(frozen=True, slots=True)
class RpvPoint:
    """One (level, filter, min-gap) cell of Figure 4."""

    level: int
    access_filter: int
    min_gap: float
    mean_piggyback_size: float
    fraction_predicted: float
    piggyback_message_rate: float


def fig4_rpv(
    trace: Trace,
    levels=(0, 1),
    access_filters=(10, 50),
    min_gaps=(0.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0),
    prediction_window: float = 300.0,
    max_elements: int = 200,
) -> list[RpvPoint]:
    """Figure 4: enforcing a minimum time between piggybacks via RPV lists."""
    cells = []
    entries = []
    for level in levels:
        config = DirectoryVolumeConfig(level=level)
        for access_filter in access_filters:
            for gap in min_gaps:
                cells.append((level, access_filter, gap))
                entries.append(
                    (
                        config,
                        ReplayConfig(
                            prediction_window=prediction_window,
                            max_elements=max_elements,
                            access_filter=access_filter,
                            rpv_min_gap=gap if gap > 0 else None,
                        ),
                    )
                )
    results = replay_many(trace, entries)
    return [
        RpvPoint(
            level=level,
            access_filter=access_filter,
            min_gap=gap,
            mean_piggyback_size=metrics.mean_piggyback_size,
            fraction_predicted=metrics.fraction_predicted,
            piggyback_message_rate=metrics.piggyback_message_rate,
        )
        for (level, access_filter, gap), metrics in zip(cells, results)
    ]


# ---------------------------------------------------------------------------
# Figures 5-8: probability volumes


@dataclass(frozen=True, slots=True)
class ProbabilityPoint:
    """One (variant, threshold) cell of Figures 5(a) and 6-8."""

    variant: str
    probability_threshold: float
    mean_piggyback_size: float
    fraction_predicted: float
    true_prediction_fraction: float
    update_fraction: float
    implication_count: int


PROB_VARIANTS = ("base", "effective-0.1", "effective-0.2", "combined")


def prob_variants(
    trace: Trace,
    threshold: float,
    estimator: PairwiseEstimator,
    window: float = 300.0,
    variants=PROB_VARIANTS,
    base: ProbabilityVolumes | None = None,
) -> dict[str, ProbabilityVolumes]:
    """Materialize the paper's four volume variants at one threshold.

    ``base`` short-circuits the build when the caller already materialized
    the threshold's volumes (e.g. via
    :func:`~repro.volumes.probability.build_probability_volumes_multi`).
    Effectiveness is measured once per base and shared by every
    ``effective-*`` variant.
    """
    if base is None:
        base = build_probability_volumes(estimator, threshold)
    out: dict[str, ProbabilityVolumes] = {}
    effectiveness = None
    for variant in variants:
        if variant == "base":
            out[variant] = base
        elif variant.startswith("effective-"):
            eff_threshold = float(variant.split("-", 1)[1])
            if effectiveness is None:
                effectiveness = measure_effectiveness(trace, base, window=window)
            out[variant] = thin_by_effectiveness(base, effectiveness, eff_threshold)
        elif variant == "combined":
            out[variant] = combine_with_directory(base, level=1)
        else:
            raise KeyError(f"unknown variant {variant!r}")
    return out


def fig6_fig7_fig8_probability(
    trace: Trace,
    thresholds=DEFAULT_THRESHOLDS,
    variants=PROB_VARIANTS,
    window: float = 300.0,
) -> list[ProbabilityPoint]:
    """Figures 6, 7, 8: recall/precision vs piggyback size across
    thresholds, for the base, effectiveness-thinned, and combined variants.

    One estimator pass is shared by all thresholds, the base volumes for
    all thresholds are materialized from one implication enumeration, and
    every (threshold, variant) cell is scored in one replay pass.
    """
    estimator = estimate_pairwise(trace, PairwiseConfig(window=window))
    bases = build_probability_volumes_multi(estimator, thresholds)
    cells = []
    entries = []
    config = ReplayConfig(
        prediction_window=window, history_window=7200.0, max_elements=200
    )
    for threshold in thresholds:
        built = prob_variants(
            trace, threshold, estimator, window=window, variants=variants,
            base=bases[threshold],
        )
        for variant, volumes in built.items():
            cells.append((variant, threshold, volumes))
            entries.append((volumes, config))
    results = replay_many(trace, entries)
    return [
        ProbabilityPoint(
            variant=variant,
            probability_threshold=threshold,
            mean_piggyback_size=metrics.mean_piggyback_size,
            fraction_predicted=metrics.fraction_predicted,
            true_prediction_fraction=metrics.true_prediction_fraction,
            update_fraction=metrics.update_fraction,
            implication_count=volumes.implication_count(),
        )
        for (variant, threshold, volumes), metrics in zip(cells, results)
    ]


def fig5b_implication_cdf(trace: Trace, window: float = 300.0) -> list[float]:
    """Figure 5(b): the distribution of implication probabilities."""
    return implication_probabilities(trace, window)


# ---------------------------------------------------------------------------
# Table 1


@dataclass(frozen=True, slots=True)
class Table1Row:
    """One server-log row of Table 1."""

    log: str
    prev_occurrence_2hr: float
    prev_occurrence_5min: float
    updated_by_piggyback: float
    mean_piggyback_size: float

    @property
    def update_fraction(self) -> float:
        return self.prev_occurrence_5min + self.updated_by_piggyback

    def fraction_of_cache_hits(self, column: float) -> float:
        if self.prev_occurrence_2hr == 0:
            return 0.0
        return column / self.prev_occurrence_2hr


def table1_update_fraction(
    trace: Trace,
    log_name: str,
    probability_threshold: float = 0.25,
    effectiveness_threshold: float = 0.2,
    window: float = 300.0,
    history_window: float = 7200.0,
) -> Table1Row:
    """Table 1: update fractions for thinned probability volumes."""
    estimator = estimate_pairwise(trace, PairwiseConfig(window=window))
    base = build_probability_volumes(estimator, probability_threshold)
    effectiveness = measure_effectiveness(trace, base, window=window)
    volumes = thin_by_effectiveness(base, effectiveness, effectiveness_threshold)
    metrics = replay(
        trace,
        volumes,
        ReplayConfig(
            prediction_window=window, history_window=history_window, max_elements=200
        ),
    )
    return Table1Row(
        log=log_name,
        prev_occurrence_2hr=metrics.prev_occurrence_history_fraction,
        prev_occurrence_5min=metrics.prev_occurrence_recent_fraction,
        updated_by_piggyback=metrics.updated_by_piggyback_fraction,
        mean_piggyback_size=metrics.mean_piggyback_size,
    )


# ---------------------------------------------------------------------------
# Tables 2 and 3


def table2_client_stats(trace: Trace) -> ClientLogStats:
    """Table 2: client log characteristics."""
    return characterize_client_log(trace)


def table3_server_stats(trace: Trace) -> ServerLogStats:
    """Table 3: server log characteristics."""
    return characterize_server_log(trace)


# ---------------------------------------------------------------------------
# Section 2.3: byte overhead


@dataclass(frozen=True, slots=True)
class OverheadSummary:
    """Piggyback byte overhead, Section 2.3's arithmetic measured."""

    mean_elements: float
    mean_element_bytes: float
    mean_message_bytes: float
    mean_response_bytes: float
    fraction_no_extra_packet: float


def sec23_overhead(
    trace: Trace,
    probability_threshold: float = 0.2,
    window: float = 300.0,
    mss: int = 1460,
) -> OverheadSummary:
    """Measure piggyback sizes in bytes against the paper's 66 B/element
    budget and the claim that messages usually avoid extra packets."""
    estimator = estimate_pairwise(trace, PairwiseConfig(window=window))
    volumes = build_probability_volumes(estimator, probability_threshold)
    metrics = replay(
        trace, volumes, ReplayConfig(prediction_window=window, max_elements=200)
    )

    sizes = [r.size for r in trace if r.size > 0]
    mean_response = sum(sizes) / len(sizes) if sizes else 0.0
    mean_elements = metrics.mean_piggyback_size
    mean_message_bytes = metrics.mean_piggyback_bytes
    mean_element_bytes = (
        metrics.piggyback_bytes / metrics.piggyback_elements
        if metrics.piggyback_elements
        else 0.0
    )
    # A message avoids an extra packet when it fits in the slack of the
    # response's final MSS-sized segment; approximate with the mean slack.
    no_extra = 0
    total = 0
    for record in trace:
        if record.size <= 0:
            continue
        total += 1
        slack = mss - (record.size % mss or mss)
        if mean_message_bytes <= slack:
            no_extra += 1
    return OverheadSummary(
        mean_elements=mean_elements,
        mean_element_bytes=mean_element_bytes,
        mean_message_bytes=mean_message_bytes,
        mean_response_bytes=mean_response,
        fraction_no_extra_packet=no_extra / total if total else 0.0,
    )


# ---------------------------------------------------------------------------
# Section 4: prefetch cost/benefit


@dataclass(frozen=True, slots=True)
class PrefetchTradeoffPoint:
    """One threshold's prefetch economics (Section 4, "Prefetching")."""

    probability_threshold: float
    fraction_prefetchable: float
    futile_fraction: float
    bandwidth_increase: float


def sec4_prefetch_tradeoffs(
    trace: Trace,
    thresholds=DEFAULT_THRESHOLDS,
    effectiveness_threshold: float = 0.2,
    window: float = 300.0,
) -> list[PrefetchTradeoffPoint]:
    """Recall-vs-futile-fetch tradeoff of prefetching from piggybacks.

    ``fraction_prefetchable`` is the fraction predicted; futile fetches
    are opened predictions that never come true; the bandwidth increase
    estimates futile fetches relative to demand fetches.
    """
    estimator = estimate_pairwise(trace, PairwiseConfig(window=window))
    bases = build_probability_volumes_multi(estimator, thresholds)
    config = ReplayConfig(
        prediction_window=window, history_window=7200.0, max_elements=200
    )
    entries = []
    for threshold in thresholds:
        base = bases[threshold]
        effectiveness = measure_effectiveness(trace, base, window=window)
        volumes = thin_by_effectiveness(base, effectiveness, effectiveness_threshold)
        entries.append((volumes, config))
    results = replay_many(trace, entries)
    points = []
    for threshold, metrics in zip(thresholds, results):
        futile = 1.0 - metrics.true_prediction_fraction
        futile_predictions = metrics.predictions_opened - metrics.predictions_true
        bandwidth_increase = (
            futile_predictions / metrics.requests if metrics.requests else 0.0
        )
        points.append(
            PrefetchTradeoffPoint(
                probability_threshold=threshold,
                fraction_prefetchable=metrics.fraction_predicted,
                futile_fraction=futile,
                bandwidth_increase=bandwidth_increase,
            )
        )
    return points
