#!/usr/bin/env python
"""Regenerate every paper figure, table and ablation into PAPER_RESULTS.json.

Run from the repository root, with no arguments: ``python benchmarks/paper.py``.

Each preset log is built once and every experiment runs once; a grid that
several figures read runs once as the union of their cells.  The JSON holds
one block per figure, table or ablation: its rows and the verdict of each
named shape check.  The checks are loose (who wins, directions of curves),
since absolute numbers depend on the synthetic substitute workloads.  The
script prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, replace
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis import experiments as ex  # noqa: E402
from repro.analysis.prediction import ReplayConfig, replay  # noqa: E402
from repro.analysis.rate_of_change import estimate_delta_savings, rate_of_change  # noqa: E402
from repro.analysis.simulator import EndToEndSimulator, SimulationConfig  # noqa: E402
from repro.proxy import replacement as rp  # noqa: E402
from repro.proxy.fetch_queue import simulate_fcfs_latency, simulate_sjf_latency  # noqa: E402
from repro.proxy.hierarchy import build_chain  # noqa: E402
from repro.proxy.proxy import PiggybackProxy, ProxyConfig  # noqa: E402
from repro.server.resources import ResourceStore  # noqa: E402
from repro.server.server import PiggybackServer  # noqa: E402
from repro.traces.clean import CleaningConfig, clean_trace  # noqa: E402
from repro.volumes.directory import DirectoryVolumeConfig, DirectoryVolumeStore  # noqa: E402
from repro.volumes.online import OnlineProbabilityVolumeStore, OnlineVolumeConfig  # noqa: E402
from repro.volumes import popularity as pop  # noqa: E402
from repro.volumes.probability import (  # noqa: E402
    PairwiseConfig, ProbabilityVolumeStore, build_probability_volumes, estimate_pairwise,
)
from repro.volumes.thinning import measure_effectiveness, thin_by_effectiveness  # noqa: E402
from repro.workloads.modifications import ModificationConfig, ModificationProcess  # noqa: E402
from repro.workloads import synth  # noqa: E402

# Scale factor per server log; Sun is the largest and most expensive.
# Sessions AND sources are scaled together, so requests-per-source (the
# ratio that drives Table 1's repeat-traffic ordering) matches the preset.
SERVER_SCALES = {"aiusa": 0.6, "apache": 0.4, "sun": 0.15}

# Union grids: every cell any figure reads, computed once per log.
THRESHOLDS = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7)
PROB_VARIANTS = {"sun": ("base", "effective-0.1", "effective-0.2", "combined"),
                 "aiusa": ("base", "effective-0.2", "combined")}
DIRECTORY_GRIDS = {"aiusa": ((0, 1, 2), (1, 10, 50, 100, 200, 500)),
                   "sun": ((1, 2), (1, 50, 100, 200, 500, 1000))}


def cleaned_server_log(name):
    config, scale = synth.SERVER_PRESETS[name], SERVER_SCALES[name]
    config = replace(config, session_count=max(1, int(config.session_count * scale)),
                     source_count=max(1, int(config.source_count * scale)))
    trace, site = synth.generate_server_log(config)
    return clean_trace(trace, CleaningConfig(min_accesses=10))[0], site


def cells(grid, *axes):
    """The cells of a keyed grid, in the order of the product of *axes*."""
    return [grid[key] for key in product(*axes)]


def directory_store(level):
    return DirectoryVolumeStore(DirectoryVolumeConfig(level=level))


def metrics_row(metrics, **labels):
    """The ReplayMetrics figures that ablation and extension rows report."""
    return {**labels, **{name: getattr(metrics, name) for name in (
        "requests", "fraction_predicted", "true_prediction_fraction", "update_fraction",
        "mean_piggyback_size", "piggyback_messages", "piggyback_message_rate")}}


def block(rows, checks, **extra):
    """One JSON block; *checks* maps each check's name to its predicate."""
    return {"rows": rows, "checks": checks, **extra}


def fig1(trace):
    rows = ex.fig1_interarrival(trace, levels=(0, 1, 2, 3, 4))
    fractions = [r.seen_before_fraction for r in rows]
    medians = [r.median_interarrival for r in rows if r.interarrivals]
    return {"fig1": block(
        [{"level": r.level, "requests": r.requests, "seen_before_fraction": r.seen_before_fraction,
          "median_interarrival": r.median_interarrival, "mean_interarrival": r.mean_interarrival,
          "within_50s": r.fraction_within(50.0)} for r in rows],
        {"locality_decays_with_depth": lambda: fractions == sorted(fractions, reverse=True),
         "level0_nearly_always_seen_before": lambda: fractions[0] > 0.95,
         "deep_prefixes_often_first_visits": lambda: fractions[-1] < 0.8,
         "median_gap_grows_with_depth": lambda: medians[0] < medians[2]})}


def fig2(grids):
    filters = (1, 10, 50, 100, 500)
    size = {key: p.mean_piggyback_size for key, p in grids["aiusa"].items()}
    sun = grids["sun"]
    return {
        "fig2_aiusa": block([asdict(p) for p in cells(grids["aiusa"], (0, 1, 2), filters)], {
            "filters_shrink_messages": lambda: all(
                s == sorted(s, reverse=True)
                for s in ([size[lv, f] for f in filters] for lv in (0, 1, 2))),
            # At very strong filters the ordering is within noise.
            "deeper_prefixes_shrink_volumes": lambda: all(
                size[2, f] <= size[1, f] <= size[0, f] for f in filters if f <= 100)}),
        # No 0-level volume for Sun: the paper skips the site-wide volume.
        "fig2_sun": block([asdict(p) for p in cells(sun, (1, 2), (1, 50, 100, 500, 1000))], {
            "strong_filter_halves_level1_size": lambda: (
                sun[1, 1000].mean_piggyback_size < 0.5 * sun[1, 1].mean_piggyback_size)}),
    }


def fig3(grids, sun_trace):
    filters = (1, 50, 200, 1000)
    sun, aiusa = grids["sun"], grids["aiusa"]
    recalls = [[sun[lv, f].fraction_predicted for f in filters] for lv in (1, 2)]
    updates = [p.update_fraction for p in cells(sun, (1, 2), filters)]
    five, fifteen = (replay(sun_trace, directory_store(2), ReplayConfig(
        prediction_window=window, recent_window=window, max_elements=200, access_filter=10))
        for window in (300.0, 900.0))
    return {
        "fig3_sun": block([asdict(p) for p in cells(sun, (1, 2), filters)], {
            "recall_falls_with_filter": lambda: all(r == sorted(r, reverse=True) for r in recalls),
            "unfiltered_recall_above_40pct": lambda: all(r[0] > 0.4 for r in recalls),
            # Dominated by sub-5-minute re-requests (paper Figure 3(b)).
            "update_fraction_nearly_flat": lambda: max(updates) - min(updates) < 0.15,
            "update_fraction_in_band": lambda: all(0.0 < u < 0.5 for u in updates)}),
        "fig3b_window": block(
            [metrics_row(five, window_s=300.0), metrics_row(fifteen, window_s=900.0)],
            {"wider_window_not_lower_update_fraction":
                lambda: fifteen.update_fraction >= five.update_fraction}),
        "fig3_aiusa": block([asdict(p) for p in cells(aiusa, (1, 2), (1, 50, 200))], {
            "unfiltered_peak_recall_above_50pct":
                lambda: max(aiusa[lv, 1].fraction_predicted for lv in (1, 2)) > 0.5}),
    }


def fig4(trace):
    gaps = (0.0, 10.0, 30.0, 60.0, 120.0, 300.0)
    points = ex.fig4_rpv(trace, levels=(0, 1), access_filters=(10, 50), min_gaps=gaps)
    grid = {(p.level, p.access_filter, p.min_gap): p for p in points}
    series = [[grid[lv, f, gap] for gap in gaps] for lv, f in product((0, 1), (10, 50))]
    return {"fig4": block([asdict(p) for p in points], {
        "pacing_cuts_traffic": lambda: all(
            r == sorted(r, reverse=True)
            for r in ([p.piggyback_message_rate for p in s] for s in series)),
        "gap30_cuts_message_rate": lambda: all(
            s[2].piggyback_message_rate < s[0].piggyback_message_rate for s in series),
        # "no significant loss in the fraction of resources predicted"
        "gap30_keeps_70pct_recall": lambda: all(
            s[2].fraction_predicted > 0.7 * s[0].fraction_predicted for s in series)})}


def fig5(sweep, trace):
    thresholds = (0.1, 0.2, 0.3, 0.5)
    base = [sweep["base", t].fraction_predicted for t in thresholds]
    probabilities = ex.fig5b_implication_cdf(trace)
    edges = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    volumes = build_probability_volumes(estimate_pairwise(trace, PairwiseConfig(window=300.0)), 0.2)
    symmetric, selfish = volumes.symmetric_fraction(), volumes.self_membership_fraction()
    memberships = volumes.membership_counts()
    variants = ("base", "combined", "effective-0.1", "effective-0.2")
    return {
        "fig5a": block([asdict(p) for p in cells(sweep, variants, thresholds)], {
            "base_recall_falls_with_threshold": lambda: base == sorted(base, reverse=True),
            "effective02_keeps_60pct_recall": lambda: all(
                sweep["effective-0.2", t].fraction_predicted
                >= 0.6 * sweep["base", t].fraction_predicted for t in (0.2, 0.3, 0.5)),
            "combined_subset_of_base": lambda: all(
                sweep["combined", t].implication_count <= sweep["base", t].implication_count
                for t in thresholds)}),
        "fig5b": block(
            [{"low": low, "high": high, "share": sum(
                1 for p in probabilities if low < p <= high) / len(probabilities)}
             for low, high in zip(edges, edges[1:])],
            {"probabilities_in_range": lambda: probabilities[0] > 0.0 and probabilities[-1] <= 1.0,
             "near_certain_mass": lambda: any(p >= 0.9 for p in probabilities),
             "low_probability_mass": lambda: any(p <= 0.2 for p in probabilities)},
            pairs=len(probabilities)),
        # Paper: only 1% of resources in their own volume; 3-18% symmetric.
        "sec332": block(
            [{"symmetric_fraction": symmetric, "self_membership_fraction": selfish,
              "mean_memberships_per_resource":
                  sum(memberships.values()) / max(len(memberships), 1)}],
            {"self_membership_below_5pct": lambda: selfish < 0.05,
             "symmetric_below_50pct": lambda: symmetric < 0.5}),
    }


def fig6(sweeps, grids):
    variants, thresholds = ("base", "combined", "effective-0.2"), THRESHOLDS[:-1]
    aiusa, sun = sweeps["aiusa"], sweeps["sun"]
    recalls = [p.fraction_predicted for p in sorted(
        (aiusa["base", t] for t in thresholds), key=lambda p: p.mean_piggyback_size)]
    directory, probability = grids["sun"][1, 1], sun["base", 0.1]
    return {
        "fig6_aiusa": block([asdict(p) for p in cells(aiusa, variants, thresholds)], {
            "base_recall_grows_with_size": lambda: recalls == sorted(recalls)}),
        "fig6_sun": block([asdict(p) for p in cells(sun, variants, thresholds)], {
            "thinning_shrinks_messages": lambda: all(
                sun["effective-0.2", t].mean_piggyback_size
                <= sun["base", t].mean_piggyback_size + 1e-9 for t in thresholds),
            # Headline: probability volumes reach their recall with far
            # smaller piggybacks than unfiltered directory volumes.
            "probability_under_half_directory_size": lambda: (
                probability.mean_piggyback_size < 0.5 * directory.mean_piggyback_size),
            "probability_over_half_directory_recall": lambda: (
                probability.fraction_predicted > 0.5 * directory.fraction_predicted),
        }, directory=asdict(directory)),
    }


def fig7(sweeps):
    sun = sweeps["sun"]
    aiusa = cells(sweeps["aiusa"], ("base", "effective-0.2"), THRESHOLDS)
    base = sorted((sun["base", t] for t in THRESHOLDS), key=lambda p: p.mean_piggyback_size)
    precisions = [p.true_prediction_fraction for p in base]
    thinned = [sun["effective-0.2", t] for t in THRESHOLDS]
    return {
        "fig7_sun": block([asdict(p) for p in cells(sun, ("base", "effective-0.2"), THRESHOLDS)], {
            "thinning_improves_precision": lambda: all(
                sun["effective-0.2", t].true_prediction_fraction
                >= sun["base", t].true_prediction_fraction - 1e-9 for t in THRESHOLDS),
            "precision_falls_with_size": lambda: precisions == sorted(precisions, reverse=True),
            "thinning_caps_message_size": lambda: (
                max(p.mean_piggyback_size for p in thinned)
                < max(p.mean_piggyback_size for p in base)),
            "thinning_raises_precision_floor": lambda: (
                min(p.true_prediction_fraction for p in thinned) > min(precisions))}),
        "fig7_aiusa": block([asdict(p) for p in aiusa], {
            "precision_in_unit_interval":
                lambda: all(0.0 <= p.true_prediction_fraction <= 1.0 for p in aiusa)}),
    }


def fig8(sweep, grid):
    thresholds = THRESHOLDS[:-1]
    thinned = [sweep["effective-0.2", t] for t in thresholds]
    # Combined points beyond the thinned variant's maximum recall buy it
    # with much larger piggybacks and are not comparable on this plot.
    max_recall = max(t.fraction_predicted for t in thinned)
    comparable = [sweep["combined", t] for t in thresholds
                  if sweep["combined", t].fraction_predicted <= max_recall]
    directory = grid[1, 50]
    points = cells(sweep, ("combined", "effective-0.2"), thresholds)
    return {"fig8": block([asdict(p) for p in points], {
        "recall_ranges_overlap": lambda: bool(comparable),
        "thinned_frontier_matches_combined": lambda: all(
            any(t.fraction_predicted >= c.fraction_predicted - 0.02
                and t.true_prediction_fraction >= c.true_prediction_fraction - 0.05
                for t in thinned)
            for c in comparable),
        "directory_below_best_thinned_precision": lambda: (
            directory.true_prediction_fraction
            < max(p.true_prediction_fraction for p in thinned)),
    }, directory=asdict(directory))}


def table1(logs):
    rows = [ex.table1_update_fraction(logs[name][0], name) for name in ("aiusa", "apache", "sun")]
    aiusa, sun = rows[0], rows[2]
    return {"table1": block([{**asdict(r), "update_fraction": r.update_fraction} for r in rows], {
        "sun_most_repeat_traffic": lambda: sun.prev_occurrence_2hr > aiusa.prev_occurrence_2hr,
        "sun_highest_update_fraction": lambda: sun.update_fraction >= aiusa.update_fraction,
        # Paper: thinned piggybacks of 1.6-5.0 elements.
        "piggybacks_under_20_elements": lambda: all(r.mean_piggyback_size < 20.0 for r in rows),
        "recent_subset_of_2hr":
            lambda: all(r.prev_occurrence_5min <= r.prev_occurrence_2hr for r in rows),
        "piggyback_updates_positive": lambda: all(r.updated_by_piggyback > 0.0 for r in rows)})}


def table2():
    # Keep 304s (they are the point of the table); only canonicalize.
    att, digital = (ex.table2_client_stats(clean_trace(
        synth.client_log_preset(preset, scale=scale)[0], CleaningConfig(min_accesses=1))[0])
        for preset, scale in (("att_client", 0.3), ("digital_client", 0.2)))
    return {"table2": block(
        [{"log": "att", **asdict(att)}, {"log": "digital", **asdict(digital)}],
        {"digital_more_servers": lambda: digital.distinct_servers > att.distinct_servers,
         # Only repeat requests can validate, so scaled logs sit a bit
         # below the paper's 15-25%.
         "att_304_fraction_in_band": lambda: 0.01 < att.not_modified_fraction < 0.25,
         "digital_304_fraction_in_band": lambda: 0.01 < digital.not_modified_fraction < 0.25,
         "att_server_concentration": lambda: att.top_percent_server_resource_share > 0.02})}


def table3():
    stats = {}
    for name, scale in {"aiusa": 0.4, "apache": 0.25, "marimba": 0.4, "sun": 0.1}.items():
        trace, _ = synth.server_log_preset(name, scale=scale)
        keep = ("GET", "POST") if name == "marimba" else ("GET",)
        stats[name] = ex.table3_server_stats(
            clean_trace(trace, CleaningConfig(min_accesses=10, keep_methods=keep))[0])
    sun, aiusa, apache, marimba = (stats[name] for name in ("sun", "aiusa", "apache", "marimba"))
    return {"table3": block([{"log": name, **asdict(s)} for name, s in stats.items()], {
        "sun_more_requests_than_aiusa": lambda: sun.requests > aiusa.requests,
        "sun_more_resources_than_apache": lambda: sun.unique_resources > apache.unique_resources,
        "marimba_fewer_resources": lambda: marimba.unique_resources < aiusa.unique_resources,
        "sun_more_req_per_source": lambda: sun.requests_per_source > apache.requests_per_source,
        # Paper: ~85% of requests to <10% of resources; our skew is milder.
        "top_decile_share_above_30pct":
            lambda: all(s.top_decile_request_share > 0.3 for s in stats.values())})}


def sec23(trace):
    summary = ex.sec23_overhead(trace)
    return {"sec23": block([asdict(summary)], {
        # Fixed 16 bytes plus the URL path; synthetic URLs are shorter
        # than the paper's 50-byte average.
        "element_bytes_in_band": lambda: 16.0 < summary.mean_element_bytes < 80.0,
        "message_smaller_than_response":
            lambda: summary.mean_message_bytes < summary.mean_response_bytes,
        "most_messages_fit_final_packet": lambda: summary.fraction_no_extra_packet > 0.5})}


def sec4(apache, aiusa, site, sun):
    points = ex.sec4_prefetch_tradeoffs(apache, thresholds=(0.05, 0.1, 0.2, 0.3, 0.5))
    best = min(points, key=lambda p: p.futile_fraction)
    on, off = (EndToEndSimulator(site, directory_store(1), SimulationConfig(
        proxy=ProxyConfig(freshness_interval=600.0, max_piggyback_elements=max_piggy),
        modifications=ModificationConfig(fast_fraction=0.1, fast_mean_interval=3600.0)),
        horizon=aiusa.end_time + 1.0).run(aiusa) for max_piggy in (10, 0))
    sizes = [r.size for r in sun if r.size > 0][:2000]
    bandwidth = 28_800 / 8.0  # a 28.8 kbps modem link, in bytes/s
    fcfs, sjf = simulate_fcfs_latency(sizes, bandwidth), simulate_sjf_latency(sizes, bandwidth)
    return {
        "sec4_prefetch": block([asdict(p) for p in points], {
            "best_point_prefetchable_above_20pct": lambda: best.fraction_prefetchable > 0.2,
            "best_point_futile_below_60pct": lambda: best.futile_fraction < 0.6}),
        "sec4_coherency": block(
            [{"variant": variant, "fresh_hit_rate": r.fresh_hit_rate, "stale_rate": r.stale_rate,
              **asdict(r)} for variant, r in (("piggyback", on), ("baseline", off))],
            {"piggyback_raises_fresh_hits": lambda: on.fresh_hit_rate > off.fresh_hit_rate,
             "piggyback_cuts_server_requests": lambda: on.server_requests < off.server_requests}),
        "sec4_informed_fetching": block(
            [{"fcfs_mean_completion_s": fcfs, "sjf_mean_completion_s": sjf}],
            {"sjf_beats_fcfs": lambda: sjf < fcfs}),
    }


def origin(trace, site, store):
    """A fresh origin serving *site*, whose resources change over *trace*."""
    changes = ModificationProcess(0.0, trace.end_time + 1.0)
    return PiggybackServer(ResourceStore.from_site(site, changes=changes), store)


def run_proxy(trace, site, store, config, replacement=None):
    """Feed *trace* through a proxy in front of a fresh origin."""
    server = origin(trace, site, store)
    proxy = PiggybackProxy(server.handle, config, replacement=replacement)
    for record in trace:
        proxy.handle_client_get(record.url, record.timestamp)
    return server, proxy


def cache_replacement(trace, site):
    # A cache around 4% of the site's total bytes forces real evictions.
    capacity = max(sum(r.size for r in site.resources.values()) // 25, 50_000)
    base = build_probability_volumes(estimate_pairwise(trace, PairwiseConfig(window=300.0)), 0.25)
    precise = thin_by_effectiveness(base, measure_effectiveness(trace, base, window=300.0), 0.2)
    policies = {"lru": rp.LruPolicy, "size": rp.SizePolicy, "gd-size": rp.GreedyDualSizePolicy,
                "piggyback-lru": rp.PiggybackAwareLruPolicy}
    stores = {"directory": lambda: directory_store(1),
              "probability": lambda: ProbabilityVolumeStore(precise)}
    config = ProxyConfig(name="p", freshness_interval=3600.0, cache_capacity_bytes=capacity)
    results = {volumes: {name: run_proxy(trace, site, store(), config, policy())[1].cache.stats
                         for name, policy in policies.items()}
               for volumes, store in stores.items()}
    broad, thinned = results["directory"], results["probability"]

    def gain(stats):
        return stats["piggyback-lru"].hit_rate - stats["lru"].hit_rate

    return {"replacement": block(
        [{"volumes": volumes, "policy": name, "hit_rate": s.hit_rate,
          "fresh_hit_rate": s.fresh_hit_rate, **asdict(s)}
         for volumes, by_policy in results.items() for name, s in by_policy.items()],
        {"every_policy_evicts": lambda: all(
            s.evictions > 0 for r in results.values() for s in r.values()),
         "gd_size_not_below_lru": lambda: all(
             r["gd-size"].hit_rate >= r["lru"].hit_rate - 0.02 for r in results.values()),
         # Headline: confirmation-as-touch helps only with a precise signal.
         "precise_piggyback_lru_not_below_lru":
             lambda: thinned["piggyback-lru"].hit_rate >= thinned["lru"].hit_rate - 0.005,
         "precise_signal_beats_broad": lambda: gain(thinned) >= gain(broad)},
        capacity_bytes=capacity)}


def extensions(aiusa, site):
    """Section 5's future-work list, implemented and measured."""
    silent, reporting = (run_proxy(aiusa, site, directory_store(1), ProxyConfig(
        name="p", freshness_interval=600.0, report_cache_hits=report))[0].stats
        for report in (False, True))
    popular = pop.PopularityVolumeStore(pop.PopularityConfig(top_count=10))
    plain, fallback = (replay(aiusa, store, ReplayConfig(max_elements=10, access_filter=50))
                       for store in (directory_store(2),
                                     pop.FallbackVolumeStore(directory_store(2), popular)))
    sun, _ = synth.server_log_preset("sun", scale=0.05)
    change, savings = rate_of_change(sun), estimate_delta_savings(sun, max_transfers=300)
    server = origin(aiusa, site, directory_store(1))
    child, _, boundary = build_chain(server.handle,
                                     ProxyConfig(name="parent", freshness_interval=3600.0),
                                     ProxyConfig(name="child", freshness_interval=300.0))
    for record in aiusa:
        child.handle_client_get(record.url, record.timestamp)
    return {
        "ext_hit_reporting": block(
            [{"mode": mode, "origin_requests": s.requests, "reported_hits": s.reported_cache_hits}
             for mode, s in (("silent", silent), ("reporting", reporting))],
            {"silent_reports_nothing": lambda: silent.reported_cache_hits == 0,
             "reporting_restores_hits": lambda: reporting.reported_cache_hits > 0}),
        "ext_popularity_fallback": block(
            [metrics_row(plain, store="directory"), metrics_row(fallback, store="+popular")],
            {"fallback_not_fewer_messages":
                lambda: fallback.piggyback_message_rate >= plain.piggyback_message_rate,
             "fallback_keeps_recall":
                lambda: fallback.fraction_predicted >= plain.fraction_predicted - 0.01}),
        "ext_delta_encoding": block(
            [{"repeat_accesses": change.repeat_accesses,
              "changed_fraction": change.changed_fraction,
              "savings_fraction": savings.savings_fraction, **asdict(savings)}],
            {"repeat_accesses_seen": lambda: change.repeat_accesses > 0,
             "deltas_save_half":
                lambda: not savings.changed_transfers or savings.savings_fraction > 0.5}),
        "ext_hierarchy": block(
            [{"client_requests": child.stats.client_requests,
              "child_to_parent_requests": boundary.stats.requests,
              "parent_to_origin_requests": server.stats.requests,
              "validated_at_parent": boundary.stats.validated_at_parent,
              "piggybacks_forwarded": boundary.stats.piggybacks_forwarded,
              "child_piggyback_freshenings": child.coherency.stats.freshened}],
            {"parent_absorbs_traffic": lambda: (
                server.stats.requests < boundary.stats.requests <= child.stats.client_requests),
             "piggybacks_cross_the_hop": lambda: boundary.stats.piggybacks_forwarded > 0,
             "child_freshened_by_piggybacks": lambda: child.coherency.stats.freshened > 0}),
    }


def ablations(sun, aiusa, apache):
    """The design choices DESIGN.md calls out, each switched off in turn."""
    exact, sampled = (estimate_pairwise(sun, PairwiseConfig(
        window=300.0, sample_counters=s, sampling_threshold=0.2, seed=17)) for s in (False, True))
    exact_impls, sampled_impls = (build_probability_volumes(e, 0.2).implication_count()
                                  for e in (exact, sampled))
    mtf, fifo = (replay(aiusa, DirectoryVolumeConfig(level=1, move_to_front=m),
                        ReplayConfig(max_elements=10, access_filter=10)) for m in (True, False))
    paced = ReplayConfig(max_elements=50, access_filter=10)
    unpaced, rpv = (replay(apache, DirectoryVolumeConfig(level=1), config)
                    for config in (paced, replace(paced, rpv_min_gap=30.0)))
    # Random-enable pacing at the message rate RPV achieved: the same
    # budget, spent blindly instead of on the redundant piggybacks.
    rate = rpv.piggyback_messages / max(unpaced.piggyback_messages, 1)
    random = replay(apache, DirectoryVolumeConfig(level=1),
                    replace(paced, enable_probability=rate, seed=5))
    partitioned, single = (replay(sun, DirectoryVolumeConfig(
        level=1, partition_by_type=p, max_volume_size=50), ReplayConfig(max_elements=10))
        for p in (True, False))
    offline = replay(sun, build_probability_volumes(
        estimate_pairwise(sun, PairwiseConfig(window=300.0)), 0.25), ReplayConfig(max_elements=50))
    online_store = OnlineProbabilityVolumeStore(OnlineVolumeConfig(
        probability_threshold=0.25, rebuild_interval=86_400.0,
        pairwise=PairwiseConfig(window=300.0)))
    online = replay(sun, online_store, ReplayConfig(max_elements=50))
    rebuilds = online_store.rebuilds
    return {
        "ablation_sampled_counters": block(
            [{"variant": "exact", "counters": exact.counter_count, "implications": exact_impls},
             {"variant": "sampled", "counters": sampled.counter_count,
              "implications": sampled_impls}],
            {"sampling_saves_counters": lambda: sampled.counter_count < exact.counter_count,
             # Frequent pairs keep their counters.
             "most_implications_survive": lambda: sampled_impls > 0.5 * exact_impls}),
        "ablation_move_to_front": block(
            [metrics_row(mtf, ordering="move-to-front"), metrics_row(fifo, ordering="plain FIFO")],
            # Under a tight cap, recency (the paper's popularity proxy) must not hurt.
            {"mtf_keeps_90pct_of_fifo_recall":
                lambda: mtf.fraction_predicted >= 0.9 * fifo.fraction_predicted}),
        "ablation_rpv_pacing": block(
            [metrics_row(m, pacing=pacing)
             for pacing, m in (("none", unpaced), ("rpv-30s", rpv), ("random", random))],
            {"rpv_cuts_messages": lambda: rpv.piggyback_messages < unpaced.piggyback_messages,
             "rpv_keeps_70pct_recall":
                lambda: rpv.fraction_predicted > 0.7 * unpaced.fraction_predicted,
             "rpv_not_below_random_recall":
                lambda: rpv.fraction_predicted >= random.fraction_predicted - 0.02}),
        "ablation_type_partitioning": block(
            [metrics_row(partitioned, layout="partitioned"), metrics_row(single, layout="single")],
            # Documents the cost, not a winner.
            {"recall_within_30_points": lambda: (
                abs(partitioned.fraction_predicted - single.fraction_predicted) < 0.3)}),
        # Online volumes know nothing on day one, so recall trails the
        # offline oracle but must capture a solid share of it.
        "ablation_offline_vs_online": block(
            [metrics_row(offline, variant="offline"),
             metrics_row(online, variant="online", rebuilds=rebuilds)],
            {"online_rebuilds": lambda: rebuilds >= 1,
             "online_not_above_offline":
                lambda: online.fraction_predicted <= offline.fraction_predicted + 0.02,
             "online_keeps_40pct_recall":
                lambda: online.fraction_predicted >= 0.4 * offline.fraction_predicted}),
    }


def run_all():
    logs = {name: cleaned_server_log(name) for name in SERVER_SCALES}
    (aiusa, site), (apache, _), (sun, _) = logs["aiusa"], logs["apache"], logs["sun"]
    att, _ = synth.client_log_preset("att_client", scale=0.4)
    grids = {name: {(p.level, p.access_filter): p for p in ex.fig2_fig3_directory(
        logs[name][0], levels=levels, access_filters=filters)}
        for name, (levels, filters) in DIRECTORY_GRIDS.items()}
    sweeps = {name: {(p.variant, p.probability_threshold): p for p in ex.fig6_fig7_fig8_probability(
        logs[name][0], thresholds=THRESHOLDS, variants=variants)}
        for name, variants in PROB_VARIANTS.items()}
    return {
        **fig1(clean_trace(att, CleaningConfig(min_accesses=2))[0]),
        **fig2(grids), **fig3(grids, sun), **fig4(apache), **fig5(sweeps["sun"], sun),
        **fig6(sweeps, grids), **fig7(sweeps), **fig8(sweeps["sun"], grids["sun"]),
        **table1(logs), **table2(), **table3(), **sec23(sun), **sec4(apache, aiusa, site, sun),
        **cache_replacement(aiusa, site), **extensions(aiusa, site),
        **ablations(sun, aiusa, apache),
    }


def main() -> int:
    results = run_all()
    failed = 0
    for key, result in results.items():
        for name, predicate in result["checks"].items():
            result["checks"][name] = verdict = bool(predicate())
            failed += not verdict
            print(f"{'ok' if verdict else 'FAIL':<4}  {key}.{name}")
    (ROOT / "PAPER_RESULTS.json").write_text(json.dumps(results, sort_keys=True, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
