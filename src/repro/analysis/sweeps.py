"""Declarative parameter sweeps with a parallel, interned execution engine.

Every Section 3 figure is a sweep: the same trace replayed under a grid of
filter configurations and volume-construction knobs.  This module turns
that pattern into data — a list of :class:`SweepPoint` (store spec +
:class:`~repro.analysis.prediction.ReplayConfig`) — and runs it on the
replay engine:

* **serial** (default): one :func:`replay_interned_multi` pass over
  the compiled trace scores *every* point at once; points with equal store
  specs share volume maintenance.
* **parallel**: points fan out across a ``multiprocessing`` fork
  pool.  The compiled trace and the point list are published as module
  globals before forking, so workers inherit them copy-on-write instead of
  pickling the trace per task; only point indices cross the pipe out and
  only :class:`ReplayMetrics` cross back.  With a *file-backed*
  :class:`~repro.traces.intern.ChunkedCompiledTrace` the workers inherit
  only the symbol tables and per-URL columns; each worker re-opens the
  chunk file for its own sequential pass, so an n-way sweep over a 10M
  record trace never holds the records in any process.

Store specs are the *picklable descriptions* of stores, not live stores:
a :class:`~repro.volumes.directory.DirectoryVolumeConfig` or a
:class:`~repro.volumes.probability.ProbabilityVolumes` artifact.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from ..traces.intern import ChunkedCompiledTrace, compile_trace
from ..traces.records import Trace
from ..volumes.directory import DirectoryVolumeConfig
from ..volumes.probability import (
    PairwiseConfig,
    build_probability_volumes_multi,
    estimate_pairwise,
)
from ..telemetry import REGISTRY
from .metrics import ReplayMetrics
from .prediction import ReplayConfig, replay_many

_TEL_SWEEP_POINTS = REGISTRY.counter(
    "analysis_sweep_points_total", "sweep points submitted to run_sweep"
)
_TEL_SWEEP_POINTS_COMPLETED = REGISTRY.counter(
    "analysis_sweep_points_completed_total", "sweep points whose metrics have arrived"
)
_TEL_SWEEP_SECONDS = REGISTRY.histogram(
    "analysis_sweep_seconds", "wall time of one full sweep run"
)

__all__ = [
    "SweepPoint",
    "SweepResult",
    "run_sweep",
    "threshold_sweep",
    "directory_sweep",
    "rpv_sweep",
]


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a sweep: a store spec plus a replay configuration."""

    label: str
    store: object
    config: ReplayConfig = field(default_factory=ReplayConfig)
    # Free-form axis coordinates (threshold, level, ...) echoed in results.
    params: tuple[tuple[str, object], ...] = ()

    def param(self, name: str, default=None):
        for key, value in self.params:
            if key == name:
                return value
        return default


@dataclass(frozen=True)
class SweepResult:
    """One sweep point's measured metrics."""

    label: str
    metrics: ReplayMetrics
    params: tuple[tuple[str, object], ...] = ()

    def param(self, name: str, default=None):
        for key, value in self.params:
            if key == name:
                return value
        return default


def _canonical_stores(points: Sequence[SweepPoint]) -> list[object]:
    """One representative store object per *equal* spec.

    ``replay_interned_multi`` shares maintenance between entries passing
    the same store object; mapping equal (hashable) specs onto one
    representative extends that sharing to points built independently.
    """
    representatives: dict[object, object] = {}
    stores = []
    for point in points:
        store = point.store
        try:
            store = representatives.setdefault(store, store)
        except TypeError:  # unhashable spec (e.g. ProbabilityVolumes)
            pass
        stores.append(store)
    return stores


# -- parallel workers -------------------------------------------------------
# Published before forking; workers inherit them through copy-on-write.
_SHARED: dict = {}


def _run_chunk(indices: list[int]) -> list[ReplayMetrics]:
    compiled = _SHARED["compiled"]
    stores = _SHARED["stores"]
    points = _SHARED["points"]
    return replay_many(compiled, [(stores[i], points[i].config) for i in indices])


def _default_processes() -> int:
    return os.cpu_count() or 1


def run_sweep(
    trace: Trace | ChunkedCompiledTrace,
    points: Sequence[SweepPoint],
    *,
    engine: str = "fast",
    processes: int | None = None,
) -> list[SweepResult]:
    """Run every sweep point against *trace*; results in point order.

    ``processes`` > 1 fans points across a fork-based worker pool (groups
    of points sharing a store spec stay on one worker so maintenance
    sharing survives the split).  On platforms without ``fork``, or when
    ``processes`` resolves to 1, the sweep runs in-process.  ``engine``
    accepts only ``"fast"``, the one replay engine, and raises ValueError
    on anything else; it stays until the end-to-end benchmark that passes
    it no longer does.
    """
    if engine != "fast":
        raise ValueError(f"unknown engine {engine!r}: the one replay engine is 'fast'")
    points = list(points)
    if not points:
        return []
    _TEL_SWEEP_POINTS.inc(len(points))
    with _TEL_SWEEP_SECONDS.time():
        return _run_sweep_points(trace, points, processes)


def _run_sweep_points(
    trace: Trace | ChunkedCompiledTrace,
    points: list[SweepPoint],
    processes: int | None,
) -> list[SweepResult]:
    compiled = compile_trace(trace)
    stores = _canonical_stores(points)
    workers = _default_processes() if processes is None else max(1, processes)
    workers = min(workers, len(points))
    if workers > 1:
        chunks = _partition_by_store(points, stores, workers)
        results = _run_parallel(compiled, points, stores, chunks)
        if results is not None:
            return results
        # fork unavailable: fall through to the in-process path
    metrics = replay_many(compiled, [(s, p.config) for s, p in zip(stores, points)])
    _TEL_SWEEP_POINTS_COMPLETED.inc(len(points))
    return [SweepResult(p.label, m, p.params) for p, m in zip(points, metrics)]


def _partition_by_store(
    points: Sequence[SweepPoint], stores: Sequence[object], workers: int
) -> list[list[int]]:
    """Split point indices into ≤ *workers* chunks, keeping store groups whole."""
    from .fastreplay import IdentityIndex

    identity = IdentityIndex()
    groups: dict[int, list[int]] = {}
    for index, store in enumerate(stores):
        groups.setdefault(identity.index_of(store), []).append(index)
    # Largest groups first, then greedily onto the lightest chunk.
    chunks: list[list[int]] = [[] for _ in range(min(workers, len(groups)))]
    for group in sorted(groups.values(), key=len, reverse=True):
        lightest = min(chunks, key=len)
        lightest.extend(group)
    return [sorted(chunk) for chunk in chunks if chunk]


def _run_parallel(
    compiled: ChunkedCompiledTrace,
    points: Sequence[SweepPoint],
    stores: Sequence[object],
    chunks: list[list[int]],
) -> list[SweepResult] | None:
    import multiprocessing

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        return None
    _SHARED["compiled"] = compiled
    _SHARED["stores"] = list(stores)
    _SHARED["points"] = list(points)
    try:
        with context.Pool(processes=len(chunks)) as pool:
            chunk_metrics = pool.map(_run_chunk, chunks)
    finally:
        _SHARED.clear()
    ordered: list[ReplayMetrics | None] = [None] * len(points)
    for indices, metrics in zip(chunks, chunk_metrics):
        # Completion accounting happens in the parent: child processes have
        # their own registry copies whose increments die with the fork.
        _TEL_SWEEP_POINTS_COMPLETED.inc(len(indices))
        for index, metric in zip(indices, metrics):
            ordered[index] = metric
    return [
        SweepResult(p.label, m, p.params)
        for p, m in zip(points, ordered)
    ]


# -- canned sweeps ----------------------------------------------------------


def threshold_sweep(
    trace: Trace | ChunkedCompiledTrace,
    thresholds: Iterable[float],
    *,
    window: float = 300.0,
    history_window: float = 7200.0,
    max_elements: int | None = 200,
    pairwise: PairwiseConfig | None = None,
    engine: str = "fast",
    processes: int | None = None,
) -> list[SweepResult]:
    """The paper's probability-threshold sweep (Figures 5-8) as one engine run.

    One estimator pass feeds
    :func:`build_probability_volumes_multi`, so all thresholds' volumes are
    materialized from the same counters, then every threshold replays in a
    single multi-config pass (or a parallel fan-out).  ``engine`` is
    :func:`run_sweep`'s: ``"fast"`` only.
    """
    thresholds = sorted(set(thresholds))
    estimator = estimate_pairwise(trace, pairwise or PairwiseConfig(window=window))
    volumes = build_probability_volumes_multi(estimator, thresholds)
    base = ReplayConfig(
        prediction_window=window,
        history_window=history_window,
        max_elements=max_elements,
    )
    points = [
        SweepPoint(
            label=f"p_t={threshold:g}",
            store=volumes[threshold],
            config=base,
            params=(("threshold", threshold),),
        )
        for threshold in thresholds
    ]
    return run_sweep(trace, points, engine=engine, processes=processes)


def directory_sweep(
    trace: Trace | ChunkedCompiledTrace,
    levels: Iterable[int] = (0, 1, 2),
    access_filters: Iterable[int] = (1, 10, 100),
    *,
    window: float = 300.0,
    history_window: float = 7200.0,
    max_elements: int | None = 200,
    processes: int | None = None,
) -> list[SweepResult]:
    """The directory-volume grid (Figures 2-3): levels × access filters.

    All points at one level share a single maintained store — directory
    maintenance is independent of the replay configuration.
    """
    base = ReplayConfig(
        prediction_window=window,
        history_window=history_window,
        max_elements=max_elements,
    )
    points = []
    for level in levels:
        store = DirectoryVolumeConfig(level=level)
        for access_filter in access_filters:
            points.append(
                SweepPoint(
                    label=f"level={level} filter={access_filter}",
                    store=store,
                    config=ReplayConfig(
                        prediction_window=base.prediction_window,
                        history_window=base.history_window,
                        max_elements=base.max_elements,
                        access_filter=access_filter,
                    ),
                    params=(("level", level), ("access_filter", access_filter)),
                )
            )
    return run_sweep(trace, points, processes=processes)


def rpv_sweep(
    trace: Trace | ChunkedCompiledTrace,
    levels: Iterable[int] = (0, 1),
    access_filters: Iterable[int] = (10, 50),
    min_gaps: Iterable[float] = (0.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0),
    *,
    window: float = 300.0,
    max_elements: int | None = 200,
    processes: int | None = None,
) -> list[SweepResult]:
    """The RPV pacing grid (Figure 4): levels × filters × minimum gaps."""
    points = []
    for level in levels:
        store = DirectoryVolumeConfig(level=level)
        for access_filter in access_filters:
            for gap in min_gaps:
                points.append(
                    SweepPoint(
                        label=f"level={level} filter={access_filter} gap={gap:g}",
                        store=store,
                        config=ReplayConfig(
                            prediction_window=window,
                            max_elements=max_elements,
                            access_filter=access_filter,
                            rpv_min_gap=gap if gap > 0 else None,
                        ),
                        params=(
                            ("level", level),
                            ("access_filter", access_filter),
                            ("min_gap", gap),
                        ),
                    )
                )
    return run_sweep(trace, points, processes=processes)
