"""Frozen oracle: the string-keyed pairwise estimator and probability stores.

``src/`` keeps one pairwise estimator and one probability store, on
integer URL ids.  This module is the string-keyed implementation they
replaced, copied unchanged (the estimator, the static and online stores,
their state codecs, and the string builders that materialized volumes
from ``implications()``), so the differential suites compare the id-space
code against an independent implementation instead of against itself.
Do not import it from ``src/`` and do not "fix" it: its behaviour is the
specification.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from collections.abc import Iterable
from typing import Any

from repro import urls
from repro.core.filters import CandidateElement
from repro.traces.records import LogRecord
from repro.volumes.base import VolumeIdAllocator, VolumeLookup, VolumeStore, VolumeVersion
from repro.volumes.online import OnlineVolumeConfig
from repro.volumes.probability import Implication, PairwiseConfig, ProbabilityVolumes
from repro.volumes.state import StateFormatError

__all__ = [
    "OnlineProbabilityVolumeStore",
    "PairwiseEstimator",
    "ProbabilityVolumeStore",
    "build_probability_volumes",
    "build_probability_volumes_multi",
    "capture_estimator_state",
    "capture_store",
    "restore_estimator_state",
    "restore_store",
]


class _Occurrence:
    """A live occurrence of a resource inside a source's window."""

    __slots__ = ("timestamp", "url", "credited")

    def __init__(self, timestamp: float, url: str):
        self.timestamp = timestamp
        self.url = url
        self.credited: set[str] = set()


class PairwiseEstimator:
    """Streaming estimator of ``p(s|r)`` over per-source windows.

    Feed requests in time order with :meth:`observe`; read off estimates
    with :meth:`probability` or enumerate implications above a threshold
    with :meth:`implications`.
    """

    def __init__(self, config: PairwiseConfig = PairwiseConfig()):
        self.config = config
        self._windows: dict[str, deque[_Occurrence]] = {}
        self._occurrences: Counter[str] = Counter()
        self._pair_counts: dict[tuple[str, str], int] = {}
        self._rng = random.Random(config.seed)
        self._skipped_pairs = 0

    @property
    def counter_count(self) -> int:
        """Number of pair counters currently allocated."""
        return len(self._pair_counts)

    @property
    def skipped_pair_events(self) -> int:
        """Co-occurrence events dropped by sampling (diagnostic)."""
        return self._skipped_pairs

    def occurrence_count(self, url: str) -> int:
        return self._occurrences.get(url, 0)

    def _same_directory(self, first: str, second: str) -> bool:
        level = self.config.same_directory_level
        if level is None:
            return True
        return urls.directory_prefix(first, level) == urls.directory_prefix(second, level)

    def _credit(self, antecedent: str, consequent: str) -> None:
        key = (antecedent, consequent)
        count = self._pair_counts.get(key)
        if count is not None:
            self._pair_counts[key] = count + 1
            return
        if self.config.sample_counters:
            frequency = max(self._occurrences.get(antecedent, 1), 1)
            probability = min(
                1.0,
                self.config.sampling_constant
                / (frequency * self.config.sampling_threshold),
            )
            if self._rng.random() >= probability:
                self._skipped_pairs += 1
                return
        self._pair_counts[key] = 1

    def observe(self, record: LogRecord) -> None:
        """Account one request; must be called in non-decreasing time order."""
        window = self._windows.get(record.source)
        if window is None:
            window = deque()
            self._windows[record.source] = window
        cutoff = record.timestamp - self.config.window
        while window and window[0].timestamp < cutoff:
            window.popleft()
        admitted = self.config.pair_admitted
        for occurrence in window:
            if occurrence.url == record.url:
                continue
            if record.url in occurrence.credited:
                continue
            if not self._same_directory(occurrence.url, record.url):
                continue
            if admitted is not None and not admitted(occurrence.url, record.url):
                continue
            occurrence.credited.add(record.url)
            self._credit(occurrence.url, record.url)
        self._occurrences[record.url] += 1
        window.append(_Occurrence(record.timestamp, record.url))

    def observe_trace(self, records: Iterable[LogRecord]) -> None:
        for record in records:
            self.observe(record)

    def probability(self, antecedent: str, consequent: str) -> float:
        """Current estimate of p(consequent | antecedent)."""
        occurrences = self._occurrences.get(antecedent, 0)
        if occurrences == 0:
            return 0.0
        return self._pair_counts.get((antecedent, consequent), 0) / occurrences

    def implications(self, threshold: float = 0.0) -> list[Implication]:
        """All implications with probability >= *threshold*, sorted.

        Sorted by antecedent then descending probability, so volume
        construction is deterministic.
        """
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        results = []
        for (antecedent, consequent), count in self._pair_counts.items():
            occurrences = self._occurrences.get(antecedent, 0)
            if occurrences == 0:
                continue
            probability = count / occurrences
            if probability >= threshold:
                results.append(Implication(antecedent, consequent, probability))
        results.sort(key=lambda imp: (imp.antecedent, -imp.probability, imp.consequent))
        return results


def build_probability_volumes(estimator, threshold: float) -> ProbabilityVolumes:
    """Materialize volumes from an estimator at probability threshold."""
    members: dict[str, list[tuple[str, float]]] = {}
    for imp in estimator.implications(threshold):
        members.setdefault(imp.antecedent, []).append((imp.consequent, imp.probability))
    return ProbabilityVolumes(members)


def build_probability_volumes_multi(
    estimator, thresholds: Iterable[float]
) -> dict[float, ProbabilityVolumes]:
    """Materialize volumes at *all* thresholds from one counter enumeration."""
    wanted = sorted(set(thresholds))
    if not wanted:
        return {}
    implications = estimator.implications(wanted[0])
    built: dict[float, ProbabilityVolumes] = {}
    for threshold in wanted:
        members: dict[str, list[tuple[str, float]]] = {}
        for implication in implications:
            if implication.probability >= threshold:
                members.setdefault(implication.antecedent, []).append(
                    (implication.consequent, implication.probability)
                )
        built[threshold] = ProbabilityVolumes(members)
    return built


class ProbabilityVolumeStore(VolumeStore):
    """Serve probability volumes through the :class:`VolumeStore` interface.

    Each antecedent resource gets its own volume id (probability volumes
    are per-resource).  ``observe`` maintains per-resource metadata (size,
    Last-Modified, access counts) used to fill piggyback elements.
    """

    def __init__(self, volumes: ProbabilityVolumes):
        self.volumes = volumes
        self._allocator = VolumeIdAllocator()
        self._sizes: dict[str, int] = {}
        self._mtimes: dict[str, float] = {}
        self._access_counts: Counter[str] = Counter()
        # Per-antecedent cached candidate tuples.  A candidate embeds the
        # consequent's size/mtime/access-count, so a cached tuple stays
        # valid until ``observe`` changes one of its members — the reverse
        # index (built lazily from the frozen volumes) finds exactly the
        # antecedents to invalidate instead of flushing everything.
        self._candidate_cache: dict[str, tuple[CandidateElement, ...]] = {}
        self._containing: dict[str, tuple[str, ...]] | None = None
        # Per-antecedent epochs, bumped only on piggyback-visible changes
        # (a member's size/mtime changed, or a count crossed the ceiling).
        self._epochs: dict[str, int] = {}

    def volume_count(self) -> int:
        return len(self.volumes)

    def _containing_volumes(self) -> dict[str, tuple[str, ...]]:
        if self._containing is None:
            self._containing = self.volumes.containing_volumes()
        return self._containing

    def _invalidate_volumes_of(self, url: str) -> None:
        if not self._candidate_cache:
            return
        cache = self._candidate_cache
        for antecedent in self._containing_volumes().get(url, ()):
            cache.pop(antecedent, None)

    def observe(self, record: LogRecord) -> None:
        url = record.url
        visible = False
        if record.size and self._sizes.get(url) != record.size:
            self._sizes[url] = record.size
            visible = True
        if record.last_modified is not None and self._mtimes.get(url) != record.last_modified:
            self._mtimes[url] = record.last_modified
            visible = True
        self._access_counts[url] += 1
        # The access count changed, so cached tuples embedding this
        # resource are stale; volumes not containing it stay cached.
        self._invalidate_volumes_of(url)
        if visible or self._access_counts[url] <= self._count_ceiling:
            epochs = self._epochs
            for antecedent in self._containing_volumes().get(url, ()):
                epochs[antecedent] = epochs.get(antecedent, 0) + 1

    def lookup_version(self, url: str) -> VolumeVersion | None:
        if url not in self.volumes:
            return None
        return VolumeVersion(
            self._allocator.id_for(url), self._epoch_base + self._epochs.get(url, 0)
        )

    def lookup(self, url: str) -> VolumeLookup | None:
        candidates = self._candidate_cache.get(url)
        if candidates is None:
            members = self.volumes.members_of(url)
            if not members:
                return None
            candidates = tuple(
                CandidateElement(
                    url=consequent,
                    last_modified=self._mtimes.get(consequent, 0.0),
                    size=self._sizes.get(consequent, 0),
                    access_count=self._access_counts.get(consequent, 0),
                    probability=probability,
                    content_type=urls.content_type_of(consequent),
                )
                for consequent, probability in members
            )
            self._candidate_cache[url] = candidates
        return VolumeLookup(
            volume_id=self._allocator.id_for(url), candidates=candidates
        )


class OnlineProbabilityVolumeStore(VolumeStore):
    """Probability volumes rebuilt periodically from a live estimator."""

    def __init__(self, config: OnlineVolumeConfig = OnlineVolumeConfig()):
        self.config = config
        self.estimator = PairwiseEstimator(config.pairwise)
        self.volumes = ProbabilityVolumes({})
        self.rebuilds = 0
        self._observations = 0
        self._next_rebuild: float | None = None
        self._allocator = VolumeIdAllocator()
        self._sizes: dict[str, int] = {}
        self._mtimes: dict[str, float] = {}
        self._access_counts: Counter[str] = Counter()

    def observe(self, record: LogRecord) -> None:
        self.estimator.observe(record)
        self._observations += 1
        if record.size:
            self._sizes[record.url] = record.size
        if record.last_modified is not None:
            self._mtimes[record.url] = record.last_modified
        self._access_counts[record.url] += 1

        if self._next_rebuild is None:
            self._next_rebuild = record.timestamp + self.config.rebuild_interval
        elif (
            record.timestamp >= self._next_rebuild
            and self._observations >= self.config.min_observations
        ):
            self.rebuild()
            while self._next_rebuild <= record.timestamp:
                self._next_rebuild += self.config.rebuild_interval

    def rebuild(self) -> None:
        """Materialize a fresh volume set from the current estimates."""
        self.volumes = build_probability_volumes(
            self.estimator, self.config.probability_threshold
        )
        self.rebuilds += 1

    def volume_count(self) -> int:
        return len(self.volumes)

    def lookup(self, url: str) -> VolumeLookup | None:
        members = self.volumes.members_of(url)
        if not members:
            return None
        candidates = tuple(
            CandidateElement(
                url=consequent,
                last_modified=self._mtimes.get(consequent, 0.0),
                size=self._sizes.get(consequent, 0),
                access_count=self._access_counts.get(consequent, 0),
                probability=probability,
                content_type=urls.content_type_of(consequent),
            )
            for consequent, probability in members
        )
        return VolumeLookup(
            volume_id=self._allocator.id_for(url), candidates=candidates
        )


# --- state codecs ------------------------------------------------------


def _rng_state_payload(rng: random.Random) -> list[Any]:
    """``random.Random`` state as JSON-safe nested lists."""

    def convert(value: Any) -> Any:
        if isinstance(value, tuple):
            return [convert(item) for item in value]
        return value

    return [convert(part) for part in rng.getstate()]


def _rng_state_restore(payload: list[Any]) -> tuple[Any, ...]:
    """Invert :func:`_rng_state_payload` back into ``setstate`` form."""

    def convert(value: Any) -> Any:
        if isinstance(value, list):
            return tuple(convert(item) for item in value)
        return value

    state = tuple(convert(part) for part in payload)
    if len(state) != 3:
        raise StateFormatError("malformed RNG state")
    return state


def _base_payload(store: VolumeStore) -> dict[str, int]:
    return {
        "store_epoch": store._store_epoch,
        "count_ceiling": store._count_ceiling,
    }


def _base_restore(store: VolumeStore, payload: dict[str, Any]) -> None:
    store._store_epoch = int(payload["store_epoch"])
    store._count_ceiling = int(payload["count_ceiling"])



def capture_estimator_state(estimator: PairwiseEstimator) -> dict[str, Any]:
    """Dynamic state of a streaming pairwise estimator.

    Windows (with per-occurrence credited sets, serialized sorted) and
    the sampling RNG are included, so restored estimates *and* restored
    future crediting/sampling decisions match the original stream.
    """
    windows = {
        source: [
            [occ.timestamp, occ.url, sorted(occ.credited)]
            for occ in window
        ]
        for source, window in estimator._windows.items()
    }
    return {
        "windows": windows,
        "occurrences": dict(estimator._occurrences),
        "pair_counts": [
            [antecedent, consequent, count]
            for (antecedent, consequent), count in estimator._pair_counts.items()
        ],
        "rng": _rng_state_payload(estimator._rng),
        "skipped_pairs": estimator._skipped_pairs,
    }


def restore_estimator_state(
    estimator: PairwiseEstimator, payload: dict[str, Any]
) -> None:
    """Load captured state into a freshly configured estimator."""
    windows: dict[str, deque[_Occurrence]] = {}
    for source, entries in payload["windows"].items():
        window: deque[_Occurrence] = deque()
        for timestamp, url, credited in entries:
            occurrence = _Occurrence(float(timestamp), str(url))
            occurrence.credited = set(credited)
            window.append(occurrence)
        windows[source] = window
    estimator._windows = windows
    estimator._occurrences = Counter(
        {str(url): int(count) for url, count in payload["occurrences"].items()}
    )
    estimator._pair_counts = {
        (str(antecedent), str(consequent)): int(count)
        for antecedent, consequent, count in payload["pair_counts"]
    }
    estimator._rng.setstate(_rng_state_restore(payload["rng"]))
    estimator._skipped_pairs = int(payload["skipped_pairs"])


def _members_payload(volumes: ProbabilityVolumes) -> list[list[Any]]:
    return [
        [antecedent, [[consequent, probability]
                      for consequent, probability in volumes.members_of(antecedent)]]
        for antecedent in sorted(volumes.antecedents())
    ]


def _members_restore(payload: list[list[Any]]) -> ProbabilityVolumes:
    return ProbabilityVolumes(
        {
            str(antecedent): [(str(consequent), float(probability))
                              for consequent, probability in pairs]
            for antecedent, pairs in payload
        }
    )


def _metadata_payload(store: Any) -> dict[str, Any]:
    return {
        "sizes": dict(store._sizes),
        "mtimes": dict(store._mtimes),
        "access_counts": dict(store._access_counts),
    }


def _metadata_restore(store: Any, payload: dict[str, Any]) -> None:
    store._sizes = {str(url): int(size) for url, size in payload["sizes"].items()}
    store._mtimes = {str(url): float(when) for url, when in payload["mtimes"].items()}
    store._access_counts = Counter(
        {str(url): int(count) for url, count in payload["access_counts"].items()}
    )


def _capture_probability(store: ProbabilityVolumeStore) -> dict[str, Any]:
    return {
        **_base_payload(store),
        **_metadata_payload(store),
        "allocator": store._allocator.assignments(),
        "members": _members_payload(store.volumes),
        "epochs": dict(store._epochs),
    }


def _restore_probability(store: ProbabilityVolumeStore, payload: dict[str, Any]) -> None:
    _base_restore(store, payload)
    _metadata_restore(store, payload)
    store._allocator.restore(payload["allocator"])
    store.volumes = _members_restore(payload["members"])
    store._epochs = {str(url): int(epoch) for url, epoch in payload["epochs"].items()}
    store._candidate_cache = {}
    store._containing = None


def _capture_online(store: OnlineProbabilityVolumeStore) -> dict[str, Any]:
    return {
        **_base_payload(store),
        **_metadata_payload(store),
        "allocator": store._allocator.assignments(),
        "members": _members_payload(store.volumes),
        "estimator": capture_estimator_state(store.estimator),
        "rebuilds": store.rebuilds,
        "observations": store._observations,
        "next_rebuild": store._next_rebuild,
    }


def _restore_online(store: OnlineProbabilityVolumeStore, payload: dict[str, Any]) -> None:
    _base_restore(store, payload)
    _metadata_restore(store, payload)
    store._allocator.restore(payload["allocator"])
    store.volumes = _members_restore(payload["members"])
    restore_estimator_state(store.estimator, payload["estimator"])
    store.rebuilds = int(payload["rebuilds"])
    store._observations = int(payload["observations"])
    next_rebuild = payload["next_rebuild"]
    store._next_rebuild = None if next_rebuild is None else float(next_rebuild)


_CODECS = {
    ProbabilityVolumeStore: (_capture_probability, _restore_probability),
    OnlineProbabilityVolumeStore: (_capture_online, _restore_online),
}


def capture_store(store: VolumeStore) -> dict[str, Any]:
    """The oracle's state in the ``capture_store_state`` payload shape."""
    capture, _ = _CODECS[type(store)]
    return {"store_type": type(store).__name__, "state": capture(store)}


def restore_store(store: VolumeStore, payload: dict[str, Any]) -> None:
    """Load a ``capture_store_state`` payload into a fresh oracle store."""
    assert payload["store_type"] == type(store).__name__
    _, restore = _CODECS[type(store)]
    restore(store, payload["state"])
