"""Probability-based volumes (Section 3.3).

The server estimates pairwise implication probabilities from its request
stream: ``p(s|r)`` is the proportion of requests for ``r`` that are
followed by a request for ``s`` from the same source within ``T`` seconds.
Resource ``s`` joins ``r``'s volume when ``p(s|r) >= p_t``.

Counting uses a per-source sliding window; each occurrence of ``r``
credits each distinct follower ``s`` at most once.  Because exact counting
can need ``n^2`` counters, counter creation can be *sampled*: a missing
counter is instantiated with probability inversely proportional to
``freq(r) * p_t``, so pairs that co-occur often still obtain accurate
estimates while rare coincidences usually never allocate state.

One estimator and one store serve every user, both on the integer URL
ids of an *id space* (a :mod:`compiled trace <repro.traces.intern>`'s
symbol tables and per-URL columns).  String entry points intern at the
edge, for the origin and the durable state; ``run``, ``observe_id`` and
``lookup_id`` take a compiled trace's own ids, for offline estimation
and the fast replay engine.

The offline pipeline stays on those ids from end to end.  The estimator
tests a window entry's directory prefix before anything else, so with
the same-directory restriction an entry from another directory costs
one comparison.  :func:`build_probability_volumes` groups the packed
counters by antecedent id into an id-keyed :class:`ProbabilityVolumes`
that builds its URL-string view only when something asks for strings;
a :class:`ProbabilityVolumeStore` on the estimator's id space adopts the
id-keyed members instead of translating them.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter, deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from ..core.filters import CandidateElement
from ..devtools.lockorder import make_lock
from ..traces.intern import ChunkedCompiledTrace, compile_trace, growing_id_space
from ..traces.records import LogRecord, Trace
from .base import VolumeIdAllocator, VolumeLookup, VolumeStore, VolumeVersion

__all__ = [
    "PairwiseConfig",
    "PairwiseEstimator",
    "estimate_pairwise",
    "Implication",
    "ProbabilityVolumes",
    "ProbabilityVolumeStore",
    "build_probability_volumes",
    "build_probability_volumes_multi",
]

#: The credited set of a window entry that has credited no follower yet.
_UNCREDITED: frozenset[int] = frozenset()


@dataclass(frozen=True, slots=True)
class PairwiseConfig:
    """Parameters of the pairwise probability estimation.

    ``pair_admitted`` optionally restricts which (antecedent, consequent)
    pairs may allocate counters — e.g. to pairs where the consequent is
    directly reachable from the antecedent via an HREF, "if such
    information is readily available" (Section 3.3.1, citing Jiang &
    Kleinrock).
    """

    window: float = 300.0
    sample_counters: bool = False
    sampling_constant: float = 4.0
    sampling_threshold: float = 0.1
    same_directory_level: int | None = None
    pair_admitted: Callable[[str, str], bool] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.sampling_constant <= 0:
            raise ValueError("sampling_constant must be positive")
        if not 0.0 < self.sampling_threshold <= 1.0:
            raise ValueError("sampling_threshold must be in (0, 1]")
        if self.same_directory_level is not None and self.same_directory_level < 0:
            raise ValueError("same_directory_level must be >= 0")


@dataclass(frozen=True, slots=True)
class Implication:
    """One estimated implication r -> s with its probability."""

    antecedent: str
    consequent: str
    probability: float


class PairwiseEstimator:
    """Streaming estimator of ``p(s|r)`` over per-source windows.

    Feed requests in time order with :meth:`observe`, or consume the
    records of the compiled trace given as *id_space* with :meth:`run`
    (both run :meth:`_observe_batch`, so estimates are bit-identical);
    read off estimates with :meth:`probability` or :meth:`implications`.
    Without *id_space* the estimator grows its own.  Pair counters are
    keyed by one packed int of URL ids, and directory agreement is an id
    comparison against a prefix column.

    Over a multi-chunk trace (such as one bound to an on-disk chunk
    file), :meth:`run` streams chunk by chunk and
    periodically drops per-source windows whose entries have all aged out
    (a drained window and a missing one behave identically), keeping
    resident state at O(active sources + counters).
    """

    _KEY_SHIFT = 32  # url-id spaces are far below 2^32

    #: Streaming runs prune idle per-source windows every this many records.
    PRUNE_INTERVAL_RECORDS = 1 << 18

    def __init__(
        self,
        config: PairwiseConfig = PairwiseConfig(),
        id_space: ChunkedCompiledTrace | None = None,
    ):
        self.config = config
        level = config.same_directory_level
        if id_space is None:
            id_space = growing_id_space("PairwiseEstimator.id_space", level)
        self._id_space = id_space
        self._windows: dict[int, deque[list]] = {}
        self._occurrences: list[int] = [0] * len(id_space.urls)
        self._pair_counts: dict[int, int] = {}
        self._rng = random.Random(config.seed)
        self._skipped_pairs = 0
        self._position = 0
        self._prefix_ids: list[int] | None = (
            id_space.directory_prefix_ids(level) if level is not None else None
        )

    @property
    def id_space(self) -> ChunkedCompiledTrace:
        """The id space whose records :meth:`run` consumes."""
        return self._id_space

    @property
    def counter_count(self) -> int:
        """Number of pair counters currently allocated."""
        return len(self._pair_counts)

    @property
    def skipped_pair_events(self) -> int:
        """Co-occurrence events dropped by sampling (diagnostic)."""
        return self._skipped_pairs

    def occurrence_count(self, url: str) -> int:
        url_id = self._id_space.urls.id_of(url)
        if url_id is None or url_id >= len(self._occurrences):
            return 0
        return self._occurrences[url_id]

    def _window_entry(self, timestamp: float, url_id: int, credited: set[int]) -> list:
        """A window entry as :meth:`_observe_batch` keeps it (for a restore)."""
        prefix = self._prefix_ids[url_id] if self._prefix_ids is not None else 0
        return [timestamp, url_id, credited or _UNCREDITED, prefix]

    def observe(self, record: LogRecord) -> None:
        """Account one request; must be called in non-decreasing time order."""
        space = self._id_space
        url_id = space.ensure_url(record.url)
        occurrences = self._occurrences
        if url_id >= len(occurrences):
            occurrences.extend([0] * (len(space.urls) - len(occurrences)))
        source_id = space.sources.intern(record.source)
        self._observe_batch((record.timestamp,), (source_id,), (url_id,), 0, 1)

    def observe_trace(self, records: Iterable[LogRecord]) -> None:
        for record in records:
            self.observe(record)

    def run(self, upto: int | None = None) -> "PairwiseEstimator":
        """Consume id-space records up to index *upto* (default: all); idempotent.

        The trace's chunks are streamed one at a time.
        """
        compiled = self._id_space
        end = len(compiled) if upto is None else min(upto, len(compiled))
        if self._position >= end:
            return self
        since_prune = 0
        for chunk in compiled.chunks():
            chunk_end = chunk.start + len(chunk)
            if chunk_end <= self._position:
                continue
            lo = self._position - chunk.start
            hi = min(end, chunk_end) - chunk.start
            self._observe_batch(
                chunk.timestamps, chunk.source_ids, chunk.url_ids, lo, hi
            )
            self._position = chunk.start + hi
            since_prune += hi - lo
            if self._position >= end:
                break
            if since_prune >= self.PRUNE_INTERVAL_RECORDS and hi > lo:
                self._prune_windows(chunk.timestamps[hi - 1])
                since_prune = 0
        return self

    def _prune_windows(self, now: float) -> None:
        """Drop per-source windows whose entries have all aged out.

        A window whose newest entry is older than the horizon would be
        fully drained by the pop loop on that source's next request, and
        a fresh deque is created when the source reappears — so dropping
        the deque now changes nothing observable.  Only the streaming
        driver calls this; it is what keeps long multi-tenant passes at
        O(active sources) instead of O(all sources ever seen).
        """
        cutoff = now - self.config.window
        windows = self._windows
        for source in [s for s, w in windows.items() if w[-1][0] < cutoff]:
            del windows[source]

    def _observe_batch(self, timestamps, source_ids, url_ids, lo: int, hi: int) -> None:
        """Account records ``[lo, hi)`` of the given parallel columns.

        A window entry is ``[timestamp, url id, credited, prefix id]``.
        The prefix id (0 for every URL without ``same_directory_level``)
        is tested first, so an entry from another directory costs one
        comparison; ``credited`` stays the shared empty set until the
        occurrence first credits a follower.  No RNG draw precedes those
        tests, so the order of checks changes no estimate.
        """
        url_strings = self._id_space.urls.strings
        windows = self._windows
        occurrences = self._occurrences
        pair_counts = self._pair_counts
        prefix_ids = self._prefix_ids
        config = self.config
        horizon = config.window
        sampling = config.sample_counters
        constant = config.sampling_constant
        threshold = config.sampling_threshold
        admitted = config.pair_admitted
        shift = self._KEY_SHIFT
        rng_random = self._rng.random
        uncredited = _UNCREDITED
        url_prefix = 0
        for index in range(lo, hi):
            url = url_ids[index]
            timestamp = timestamps[index]
            window = windows.get(source_ids[index])
            if window is None:
                window = deque()
                windows[source_ids[index]] = window
            cutoff = timestamp - horizon
            while window and window[0][0] < cutoff:
                window.popleft()
            if prefix_ids is not None:
                url_prefix = prefix_ids[url]
            for occurrence in window:
                if occurrence[3] != url_prefix:
                    continue
                antecedent = occurrence[1]
                if antecedent == url:
                    continue
                credited = occurrence[2]
                if url in credited:
                    continue
                if admitted is not None and not admitted(
                    url_strings[antecedent], url_strings[url]
                ):
                    continue
                if credited:
                    credited.add(url)
                else:
                    occurrence[2] = {url}
                key = (antecedent << shift) | url
                count = pair_counts.get(key)
                if count is not None:
                    pair_counts[key] = count + 1
                    continue
                if sampling:
                    # min(1, c / (max(freq, 1) * p_t)), spelt without calls
                    probability = constant / ((occurrences[antecedent] or 1) * threshold)
                    if rng_random() >= (probability if probability < 1.0 else 1.0):
                        self._skipped_pairs += 1
                        continue
                pair_counts[key] = 1
            occurrences[url] += 1
            window.append([timestamp, url, uncredited, url_prefix])

    def probability(self, antecedent: str, consequent: str) -> float:
        ids = self._id_space.urls
        a_id = ids.id_of(antecedent)
        c_id = ids.id_of(consequent)
        if a_id is None or c_id is None or a_id >= len(self._occurrences):
            return 0.0
        occurrences = self._occurrences[a_id]
        if occurrences == 0:
            return 0.0
        return self._pair_counts.get((a_id << self._KEY_SHIFT) | c_id, 0) / occurrences

    def implications(self, threshold: float = 0.0) -> list[Implication]:
        """All implications with probability >= *threshold*, sorted.

        Sorted by antecedent then descending probability, so volume
        construction is deterministic.
        """
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        shift = self._KEY_SHIFT
        mask = (1 << shift) - 1
        strings = self._id_space.urls.strings
        occurrences = self._occurrences
        results = []
        for key, count in self._pair_counts.items():
            antecedent = key >> shift
            occurred = occurrences[antecedent]
            if occurred == 0:
                continue
            probability = count / occurred
            if probability >= threshold:
                results.append(
                    Implication(strings[antecedent], strings[key & mask], probability)
                )
        results.sort(key=lambda imp: (imp.antecedent, -imp.probability, imp.consequent))
        return results


def estimate_pairwise(
    trace: Trace | ChunkedCompiledTrace,
    config: PairwiseConfig = PairwiseConfig(),
) -> PairwiseEstimator:
    """Compile *trace* (memoized) and run the estimator over its records.

    Chunked traces (in-memory or file-backed) are streamed without ever
    materializing the full record set; see :class:`PairwiseEstimator`.
    """
    return PairwiseEstimator(config, id_space=compile_trace(trace)).run()


class ProbabilityVolumes:
    """A frozen mapping resource -> [(consequent, probability), ...].

    This is the *constructed* artifact: built once from an estimator (the
    paper applies a single set of volumes per log) and then queried by the
    server on every request.  Each volume is sorted by descending
    probability, ties by consequent URL.

    Built from a mapping of URL strings it holds those strings.  Built by
    :func:`build_probability_volumes` it holds the estimator's URL ids
    (:meth:`members_on`), and its string view is built on first string
    access, once: concurrent first readers wait for the one view.
    """

    def __init__(self, members: dict[str, list[tuple[str, float]]]):
        self._members: dict[str, list[tuple[str, float]]] | None = {
            url: sorted(pairs, key=lambda p: (-p[1], p[0]))
            for url, pairs in members.items()
            if pairs
        }
        self._ids: dict[int, list[tuple[int, float]]] | None = None
        self._id_space: ChunkedCompiledTrace | None = None
        self._strings_lock = make_lock("ProbabilityVolumes._strings_lock")

    @classmethod
    def _on_ids(
        cls, members: dict[int, list[tuple[int, float]]], id_space: ChunkedCompiledTrace
    ) -> "ProbabilityVolumes":
        """Volumes keyed by *id_space*'s URL ids: no volume empty, each one
        sorted as the artifact sorts it, antecedents in URL string order."""
        volumes = cls({})
        volumes._members = None
        volumes._ids = members
        volumes._id_space = id_space
        return volumes

    def members_on(
        self, id_space: ChunkedCompiledTrace
    ) -> dict[int, list[tuple[int, float]]] | None:
        """The members keyed by URL id when built on *id_space* (by
        identity), else None.  Do not mutate."""
        return self._ids if id_space is self._id_space else None

    def _strings(self) -> dict[str, list[tuple[str, float]]]:
        """The members keyed by URL string, built once from the ids."""
        members = self._members
        if members is None:
            with self._strings_lock:
                members = self._members
                if members is None:
                    assert self._id_space is not None and self._ids is not None
                    urls = self._id_space.urls.strings
                    members = {
                        urls[antecedent]: [(urls[consequent], p) for consequent, p in pairs]
                        for antecedent, pairs in self._ids.items()
                    }
                    self._members = members
        return members

    def _keyed(self) -> dict:
        """The members under whichever keying the artifact holds."""
        return self._ids if self._ids is not None else self._strings()

    def __len__(self) -> int:
        return len(self._keyed())

    def __contains__(self, url: str) -> bool:
        return url in self._strings()

    def members_of(self, url: str) -> list[tuple[str, float]]:
        """The volume of *url*: consequents with probabilities, sorted."""
        return list(self._strings().get(url, ()))

    def antecedents(self) -> set[str]:
        return set(self._strings())

    def implication_count(self) -> int:
        return sum(len(pairs) for pairs in self._keyed().values())

    def filtered(self, keep) -> "ProbabilityVolumes":
        """New volumes keeping only pairs where ``keep(r, s, p)`` is true."""
        return ProbabilityVolumes(
            {
                url: [(s, p) for s, p in pairs if keep(url, s, p)]
                for url, pairs in self._strings().items()
            }
        )

    # --- Section 3.3.2 structural statistics -------------------------------

    def self_membership_fraction(self) -> float:
        """Fraction of antecedents whose volume contains themselves."""
        members = self._strings()
        if not members:
            return 0.0
        selfish = sum(
            1
            for url, pairs in members.items()
            if any(s == url for s, _ in pairs)
        )
        return selfish / len(members)

    def symmetric_fraction(self) -> float:
        """Fraction of implications whose reverse implication also exists."""
        pair_set = {
            (url, s) for url, pairs in self._strings().items() for s, _ in pairs
        }
        if not pair_set:
            return 0.0
        symmetric = sum(1 for (r, s) in pair_set if (s, r) in pair_set)
        return symmetric / len(pair_set)

    def membership_counts(self) -> dict[str, int]:
        """How many distinct volumes each resource appears in."""
        counts: Counter[str] = Counter()
        for pairs in self._strings().values():
            counts.update(consequent for consequent, _ in pairs)
        return counts

    def containing_volumes(self) -> dict[str, tuple[str, ...]]:
        """Reverse index: resource -> antecedents whose volume contains it."""
        containing: dict[str, list[str]] = {}
        for url, pairs in self._strings().items():
            for consequent, _ in pairs:
                containing.setdefault(consequent, []).append(url)
        return {url: tuple(owners) for url, owners in containing.items()}


def _id_volumes(
    estimator: PairwiseEstimator, threshold: float
) -> dict[int, list[tuple[int, float]]]:
    """The estimator's implications at *threshold*, grouped by antecedent id.

    Each volume is sorted by ``(-p, consequent URL)`` and the antecedents
    are in URL order: the order the string-keyed artifact has, so ties
    break by URL string, never by id.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    shift = estimator._KEY_SHIFT
    mask = (1 << shift) - 1
    occurrences = estimator._occurrences
    grouped: dict[int, list[tuple[int, float]]] = {}
    for key, count in estimator._pair_counts.items():
        antecedent = key >> shift
        occurred = occurrences[antecedent]
        if occurred == 0:
            continue
        probability = count / occurred
        if probability >= threshold:
            pairs = grouped.get(antecedent)
            if pairs is None:
                grouped[antecedent] = [(key & mask, probability)]
            else:
                pairs.append((key & mask, probability))
    urls = estimator.id_space.urls.strings
    for pairs in grouped.values():
        pairs.sort(key=lambda pair: (-pair[1], urls[pair[0]]))
    return {
        antecedent: grouped[antecedent] for antecedent in sorted(grouped, key=urls.__getitem__)
    }


def build_probability_volumes(
    estimator: PairwiseEstimator, threshold: float
) -> ProbabilityVolumes:
    """Materialize volumes from an estimator at probability threshold.

    The volumes are keyed by the estimator's URL ids, so a store on the
    estimator's id space serves them without translating.
    """
    return ProbabilityVolumes._on_ids(_id_volumes(estimator, threshold), estimator.id_space)


def build_probability_volumes_multi(
    estimator: PairwiseEstimator,
    thresholds: Iterable[float],
) -> dict[float, ProbabilityVolumes]:
    """Materialize volumes at *all* thresholds from one counter enumeration.

    The counters are grouped once, at the lowest requested threshold;
    since each volume is sorted by descending probability, the volume at
    a higher threshold is a prefix of it.  Results are identical to
    calling :func:`build_probability_volumes` per threshold.
    """
    wanted = sorted(set(thresholds))
    if not wanted:
        return {}
    lowest = _id_volumes(estimator, wanted[0])
    built: dict[float, ProbabilityVolumes] = {}
    for threshold in wanted:
        members: dict[int, list[tuple[int, float]]] = {}
        for antecedent, pairs in lowest.items():
            kept = bisect_right(pairs, -threshold, key=lambda pair: -pair[1])
            if kept:
                members[antecedent] = pairs[:kept]
        built[threshold] = ProbabilityVolumes._on_ids(members, estimator.id_space)
    return built


class ProbabilityVolumeStore(VolumeStore):
    """Serve probability volumes through the :class:`VolumeStore` interface.

    Each antecedent resource gets its own volume id (probability volumes
    are per-resource).  ``observe`` maintains per-resource metadata (size,
    Last-Modified, access counts) used to fill piggyback elements.

    *id_space* supplies the URL ids that key the translated volumes
    (:attr:`members`) and the metadata columns (:attr:`sizes`,
    :attr:`mtimes`, :attr:`access_counts`); the fast replay engine passes
    the compiled trace it replays.  Without one the store grows its own.
    """

    def __init__(
        self, volumes: ProbabilityVolumes, id_space: ChunkedCompiledTrace | None = None
    ):
        self.volumes = volumes
        self._allocator = VolumeIdAllocator()
        # Per-antecedent epochs, bumped only on piggyback-visible changes
        # (a member's size/mtime changed, or a count crossed the ceiling).
        self._epochs: dict[int, int] = {}
        self._bind(
            id_space if id_space is not None
            else growing_id_space("ProbabilityVolumeStore.id_space")
        )

    def _bind(self, id_space: ChunkedCompiledTrace) -> None:
        self._id_space = id_space
        self._type_ids = id_space.content_type_ids()
        self.sizes, self.mtimes, self.access_counts = [], [], []
        self._translate()

    def _translate(self) -> None:
        """Key :attr:`volumes` by id, dropping what the old keying derived.

        Volumes built on this store's id space are adopted as they are.
        """
        members = self.volumes.members_on(self._id_space)
        if members is None:
            ensure = self._id_space.ensure_url
            members = {}
            for url in sorted(self.volumes.antecedents()):
                pairs = [(ensure(consequent), p) for consequent, p in self.volumes.members_of(url)]
                members[ensure(url)] = pairs
        self.members = members
        self._grow()
        # Per-antecedent cached candidate tuples.  A candidate embeds the
        # consequent's size/mtime/access-count, so a cached tuple stays
        # valid until ``observe_id`` changes one of its members — the
        # reverse index (built lazily from the members) finds exactly the
        # antecedents to invalidate instead of flushing everything.
        self._candidate_cache: dict[int, tuple[CandidateElement, ...]] = {}
        self._containing: dict[int, tuple[int, ...]] | None = None

    def _grow(self) -> None:
        """Extend the metadata columns to every id the id space holds."""
        missing = len(self._id_space.urls) - len(self.sizes)
        if missing > 0:
            self.sizes.extend([0] * missing)
            self.mtimes.extend([None] * missing)
            self.access_counts.extend([0] * missing)

    @property
    def id_space(self) -> ChunkedCompiledTrace:
        """The id space whose URL ids :meth:`observe_id` takes."""
        return self._id_space

    def adopt_id_space(self, id_space: ChunkedCompiledTrace) -> None:
        """Move a store that has observed and numbered nothing onto *id_space*.

        Raises ValueError once it has: that state is keyed by the current
        id space's ids.
        """
        if len(self._allocator) or any(self.access_counts):
            raise ValueError("a store holding state cannot change id space")
        self._bind(id_space)

    def volume_count(self) -> int:
        return len(self.volumes)

    def containing(self, url_id: int) -> tuple[int, ...]:
        """Antecedent ids whose volume contains *url_id* (reverse index)."""
        if self._containing is None:
            containing: dict[int, list[int]] = {}
            for antecedent, pairs in self.members.items():
                for consequent, _ in pairs:
                    containing.setdefault(consequent, []).append(antecedent)
            self._containing = {url: tuple(owners) for url, owners in containing.items()}
        return self._containing.get(url_id, ())

    def epoch_of(self, url_id: int) -> int:
        """The epoch of *url_id*'s volume, without the epoch base."""
        return self._epochs.get(url_id, 0)

    def lookup_id(self, url_id: int) -> tuple[int, list[tuple[int, float]]] | None:
        """Volume id and (consequent id, probability) members, or None.

        The id is numbered past the wire's cap: replay never sends it.
        """
        members = self.members.get(url_id)
        if members is None:
            return None
        return self._allocator.index_for(url_id), members

    # -- maintenance ---------------------------------------------------------

    def _url_id(self, url: str) -> int:
        """Intern *url* at the edge, growing the columns to cover it."""
        url_id = self._id_space.ensure_url(url)
        if url_id >= len(self.sizes):
            self._grow()
        return url_id

    def observe(self, record: LogRecord) -> None:
        self.observe_id(self._url_id(record.url), record.size, record.last_modified)

    def observe_id(
        self, url_id: int, size: int, last_modified: float | None = None
    ) -> None:
        """Account one request for the URL with id *url_id* in :attr:`id_space`."""
        visible = False
        if size and self.sizes[url_id] != size:
            self.sizes[url_id] = size
            visible = True
        if last_modified is not None and self.mtimes[url_id] != last_modified:
            self.mtimes[url_id] = last_modified
            visible = True
        count = self.access_counts[url_id] + 1
        self.access_counts[url_id] = count
        # The access count changed, so cached tuples embedding this
        # resource are stale; volumes not containing it stay cached.
        if self._candidate_cache:
            cache = self._candidate_cache
            for antecedent in self.containing(url_id):
                cache.pop(antecedent, None)
        if visible or count <= self._count_ceiling:
            epochs = self._epochs
            for antecedent in self.containing(url_id):
                epochs[antecedent] = epochs.get(antecedent, 0) + 1

    # -- reads -----------------------------------------------------------------

    def lookup_version(self, url: str) -> VolumeVersion | None:
        url_id = self._id_space.urls.id_of(url)
        if url_id not in self.members:
            return None
        return VolumeVersion(
            self._allocator.id_for(url_id), self._epoch_base + self._epochs.get(url_id, 0)
        )

    def lookup(self, url: str) -> VolumeLookup | None:
        url_id = self._id_space.urls.id_of(url)
        candidates = self._candidate_cache.get(url_id)
        if candidates is None:
            members = self.members.get(url_id)
            if members is None:
                return None
            urls = self._id_space.urls.strings
            types = self._id_space.content_types.strings
            mtimes = self.mtimes
            candidates = tuple(
                CandidateElement(
                    url=urls[consequent],
                    last_modified=mtimes[consequent] if mtimes[consequent] is not None else 0.0,
                    size=self.sizes[consequent],
                    access_count=self.access_counts[consequent],
                    probability=probability,
                    content_type=types[self._type_ids[consequent]],
                )
                for consequent, probability in members
            )
            self._candidate_cache[url_id] = candidates
        return VolumeLookup(
            volume_id=self._allocator.id_for(url_id), candidates=candidates
        )
