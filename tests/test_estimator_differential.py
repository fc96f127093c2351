"""The pairwise estimator against the frozen string-keyed oracle.

``probability_oracle.PairwiseEstimator`` is the string-keyed estimator the
id-space one replaced.  Fed one multi-chunk internet trace, the id-space
estimator's :meth:`~repro.volumes.probability.PairwiseEstimator.run` —
streamed in small chunks, with idle windows pruned — must reach the
oracle's exact state: pair counters (in creation order), occurrences,
sampling skips, RNG state, and the same ``capture_estimator_state``
document.  The grid covers every same-directory level the scan tests
first, counter sampling on and off, and a ``pair_admitted`` predicate.
A restore-and-continue must land on the same state too.
"""

from __future__ import annotations

import json

import pytest

import probability_oracle
from repro.traces.intern import ChunkedCompiledTrace
from repro.volumes.probability import PairwiseConfig, PairwiseEstimator
from repro.volumes.state import capture_estimator_state, restore_estimator_state
from repro.workloads.internet import InternetConfig, generate_internet_stream

WINDOW = 30.0
CHUNK_RECORDS = 97
PRUNE_INTERVAL = 128


def _no_images_after_pages(antecedent: str, consequent: str) -> bool:
    return not (antecedent.endswith(".html") and consequent.endswith(".gif"))


CONFIGS = {
    f"level={level},sampled={sampled}": PairwiseConfig(
        window=WINDOW,
        same_directory_level=level,
        sample_counters=sampled,
        sampling_constant=1.0,
        sampling_threshold=0.2,
        seed=7,
    )
    for level in (None, 0, 1, 2)
    for sampled in (False, True)
}
CONFIGS["admitted"] = PairwiseConfig(
    window=WINDOW,
    same_directory_level=1,
    sample_counters=True,
    sampling_constant=1.0,
    sampling_threshold=0.2,
    pair_admitted=_no_images_after_pages,
    seed=7,
)


@pytest.fixture(scope="module")
def records():
    config = InternetConfig(record_count=2_500, origin_count=4, client_count=400,
                            sessions_per_second=0.5, bot_fraction=0.2, seed=19)
    return list(generate_internet_stream(config))


def _document(payload) -> dict:
    """A payload as it comes back from disk."""
    return json.loads(json.dumps(payload))


def _live_windows(document: dict, now: float) -> dict:
    """*document* without window entries that have aged out at *now*.

    The oracle keeps a source's stale entries until that source's next
    request; the streaming estimator may drop the whole window earlier.
    Both behave identically from then on, so the comparison is on the
    entries still inside the window.
    """
    cutoff = now - WINDOW
    windows = {}
    for source, entries in document["windows"].items():
        live = [entry for entry in entries if entry[0] >= cutoff]
        if live:
            windows[source] = live
    return {**document, "windows": windows}


def _oracle(config, records) -> probability_oracle.PairwiseEstimator:
    oracle = probability_oracle.PairwiseEstimator(config)
    oracle.observe_trace(records)
    return oracle


def _assert_same_state(estimator, oracle, now: float) -> None:
    assert estimator.counter_count == oracle.counter_count
    assert estimator.skipped_pair_events == oracle.skipped_pair_events
    assert estimator._rng.getstate() == oracle._rng.getstate()
    ours = _document(capture_estimator_state(estimator))
    theirs = _document(probability_oracle.capture_estimator_state(oracle))
    assert _live_windows(ours, now) == _live_windows(theirs, now)
    # Everything else is equal as captured, pair counters in creation order.
    assert {**ours, "windows": None} == {**theirs, "windows": None}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_matches_the_oracle(records, name, monkeypatch):
    config = CONFIGS[name]
    monkeypatch.setattr(PairwiseEstimator, "PRUNE_INTERVAL_RECORDS", PRUNE_INTERVAL)
    pruned: list[float] = []
    original = PairwiseEstimator._prune_windows

    def spy(self, now):
        pruned.append(now)
        return original(self, now)

    monkeypatch.setattr(PairwiseEstimator, "_prune_windows", spy)
    chunked = ChunkedCompiledTrace.from_records(records, chunk_records=CHUNK_RECORDS)
    estimator = PairwiseEstimator(config, id_space=chunked).run()
    assert pruned, "run never pruned"
    oracle = _oracle(config, records)
    _assert_same_state(estimator, oracle, records[-1].timestamp)
    assert estimator.implications(0.0) == oracle.implications(0.0)
    for url in {record.url for record in records}:
        assert estimator.occurrence_count(url) == oracle.occurrence_count(url)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_unpruned_capture_is_the_oracle_document(records, name):
    config = CONFIGS[name]
    chunked = ChunkedCompiledTrace.from_records(records, chunk_records=CHUNK_RECORDS)
    estimator = PairwiseEstimator(config, id_space=chunked).run()
    document = _document(capture_estimator_state(estimator))
    assert document == _document(
        probability_oracle.capture_estimator_state(_oracle(config, records))
    )
    # The parent's layout: three-element entries, [] for no credit yet.
    entries = [entry for window in document["windows"].values() for entry in window]
    assert entries and all(len(entry) == 3 for entry in entries)
    assert any(entry[2] == [] for entry in entries)
    assert any(entry[2] for entry in entries)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_restore_and_continue_matches_the_oracle(records, name, monkeypatch):
    config = CONFIGS[name]
    monkeypatch.setattr(PairwiseEstimator, "PRUNE_INTERVAL_RECORDS", PRUNE_INTERVAL)
    half = len(records) // 2
    chunked = ChunkedCompiledTrace.from_records(records, chunk_records=CHUNK_RECORDS)
    first = PairwiseEstimator(config, id_space=chunked).run(half)
    resumed = PairwiseEstimator(config)
    restore_estimator_state(resumed, _document(capture_estimator_state(first)))
    assert _document(capture_estimator_state(resumed)) == _document(
        capture_estimator_state(first)
    )
    resumed.observe_trace(records[half:])
    oracle = _oracle(config, records)
    _assert_same_state(resumed, oracle, records[-1].timestamp)
    assert resumed.implications(0.0) == oracle.implications(0.0)
