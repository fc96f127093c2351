"""Semantics tests for the piggyback replay engine.

These use tiny hand-built traces where every counter value can be derived
by hand from the Section 3.1 definitions.  Every trace also runs through
the frozen reference replay on the frozen directory store, which must
agree exactly.
"""

import pytest

import directory_oracle
import replay_oracle
from repro.analysis.prediction import ReplayConfig, replay
from repro.traces.records import Trace
from repro.volumes.directory import DirectoryVolumeConfig, DirectoryVolumeStore

from conftest import make_record


def run(records, config=None, level=1):
    config = config or ReplayConfig()
    volumes = DirectoryVolumeConfig(level=level, partition_by_type=False)
    metrics = replay(Trace(records), DirectoryVolumeStore(volumes), config)
    oracle_store = directory_oracle.DirectoryVolumeStore(volumes)
    assert replay_oracle.replay(Trace(records), oracle_store, config) == metrics
    return metrics


class TestBasicAccounting:
    def trace_a(self):
        return [
            make_record(0.0, "s", "h/d/a"),
            make_record(1.0, "s", "h/d/b"),
            make_record(2.0, "s", "h/d/a"),
            make_record(3.0, "s", "h/d/c"),
        ]

    def test_request_and_message_counts(self):
        metrics = run(self.trace_a())
        assert metrics.requests == 4
        # t=0 produces no message (volume holds only the requested URL);
        # t=1 -> [a], t=2 -> [b], t=3 -> [a, b].
        assert metrics.piggyback_messages == 3
        assert metrics.piggyback_elements == 4

    def test_fraction_predicted(self):
        metrics = run(self.trace_a())
        # Only the t=2 request for a follows a piggyback carrying a.
        assert metrics.predicted_requests == 1
        assert metrics.fraction_predicted == pytest.approx(1 / 4)

    def test_true_prediction_accounting(self):
        metrics = run(self.trace_a())
        # Opened: a@1, b@2, a@3.  True: only a@1 (a requested at t=2).
        assert metrics.predictions_opened == 3
        assert metrics.predictions_true == 1
        assert metrics.true_prediction_fraction == pytest.approx(1 / 3)

    def test_recent_previous_occurrence(self):
        metrics = run(self.trace_a())
        assert metrics.prev_occurrence_within_history == 1
        assert metrics.prev_occurrence_recent == 1
        assert metrics.updated_by_piggyback == 0

    def test_mean_piggyback_size(self):
        metrics = run(self.trace_a())
        assert metrics.mean_piggyback_size == pytest.approx(4 / 3)

    def test_piggyback_bytes_positive(self):
        metrics = run(self.trace_a())
        assert metrics.piggyback_bytes > 0


class TestPredictionWindow:
    def test_prediction_expires_after_window(self):
        records = [
            make_record(0.0, "s", "h/d/a"),
            make_record(1.0, "s", "h/d/b"),       # piggybacks [a]
            make_record(1.0 + 301.0, "s", "h/d/a"),  # beyond T=300
        ]
        metrics = run(records)
        assert metrics.predicted_requests == 0
        assert metrics.predictions_true == 0

    def test_prediction_exactly_at_window_counts(self):
        records = [
            make_record(0.0, "s", "h/d/a"),
            make_record(1.0, "s", "h/d/b"),
            make_record(301.0, "s", "h/d/a"),  # exactly T after the carry
        ]
        metrics = run(records)
        assert metrics.predicted_requests == 1
        assert metrics.predictions_true == 1


class TestUpdateFraction:
    def test_piggyback_updates_older_cached_copy(self):
        records = [
            make_record(0.0, "s", "h/d/a"),
            make_record(1000.0, "s", "h/d/b"),   # piggybacks [a]
            make_record(1100.0, "s", "h/d/a"),   # predicted + old prev occ
        ]
        metrics = run(records)
        assert metrics.predicted_requests == 1
        assert metrics.prev_occurrence_within_history == 1
        assert metrics.prev_occurrence_recent == 0
        assert metrics.updated_by_piggyback == 1
        assert metrics.update_fraction == pytest.approx(1 / 3)

    def test_prev_occurrence_beyond_history_window_ignored(self):
        records = [
            make_record(0.0, "s", "h/d/a"),
            make_record(10_000.0, "s", "h/d/b"),
            make_record(10_100.0, "s", "h/d/a"),  # prev occ 10100s > C=7200
        ]
        metrics = run(records)
        assert metrics.prev_occurrence_within_history == 0
        assert metrics.updated_by_piggyback == 0


class TestDeduplication:
    def test_redundant_carry_opens_no_new_prediction(self):
        records = [
            make_record(0.0, "s", "h/d/a"),
            make_record(1.0, "s", "h/d/b"),  # carries [a]: opens a
            make_record(2.0, "s", "h/d/c"),  # carries [a, b]: a redundant, b new
        ]
        metrics = run(records)
        assert metrics.predictions_opened == 2  # a@1 and b@2 only

    def test_carry_refreshes_prediction_window_for_recall(self):
        records = [
            make_record(0.0, "s", "h/d/a"),
            make_record(1.0, "s", "h/d/b"),    # carries [a]
            make_record(200.0, "s", "h/d/c"),  # carries [a, b] again
            make_record(450.0, "s", "h/d/a"),  # within T of the t=200 carry
        ]
        metrics = run(records)
        assert metrics.predicted_requests == 1

    def test_request_consumes_prediction(self):
        records = [
            make_record(0.0, "s", "h/d/a"),
            make_record(1.0, "s", "h/d/b"),   # carries [a]
            make_record(2.0, "s", "h/d/a"),   # consumes the prediction
            make_record(3.0, "s", "h/d/a"),   # no carry since => not predicted
        ]
        metrics = run(records)
        assert metrics.predicted_requests == 1


class TestSourceIsolation:
    def test_piggybacks_are_per_source(self):
        records = [
            make_record(0.0, "s1", "h/d/a"),
            make_record(1.0, "s1", "h/d/b"),  # piggyback to s1 carries a
            make_record(2.0, "s2", "h/d/a"),  # s2 never received a piggyback
        ]
        metrics = run(records)
        assert metrics.predicted_requests == 0


class TestFilters:
    def test_access_filter_uses_whole_trace_counts(self):
        records = [
            make_record(0.0, "s", "h/d/a"),
            make_record(1.0, "s", "h/d/b"),
            make_record(2.0, "s", "h/d/a"),
            make_record(3.0, "s", "h/d/a"),
        ]
        # a occurs 3 times, b once: filter=2 keeps only a as a candidate.
        metrics = run(records, ReplayConfig(access_filter=2))
        assert metrics.piggyback_elements == metrics.piggyback_messages  # all [a]

    def test_online_access_filter(self):
        records = [
            make_record(0.0, "s", "h/d/a"),
            make_record(1.0, "s", "h/d/b"),
        ]
        metrics = run(records, ReplayConfig(access_filter=2, precount_accesses=False))
        # At t=1, a's online count is 1 < 2: nothing passes the filter.
        assert metrics.piggyback_messages == 0

    def test_max_elements_caps_messages(self):
        records = [make_record(float(i), "s", f"h/d/u{i}") for i in range(10)]
        metrics = run(records, ReplayConfig(max_elements=3))
        assert metrics.mean_piggyback_size <= 3.0

    def test_rpv_min_gap_suppresses_repeats(self):
        records = [
            make_record(0.0, "s", "h/d/a"),
            make_record(1.0, "s", "h/d/b"),   # message (records volume in RPV)
            make_record(2.0, "s", "h/d/c"),   # suppressed: within 30 s gap
            make_record(40.0, "s", "h/d/d"),  # allowed: gap expired
        ]
        metrics = run(records, ReplayConfig(rpv_min_gap=30.0))
        assert metrics.piggyback_messages == 2

    def test_rpv_gap_zero_means_off(self):
        records = [
            make_record(0.0, "s", "h/d/a"),
            make_record(1.0, "s", "h/d/b"),
            make_record(2.0, "s", "h/d/c"),
        ]
        without = run(records, ReplayConfig(rpv_min_gap=None))
        zero = run(records, ReplayConfig(rpv_min_gap=0.0))
        assert zero.piggyback_messages == without.piggyback_messages == 2


class TestWarmup:
    def test_measure_after_skips_early_requests(self):
        records = [
            make_record(0.0, "s", "h/d/a"),
            make_record(1.0, "s", "h/d/b"),
            make_record(2.0, "s", "h/d/a"),
            make_record(1000.0, "s", "h/d/c"),
        ]
        metrics = run(records, ReplayConfig(measure_after=500.0))
        assert metrics.requests == 1  # only the t=1000 request is measured


class TestValidation:
    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            ReplayConfig(prediction_window=0.0)
        with pytest.raises(ValueError):
            ReplayConfig(prediction_window=100.0, history_window=50.0)
        with pytest.raises(ValueError):
            ReplayConfig(recent_window=1e9)
        with pytest.raises(ValueError):
            ReplayConfig(access_filter=-1)
        with pytest.raises(ValueError):
            ReplayConfig(rpv_min_gap=-1.0)

    def test_element_cap_and_rpv_length_validated_up_front(self):
        # A negative cap used to cap every piggyback at one element, and an
        # empty RPV list failed mid-replay, on the first lookup.
        with pytest.raises(ValueError, match="max_elements"):
            ReplayConfig(max_elements=-1)
        with pytest.raises(ValueError, match="rpv_max_entries"):
            ReplayConfig(rpv_max_entries=0)
        assert ReplayConfig(max_elements=0, rpv_max_entries=1).max_elements == 0
