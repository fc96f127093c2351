"""Unit tests for replay bookkeeping structures."""

from replay_windows import SourceState, TimestampMap


class TestTimestampMap:
    def test_record_and_last(self):
        tmap = TimestampMap()
        tmap.record("h/a", 10.0)
        assert tmap.last("h/a") == 10.0
        assert tmap.last("h/b") is None
        assert len(tmap) == 1

    def test_within_is_half_open_on_the_left(self):
        tmap = TimestampMap()
        tmap.record("h/a", 10.0)
        assert tmap.within("h/a", now=310.0, window=300.0)  # exactly T apart
        assert not tmap.within("h/a", now=310.1, window=300.0)

    def test_age(self):
        tmap = TimestampMap()
        tmap.record("h/a", 10.0)
        assert tmap.age("h/a", 25.0) == 15.0
        assert tmap.age("h/b", 25.0) is None

    def test_forget(self):
        tmap = TimestampMap()
        tmap.record("h/a", 10.0)
        tmap.forget("h/a")
        assert tmap.last("h/a") is None
        tmap.forget("h/never")  # no-op


class TestSourceState:
    def test_prediction_lifecycle_true(self):
        state = SourceState()
        state.open_prediction("h/a", 100.0)
        assert state.resolve_prediction("h/a", 150.0, window=300.0)
        # Resolution pops the pending entry.
        assert not state.resolve_prediction("h/a", 151.0, window=300.0)

    def test_prediction_lifecycle_expired(self):
        state = SourceState()
        state.open_prediction("h/a", 100.0)
        assert not state.resolve_prediction("h/a", 500.0, window=300.0)

    def test_resolution_without_prediction(self):
        assert not SourceState().resolve_prediction("h/a", 0.0, window=10.0)
