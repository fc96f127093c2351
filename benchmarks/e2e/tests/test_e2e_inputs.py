"""Same seed, same inputs; another seed, other inputs."""

import inputs
import workloads


def _streams(name, seed):
    return workloads.request_streams(workloads.WORKLOADS[name], seed)


def test_same_seed_gives_identical_request_streams():
    for name in ("origin_hot", "origin_churn", "proxy_chain"):
        assert _streams(name, 7) == _streams(name, 7)


def test_another_seed_gives_another_request_stream():
    for name in ("origin_hot", "origin_churn", "proxy_chain"):
        assert _streams(name, 7) != _streams(name, 8)


def test_streams_have_the_declared_size_and_connections():
    for name in ("origin_hot", "origin_churn"):
        workload = workloads.WORKLOADS[name]
        streams = _streams(name, 0)
        assert len(streams) == workloads.CONNECTIONS
        assert sum(len(s) for s in streams) == workload.pass_requests


def test_arrival_schedule_is_seeded_increasing_and_at_rate():
    open_loop = workloads.WORKLOADS["origin_open"]
    first = workloads.arrival_schedules(open_loop, 3, 0)
    assert first == workloads.arrival_schedules(open_loop, 3, 0)
    assert first != workloads.arrival_schedules(open_loop, 4, 0)
    assert first != workloads.arrival_schedules(open_loop, 3, 1)
    merged = sorted(offset for schedule in first for offset in schedule)
    assert all(a < b for a, b in zip(merged, merged[1:]))
    achieved = len(merged) / merged[-1]
    assert abs(achieved - open_loop.rate) / open_loop.rate < 0.1
    assert workloads.arrival_schedules(workloads.WORKLOADS["origin_hot"], 3, 0) is None


def test_churn_filters_all_occur_and_popularity_is_not_seeded():
    streams = inputs.zipf_stream(1, 2, 600)
    seen = {spec.piggy_filter for stream in streams for spec in stream}
    assert seen == set(inputs.CHURN_FILTERS)

    def hottest(seed):
        counts = {}
        for stream in inputs.zipf_stream(seed, 2, 2000):
            for spec in stream:
                counts[spec.url] = counts.get(spec.url, 0) + 1
        return max(counts, key=counts.get)

    assert hottest(1) == hottest(2)
