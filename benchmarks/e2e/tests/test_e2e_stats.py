"""The percentile rule and the summary arithmetic."""

import statistics

import pytest

import stats


def test_tail_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        stats.percentile(list(range(999)), 99.0)  # 9.99 beyond
    assert stats.percentile(list(range(1000)), 99.0) == pytest.approx(989.01)
    with pytest.raises(ValueError):
        stats.percentile(list(range(3200)), 99.9)  # 3.2 beyond: p99.9 does not qualify
    assert stats.percentile(list(range(3200)), 99.0) > 3100


def test_median_is_allowed_on_few_samples():
    assert stats.percentile([3.0, 1.0, 2.0], 50.0) == 2.0
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


def test_summarize_matches_statistics_quantiles():
    values = [5.0, 7.0, 6.0, 9.0, 8.0, 30.0]
    summary = stats.summarize(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert summary["median"] == statistics.median(values)
    assert (summary["q1"], summary["q3"]) == (q1, q3)
    assert summary["spread"] == pytest.approx((q3 - q1) / summary["median"])
    assert summary["values"] == values


def test_steal_ratio_reads_and_degrades():
    before = stats.HostCpu(total=1000, steal=10)
    after = stats.HostCpu(total=2000, steal=110)
    assert stats.HostCpu.steal_ratio(before, after) == pytest.approx(0.1)
    assert stats.HostCpu.steal_ratio(after, after) == 0.0
    live = stats.HostCpu.read()
    assert live.total >= 0 and live.steal >= 0
