"""Every workload runs at a tiny size, passes its checks, and emits
exactly the declared metrics."""

import dataclasses
import math

import pytest

import measure
import trace
import workloads

TINY = {"pass_requests": 1000, "setup_repeats": 1}
TINY_OFFLINE = {"replay_stream": 4000, "sweep_inmem": 0.12}


def tiny(name: str) -> workloads.Workload:
    workload = workloads.WORKLOADS[name]
    if workload.kind == "wire":
        return dataclasses.replace(workload, **TINY)
    return dataclasses.replace(workload, setup_repeats=1, offline_size=TINY_OFFLINE[name])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_smoke(name):
    result = measure.run_untraced(tiny(name), seed=5, seconds=0.1, sut_cpus=set())
    assert result.correct, result.failure_reasons
    assert list(result.metrics) == list(measure.END_TO_END)
    for metric, value in result.metrics.items():
        assert math.isfinite(value) and value > 0, (metric, value)
    assert result.details["passes"] >= 1


def test_a_failed_output_check_makes_the_run_incorrect(monkeypatch):
    import checks

    monkeypatch.setattr(checks, "synthetic_body", lambda url, size: b"not the body")
    result = measure.run_untraced(tiny("origin_hot"), seed=5, seconds=0.1, sut_cpus=set())
    assert not result.correct
    assert result.failure_reasons.get("body", 0) > 0


def test_traced_smoke_emits_every_layer_metric_and_spans():
    tracer = trace.Tracer("smoke")
    result = measure.run_traced(tiny("origin_churn"), seed=5, seconds=0.1,
                                sut_cpus=set(), tracer=tracer)
    assert result.correct, result.failure_reasons
    assert list(result.metrics) == list(measure.PER_LAYER)
    for name, unit in measure.PER_LAYER.items():
        if unit in ("us", "s", "ms"):
            assert result.metrics[name] > 0, name
    assert result.metrics["server.cache_hit_ratio"] < 0.15
    assert result.metrics["server.journal_bytes_per_request"] > 0
    names = {span["name"] for span in tracer.spans}
    assert {"client.request", "server.handle.miss", "volumes.observe"} <= names
    run = next(s for s in tracer.spans if s["name"].startswith("run:"))
    assert 0 <= tracer.self_time(run["span_id"]) <= run["end"] - run["start"]
