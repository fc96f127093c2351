"""The harness leaves no child alive and no scratch directory behind."""

import os

import pytest

import procs
import workloads


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_children_and_scratch_are_gone_after_success():
    with procs.Harness() as harness:
        stack = workloads.start_stack(harness, workloads.WORKLOADS["origin_hot"])
        pids = [child.pid for child in stack.children]
        scratch = harness.workdir
        assert scratch.is_dir() and all(_alive(pid) for pid in pids)
        sample = stack.origin.sample()
        assert sample.peak_rss_mb > 1.0
    assert not any(_alive(pid) for pid in pids)
    assert not scratch.exists()


def test_children_are_gone_after_a_failure_inside_the_block():
    pids = []
    with pytest.raises(RuntimeError, match="boom"):
        with procs.Harness() as harness:
            stack = workloads.start_stack(harness, workloads.WORKLOADS["proxy_chain"])
            pids = [child.pid for child in stack.children]
            assert len(pids) == 2
            raise RuntimeError("boom")
    assert pids and not any(_alive(pid) for pid in pids)


def test_cpu_between_never_runs_backwards():
    with procs.Harness() as harness:
        stack = workloads.start_stack(harness, workloads.WORKLOADS["origin_hot"])
        first = stack.origin.sample()
        second = stack.origin.sample()
        assert procs.ProcSample.cpu_between(first, second) >= 0.0
        assert procs.ProcSample.cpu_between(first, first) == 0.0
