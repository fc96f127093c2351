"""Tests for the interprocedural flow layer: call graph + flow-* passes.

Each pass gets a seeded-bug fixture (a miniature ``src/repro`` tree with
a violation hidden one or more calls deep) plus negative and suppression
cases; the call graph itself is covered through alias resolution, CHA
dispatch, and the DOT export. Finally the real repository must be clean
under ``--interprocedural`` — the same gate CI enforces.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.devtools.flow import build_callgraph
from repro.devtools.flow.rules import (
    FlowBlockingReachableRule,
    FlowDeterminismTaintRule,
    FlowLockAcrossBlockingRule,
)
from repro.devtools.lint import Policy, load_builtin_rules, run_lint
from repro.devtools.lint.engine import LintReport, _parse_modules, collect_files

REPO_ROOT = Path(__file__).resolve().parent.parent

load_builtin_rules()


def write_tree(tmp_path: Path, files: dict[str, str]) -> list[Path]:
    paths = []
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        paths.append(path)
    return paths


def flow_lint(tmp_path: Path, files: dict[str, str], rule) -> "LintReport":
    paths = write_tree(tmp_path, files)
    return run_lint(
        tmp_path,
        paths,
        policy=Policy.everywhere(),
        rules=[rule],
        interprocedural=True,
    )


def graph_for(tmp_path: Path, files: dict[str, str]):
    paths = write_tree(tmp_path, files)
    scratch = LintReport()
    modules = _parse_modules(tmp_path, [p.resolve() for p in paths], scratch)
    assert not scratch.parse_errors
    return build_callgraph(modules)


# -- call graph ----------------------------------------------------------


def test_callgraph_resolves_aliased_module_function(tmp_path):
    graph = graph_for(
        tmp_path,
        {
            "src/pkg/__init__.py": "",
            "src/pkg/util.py": """
                def helper():
                    return 1
            """,
            "src/pkg/main.py": """
                from . import util as u

                def entry():
                    return u.helper()
            """,
        },
    )
    sites = graph.sites("pkg.main.entry")
    assert any("pkg.util.helper" in site.targets for site in sites)


def test_callgraph_cha_dispatch_reaches_override(tmp_path):
    graph = graph_for(
        tmp_path,
        {
            "src/pkg/__init__.py": "",
            "src/pkg/base.py": """
                class Store:
                    def observe(self):
                        return 0
            """,
            "src/pkg/impl.py": """
                from .base import Store

                class JournaledStore(Store):
                    def observe(self):
                        return 1
            """,
            "src/pkg/user.py": """
                from .base import Store

                class Server:
                    def __init__(self, store: Store):
                        self.store = store

                    def handle(self):
                        self.store.observe()
            """,
        },
    )
    sites = graph.sites("pkg.user.Server.handle")
    targets = {t for site in sites for t in site.targets}
    # CHA: both the static type's method and the subclass override.
    assert "pkg.base.Store.observe" in targets
    assert "pkg.impl.JournaledStore.observe" in targets


def test_callgraph_thread_target_creates_no_edge(tmp_path):
    graph = graph_for(
        tmp_path,
        {
            "src/pkg/__init__.py": "",
            "src/pkg/bg.py": """
                import threading

                def work():
                    return 1

                def spawn():
                    thread = threading.Thread(target=work)
                    thread.start()
            """,
        },
    )
    targets = {t for site in graph.sites("pkg.bg.spawn") for t in site.targets}
    assert "pkg.bg.work" not in targets


def test_callgraph_dot_export(tmp_path):
    graph = graph_for(
        tmp_path,
        {
            "src/pkg/__init__.py": "",
            "src/pkg/m.py": """
                def a():
                    return b()

                def b():
                    return 2
            """,
        },
    )
    dot = graph.to_dot()
    assert dot.startswith("digraph callgraph {")
    assert '"pkg.m.a" -> "pkg.m.b";' in dot


# -- flow-blocking-reachable ---------------------------------------------


_AIO_BLOCKING_TREE = {
    "src/repro/httpwire/aio/__init__.py": "",
    "src/repro/httpwire/aio/helpers.py": """
        import time


        def flush_stats():
            # Innocent-looking sync helper; the block hides here.
            time.sleep(0.5)
    """,
    "src/repro/httpwire/aio/server.py": """
        from .helpers import flush_stats


        async def handle_request(request):
            flush_stats()
            return request
    """,
}


def test_blocking_reachable_seeded_chain(tmp_path):
    report = flow_lint(tmp_path, _AIO_BLOCKING_TREE, FlowBlockingReachableRule())
    assert [f.rule for f in report.findings] == ["flow-blocking-reachable"]
    finding = report.findings[0]
    assert "time.sleep()" in finding.message
    assert "handle_request" in finding.message
    # Evidence: the call in the coroutine, then the blocking site.
    assert len(finding.evidence) == 2
    assert finding.evidence[0].startswith("src/repro/httpwire/aio/server.py:")
    assert finding.evidence[1].startswith("src/repro/httpwire/aio/helpers.py:")


def test_blocking_reachable_protocol_callback_root(tmp_path):
    report = flow_lint(
        tmp_path,
        {
            "src/repro/httpwire/aio/__init__.py": "",
            "src/repro/httpwire/aio/proto.py": """
                import asyncio
                import os


                def sync_fsync(fd):
                    os.fsync(fd)


                class WireProtocol(asyncio.BufferedProtocol):
                    def buffer_updated(self, nbytes):
                        sync_fsync(3)
            """,
        },
        FlowBlockingReachableRule(),
    )
    assert [f.rule for f in report.findings] == ["flow-blocking-reachable"]
    assert "buffer_updated" in report.findings[0].message


def test_blocking_reachable_offloaded_is_clean(tmp_path):
    report = flow_lint(
        tmp_path,
        {
            "src/repro/httpwire/aio/__init__.py": "",
            "src/repro/httpwire/aio/clean.py": """
                import asyncio
                import time


                def flush_stats():
                    time.sleep(0.5)


                async def handle_request(request):
                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(None, flush_stats)
                    return request
            """,
        },
        FlowBlockingReachableRule(),
    )
    assert report.findings == []


def test_blocking_reachable_frame_suppression(tmp_path):
    tree = dict(_AIO_BLOCKING_TREE)
    tree["src/repro/httpwire/aio/helpers.py"] = """
        import time


        def flush_stats():
            # repro: allow[flow-blocking-reachable]
            time.sleep(0.5)
    """
    report = flow_lint(tmp_path, tree, FlowBlockingReachableRule())
    # The waiver sits on a deep frame, not the anchor — it still wins.
    assert report.findings == []
    assert report.suppressed == 1


# -- flow-lock-across-blocking -------------------------------------------


_LOCK_FSYNC_TREE = {
    "src/repro/server/__init__.py": "",
    "src/repro/server/journal.py": """
        import os


        def append_frame(fd, frame):
            os.write(fd, frame)
            os.fsync(fd)
    """,
    "src/repro/server/store.py": """
        import threading

        from .journal import append_frame


        class Store:
            def __init__(self):
                self._lock = threading.Lock()

            def observe(self, fd, frame):
                with self._lock:
                    append_frame(fd, frame)
    """,
}


def test_lock_across_blocking_seeded_chain(tmp_path):
    report = flow_lint(tmp_path, _LOCK_FSYNC_TREE, FlowLockAcrossBlockingRule())
    assert [f.rule for f in report.findings] == ["flow-lock-across-blocking"]
    finding = report.findings[0]
    assert "self._lock" in finding.message
    assert "os.fsync()" in finding.message
    assert len(finding.evidence) == 2


def test_lock_across_blocking_depth_zero_not_duplicated(tmp_path):
    # Direct blocking inside the with-block is the locks family's job;
    # the flow pass only reports chains of depth >= 1.
    report = flow_lint(
        tmp_path,
        {
            "src/repro/server/__init__.py": "",
            "src/repro/server/direct.py": """
                import os
                import threading

                _lock = threading.Lock()


                def observe(fd):
                    with _lock:
                        os.fsync(fd)
            """,
        },
        FlowLockAcrossBlockingRule(),
    )
    assert report.findings == []


def test_await_under_sync_lock_flagged(tmp_path):
    report = flow_lint(
        tmp_path,
        {
            "src/repro/server/__init__.py": "",
            "src/repro/server/aio_mix.py": """
                import asyncio
                import threading

                _lock = threading.Lock()


                async def refresh(snapshots):
                    with _lock:
                        await snapshots.reload()
            """,
        },
        FlowLockAcrossBlockingRule(),
    )
    assert [f.rule for f in report.findings] == ["flow-lock-across-blocking"]
    assert "awaits while holding sync lock" in report.findings[0].message


def test_async_with_asyncio_lock_is_clean(tmp_path):
    report = flow_lint(
        tmp_path,
        {
            "src/repro/server/__init__.py": "",
            "src/repro/server/aio_ok.py": """
                import asyncio

                _lock = asyncio.Lock()


                async def refresh(snapshots):
                    async with _lock:
                        await snapshots.reload()
            """,
        },
        FlowLockAcrossBlockingRule(),
    )
    assert report.findings == []


# -- flow-determinism-taint ----------------------------------------------


def test_determinism_taint_seeded_chain(tmp_path):
    report = flow_lint(
        tmp_path,
        {
            "src/repro/httpmodel/__init__.py": "",
            "src/repro/httpmodel/clockutil.py": """
                import time


                def stamp():
                    return time.time()
            """,
            "src/repro/httpmodel/piggy_codec.py": """
                from .clockutil import stamp


                def format_p_volume(message):
                    return f"id={message.volume_id}; t={stamp()}"
            """,
        },
        FlowDeterminismTaintRule(),
    )
    assert [f.rule for f in report.findings] == ["flow-determinism-taint"]
    finding = report.findings[0]
    assert "time.time()" in finding.message
    assert "piggyback trailer bytes" in finding.message
    # Chain: the call in the codec, then the wall-clock read.
    assert len(finding.evidence) == 2


def test_determinism_taint_wall_clock_into_replay_metrics(tmp_path):
    report = flow_lint(
        tmp_path,
        {
            "src/repro/analysis/__init__.py": "",
            "src/repro/analysis/metrics.py": """
                class ReplayMetrics:
                    def __init__(self):
                        self.requests = 0
            """,
            "src/repro/analysis/clockutil.py": """
                import time


                def stamp():
                    return time.time()
            """,
            "src/repro/analysis/fastreplay.py": """
                from .clockutil import stamp
                from .metrics import ReplayMetrics


                def score(count):
                    metrics = ReplayMetrics()
                    metrics.requests = count + int(stamp())
                    return metrics
            """,
        },
        FlowDeterminismTaintRule(),
    )
    assert [f.rule for f in report.findings] == ["flow-determinism-taint"]
    finding = report.findings[0]
    assert "replay metrics" in finding.message
    assert "time.time()" in finding.message


def test_determinism_taint_tainted_argument_into_sink(tmp_path):
    report = flow_lint(
        tmp_path,
        {
            "src/repro/httpmodel/__init__.py": "",
            "src/repro/httpmodel/piggy_codec.py": """
                def format_p_volume(message):
                    return f"id={message}"
            """,
            "src/repro/httpmodel/caller.py": """
                import random

                from .piggy_codec import format_p_volume


                def trailer():
                    return format_p_volume(random.random())
            """,
        },
        FlowDeterminismTaintRule(),
    )
    assert [f.rule for f in report.findings] == ["flow-determinism-taint"]
    assert "random.random()" in report.findings[0].message


def test_determinism_taint_sorted_set_is_clean(tmp_path):
    report = flow_lint(
        tmp_path,
        {
            "src/repro/httpmodel/__init__.py": "",
            "src/repro/httpmodel/piggy_codec.py": """
                def format_p_volume(ids):
                    ordered = sorted(set(ids))
                    return ",".join(str(i) for i in ordered)
            """,
        },
        FlowDeterminismTaintRule(),
    )
    assert report.findings == []


def test_determinism_taint_unsorted_set_flagged(tmp_path):
    report = flow_lint(
        tmp_path,
        {
            "src/repro/httpmodel/__init__.py": "",
            "src/repro/httpmodel/piggy_codec.py": """
                def format_p_volume(ids):
                    distinct = set(ids)
                    return ",".join(str(i) for i in distinct)
            """,
        },
        FlowDeterminismTaintRule(),
    )
    assert [f.rule for f in report.findings] == ["flow-determinism-taint"]
    assert "set iteration order" in report.findings[0].message


# -- JSON evidence surface ------------------------------------------------


def test_finding_json_includes_evidence_frames(tmp_path):
    report = flow_lint(tmp_path, _AIO_BLOCKING_TREE, FlowBlockingReachableRule())
    payload = report.findings[0].to_json()
    assert isinstance(payload["evidence"], list)
    assert all(":" in frame for frame in payload["evidence"])
    assert payload["evidence"][0].startswith("src/repro/httpwire/aio/server.py:")


# -- whole-repo gate ------------------------------------------------------


def test_repository_is_interprocedurally_clean():
    report = run_lint(REPO_ROOT, None, interprocedural=True)
    assert report.findings == [], "\n".join(
        f.render() for f in report.findings
    )


def test_repository_callgraph_covers_serving_stack():
    scratch = LintReport()
    files = collect_files(REPO_ROOT, None)
    modules = _parse_modules(REPO_ROOT, files, scratch)
    graph = build_callgraph(modules)
    # Spot-check the resolution quality on the real tree: the server's
    # dispatch into the journaled store must be visible to the passes.
    handle_sites = graph.sites("repro.server.server.PiggybackServer.handle")
    targets = {t for site in handle_sites for t in site.targets}
    assert any("observe" in t for t in targets)
    assert "repro.server.server.PiggybackServer.handle" in graph.functions
