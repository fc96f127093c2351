"""Tests for the ``repro lint`` rule engine and every built-in rule.

Each rule gets a positive fixture (violating snippet -> finding), a
negative fixture (compliant snippet -> clean), and a suppression check.
The engine itself is covered via policy scoping, the baseline round trip,
and the CLI's text/JSON surfaces; finally the real repository is linted
and must be clean — the same gate CI enforces.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.cli import main as cli_main
from repro.devtools.lint import (
    Baseline,
    Policy,
    load_builtin_rules,
    registered_rules,
    run_lint,
)
from repro.devtools.lint.api import CodecParityRule

REPO_ROOT = Path(__file__).resolve().parent.parent

load_builtin_rules()


def lint_snippet(tmp_path: Path, source: str, filename: str = "snippet.py"):
    """Lint one snippet with every family applied to every path."""
    path = tmp_path / filename
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    report = run_lint(tmp_path, [path], policy=Policy.everywhere())
    return report


def rule_ids(report) -> list[str]:
    return [finding.rule for finding in report.findings]


# -- determinism rules ---------------------------------------------------


def test_wall_clock_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import time

        def stamp():
            return time.time()
        """,
    )
    assert rule_ids(report) == ["det-wall-clock"]


def test_wall_clock_through_alias(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        from time import time as now

        def stamp():
            return now()
        """,
    )
    assert rule_ids(report) == ["det-wall-clock"]


def test_datetime_now_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import datetime

        def stamp():
            return datetime.datetime.now()
        """,
    )
    assert rule_ids(report) == ["det-wall-clock"]


def test_trace_timestamp_use_is_clean(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import time

        def render(timestamp):
            return time.strftime("%d/%b/%Y", time.gmtime(timestamp))
        """,
    )
    assert report.clean


def test_entropy_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import os
        import uuid

        def token():
            return os.urandom(8), uuid.uuid4()
        """,
    )
    assert rule_ids(report) == ["det-entropy", "det-entropy"]


def test_global_random_flagged_seeded_rng_clean(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import random

        def good(seed):
            rng = random.Random(seed)
            return rng.random()

        def bad():
            return random.random()
        """,
    )
    assert rule_ids(report) == ["det-global-random"]


def test_unseeded_rng_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import random

        def make():
            return random.Random()
        """,
    )
    assert rule_ids(report) == ["det-unseeded-rng"]


def test_id_keyed_container_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        def group(items):
            table = {}
            for item in items:
                table[id(item)] = item
            seen = set()
            seen.add(id(items))
            return table, seen
        """,
    )
    assert rule_ids(report) == ["det-id-key", "det-id-key"]


def test_identity_compare_with_id_is_clean(tmp_path):
    # id() for a direct equality comparison is not a container key.
    report = lint_snippet(
        tmp_path,
        """
        def same(a, b):
            return id(a) == id(b)
        """,
    )
    assert report.clean


def test_set_iteration_flagged_sorted_clean(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        def bad(urls):
            return [u for u in set(urls)]

        def good(urls):
            return [u for u in sorted(set(urls))]
        """,
    )
    assert rule_ids(report) == ["det-set-iteration"]


# -- lock discipline rules ----------------------------------------------


def test_blocking_call_under_lock_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import threading
        import time

        class Engine:
            def __init__(self, upstream):
                self._lock = threading.Lock()
                self.upstream = upstream

            def fetch(self, request, sock):
                with self._lock:
                    time.sleep(0.1)
                    sock.sendall(b"x")
                    return self.upstream(request)
        """,
    )
    assert rule_ids(report) == ["lock-blocking-call"] * 3


def test_io_after_lock_release_is_clean(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import threading

        class Engine:
            def __init__(self, upstream):
                self._lock = threading.Lock()
                self.upstream = upstream

            def fetch(self, request):
                with self._lock:
                    request = self.prepare(request)
                return self.upstream(request)

            def prepare(self, request):
                return request
        """,
    )
    assert report.clean


def test_non_lock_with_is_ignored(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        def fetch(connection_factory, request):
            with connection_factory() as connection:
                return connection.request(request)
        """,
    )
    assert report.clean


def test_bare_acquire_flagged_try_finally_clean(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import threading

        lock = threading.Lock()
        other_lock = threading.Lock()

        def bad():
            lock.acquire()
            do_work()

        def good():
            other_lock.acquire()
            try:
                do_work()
            finally:
                other_lock.release()

        def do_work():
            pass
        """,
    )
    assert rule_ids(report) == ["lock-bare-acquire"]


def test_lock_order_cycle_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import threading

        a_lock = threading.Lock()
        b_lock = threading.Lock()

        def forward():
            with a_lock:
                with b_lock:
                    pass

        def backward():
            with b_lock:
                with a_lock:
                    pass
        """,
    )
    assert "lock-order" in rule_ids(report)


def test_consistent_lock_order_is_clean(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import threading

        a_lock = threading.Lock()
        b_lock = threading.Lock()

        def one():
            with a_lock:
                with b_lock:
                    pass

        def two():
            with a_lock:
                with b_lock:
                    pass
        """,
    )
    assert report.clean


def test_lock_order_cycle_across_files(tmp_path):
    (tmp_path / "first.py").write_text(
        textwrap.dedent(
            """
            import threading
            a_lock = threading.Lock()
            b_lock = threading.Lock()
            def forward():
                with a_lock:
                    with b_lock:
                        pass
            """
        ),
        encoding="utf-8",
    )
    (tmp_path / "second.py").write_text(
        textwrap.dedent(
            """
            import threading
            a_lock = threading.Lock()
            b_lock = threading.Lock()
            def backward():
                with b_lock:
                    with a_lock:
                        pass
            """
        ),
        encoding="utf-8",
    )
    report = run_lint(tmp_path, [tmp_path], policy=Policy.everywhere())
    assert "lock-order" in rule_ids(report)


# -- resource hygiene rules ----------------------------------------------


def test_unclosed_socket_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import socket

        def leak():
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.connect(("127.0.0.1", 80))
            data = sock.recv(10)
            return data
        """,
    )
    assert "res-socket-lifetime" in rule_ids(report)


def test_closed_socket_clean(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import socket

        def fine():
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                sock.connect(("127.0.0.1", 80))
                return sock.recv(10)
            finally:
                sock.close()
        """,
    )
    assert report.clean


def test_unclosed_file_flagged_with_clean(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        def bad(path):
            handle = open(path)
            data = handle.read()
            return data

        def inline(path):
            return open(path).read()

        def good(path):
            with open(path) as handle:
                return handle.read()
        """,
    )
    assert rule_ids(report) == ["res-file-lifetime", "res-file-lifetime"]


def test_unjoined_thread_flagged_daemon_clean(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import threading

        def bad(task):
            worker = threading.Thread(target=task)
            worker.start()

        def daemonic(task):
            worker = threading.Thread(target=task, daemon=True)
            worker.start()

        def joined(task):
            worker = threading.Thread(target=task)
            worker.start()
            worker.join(timeout=5.0)
        """,
    )
    assert rule_ids(report) == ["res-thread-lifecycle"]


def test_join_without_timeout_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        def drain(threads, parts):
            for thread in threads:
                thread.join()
            return ", ".join(parts)
        """,
    )
    assert rule_ids(report) == ["res-join-timeout"]


# -- API parity rule ----------------------------------------------------


def test_codec_parity_detects_missing_key(tmp_path):
    (tmp_path / "codec.py").write_text(
        textwrap.dedent(
            """
            def format_thing(thing):
                return f"alpha={thing.alpha}; beta={thing.beta}"

            def parse_thing(value):
                for part in value.split(";"):
                    key, _, token = part.partition("=")
                    key = key.strip()
                    if key == "alpha":
                        pass
                return None
            """
        ),
        encoding="utf-8",
    )
    rule = CodecParityRule()
    rule.codec_path = "codec.py"
    report = run_lint(tmp_path, [tmp_path], policy=Policy.everywhere(), rules=[rule])
    assert rule_ids(report) == ["api-codec-parity"]
    assert "beta" in report.findings[0].message


# -- telemetry registration rules -----------------------------------------


def test_computed_metric_name_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        from repro.telemetry import REGISTRY

        PREFIX = "proxy"
        COUNTER = REGISTRY.counter(PREFIX + "_hits_total", "cache hits")
        """,
    )
    assert rule_ids(report) == ["tel-literal-name"]


def test_fstring_metric_name_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        from repro.telemetry import REGISTRY

        layer = "proxy"
        HIST = REGISTRY.histogram(f"{layer}_seconds", "latency")
        """,
    )
    assert rule_ids(report) == ["tel-literal-name"]


def test_literal_snake_case_name_clean(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        from repro.telemetry import REGISTRY

        COUNTER = REGISTRY.counter("proxy_hits_total", "cache hits")
        GAUGE = REGISTRY.gauge("active_workers")
        HIST = REGISTRY.histogram("request_seconds", "latency")
        """,
    )
    assert report.clean


def test_non_registry_receiver_ignored(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        def use(analyzer, name):
            # Not a metrics registry: same method name, different receiver.
            return analyzer.counter(name)
        """,
    )
    assert report.clean


def test_bad_name_format_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        from repro.telemetry import REGISTRY

        COUNTER = REGISTRY.counter("ProxyHits", "camel case")
        OTHER = REGISTRY.gauge("bad-dashes")
        """,
    )
    assert rule_ids(report) == ["tel-name-format", "tel-name-format"]


def test_duplicate_registration_across_files_flagged(tmp_path):
    (tmp_path / "one.py").write_text(
        'from repro.telemetry import REGISTRY\n'
        'A = REGISTRY.counter("shared_total", "first owner")\n',
        encoding="utf-8",
    )
    (tmp_path / "two.py").write_text(
        'from repro.telemetry import REGISTRY\n'
        'B = REGISTRY.counter("shared_total", "second owner")\n',
        encoding="utf-8",
    )
    report = run_lint(tmp_path, [tmp_path], policy=Policy.everywhere())
    assert rule_ids(report) == ["tel-duplicate-registration"]
    assert "one.py" in report.findings[0].message
    assert report.findings[0].path == "two.py"


def test_single_call_site_is_not_duplicate(tmp_path):
    # One lexical call site executed many times (e.g. per-instance
    # registries) is fine; the rule counts distinct source locations.
    report = lint_snippet(
        tmp_path,
        """
        from repro.telemetry import MetricsRegistry

        class Accumulator:
            def __init__(self):
                self.registry = MetricsRegistry(enabled=True)
                self.requests = self.registry.counter("acc_requests_total")
        """,
    )
    assert report.clean


def test_self_registry_receiver_matches(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        class Holder:
            def build(self, suffix):
                return self._registry.counter("base_" + suffix)
        """,
    )
    assert rule_ids(report) == ["tel-literal-name"]


# -- aio event-loop hygiene rules -----------------------------------------


def test_blocking_sleep_in_coroutine_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import time

        async def handler():
            time.sleep(0.1)
        """,
    )
    assert rule_ids(report) == ["aio-blocking-call"]


def test_blocking_sleep_through_alias_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        from time import sleep as pause

        async def handler():
            pause(0.1)
        """,
    )
    assert rule_ids(report) == ["aio-blocking-call"]


def test_sync_socket_call_in_coroutine_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        async def pump(sock, payload):
            sock.sendall(payload)
        """,
    )
    assert rule_ids(report) == ["aio-blocking-call"]


def test_awaited_async_connect_is_clean(tmp_path):
    # Async methods sharing a blocking-socket name are fine when awaited.
    report = lint_snippet(
        tmp_path,
        """
        async def dial(upstream):
            await upstream.connect()
        """,
    )
    assert report.clean


def test_asyncio_sleep_is_clean(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import asyncio

        async def pace():
            await asyncio.sleep(0.1)
        """,
    )
    assert report.clean


def test_blocking_call_outside_coroutine_is_out_of_scope(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import time

        def worker():
            time.sleep(0.1)
        """,
    )
    assert report.clean


def test_unawaited_acquire_in_coroutine_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        async def grab(self):
            self._conn_sem.acquire()
        """,
    )
    assert rule_ids(report) == ["aio-unawaited-acquire"]


def test_awaited_acquire_is_clean(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        async def grab(self):
            await self._conn_sem.acquire()
        """,
    )
    assert report.clean


def test_aio_suppression(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import time

        async def handler():
            time.sleep(0.1)  # repro: allow[aio-blocking-call]
        """,
    )
    assert report.clean
    assert report.suppressed == 1


def test_aio_family_scoped_to_async_stack():
    from repro.devtools.lint.policy import DEFAULT_POLICY

    assert DEFAULT_POLICY.applies("aio", "src/repro/httpwire/aio/server.py")
    assert not DEFAULT_POLICY.applies("aio", "src/repro/httpwire/netserver.py")


# -- suppressions, policy, baseline --------------------------------------


def test_same_line_suppression(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import time

        def stamp():
            return time.time()  # repro: allow[det-wall-clock]
        """,
    )
    assert report.clean
    assert report.suppressed == 1


def test_standalone_comment_suppresses_next_line(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import time

        def stamp():
            # benchmarks time themselves deliberately
            # repro: allow[det-wall-clock]
            return time.time()
        """,
    )
    assert report.clean
    assert report.suppressed == 1


def test_suppression_is_rule_specific(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import time

        def stamp():
            return time.time()  # repro: allow[det-entropy]
        """,
    )
    assert rule_ids(report) == ["det-wall-clock"]


def test_wildcard_suppression(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import time

        def stamp():
            return time.time()  # repro: allow[*]
        """,
    )
    assert report.clean


def test_policy_scopes_families_by_path(tmp_path):
    source = textwrap.dedent(
        """
        import time

        def stamp():
            return time.time()
        """
    )
    scoped = tmp_path / "scoped"
    unscoped = tmp_path / "unscoped"
    scoped.mkdir()
    unscoped.mkdir()
    (scoped / "mod.py").write_text(source, encoding="utf-8")
    (unscoped / "mod.py").write_text(source, encoding="utf-8")
    policy = Policy(scopes=(("determinism", ("scoped",)),))
    report = run_lint(tmp_path, [tmp_path], policy=policy)
    assert [finding.path for finding in report.findings] == ["scoped/mod.py"]


def test_baseline_roundtrip(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import time\n\nvalue = time.time()\n", encoding="utf-8")
    first = run_lint(tmp_path, [tmp_path], policy=Policy.everywhere())
    assert not first.clean
    baseline = Baseline.from_findings(first.findings)
    baseline_path = tmp_path / "baseline.json"
    baseline.save(baseline_path)
    reloaded = Baseline.load(baseline_path)
    second = run_lint(
        tmp_path, [tmp_path], policy=Policy.everywhere(), baseline=reloaded
    )
    assert second.clean
    assert second.baselined == len(first.findings)


def test_parse_error_reported(tmp_path):
    (tmp_path / "broken.py").write_text("def oops(:\n", encoding="utf-8")
    report = run_lint(tmp_path, [tmp_path], policy=Policy.everywhere())
    assert not report.clean
    assert report.parse_errors and report.parse_errors[0].rule == "parse-error"


# -- CLI surface ---------------------------------------------------------


def test_cli_json_schema(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(
        "import time\n\nvalue = time.time()  # not scoped by default policy\n",
        encoding="utf-8",
    )
    code = cli_main(["lint", "--root", str(tmp_path), "--format", "json", "mod.py"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0  # default policy scopes determinism to src/repro only
    assert payload["version"] == 1
    assert payload["clean"] is True
    assert payload["files_checked"] == 1
    assert isinstance(payload["findings"], list)
    assert {"id", "family", "description"} <= set(payload["rules"][0])


def test_cli_exit_code_and_finding_shape(tmp_path, capsys):
    scoped = tmp_path / "src" / "repro" / "analysis"
    scoped.mkdir(parents=True)
    (scoped / "mod.py").write_text("import time\n\nvalue = time.time()\n",
                                   encoding="utf-8")
    code = cli_main(["lint", "--root", str(tmp_path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    (finding,) = payload["findings"]
    assert {"rule", "family", "path", "line", "col", "message", "fingerprint"} <= set(
        finding
    )
    assert finding["rule"] == "det-wall-clock"
    assert finding["path"] == "src/repro/analysis/mod.py"


def test_cli_write_baseline_then_clean(tmp_path, capsys):
    scoped = tmp_path / "src" / "repro" / "analysis"
    scoped.mkdir(parents=True)
    (scoped / "mod.py").write_text("import time\n\nvalue = time.time()\n",
                                   encoding="utf-8")
    assert cli_main(["lint", "--root", str(tmp_path), "--write-baseline"]) == 0
    capsys.readouterr()
    assert cli_main(["lint", "--root", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out


# -- the real repository must be clean ------------------------------------


def test_repository_is_lint_clean():
    baseline_path = REPO_ROOT / "lint-baseline.json"
    baseline = Baseline.load(baseline_path) if baseline_path.is_file() else None
    report = run_lint(REPO_ROOT, baseline=baseline)
    assert report.files_checked > 50
    assert report.clean, report.render_text()


def test_registry_has_all_rule_families():
    families = {rule.family for rule in registered_rules()}
    assert {
        "determinism",
        "locks",
        "resources",
        "api",
        "telemetry",
        "aio",
        "flow",
    } <= families


# -- aio alias resolution (name bindings) --------------------------------


def test_blocking_sleep_through_bound_name_alias_flagged(tmp_path):
    # `_sleep = time.sleep` is a module-level name binding, not an
    # import — it must still resolve to the blocking call.
    report = lint_snippet(
        tmp_path,
        """
        import time

        _sleep = time.sleep

        async def handler():
            _sleep(0.1)
        """,
    )
    assert rule_ids(report) == ["aio-blocking-call"]


def test_blocking_sleep_through_alias_chain_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import time as t

        pause = t.sleep
        nap = pause

        async def handler():
            nap(0.1)
        """,
    )
    assert rule_ids(report) == ["aio-blocking-call"]


def test_relative_import_resolves_through_package(tmp_path):
    # name_bindings resolves `from .sync import fsync_all` against the
    # importing module's package, so the flow layer sees project-local
    # names; the aio rule itself keys on stdlib names and stays clean.
    from repro.devtools.lint.astutil import name_bindings
    import ast

    tree = ast.parse("from .sync import fsync_all\nfrom ..core import util\n")
    bindings = name_bindings(tree, package="repro.httpwire.aio")
    assert bindings["fsync_all"] == "repro.httpwire.aio.sync.fsync_all"
    assert bindings["util"] == "repro.httpwire.core.util"


# -- baseline relocation --------------------------------------------------


def test_baseline_digest_is_path_independent(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    report_a = lint_snippet(tmp_path / "a", "import time\n\ndef f():\n    return time.time()\n")
    report_b = lint_snippet(tmp_path / "b", "import time\n\ndef f():\n    return time.time()\n")
    digest_a = report_a.findings[0].fingerprint().rpartition(":")[2]
    digest_b = report_b.findings[0].fingerprint().rpartition(":")[2]
    assert digest_a == digest_b


def test_baseline_migrates_absolute_path_entries(tmp_path):
    report = lint_snippet(tmp_path, "import time\n\ndef f():\n    return time.time()\n")
    finding = report.findings[0]
    relative_fp = finding.fingerprint()
    path_part, _, tail = relative_fp.partition(":")
    absolute_fp = f"{tmp_path / path_part}:{tail}"

    baseline_path = tmp_path / "lint-baseline.json"
    baseline_path.write_text(json.dumps({"fingerprints": [absolute_fp]}), encoding="utf-8")

    baseline = Baseline.load(baseline_path, root=tmp_path)
    assert baseline.migrated == 1
    assert baseline.matches(finding)

    # Persisting the migrated baseline writes relocatable entries.
    baseline.save(baseline_path)
    payload = json.loads(baseline_path.read_text(encoding="utf-8"))
    assert payload["version"] == 2
    assert payload["fingerprints"] == [relative_fp]


def test_baseline_survives_checkout_relocation(tmp_path):
    # Simulate the repo moving: lint in one root, match in another.
    snippet = "import time\n\ndef f():\n    return time.time()\n"
    (tmp_path / "old-checkout").mkdir()
    (tmp_path / "new-checkout").mkdir()
    old_report = lint_snippet(tmp_path / "old-checkout", snippet)
    baseline = Baseline.from_findings(old_report.findings)
    baseline_path = tmp_path / "old-checkout" / "lint-baseline.json"
    baseline.save(baseline_path)

    new_report = lint_snippet(tmp_path / "new-checkout", snippet)
    reloaded = Baseline.load(baseline_path)
    assert reloaded.matches(new_report.findings[0])


# -- policy scoping edge cases -------------------------------------------


def test_policy_overlapping_prefixes_apply_once(tmp_path):
    policy = Policy(
        scopes=(("determinism", ("src/repro", "src/repro/analysis")),)
    )
    # Both prefixes match; the family applies (no double-reporting).
    assert policy.applies("determinism", "src/repro/analysis/metrics.py")
    path = tmp_path / "src" / "repro" / "analysis" / "m.py"
    path.parent.mkdir(parents=True)
    path.write_text("import time\n\ndef f():\n    return time.time()\n", encoding="utf-8")
    report = run_lint(tmp_path, [path], policy=policy)
    assert rule_ids(report) == ["det-wall-clock"]


def test_policy_prefix_is_a_path_boundary():
    policy = Policy(scopes=(("determinism", ("src/repro/analysis",)),))
    assert policy.applies("determinism", "src/repro/analysis/metrics.py")
    assert not policy.applies("determinism", "src/repro/analysis2/metrics.py")
    assert policy.applies("determinism", "src/repro/analysis")
    assert not policy.applies("determinism", "src/repro/analysis.py")


def test_rule_family_glob_suppression(tmp_path):
    # allow[det-*] waives every determinism rule on the line, but not
    # other families.
    report = lint_snippet(
        tmp_path,
        """
        import time

        def f():
            return time.time()  # repro: allow[det-*]
        """,
    )
    assert report.findings == []
    assert report.suppressed == 1

    report = lint_snippet(
        tmp_path,
        """
        import time

        def f():
            return time.time()  # repro: allow[lock-*]
        """,
    )
    assert rule_ids(report) == ["det-wall-clock"]


def test_suppression_on_decorated_statement(tmp_path):
    # A standalone waiver above a decorator stack covers a finding
    # anchored on any decorator line of the stack.
    report = lint_snippet(
        tmp_path,
        """
        import time

        def tag(value):
            def deco(fn):
                return fn

            return deco

        # repro: allow[det-wall-clock]
        @tag(time.time())
        def stamp():
            return 0
        """,
    )
    assert report.findings == []
    assert report.suppressed >= 1


def test_standalone_waiver_reaches_def_through_decorators():
    # Unit-level check: a waiver above the decorator stack extends
    # through every decorator line down to the def line itself.
    import ast as ast_mod

    from repro.devtools.lint.engine import SourceModule

    source = textwrap.dedent(
        """
        # repro: allow[api-example]
        @deco_one
        @deco_two
        def anchored():
            pass
        """
    ).lstrip()
    module = SourceModule(
        Path("/r"), Path("/r/m.py"), source, ast_mod.parse(source)
    )
    for line in (2, 3, 4):  # both decorators and the def line
        assert module.is_suppressed(line, "api-example"), line
    assert not module.is_suppressed(5, "api-example")


def test_suppression_on_multiline_statement(tmp_path):
    # The waiver above a multi-line statement covers its anchor line
    # even though the statement continues past it.
    report = lint_snippet(
        tmp_path,
        """
        import time

        def f():
            # repro: allow[det-wall-clock]
            value = time.time() + sum(
                [1, 2]
            )
            return value
        """,
    )
    assert report.findings == []
    assert report.suppressed == 1
