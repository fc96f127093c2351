"""Interprocedural ``flow-*`` passes over the project call graph.

Three whole-program properties that per-file rules structurally cannot
check, because the offending code is always *somewhere else*:

* ``flow-blocking-reachable`` — no call chain from the event-loop
  surface (coroutines and protocol callbacks in ``repro.httpwire.aio``)
  may reach a synchronous sleep/fsync/socket/lock-acquire, at any depth;
* ``flow-lock-across-blocking`` — a ``with <lock>:`` region must not
  call, at any depth, something that blocks, and a coroutine must not
  ``await`` while holding a sync lock;
* ``flow-determinism-taint`` — wall-clock, RNG, ``id()``, and
  set-iteration order must not flow (through any number of returns)
  into piggyback trailer bytes, journal records, or replay metrics.

Every finding carries the full call chain as ``file:line`` evidence
frames, so ``# repro: allow[...]`` on *any* frame (e.g. the documented
fsync-before-apply site in the durability journal) waives every chain
through that frame.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..lint.engine import Finding, ProjectRule, SourceModule, register
from .callgraph import CallGraph, CallSite, build_callgraph, looks_like_lock

__all__ = [
    "FlowBlockingReachableRule",
    "FlowLockAcrossBlockingRule",
    "FlowDeterminismTaintRule",
    "blocking_witnesses",
    "cached_callgraph",
]

_MAX_DEPTH = 25

# Calls that always block the calling thread, by canonical dotted name.
BLOCKING_EXTERNAL = frozenset(
    {
        "time.sleep",
        "os.fsync",
        "os.fdatasync",
        "socket.create_connection",
        "select.select",
        "open",
    }
)

# Attribute calls that block on a socket when the receiver is unresolved.
SOCKET_ATTRS = frozenset(
    {
        "recv",
        "recv_into",
        "recvfrom",
        "sendall",
        "sendto",
        "accept",
        "connect",
        "connect_ex",
        "makefile",
    }
)

_AIO_PREFIXES = ("repro.httpwire.aio",)
_PROTOCOL_BASES = ("asyncio.BufferedProtocol", "asyncio.Protocol")


# -- shared graph cache ----------------------------------------------------

_CACHE_KEY: tuple[tuple[str, str], ...] | None = None
_CACHE_GRAPH: CallGraph | None = None


def cached_callgraph(modules: Sequence[SourceModule]) -> CallGraph:
    """Build (or reuse) the call graph for one run's module set.

    The three flow rules run back-to-back over the same parsed modules;
    graph construction dominates their cost, so one run shares a graph.
    """
    global _CACHE_KEY, _CACHE_GRAPH
    key = tuple((m.relpath, m.source[:64]) for m in modules)
    if _CACHE_GRAPH is None or key != _CACHE_KEY:
        _CACHE_GRAPH = build_callgraph(modules)
        _CACHE_KEY = key
    return _CACHE_GRAPH


# -- blocking reachability substrate ---------------------------------------


@dataclass(frozen=True, slots=True)
class Witness:
    """Shortest known chain from a function down to a blocking site."""

    frames: tuple[str, ...]  # file:line of each call along the chain
    chain: tuple[str, ...]  # function qualnames, caller first
    sink: str  # human description of the blocking operation
    depth: int


def _direct_block(
    site: CallSite, *, include_acquire: bool, include_open: bool
) -> str | None:
    """Describe the blocking operation a site performs directly, if any."""
    if site.awaited:
        return None
    if site.external in BLOCKING_EXTERNAL:
        if site.external == "open" and not include_open:
            return None
        return f"{site.external}()"
    if site.targets:
        return None  # resolved project call: traverse into it instead
    if site.attr in SOCKET_ATTRS:
        receiver = site.receiver or "<socket>"
        return f"{receiver}.{site.attr}()"
    if (
        include_acquire
        and site.attr == "acquire"
        and site.blocking_arg
        and looks_like_lock(site.receiver)
    ):
        return f"{site.receiver}.acquire()"
    return None


def blocking_witnesses(
    graph: CallGraph, *, include_acquire: bool, include_open: bool
) -> dict[str, Witness]:
    """Map each function that may block (directly or transitively) to a
    shortest evidence chain, via reverse BFS from the direct sites."""
    witness: dict[str, Witness] = {}
    queue: deque[str] = deque()
    for fn in sorted(graph.calls):
        for site in graph.calls[fn]:
            desc = _direct_block(
                site, include_acquire=include_acquire, include_open=include_open
            )
            if desc is not None and fn not in witness:
                witness[fn] = Witness(
                    frames=(site.frame,), chain=(fn,), sink=desc, depth=0
                )
                queue.append(fn)

    reverse: dict[str, list[tuple[str, CallSite]]] = {}
    for fn in sorted(graph.calls):
        for site in graph.calls[fn]:
            for target in site.targets:
                reverse.setdefault(target, []).append((fn, site))

    while queue:
        callee = queue.popleft()
        found = witness[callee]
        if found.depth >= _MAX_DEPTH:
            continue
        for caller, site in reverse.get(callee, ()):
            if caller in witness:
                continue
            witness[caller] = Witness(
                frames=(site.frame,) + found.frames,
                chain=(caller,) + found.chain,
                sink=found.sink,
                depth=found.depth + 1,
            )
            queue.append(caller)
    return witness


def _chain_text(chain: Sequence[str], sink: str) -> str:
    return " -> ".join(chain) + f" -> {sink}"


def _anchored_finding(
    rule: ProjectRule,
    by_path: dict[str, SourceModule],
    site: CallSite,
    message: str,
    evidence: Sequence[str],
) -> Finding | None:
    module = by_path.get(site.relpath)
    if module is None:
        return None
    return module.finding(rule, None, message, line=site.lineno, evidence=evidence)


@register
class FlowBlockingReachableRule(ProjectRule):
    id = "flow-blocking-reachable"
    family = "flow"
    interprocedural = True
    description = (
        "No call chain from a coroutine or protocol callback in the "
        "async wire stack may reach a blocking sleep/fsync/socket/"
        "acquire at any depth."
    )

    def check_project(self, modules: Sequence[SourceModule]) -> Iterable[Finding]:
        graph = cached_callgraph(modules)
        by_path = {m.relpath: m for m in modules}
        witness = blocking_witnesses(graph, include_acquire=True, include_open=True)

        roots: list[str] = []
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            if info.is_async and info.module.startswith(_AIO_PREFIXES):
                roots.append(qualname)
            elif info.cls is not None and info.module.startswith(_AIO_PREFIXES):
                # Sync protocol callbacks (buffer_updated, eof_received,
                # connection_made, ...) also run on the loop thread.
                if any(graph.inherits_from(info.cls, base) for base in _PROTOCOL_BASES):
                    roots.append(qualname)

        for root in roots:
            reported: set[tuple[str, str]] = set()
            for site in graph.sites(root):
                best: Witness | None = None
                for target in site.targets:
                    found = witness.get(target)
                    if found is not None and (best is None or found.depth < best.depth):
                        best = found
                if best is None:
                    continue
                key = (best.chain[-1], best.sink)
                if key in reported:
                    continue
                reported.add(key)
                # Depth 0 at the root itself is the intraprocedural aio
                # family's job; this pass starts at depth 1.
                chain = (root,) + best.chain
                frames = (site.frame,) + best.frames
                finding = _anchored_finding(
                    self,
                    by_path,
                    site,
                    f"event-loop entry point {root}() reaches blocking "
                    f"{best.sink} through {_chain_text(chain, best.sink)}",
                    frames,
                )
                if finding is not None:
                    yield finding


@register
class FlowLockAcrossBlockingRule(ProjectRule):
    id = "flow-lock-across-blocking"
    family = "flow"
    interprocedural = True
    description = (
        "A `with <lock>:` region must not call anything that blocks at "
        "any depth, and a coroutine must not await while holding a "
        "sync lock."
    )

    def check_project(self, modules: Sequence[SourceModule]) -> Iterable[Finding]:
        graph = cached_callgraph(modules)
        by_path = {m.relpath: m for m in modules}
        # Lock acquisition chains are the lock-order monitor's domain,
        # and plain file writes under a lock are the journal's working
        # idiom — fsync and sleeps and sockets are what must not hide
        # under a held lock.
        witness = blocking_witnesses(graph, include_acquire=False, include_open=False)

        for fn in sorted(graph.calls):
            reported: set[tuple[str, str, str]] = set()
            for site in graph.calls[fn]:
                if site.lock_context is None:
                    continue
                best: Witness | None = None
                for target in site.targets:
                    found = witness.get(target)
                    if found is not None and (best is None or found.depth < best.depth):
                        best = found
                if best is None:
                    continue
                key = (site.lock_context, best.chain[-1], best.sink)
                if key in reported:
                    continue
                reported.add(key)
                chain = (fn,) + best.chain
                frames = (site.frame,) + best.frames
                finding = _anchored_finding(
                    self,
                    by_path,
                    site,
                    f"holding `{site.lock_context}`, {fn}() reaches blocking "
                    f"{best.sink} through {_chain_text(chain, best.sink)}",
                    frames,
                )
                if finding is not None:
                    yield finding

            info = graph.functions.get(fn)
            if info is not None and info.is_async:
                for await_site in graph.awaits.get(fn, ()):
                    if await_site.lock_context is None:
                        continue
                    module = by_path.get(await_site.relpath)
                    if module is None:
                        continue
                    yield module.finding(
                        self,
                        None,
                        f"coroutine {fn}() awaits while holding sync lock "
                        f"`{await_site.lock_context}` — the lock is held "
                        f"across a suspension point",
                        line=await_site.lineno,
                        evidence=(await_site.frame,),
                    )


# -- determinism taint -----------------------------------------------------

VALUE_SOURCES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "random.random",
        "random.randint",
        "random.randrange",
        "random.choice",
        "random.sample",
        "random.getrandbits",
        "random.uniform",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "id",
    }
)

_ORDER_SANITIZERS = frozenset({"sorted", "min", "max", "len", "sum", "any", "all"})

_VALUE = "value"  # nondeterministic value (wall clock, RNG, id())
_ORDER = "order"  # nondeterministic iteration order (sets)


@dataclass(frozen=True, slots=True)
class _Taint:
    kinds: frozenset[str]
    frames: tuple[str, ...]
    label: str  # the originating source, e.g. "time.time()"

    @classmethod
    def none(cls) -> "_Taint":
        return _NO_TAINT

    def merge(self, other: "_Taint") -> "_Taint":
        if not other.kinds:
            return self
        if not self.kinds:
            return other
        # Prefer a value-taint witness over an order-taint one.
        primary = self if (_VALUE in self.kinds or _VALUE not in other.kinds) else other
        return _Taint(self.kinds | other.kinds, primary.frames, primary.label)

    def without_order(self) -> "_Taint":
        if _ORDER not in self.kinds:
            return self
        return _Taint(self.kinds - {_ORDER}, self.frames, self.label)


_NO_TAINT = _Taint(frozenset(), (), "")


def _ordered_statements(body: Sequence[ast.stmt]) -> Iterable[ast.stmt]:
    """Statements in source order, without entering nested defs."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield stmt
        if isinstance(stmt, ast.If):
            yield from _ordered_statements(stmt.body)
            yield from _ordered_statements(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            yield from _ordered_statements(stmt.body)
            yield from _ordered_statements(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            yield from _ordered_statements(stmt.body)
        elif isinstance(stmt, ast.Try):
            yield from _ordered_statements(stmt.body)
            for handler in stmt.handlers:
                yield from _ordered_statements(handler.body)
            yield from _ordered_statements(stmt.orelse)
            yield from _ordered_statements(stmt.finalbody)


class _TaintScan:
    """One function's intra-procedural taint evaluation."""

    def __init__(
        self,
        fn: str,
        graph: CallGraph,
        site_index: dict[tuple[str, int, int], CallSite],
        tainted_returns: dict[str, _Taint],
    ) -> None:
        self.fn = fn
        self.graph = graph
        self.site_index = site_index
        self.tainted_returns = tainted_returns
        self.env: dict[str, _Taint] = {}
        self.return_taint = _Taint.none()
        self.tainted_sites: list[tuple[CallSite, _Taint]] = []

    def run(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        # Two passes so taint assigned late in a loop body reaches uses
        # earlier in the next iteration.
        for _ in range(2):
            for stmt in _ordered_statements(node.body):
                self._statement(stmt)

    # -- statements --

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self._expr(stmt.value)
            for target in stmt.targets:
                self._bind(target, taint)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, self._expr(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            taint = self._expr(stmt.value).merge(self._expr(stmt.target))
            self._bind(stmt.target, taint)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self._expr(stmt.iter))
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            self.return_taint = self.return_taint.merge(self._expr(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self._expr(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._expr(stmt.test)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._expr(item.context_expr)

    def _bind(self, target: ast.expr, taint: _Taint) -> None:
        if isinstance(target, ast.Name):
            existing = self.env.get(target.id, _NO_TAINT)
            self.env[target.id] = existing.merge(taint)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, taint)
        elif isinstance(target, ast.Attribute):
            # `metrics.latency = time.time()` — attribute writes carry
            # taint into the receiver object.
            if isinstance(target.value, ast.Name):
                existing = self.env.get(target.value.id, _NO_TAINT)
                self.env[target.value.id] = existing.merge(taint)

    # -- expressions --

    def _expr(self, expr: ast.expr) -> _Taint:
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id, _NO_TAINT)
        if isinstance(expr, ast.Lambda):
            return _NO_TAINT
        if isinstance(expr, (ast.Set, ast.SetComp)):
            taint = _Taint(
                frozenset({_ORDER}),
                (f"{self.graph.functions[self.fn].relpath}:{expr.lineno}",),
                "set iteration order",
            )
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    taint = taint.merge(self._expr(child))
            return taint
        taint = _NO_TAINT
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                taint = taint.merge(self._expr(child))
            elif isinstance(child, ast.comprehension):
                taint = taint.merge(self._expr(child.iter))
        return taint

    def _call(self, call: ast.Call) -> _Taint:
        taint = _NO_TAINT
        for arg in call.args:
            taint = taint.merge(self._expr(arg))
        for keyword in call.keywords:
            taint = taint.merge(self._expr(keyword.value))
        if isinstance(call.func, ast.Attribute):
            taint = taint.merge(self._expr(call.func.value))

        func_leaf: str | None = None
        if isinstance(call.func, ast.Name):
            func_leaf = call.func.id
        elif isinstance(call.func, ast.Attribute):
            func_leaf = call.func.attr
        if func_leaf in _ORDER_SANITIZERS:
            taint = taint.without_order()

        site = self.site_index.get((self.fn, call.lineno, call.col_offset))
        if site is not None:
            if site.external in VALUE_SOURCES:
                source = _Taint(
                    frozenset({_VALUE}), (site.frame,), f"{site.external}()"
                )
                taint = source.merge(taint)
                self.tainted_sites.append((site, source))
            elif site.external == "set":
                # `frozenset(...)` is deliberately NOT an order source:
                # in this codebase it is the immutable membership-set
                # idiom (RPV suppression sets, excluded-type sets) and is
                # never iterated into output, while mutable `set()` is
                # the shape that leaks iteration order.
                taint = taint.merge(
                    _Taint(frozenset({_ORDER}), (site.frame,), "set iteration order")
                )
            for target in site.targets:
                callee_taint = self.tainted_returns.get(target)
                if callee_taint is not None and callee_taint.kinds:
                    through = _Taint(
                        callee_taint.kinds,
                        (site.frame,) + callee_taint.frames,
                        callee_taint.label,
                    )
                    taint = taint.merge(through)
                    self.tainted_sites.append((site, through))
        return taint


def tainted_return_map(graph: CallGraph) -> dict[str, _Taint]:
    """Fixed point: which functions return nondeterministic data."""
    tainted: dict[str, _Taint] = {}
    for _ in range(len(graph.functions) + 1):
        changed = False
        for fn in sorted(graph.nodes):
            scan = _TaintScan(fn, graph, _site_index(graph), tainted)
            scan.run(graph.nodes[fn])
            previous = tainted.get(fn)
            if scan.return_taint.kinds and (
                previous is None or scan.return_taint.kinds - previous.kinds
            ):
                tainted[fn] = scan.return_taint
                changed = True
        if not changed:
            break
    return tainted


_SITE_INDEX_CACHE: tuple[int, dict[tuple[str, int, int], CallSite]] | None = None


def _site_index(graph: CallGraph) -> dict[tuple[str, int, int], CallSite]:
    global _SITE_INDEX_CACHE
    if _SITE_INDEX_CACHE is not None and _SITE_INDEX_CACHE[0] == id(graph):
        return _SITE_INDEX_CACHE[1]
    index = {
        (site.caller, site.lineno, site.col): site
        for sites in graph.calls.values()
        for site in sites
    }
    _SITE_INDEX_CACHE = (id(graph), index)
    return index


def _is_sink(graph: CallGraph, qualname: str) -> str | None:
    """Describe why a function is a determinism sink, or None."""
    info = graph.functions.get(qualname)
    if info is None:
        return None
    if info.module == "repro.httpmodel.piggy_codec" and info.name.startswith("format_"):
        return "piggyback trailer bytes"
    if info.module == "repro.server.durability.journal" and (
        info.name.startswith("append") or "encode" in info.name
    ):
        return "journal record bytes"
    if info.module == "repro.analysis.fastreplay":
        for site in graph.sites(qualname):
            if site.external is not None and site.external.endswith(".ReplayMetrics"):
                return "replay metrics"
    return None


@register
class FlowDeterminismTaintRule(ProjectRule):
    id = "flow-determinism-taint"
    family = "flow"
    interprocedural = True
    description = (
        "Wall-clock/RNG/id()/set-order data must not flow, through any "
        "call depth, into piggyback trailers, journal records, or "
        "replay metrics."
    )

    def check_project(self, modules: Sequence[SourceModule]) -> Iterable[Finding]:
        graph = cached_callgraph(modules)
        by_path = {m.relpath: m for m in modules}
        tainted = tainted_return_map(graph)
        site_index = _site_index(graph)

        seen: set[tuple[str, int, str]] = set()
        for fn in sorted(graph.nodes):
            sink_kind = _is_sink(graph, fn)
            scan = _TaintScan(fn, graph, site_index, tainted)
            scan.run(graph.nodes[fn])

            if sink_kind is not None:
                # Wall-clock/RNG/id() reads *inside* a sink function are
                # unconditionally nondeterministic, at any depth.
                for site, taint in scan.tainted_sites:
                    if _VALUE not in taint.kinds:
                        continue
                    key = (site.relpath, site.lineno, taint.label)
                    if key in seen:
                        continue
                    seen.add(key)
                    finding = _anchored_finding(
                        self,
                        by_path,
                        site,
                        f"{sink_kind} in {fn}() derive from "
                        f"nondeterministic {taint.label}",
                        (site.frame,) + tuple(
                            frame for frame in taint.frames if frame != site.frame
                        ),
                    )
                    if finding is not None:
                        yield finding
                # Set-iteration order only matters when it survives into
                # the sink's *output* — `sorted(...)` launders it.
                if (
                    _ORDER in scan.return_taint.kinds
                    and _VALUE not in scan.return_taint.kinds
                    and scan.return_taint.frames
                ):
                    taint = scan.return_taint
                    anchor_path, _, anchor_line = taint.frames[0].rpartition(":")
                    key = (anchor_path, int(anchor_line), taint.label)
                    if key not in seen:
                        seen.add(key)
                        module = by_path.get(anchor_path)
                        if module is not None:
                            yield module.finding(
                                self,
                                None,
                                f"{sink_kind} in {fn}() derive from "
                                f"nondeterministic {taint.label}",
                                line=int(anchor_line),
                                evidence=taint.frames,
                            )
                continue

            # Tainted arguments handed straight to a sink function.
            for site in graph.sites(fn):
                sink_targets = [
                    target for target in site.targets if _is_sink(graph, target)
                ]
                if not sink_targets:
                    continue
                call = _call_at(graph, fn, site)
                if call is None:
                    continue
                arg_taint = _NO_TAINT
                for arg in call.args:
                    arg_taint = arg_taint.merge(scan._expr(arg))
                for keyword in call.keywords:
                    arg_taint = arg_taint.merge(scan._expr(keyword.value))
                if not arg_taint.kinds:
                    continue
                sink_kind = _is_sink(graph, sink_targets[0])
                key = (site.relpath, site.lineno, arg_taint.label)
                if key in seen:
                    continue
                seen.add(key)
                finding = _anchored_finding(
                    self,
                    by_path,
                    site,
                    f"{fn}() passes nondeterministic {arg_taint.label} "
                    f"into {sink_targets[0]}() ({sink_kind})",
                    (site.frame,) + arg_taint.frames,
                )
                if finding is not None:
                    yield finding


def _call_at(graph: CallGraph, fn: str, site: CallSite) -> ast.Call | None:
    node = graph.nodes.get(fn)
    if node is None:
        return None
    for candidate in ast.walk(node):
        if (
            isinstance(candidate, ast.Call)
            and candidate.lineno == site.lineno
            and candidate.col_offset == site.col
        ):
            return candidate
    return None
