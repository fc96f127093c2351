"""Determinism rules for the replay substrate.

Replay is only bit-identical, run to run, across chunkings of a trace,
and against the frozen reference replay the tests keep, because nothing
in :mod:`repro.analysis`, :mod:`repro.traces`, or :mod:`repro.volumes`
depends on wall-clock time, ambient entropy, the process-global RNG,
memory addresses, or set iteration order.  These
rules forbid each escape hatch; randomness must flow from a
``random.Random(seed)`` instance constructed from explicit config.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from .astutil import annotate_parents, dotted_name, import_map, parent_of, resolved_call_name
from .engine import Finding, ModuleRule, SourceModule, register

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.localtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_ENTROPY = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4", "secrets"})

# dict/set mutators whose first argument is a key.
_KEYED_METHODS = frozenset({"get", "setdefault", "pop", "add", "discard", "remove"})

# Builders that materialize iteration order from their argument.
_ORDER_SINKS = frozenset({"list", "tuple", "iter", "enumerate"})


def _module_calls(module: SourceModule) -> Iterator[tuple[ast.Call, str]]:
    imports = import_map(module.tree)
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            name = resolved_call_name(node, imports)
            if name is not None:
                yield node, name


@register
class WallClockRule(ModuleRule):
    id = "det-wall-clock"
    family = "determinism"
    description = (
        "Replay code must not read the wall clock or process timers; "
        "all time flows from trace timestamps."
    )

    def check(self, module: SourceModule) -> Iterable[Finding]:
        for node, name in _module_calls(module):
            if name in _WALL_CLOCK:
                yield module.finding(
                    self, node, f"nondeterministic clock call {name}() in replay code"
                )


@register
class EntropyRule(ModuleRule):
    id = "det-entropy"
    family = "determinism"
    description = "Replay code must not draw ambient entropy (os.urandom, uuid4, secrets)."

    def check(self, module: SourceModule) -> Iterable[Finding]:
        for node, name in _module_calls(module):
            if name in _ENTROPY or name.startswith("secrets."):
                yield module.finding(
                    self, node, f"entropy source {name}() is not replayable"
                )


@register
class GlobalRandomRule(ModuleRule):
    id = "det-global-random"
    family = "determinism"
    description = (
        "The process-global random module is shared mutable state; "
        "use a seeded random.Random instance."
    )

    def check(self, module: SourceModule) -> Iterable[Finding]:
        for node, name in _module_calls(module):
            if name.startswith("random.") and name not in (
                "random.Random",
                "random.SystemRandom",  # caught by det-entropy semantics below
            ):
                yield module.finding(
                    self,
                    node,
                    f"module-level {name}() mutates the global RNG; "
                    "draw from a seeded random.Random instead",
                )
            elif name == "random.SystemRandom":
                yield module.finding(
                    self, node, "random.SystemRandom is OS entropy, not replayable"
                )


@register
class UnseededRngRule(ModuleRule):
    id = "det-unseeded-rng"
    family = "determinism"
    description = "Every random.Random must be constructed with an explicit seed."

    def check(self, module: SourceModule) -> Iterable[Finding]:
        for node, name in _module_calls(module):
            if name == "random.Random" and not node.args and not node.keywords:
                yield module.finding(
                    self, node, "random.Random() without a seed is nondeterministic"
                )


@register
class IdKeyRule(ModuleRule):
    id = "det-id-key"
    family = "determinism"
    description = (
        "id() values differ across runs; keying containers on them makes "
        "any key-order-sensitive path nonreproducible."
    )

    def check(self, module: SourceModule) -> Iterable[Finding]:
        annotate_parents(module.tree)
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
                and len(node.args) == 1
            ):
                continue
            parent = parent_of(node)
            keyed = False
            if isinstance(parent, ast.Subscript) and parent.slice is node:
                keyed = True
            elif isinstance(parent, ast.Dict) and node in parent.keys:
                keyed = True
            elif isinstance(parent, ast.Set):
                keyed = True
            elif isinstance(parent, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops
            ):
                keyed = True
            elif (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Attribute)
                and parent.func.attr in _KEYED_METHODS
                and parent.args
                and parent.args[0] is node
            ):
                keyed = True
            if keyed:
                yield module.finding(
                    self,
                    node,
                    "container keyed by id(); use a stable interned index instead",
                )


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name in ("set", "frozenset")
    return False


@register
class SetIterationRule(ModuleRule):
    id = "det-set-iteration"
    family = "determinism"
    description = (
        "Iterating a set materializes hash order, which varies across "
        "runs for str keys; sort it first."
    )

    def check(self, module: SourceModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            iter_expr: ast.expr | None = None
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                iter_expr = node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if _is_set_expr(generator.iter):
                        iter_expr = generator.iter
                        break
            elif isinstance(node, ast.Call) and node.args and _is_set_expr(node.args[0]):
                func = node.func
                if isinstance(func, ast.Name) and func.id in _ORDER_SINKS:
                    iter_expr = node.args[0]
                elif isinstance(func, ast.Attribute) and func.attr == "join":
                    iter_expr = node.args[0]
            if iter_expr is not None:
                yield module.finding(
                    self,
                    iter_expr,
                    "set iteration order escapes into results; wrap in sorted(...)",
                )
