"""API-invariant rules: cross-file parity checks.

**Codec parity**, an invariant that round-trip tests only probe on
exercised paths: every ``key=`` attribute a ``format_*`` function in
``httpmodel/piggy_codec.py`` emits must be handled by the paired
``parse_*`` function, and vice versa, or headers stop round-tripping.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Sequence

from .engine import Finding, ProjectRule, SourceModule, register

_CODEC_PATH = "src/repro/httpmodel/piggy_codec.py"

_KEY_RE = re.compile(r"(?:^|[^A-Za-z0-9_])([a-z][a-z0-9_]*)=")


def _function_defs(module: SourceModule) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in module.tree.body
        if isinstance(node, ast.FunctionDef)
    }


def _format_keys(func: ast.FunctionDef) -> set[str]:
    """Attribute keys a format_* function emits (``f"maxpiggy={...}"``)."""
    keys = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            keys.update(_KEY_RE.findall(node.value))
    return keys


def _parse_keys(func: ast.FunctionDef) -> set[str]:
    """String literals a parse_* function compares its attribute key to."""
    keys = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Compare):
            continue
        involved = any(
            isinstance(sub, ast.Name) and sub.id == "key"
            for sub in ast.walk(node)
        )
        if not involved:
            continue
        for comparator in [node.left, *node.comparators]:
            if isinstance(comparator, ast.Constant) and isinstance(comparator.value, str):
                if re.fullmatch(r"[a-z][a-z0-9_]*", comparator.value):
                    keys.add(comparator.value)
    return keys


@register
class CodecParityRule(ProjectRule):
    id = "api-codec-parity"
    family = "api"
    description = (
        "Every attribute key format_* emits must be parsed by the paired "
        "parse_* function, and vice versa."
    )
    codec_path = _CODEC_PATH

    def check_project(self, modules: Sequence[SourceModule]) -> Iterable[Finding]:
        codec = next(
            (module for module in modules if module.relpath == self.codec_path), None
        )
        if codec is None:
            return
        functions = _function_defs(codec)
        for name, format_func in sorted(functions.items()):
            if not name.startswith("format_"):
                continue
            parse_func = functions.get("parse_" + name[len("format_"):])
            if parse_func is None:
                yield codec.finding(
                    self,
                    None,
                    f"{name} has no paired parse_ function",
                    line=format_func.lineno,
                )
                continue
            emitted = _format_keys(format_func)
            parsed = _parse_keys(parse_func)
            if not emitted or not parsed:
                continue  # free-form codec: nothing comparable
            for key in sorted(emitted - parsed):
                yield codec.finding(
                    self,
                    None,
                    f"{name} emits {key!r} but {parse_func.name} never parses it",
                    line=format_func.lineno,
                )
            for key in sorted(parsed - emitted):
                yield codec.finding(
                    self,
                    None,
                    f"{parse_func.name} parses {key!r} but {name} never emits it",
                    line=parse_func.lineno,
                )
