"""Swallowed-exception detection (RPL040).

The broker's lease/retry paths (``experiments/broker.py``, driven by
``worker.py`` and ``executors.py``) turn worker crashes into
recorded, retryable failures; a broad ``except`` that silently discards the
error would instead turn them into hung sweeps and missing cells. A broad
handler is fine when it *re-raises* or *reports* (binds the exception and
actually uses it); it is a finding when the error evaporates.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro_lint.core import Finding, Module, Rule, register_rule
from repro_lint.rules import dotted_name

_BROAD = ("Exception", "BaseException")


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for node in types:
        name = dotted_name(node)
        if name is not None and name.split(".")[-1] in _BROAD:
            return True
    return False


def _uses_name(body: list[ast.stmt], name: str) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id == name:
                return True
    return False


def _reraises(body: list[ast.stmt]) -> bool:
    return any(isinstance(n, ast.Raise) for stmt in body for n in ast.walk(stmt))


@register_rule
class NoSwallowedExceptions(Rule):
    code = "RPL040"
    name = "no-swallowed-exception"
    description = (
        "a broad `except` must re-raise or report the error, never "
        "silently discard it"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node):
                continue
            if _reraises(node.body):
                continue
            if node.name is not None and _uses_name(node.body, node.name):
                continue
            what = "bare except" if node.type is None else \
                "broad except (Exception/BaseException)"
            yield self.finding(
                module, node,
                f"{what} silently swallows the error; narrow the exception "
                "types, re-raise, or record the error (`as e` + report)",
            )
