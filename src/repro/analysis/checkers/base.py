"""Checker interface and shared AST helpers."""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import ModuleInfo, Project
from repro.analysis.findings import Finding


class Checker:
    """Base class every rule family derives from.

    Subclasses override :meth:`check_module` (per-file rules) and/or
    :meth:`check_project` (whole-tree rules such as the layering DAG),
    and declare their codes in :attr:`codes` for ``--list-codes``.
    """

    #: Mapping of code -> one-line rule description.
    codes: dict[str, str] = {}

    def check_module(self, module: ModuleInfo) -> list[Finding]:
        return []

    def check_project(self, project: Project) -> list[Finding]:
        return []

    def finding(self, module: ModuleInfo, node: ast.AST, code: str,
                message: str, symbol: str = "") -> Finding:
        return Finding(path=module.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       code=code, message=message, symbol=symbol)


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_functions(tree: ast.Module
                   ) -> Iterable[tuple[ast.FunctionDef | ast.AsyncFunctionDef,
                                       ast.ClassDef | None]]:
    """Yield ``(function, owning_class)`` pairs.

    Only module-level functions and direct methods of module-level
    classes are yielded — nested closures are local implementation
    detail, not API surface.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, None
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item, node


def is_public(name: str) -> bool:
    return not name.startswith("_")
