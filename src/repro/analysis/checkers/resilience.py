"""RPA5xx — resilience: recovery logic stays centralized.

The resilience layer (:mod:`repro.runtime.resilience`) owns the policy
for what happens when a solve fails: retry ladders absorb
``ConvergenceError`` only, quarantine converts exhausted failures into
structured records, and everything else propagates.  A broad handler
anywhere else — ``except Exception:``, ``except BaseException:`` or a
bare ``except:`` — silently swallows programming errors, hides a
solver's non-convergence from the quarantine records and the run
manifest, and forks the recovery policy into ad-hoc local variants:

* ``RPA501`` — broad exception handler outside
  ``repro.runtime.resilience``.  Catch the narrowest concrete type
  (``ConvergenceError``, ``AnalysisError``, ``OSError``, ...) instead;
  a handler that *re-raises* (cleanup-then-``raise``, the atomic-write
  idiom) is exempt because nothing is swallowed.

Suppress a deliberate exception firewall with
``# repro: noqa[RPA501]``.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import Checker
from repro.analysis.engine import ModuleInfo
from repro.analysis.findings import Finding

#: The one module allowed to hold broad recovery handlers.
_ALLOWED_MODULES = frozenset({"repro.runtime.resilience"})

#: Exception names considered "broad" when caught.
_BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _broad_catch(handler: ast.ExceptHandler) -> str | None:
    """The broad name this handler catches, or None if it is narrow."""
    if handler.type is None:
        return "bare except"
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    for node in types:
        name = node.attr if isinstance(node, ast.Attribute) else (
            node.id if isinstance(node, ast.Name) else None)
        if name in _BROAD_NAMES:
            return name
    return None


def _reraises(handler: ast.ExceptHandler) -> bool:
    """True if the handler body re-raises what it caught.

    A bare ``raise`` anywhere in the handler (outside nested function
    definitions) counts — that is the cleanup-then-reraise idiom — and
    so does ``raise <caught name>``.
    """
    caught = handler.name

    def scan(nodes: list[ast.stmt]) -> bool:
        for stmt in nodes:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                    continue
                if isinstance(node, ast.Raise):
                    if node.exc is None:
                        return True
                    if (caught and isinstance(node.exc, ast.Name)
                            and node.exc.id == caught):
                        return True
        return False

    return scan(handler.body)


class ResilienceChecker(Checker):
    codes = {
        "RPA501": "broad exception handler outside "
                  "repro.runtime.resilience swallows failures; catch a "
                  "concrete type or re-raise",
    }

    def check_module(self, module: ModuleInfo) -> list[Finding]:
        if module.module_name in _ALLOWED_MODULES:
            return []
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = _broad_catch(node)
            if broad is None or _reraises(node):
                continue
            findings.append(self.finding(
                module, node, "RPA501",
                f"broad handler ({broad}) swallows failures; catch a "
                "concrete exception type, re-raise, or centralize the "
                "recovery in repro.runtime.resilience"))
        return findings
