"""RPA4xx — API contracts: annotations, defaults, frozen results.

* ``RPA401`` — public functions are the package's API surface; every
  parameter and the return type must be annotated so ``mypy`` (and the
  next reader) can hold the line.  Private helpers (leading underscore),
  nested closures and dunder methods are exempt.
* ``RPA402`` — mutable default arguments (``def f(x=[])``) are shared
  across calls — the classic aliasing bug, doubly dangerous now that
  experiments run in long-lived worker processes.
* ``RPA403`` — result dataclasses (``*Result``, ``*Solution``,
  ``*Metrics``, ``*Output``) are values handed across layer boundaries
  and into caches; they must be ``frozen=True`` so a consumer cannot
  silently mutate a cached table's provenance.
* ``RPA404`` — every package ``__init__.py`` must carry a non-empty
  docstring naming the package's layer and responsibility; the package
  docstring is the entry point a reader (and ``help()``) hits first,
  and an empty one hides where a module sits in the DESIGN §4.1 DAG.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import (
    Checker,
    dotted_name,
    is_public,
    walk_functions,
)
from repro.analysis.engine import ModuleInfo
from repro.analysis.findings import Finding

_RESULT_SUFFIXES = ("Result", "Solution", "Metrics", "Output")

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                     ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict",
                            "OrderedDict", "Counter", "deque"})


class ContractsChecker(Checker):
    codes = {
        "RPA401": "public function must annotate every parameter and "
                  "its return type",
        "RPA402": "mutable default argument is shared across calls",
        "RPA403": "result dataclass must be frozen "
                  "(@dataclass(frozen=True))",
        "RPA404": "package __init__.py must have a non-empty docstring "
                  "stating the package's layer and responsibility",
    }

    def check_module(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        for func, owner in walk_functions(module.tree):
            findings.extend(self._check_annotations(module, func, owner))
            findings.extend(self._check_mutable_defaults(module, func))
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_result_dataclass(module, node))
        findings.extend(self._check_package_docstring(module))
        return findings

    # ------------------------------------------------------------------ #
    # RPA401
    # ------------------------------------------------------------------ #
    def _check_annotations(self, module: ModuleInfo,
                           func: ast.FunctionDef | ast.AsyncFunctionDef,
                           owner: ast.ClassDef | None) -> list[Finding]:
        if not is_public(func.name) or func.name.startswith("__"):
            return []
        if owner is not None and not is_public(owner.name):
            return []
        args = func.args
        positional = args.posonlyargs + args.args
        missing = [a.arg for a in positional + args.kwonlyargs
                   if a.annotation is None and a.arg not in ("self", "cls")]
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None and vararg.annotation is None:
                missing.append("*" + vararg.arg)
        problems = []
        if missing:
            problems.append(f"unannotated parameter(s) "
                            f"{', '.join(repr(m) for m in missing)}")
        if func.returns is None:
            problems.append("missing return annotation")
        if not problems:
            return []
        qualifier = f"{owner.name}.{func.name}" if owner else func.name
        return [self.finding(
            module, func, "RPA401",
            f"public function '{qualifier}' has "
            f"{' and '.join(problems)}; the public API surface must be "
            "fully typed",
            symbol=qualifier)]

    # ------------------------------------------------------------------ #
    # RPA402
    # ------------------------------------------------------------------ #
    def _check_mutable_defaults(self, module: ModuleInfo,
                                func: ast.FunctionDef | ast.AsyncFunctionDef
                                ) -> list[Finding]:
        findings = []
        defaults = list(func.args.defaults) + [
            d for d in func.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default, _MUTABLE_LITERALS)
            if not mutable and isinstance(default, ast.Call):
                name = dotted_name(default.func)
                mutable = name is not None and \
                    name.split(".")[-1] in _MUTABLE_CALLS
            if mutable:
                findings.append(self.finding(
                    module, default, "RPA402",
                    f"mutable default argument in '{func.name}' is "
                    "evaluated once and shared across every call; "
                    "default to None and construct inside the body",
                    symbol=func.name))
        return findings

    # ------------------------------------------------------------------ #
    # RPA403
    # ------------------------------------------------------------------ #
    def _check_result_dataclass(self, module: ModuleInfo,
                                cls: ast.ClassDef) -> list[Finding]:
        if not is_public(cls.name):
            return []
        if not cls.name.endswith(_RESULT_SUFFIXES):
            return []
        decorator = self._dataclass_decorator(cls)
        if decorator is None:
            return []
        if isinstance(decorator, ast.Call):
            for kw in decorator.keywords:
                if kw.arg == "frozen" and \
                        isinstance(kw.value, ast.Constant) and \
                        kw.value.value is True:
                    return []
        return [self.finding(
            module, cls, "RPA403",
            f"result dataclass '{cls.name}' is mutable; declare it "
            "@dataclass(frozen=True) so values crossing layer (and "
            "cache) boundaries cannot be altered in place",
            symbol=cls.name)]

    # ------------------------------------------------------------------ #
    # RPA404
    # ------------------------------------------------------------------ #
    def _check_package_docstring(self, module: ModuleInfo) -> list[Finding]:
        if not module.is_package_init or module.module_name is None:
            return []
        doc = ast.get_docstring(module.tree)
        if doc is not None and doc.strip():
            return []
        return [self.finding(
            module, module.tree, "RPA404",
            f"package '{module.module_name}' has no docstring; state the "
            "package's layer and responsibility (see DESIGN.md §4.1)",
            symbol=module.module_name)]

    @staticmethod
    def _dataclass_decorator(cls: ast.ClassDef) -> ast.AST | None:
        for dec in cls.decorator_list:
            name = dotted_name(dec.func if isinstance(dec, ast.Call) else dec)
            if name is not None and name.split(".")[-1] == "dataclass":
                return dec
        return None
