"""RPA8xx — hot-path hygiene.

The solver loops dominate runtime; three patterns quietly erode the
batched-kernel speedups the benchmarks pin:

* ``RPA801`` — an ``obs`` record call (``obs.incr``/``gauge``/
  ``observe``/``record_failure``) inside a loop without the
  ``obs.ACTIVE`` module-flag guard: the disabled-path cost of the
  counter API is only near-zero when call sites check the flag first
  (the pattern ``if obs.ACTIVE: obs.incr(...)``; see
  ``benchmarks/bench_obs_overhead.py``).
* ``RPA802`` — a Python-level per-energy loop (or comprehension) over
  a scalar transport kernel where an energy-batched kernel exists:
  ``sancho_rubio_surface_gf_batched`` / ``rgf_transmission_batched``
  replace per-energy ``sancho_rubio_surface_gf`` / ``.transport_at``
  calls with stacked LAPACK operations.  Calls to a scalar kernel
  from its *own* defining module are exempt (the batched kernels and
  retry ladders legitimately wrap their scalar forms).
* ``RPA803`` — array allocation (``np.zeros``/``empty``/``eye``/
  ``stacked_identity``/...) inside the iteration loop of a
  ``*_batched`` kernel: decimation loops run tens of times per call;
  hoist the buffer and slice it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.checkers.base import Checker, dotted_name
from repro.analysis.engine import ModuleInfo
from repro.analysis.findings import Finding

_OBS_RECORDS = frozenset({"incr", "gauge", "observe", "record_failure"})

#: Scalar kernels with an energy-batched counterpart.
_SCALAR_KERNELS = {
    "sancho_rubio_surface_gf": "sancho_rubio_surface_gf_batched",
    "resilient_surface_gf": "resilient_surface_gf_batched",
    "dense_retarded_gf": "rgf_transmission_batched",
    "recursive_greens_function": "rgf_transmission_batched",
    "rgf_transmission": "rgf_transmission_batched",
}

#: Per-point evaluation methods with a batched counterpart.
_SCALAR_METHODS = {
    "transmission_at": "transport",
}

_ALLOCATORS = frozenset({
    "zeros", "empty", "ones", "full", "eye", "identity",
    "zeros_like", "empty_like", "ones_like", "full_like",
    "stacked_identity",
})

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                   ast.DictComp)


def _mentions_active(test: ast.expr) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and node.attr == "ACTIVE":
            return True
        if isinstance(node, ast.Name) and node.id == "ACTIVE":
            return True
    return False


def _is_obs_record(call: ast.Call) -> bool:
    dotted = dotted_name(call.func)
    if dotted is None:
        return False
    parts = dotted.split(".")
    return len(parts) == 2 and parts[0] == "obs" and \
        parts[1] in _OBS_RECORDS


def _is_allocator(call: ast.Call) -> bool:
    dotted = dotted_name(call.func)
    if dotted is None:
        return False
    tail = dotted.split(".")[-1]
    return tail in _ALLOCATORS


def _calls_in(exprs: Iterable[ast.expr | None]) -> list[ast.Call]:
    calls: list[ast.Call] = []
    for expr in exprs:
        if expr is None:
            continue
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                calls.append(node)
    return calls


def _stmt_exprs(stmt: ast.stmt) -> list[ast.expr]:
    """Expressions evaluated by ``stmt`` itself (headers for compound
    statements, everything for simple ones)."""
    if isinstance(stmt, ast.If):
        return [stmt.test]
    if isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return []
    return [node for node in ast.iter_child_nodes(stmt)
            if isinstance(node, ast.expr)]


class HotPathChecker(Checker):
    codes = {
        "RPA801": "obs record call inside a loop without the "
                  "'if obs.ACTIVE:' guard; the disabled path must stay "
                  "free",
        "RPA802": "Python per-energy loop over a scalar transport "
                  "kernel; use the energy-batched kernel",
        "RPA803": "array allocation inside the iteration loop of a "
                  "*_batched kernel; hoist the buffer and slice it",
    }

    def check_module(self, module: ModuleInfo) -> list[Finding]:
        if module.module_name is not None and \
                module.module_name.startswith("repro.obs"):
            return []
        local_defs = {stmt.name for stmt in module.tree.body
                      if isinstance(stmt, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))}
        findings: list[Finding] = []
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            batched = func.name.endswith("_batched")
            self._walk(module, func.body, in_loop=False, guarded=False,
                       batched=batched, local_defs=local_defs,
                       findings=findings)
        # A call inside a comprehension inside a loop is seen by both
        # the loop pass and the comprehension pass: keep one.
        unique: list[Finding] = []
        seen: set[Finding] = set()
        for finding in findings:
            if finding not in seen:
                seen.add(finding)
                unique.append(finding)
        return unique

    # ------------------------------------------------------------------ #
    def _walk(self, module: ModuleInfo, stmts: list[ast.stmt],
              in_loop: bool, guarded: bool, batched: bool,
              local_defs: set[str], findings: list[Finding]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # nested defs are visited as their own scope
            self._check_exprs(module, _stmt_exprs(stmt), in_loop,
                              guarded, batched, local_defs, findings)
            if isinstance(stmt, ast.If):
                body_guarded = guarded or _mentions_active(stmt.test)
                self._walk(module, stmt.body, in_loop, body_guarded,
                           batched, local_defs, findings)
                self._walk(module, stmt.orelse, in_loop, guarded,
                           batched, local_defs, findings)
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                self._walk(module, stmt.body, True, guarded, batched,
                           local_defs, findings)
                self._walk(module, stmt.orelse, in_loop, guarded,
                           batched, local_defs, findings)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._walk(module, stmt.body, in_loop, guarded, batched,
                           local_defs, findings)
            elif isinstance(stmt, ast.Try):
                for block in (stmt.body, stmt.orelse, stmt.finalbody):
                    self._walk(module, block, in_loop, guarded, batched,
                               local_defs, findings)
                for handler in stmt.handlers:
                    self._walk(module, handler.body, in_loop, guarded,
                               batched, local_defs, findings)
            elif isinstance(stmt, ast.Match):
                for case in stmt.cases:
                    self._walk(module, case.body, in_loop, guarded,
                               batched, local_defs, findings)

    def _check_exprs(self, module: ModuleInfo,
                     exprs: list[ast.expr], in_loop: bool, guarded: bool,
                     batched: bool, local_defs: set[str],
                     findings: list[Finding]) -> None:
        calls = _calls_in(exprs)
        if in_loop:
            for call in calls:
                if _is_obs_record(call) and not guarded:
                    findings.append(self.finding(
                        module, call, "RPA801",
                        "obs record call in a loop without the "
                        "'if obs.ACTIVE:' guard; counters must cost "
                        "nothing when tracing is off",
                        symbol=dotted_name(call.func) or ""))
                self._check_scalar_kernel(module, call, local_defs,
                                          findings)
                if batched and _is_allocator(call):
                    findings.append(self.finding(
                        module, call, "RPA803",
                        "allocation inside the iteration loop of a "
                        "batched kernel; hoist the buffer before the "
                        "loop and slice per iteration",
                        symbol=dotted_name(call.func) or ""))
        # Comprehensions are loops wherever they appear.
        for expr in exprs:
            if expr is None:
                continue
            for node in ast.walk(expr):
                if isinstance(node, _COMPREHENSIONS):
                    for call in _calls_in([_comp_elt(node)]):
                        self._check_scalar_kernel(module, call,
                                                  local_defs, findings)

    def _check_scalar_kernel(self, module: ModuleInfo, call: ast.Call,
                             local_defs: set[str],
                             findings: list[Finding]) -> None:
        dotted = dotted_name(call.func)
        if dotted is None:
            return
        tail = dotted.split(".")[-1]
        if tail in _SCALAR_KERNELS and tail not in local_defs:
            findings.append(self.finding(
                module, call, "RPA802",
                f"per-energy loop over scalar kernel '{tail}'; use "
                f"'{_SCALAR_KERNELS[tail]}' on the full energy grid "
                "instead",
                symbol=dotted))
        elif isinstance(call.func, ast.Attribute) and \
                call.func.attr in _SCALAR_METHODS:
            method = call.func.attr
            findings.append(self.finding(
                module, call, "RPA802",
                f"per-energy loop over '.{method}()'; use "
                f"'.{_SCALAR_METHODS[method]}()' on the full energy "
                "grid instead",
                symbol=dotted))


def _comp_elt(node: ast.expr) -> ast.expr:
    if isinstance(node, ast.DictComp):
        return node.value
    assert isinstance(node, (ast.ListComp, ast.SetComp,
                             ast.GeneratorExp))
    return node.elt
