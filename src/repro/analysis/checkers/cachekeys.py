"""RPA6xx — cache/checkpoint key soundness.

A content-addressed cache is only as sound as its key: a parameter that
changes the computed result but not the hash silently serves stale
artifacts; an environment variable read below the cached call does the
same across processes.  PR 6 guarded two specific keys with hand-written
regression tests; this family turns that into a checked property of
every key in the tree, using the dataflow layer:

* ``RPA601`` — a parameter of a key-computing function (one that calls
  ``content_key`` or a key-builder that wraps it) does not flow into
  the key's arguments.  Parameters that are deliberately not part of
  the artifact identity (worker counts, cache toggles) carry a
  ``# repro: nokey[RPA601] <reason>`` annotation on their line.
* ``RPA602`` — a result-affecting ``REPRO_*`` environment variable is
  transitively readable from a key-computing function but no call
  whose result flows into the key covers it (e.g. a key missing
  ``resolve_engine()`` while the solver honors ``REPRO_ENGINE``).
* ``RPA603`` — a ``.put(key, ...)`` / ``SweepCheckpoint(key, ...)``
  whose key derives from neither a content-key call nor a parameter
  (an ad-hoc string or counter is not a content hash).

``repro.runtime`` itself is exempt: it *implements* the mechanism.
Execution-strategy variables (``REPRO_WORKERS``, ``REPRO_STRICT``,
checkpoint/resume/trace/cache-location toggles) are result-neutral by
the determinism contract — parallel and resumed runs are bit-for-bit
identical — and are therefore never required in a key.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import Checker, dotted_name
from repro.analysis.dataflow.callgraph import CallGraph, build_call_graph
from repro.analysis.dataflow.queries import (
    call_results_flowing_into,
    param_flows_into,
)
from repro.analysis.engine import ModuleInfo, Project
from repro.analysis.findings import Finding

#: The root key primitive; everything hashing through it is "a key".
CONTENT_KEY = "repro.runtime.cache.content_key"

#: Result-neutral environment variables: they steer *how* a result is
#: computed (parallelism, persistence, logging, failure policy), never
#: *what* is computed — the determinism tests pin that equivalence.
RESULT_NEUTRAL_ENV = frozenset({
    "REPRO_WORKERS",
    "REPRO_TRACE",
    "REPRO_CACHE_DIR",
    "REPRO_NO_CACHE",
    "REPRO_CHECKPOINT",
    "REPRO_RESUME",
    "REPRO_STRICT",
    "REPRO_FAULTS",
    "REPRO_SANITIZE",
})

#: Classes whose constructor takes a cache key as first argument.
_KEYED_CONSTRUCTORS = frozenset({
    "repro.runtime.resilience.SweepCheckpoint",
})


def _result_affecting(env_vars: frozenset[str]) -> set[str]:
    return {v for v in env_vars
            if v.startswith("REPRO_") and v not in RESULT_NEUTRAL_ENV}


def key_builders(graph: CallGraph) -> frozenset[str]:
    """Functions whose return value is (recursively) a content key."""
    builders: set[str] = {CONTENT_KEY}
    changed = True
    while changed:
        changed = False
        for info in graph.functions.values():
            if info.qualname in builders:
                continue
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Return) or node.value is None:
                    continue
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Call):
                        dotted = dotted_name(sub.func)
                        if dotted is None:
                            continue
                        target = graph.resolve(info.module, dotted)
                        if target in builders:
                            builders.add(info.qualname)
                            changed = True
                            break
                if info.qualname in builders:
                    break
    return frozenset(builders)


def _key_calls(info, graph: CallGraph,
               builders: frozenset[str]) -> list[tuple[ast.Call, str]]:
    """``(call, resolved_builder)`` for every key call in the body."""
    calls: list[tuple[ast.Call, str]] = []
    for node in ast.walk(info.node):
        if isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            target = graph.resolve(info.module, dotted)
            if target in builders:
                calls.append((node, target))
    return calls


def _checkable_params(info) -> list[ast.arg]:
    args = info.node.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    if info.is_method and params and params[0].arg in ("self", "cls"):
        params = params[1:]
    return [p for p in params if not p.arg.startswith("_")]


class CacheKeyChecker(Checker):
    codes = {
        "RPA601": "parameter of a key-computing function does not flow "
                  "into the content-hash key (annotate deliberate "
                  "omissions with '# repro: nokey[RPA601] reason')",
        "RPA602": "result-affecting REPRO_* environment variable is "
                  "readable below a key-computing function but not "
                  "covered by the key",
        "RPA603": "cache/checkpoint key does not derive from a "
                  "content-key call or a parameter",
    }

    def check_project(self, project: Project) -> list[Finding]:
        graph = build_call_graph(project)
        builders = key_builders(graph)
        by_path = {m.path: m for m in project.modules}
        findings: list[Finding] = []
        for info in graph.functions.values():
            if info.module.startswith("repro.runtime") or \
                    info.module.startswith("repro.analysis"):
                continue
            module = by_path.get(info.path)
            if module is None:
                continue
            calls = _key_calls(info, graph, builders)
            if calls:
                findings.extend(
                    self._check_params(module, info, calls))
                findings.extend(
                    self._check_env_coverage(module, info, graph, calls))
            findings.extend(
                self._check_key_provenance(module, info, graph, builders))
        return findings

    # -------------------------------------------------------- RPA601 -- #
    def _check_params(self, module: ModuleInfo, info,
                      calls: list[tuple[ast.Call, str]]) -> list[Finding]:
        findings: list[Finding] = []
        for param in _checkable_params(info):
            if any(param_flows_into(info.node, param.arg, call)
                   for call, _ in calls):
                continue
            findings.append(Finding(
                path=module.path, line=param.lineno,
                col=param.col_offset, code="RPA601",
                message=f"parameter '{param.arg}' of key-computing "
                        f"function '{info.name}' does not flow into the "
                        "content-hash key; include it in the key or "
                        "annotate the parameter line with "
                        "'# repro: nokey[RPA601] <why it cannot change "
                        "the cached result>'",
                symbol=f"{info.qualname}.{param.arg}"))
        return findings

    # -------------------------------------------------------- RPA602 -- #
    def _check_env_coverage(self, module: ModuleInfo, info,
                            graph: CallGraph,
                            calls: list[tuple[ast.Call, str]]
                            ) -> list[Finding]:
        relevant = _result_affecting(
            graph.transitive_env_reads(info.qualname))
        if not relevant:
            return []

        def resolve(dotted: str) -> str | None:
            return graph.resolve(info.module, dotted)

        covered: set[str] = set()
        for call, target in calls:
            if target != CONTENT_KEY:
                # A key-builder covers whatever it reads itself; its own
                # soundness is checked at its definition site.
                covered |= graph.transitive_env_reads(target)
            for callee in call_results_flowing_into(info.node, call,
                                                    resolve):
                covered |= graph.transitive_env_reads(callee)
        findings: list[Finding] = []
        for call, _ in calls:
            uncovered = sorted(relevant - covered)
            if not uncovered:
                break
            findings.append(Finding(
                path=module.path, line=call.lineno, col=call.col_offset,
                code="RPA602",
                message="cache key does not cover result-affecting "
                        f"environment read(s) {', '.join(uncovered)} "
                        f"reachable from '{info.name}'; thread the "
                        "resolved value (e.g. resolve_engine()) into "
                        "the key arguments",
                symbol=info.qualname))
            break  # one finding per function, not per key call
        return findings

    # -------------------------------------------------------- RPA603 -- #
    def _check_key_provenance(self, module: ModuleInfo, info,
                              graph: CallGraph,
                              builders: frozenset[str]) -> list[Finding]:
        params = {p.arg for p in _checkable_params(info)}
        findings: list[Finding] = []
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            if not self._is_keyed_store(node, info, graph):
                continue
            key_arg = node.args[0]
            if self._key_is_derived(key_arg, info, graph, builders,
                                    params):
                continue
            findings.append(Finding(
                path=module.path, line=node.lineno, col=node.col_offset,
                code="RPA603",
                message="stored key does not derive from a content-key "
                        "call or a parameter; build it with "
                        "content_key(...) so artifact identity follows "
                        "content, not call order",
                symbol=info.qualname))
        return findings

    @staticmethod
    def _is_keyed_store(node: ast.Call, info, graph: CallGraph) -> bool:
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr == "put":
            return True
        dotted = dotted_name(node.func)
        if dotted is None:
            return False
        return graph.resolve_class(info.module, dotted) in \
            _KEYED_CONSTRUCTORS

    @staticmethod
    def _key_is_derived(key_arg: ast.expr, info, graph: CallGraph,
                        builders: frozenset[str],
                        params: set[str]) -> bool:
        # Direct: SweepCheckpoint(content_key(...), ...).
        if isinstance(key_arg, ast.Call):
            dotted = dotted_name(key_arg.func)
            if dotted is not None and \
                    graph.resolve(info.module, dotted) in builders:
                return True
        # A parameter is the caller's responsibility (checked there).
        if isinstance(key_arg, ast.Name):
            if key_arg.id in params:
                return True

            def resolve(dotted: str) -> str | None:
                target = graph.resolve(info.module, dotted)
                return target if target in builders else None

            # Local binding: does a key-builder result reach the store
            # call's arguments?  Locate the store by the Name node.
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call) and node.args and \
                        node.args[0] is key_arg:
                    return bool(call_results_flowing_into(
                        info.node, node, resolve))
        if isinstance(key_arg, ast.Attribute):
            # self.key / obj.key: provenance tracked where it was built.
            return True
        return False
