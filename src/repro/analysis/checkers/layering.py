"""RPA3xx — layering: the package dependency DAG.

The architecture (DESIGN.md §4) is a strict pipeline

``constants -> atomistic -> {poisson, negf} -> device -> circuit ->
cmos -> exploration -> variability -> reporting -> characterize -> cli``

with five cross-cutting utility layers importable from anywhere:
``errors`` (exception hierarchy), ``config`` (the resolved run
configuration), ``runtime`` (execution substrate), ``sanitize``
(numerical guards) and ``obs`` (tracing/metrics).  A package may import any package
*reachable* through the DAG below it; importing upward (``negf`` pulling
in ``device``) or across unrelated branches (``poisson`` pulling in
``negf``) couples layers that were designed independent, and any cycle
makes partial imports and pickling (worker processes!) order-dependent.

* ``RPA301`` — import edge not permitted by the DAG;
* ``RPA302`` — module-level import cycle inside ``repro``.

The root facade ``repro/__init__.py`` re-exports the public API and is
exempt from RPA301 (it sits above every layer by construction).
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import Checker
from repro.analysis.engine import ModuleInfo, Project
from repro.analysis.findings import Finding

#: Direct dependency edges of the architecture DAG.  Permission to
#: import is the transitive closure of these edges.
LAYER_DAG: dict[str, frozenset[str]] = {
    "constants": frozenset(),
    "errors": frozenset(),
    "config": frozenset({"errors"}),
    "obs": frozenset({"errors", "config"}),
    "runtime": frozenset({"errors", "obs", "sanitize"}),
    "sanitize": frozenset({"constants", "errors"}),
    "analysis": frozenset({"errors"}),
    "atomistic": frozenset({"constants", "errors"}),
    "poisson": frozenset({"atomistic", "obs"}),
    "negf": frozenset({"atomistic", "sanitize", "obs", "runtime"}),
    "device": frozenset({"negf", "poisson", "runtime", "sanitize", "obs"}),
    "circuit": frozenset({"device", "obs"}),
    "cmos": frozenset({"circuit"}),
    "exploration": frozenset({"cmos", "runtime", "obs"}),
    "variability": frozenset({"exploration", "runtime", "sanitize"}),
    "reporting": frozenset({"variability"}),
    "characterize": frozenset({"reporting", "runtime", "obs", "errors"}),
    "cli": frozenset({"reporting", "characterize", "analysis", "runtime",
                      "sanitize", "obs"}),
}


def allowed_imports(package: str) -> frozenset[str]:
    """Transitive closure of :data:`LAYER_DAG` below ``package``."""
    if package not in LAYER_DAG:
        return frozenset()
    reached: set[str] = set()
    stack = list(LAYER_DAG[package])
    while stack:
        dep = stack.pop()
        if dep in reached:
            continue
        reached.add(dep)
        stack.extend(LAYER_DAG.get(dep, frozenset()))
    return frozenset(reached)


def _walk_skipping_functions(tree: ast.Module):
    """Walk the AST without descending into function bodies.

    Imports deferred into a function body are the accepted way to break
    a runtime cycle, so the RPA302 cycle detector must only see
    module-level (import-time) edges.
    """
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            stack.append(child)


def _imported_repro_modules(tree: ast.Module, module_level_only: bool = False
                            ) -> list[tuple[str, ast.AST]]:
    """Every ``repro.*`` module referenced by import statements."""
    imports: list[tuple[str, ast.AST]] = []
    nodes = (_walk_skipping_functions(tree) if module_level_only
             else ast.walk(tree))
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    imports.append((alias.name, node))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                continue  # relative imports are not used in this tree
            if node.module == "repro":
                for alias in node.names:
                    imports.append((f"repro.{alias.name}", node))
            elif node.module is not None and \
                    node.module.startswith("repro."):
                imports.append((node.module, node))
    return imports


def _package_of(module_name: str) -> str | None:
    parts = module_name.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


class LayeringChecker(Checker):
    codes = {
        "RPA301": "import crosses the architecture layer DAG upward or "
                  "sideways; depend only on lower layers",
        "RPA302": "module-level import cycle inside repro",
    }

    def check_module(self, module: ModuleInfo) -> list[Finding]:
        package = module.package
        if package is None or package == "__init__":
            return []  # outside repro, or the exempt root facade
        permitted = allowed_imports(package)
        findings: list[Finding] = []
        for target, node in _imported_repro_modules(module.tree):
            target_pkg = _package_of(target)
            if target_pkg is None or target_pkg == package:
                continue
            if target_pkg in permitted:
                continue
            if target_pkg not in LAYER_DAG:
                findings.append(self.finding(
                    module, node, "RPA301",
                    f"import of unknown package 'repro.{target_pkg}' — "
                    "add it to the layer DAG in "
                    "repro/analysis/checkers/layering.py (and DESIGN.md) "
                    "before depending on it",
                    symbol=target))
            else:
                findings.append(self.finding(
                    module, node, "RPA301",
                    f"layer violation: '{package}' may not import "
                    f"'{target_pkg}' (allowed: "
                    f"{', '.join(sorted(permitted)) or 'nothing'}); "
                    "the DAG flows constants -> atomistic -> "
                    "{poisson,negf} -> device -> circuit -> cmos -> "
                    "exploration -> variability -> reporting -> cli",
                    symbol=target))
        return findings

    def check_project(self, project: Project) -> list[Finding]:
        """Detect module-level import cycles with Tarjan's SCC algorithm."""
        by_name = project.by_module_name()
        graph: dict[str, set[str]] = {}
        for name, module in by_name.items():
            deps = set()
            for target, _ in _imported_repro_modules(module.tree,
                                                     module_level_only=True):
                if target in by_name and target != name:
                    deps.add(target)
                else:
                    # 'from repro.negf.scf import X' may name a symbol's
                    # parent module; fall back to the longest known prefix.
                    parts = target.split(".")
                    for cut in range(len(parts) - 1, 1, -1):
                        prefix = ".".join(parts[:cut])
                        if prefix in by_name and prefix != name:
                            deps.add(prefix)
                            break
            graph[name] = deps

        findings: list[Finding] = []
        for cycle in _strongly_connected_cycles(graph):
            anchor = sorted(cycle)[0]
            module = by_name[anchor]
            findings.append(Finding(
                path=module.path, line=1, col=0, code="RPA302",
                message="import cycle: " + " -> ".join(sorted(cycle)) +
                        " -> ...; break the cycle by moving the shared "
                        "piece into the lower layer",
                symbol=anchor))
        return findings


def _strongly_connected_cycles(graph: dict[str, set[str]]
                               ) -> list[frozenset[str]]:
    """Non-trivial SCCs (size > 1, or self-loop) of the import graph."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    cycles: list[frozenset[str]] = []

    def visit(root: str) -> None:
        work: list[tuple[str, iter]] = [(root, iter(graph.get(root, ())))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(graph.get(child, ()))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                if len(component) > 1 or node in graph.get(node, ()):
                    cycles.append(frozenset(component))

    for name in sorted(graph):
        if name not in index:
            visit(name)
    return cycles
