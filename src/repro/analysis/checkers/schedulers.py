"""RPA9xx — scheduler-seam discipline.

The runtime exposes one dispatch seam: :class:`repro.runtime.scheduler.
Scheduler`.  Exploration, variability and characterization code that
calls ``parallel_map`` directly bypasses that seam — it hard-codes the
process-pool policy, cannot be redirected by callers that inject a
scheduler (tests, benchmarks), and silently diverges from the
chunk-planning and fault-recovery behaviour the ``LocalScheduler``
layers on top.

* ``RPA901`` — a module under ``repro.exploration``,
  ``repro.variability`` or ``repro.characterize`` calls
  ``parallel_map`` directly instead of going through a
  :class:`Scheduler`.  The runtime layer itself (and the scheduler's
  own dispatch) is exempt.

Escape hatch: ``# repro: noqa[RPA901]`` on the offending line, for the
rare site that intentionally needs it.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import Checker, dotted_name
from repro.analysis.dataflow.callgraph import build_call_graph
from repro.analysis.engine import Project
from repro.analysis.findings import Finding

PARALLEL_MAP = "repro.runtime.parallel.parallel_map"

#: Package prefixes that must dispatch through the scheduler seam.
_SEAMED_LAYERS = ("repro.exploration", "repro.variability",
                  "repro.characterize")


class SchedulerSeamChecker(Checker):
    codes = {
        "RPA901": "exploration/variability/characterize code calls "
                  "parallel_map directly; dispatch through a "
                  "repro.runtime.scheduler.Scheduler so callers can "
                  "inject scheduling policy",
    }

    def check_project(self, project: Project) -> list[Finding]:
        graph = build_call_graph(project)
        by_path = {m.path: m for m in project.modules}
        findings: list[Finding] = []

        for info in graph.functions.values():
            if not info.module.startswith(_SEAMED_LAYERS):
                continue
            module = by_path.get(info.path)
            if module is None:
                continue
            for call in ast.walk(info.node):
                if not isinstance(call, ast.Call):
                    continue
                dotted = dotted_name(call.func)
                if dotted is None or \
                        graph.resolve(info.module, dotted) != PARALLEL_MAP:
                    continue
                findings.append(self.finding(
                    module, call, "RPA901",
                    f"'{info.qualname}' calls parallel_map directly; "
                    "accept a Scheduler (resolve_scheduler(...)) and "
                    "dispatch through its .run() so callers can inject "
                    "scheduling policy",
                    symbol=info.qualname))
        return findings
