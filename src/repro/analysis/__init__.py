"""Physics-aware static analysis for the :mod:`repro` tree.

An AST-based lint engine with four rule families tailored to the
invariants this codebase lives by:

* **RPA1xx determinism** — no OS entropy, no global RNG state, no wall
  clock inside the library; samplers take explicit Generators so
  experiments stay bit-reproducible at any worker count.
* **RPA2xx units** — physical constants live in :mod:`repro.constants`,
  nowhere else.
* **RPA3xx layering** — the package import graph must follow the
  architecture DAG (DESIGN.md §4) with no cycles.
* **RPA4xx API contracts** — fully-annotated public functions, no
  mutable defaults, frozen result dataclasses.

Run it with ``python -m repro.analysis src/repro`` or ``repro lint``;
suppress a single line with ``# repro: noqa[RPA201]`` and grandfather
legacy findings with a baseline file (``--write-baseline``).
"""

from __future__ import annotations

from repro.analysis.baseline import load_baseline, write_baseline
from repro.analysis.checkers import all_codes, default_checkers
from repro.analysis.engine import (
    AnalysisReport,
    ModuleInfo,
    Project,
    run_analysis,
)
from repro.analysis.findings import Finding

__all__ = [
    "AnalysisReport",
    "Finding",
    "ModuleInfo",
    "Project",
    "all_codes",
    "default_checkers",
    "load_baseline",
    "run_analysis",
    "write_baseline",
]
