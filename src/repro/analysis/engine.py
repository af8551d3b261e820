"""Shared AST infrastructure: module model, suppression, orchestration.

The engine parses every target file once, hands the shared
:class:`ModuleInfo` to each checker (per-module pass), then hands the
whole :class:`Project` to checkers that need a global view (the layering
DAG).  Findings flow through two suppression filters:

* per-line ``# repro: noqa[CODE]`` (or blanket ``# repro: noqa``)
  comments on the offending line;
* an optional baseline file of previously accepted findings
  (:mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.findings import Finding

#: Engine-level code for files the parser rejects.
PARSE_ERROR_CODE = "RPA001"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE)


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source file plus everything checkers need about it.

    Attributes
    ----------
    path:
        Path as given on the command line (used in reports).
    module_name:
        Dotted module name when the file lives inside the ``repro``
        package (e.g. ``repro.negf.greens``), else ``None``.
    tree:
        Parsed AST.
    source_lines:
        Raw source split into lines (1-indexed through ``line(n)``).
    noqa:
        Mapping of line number to the set of suppressed codes on that
        line; an empty set means a blanket ``# repro: noqa``.
    """

    path: str
    module_name: str | None
    tree: ast.Module
    source_lines: tuple[str, ...]
    noqa: dict[int, frozenset[str]] = field(default_factory=dict)

    @property
    def package(self) -> str | None:
        """First component below ``repro`` (``negf`` for ``repro.negf.scf``).

        Top-level modules map to themselves (``repro.cli`` -> ``cli``);
        the root ``repro/__init__`` maps to ``"__init__"``.
        """
        if self.module_name is None or self.module_name == "repro":
            return "__init__" if self.module_name == "repro" else None
        return self.module_name.split(".")[1]

    @property
    def is_package_init(self) -> bool:
        return Path(self.path).name == "__init__.py"

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.source_lines):
            return self.source_lines[lineno - 1]
        return ""

    def is_suppressed(self, finding: Finding) -> bool:
        codes = self.noqa.get(finding.line)
        if codes is None:
            return False
        return not codes or finding.code in codes


@dataclass
class Project:
    """Every module of one analysis run, keyed for global checkers."""

    modules: list[ModuleInfo]

    def by_module_name(self) -> dict[str, ModuleInfo]:
        return {m.module_name: m for m in self.modules
                if m.module_name is not None}


def scan_noqa(source_lines: Sequence[str]) -> dict[int, frozenset[str]]:
    """Extract ``# repro: noqa[...]`` suppressions, keyed by line number."""
    noqa: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source_lines, start=1):
        if "repro:" not in text:
            continue
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        raw = match.group("codes")
        if raw is None:
            noqa[lineno] = frozenset()
        else:
            noqa[lineno] = frozenset(
                c.strip().upper() for c in raw.split(",") if c.strip())
    return noqa


def module_name_for(path: Path) -> str | None:
    """Dotted module name of ``path`` if it sits inside a ``repro`` tree."""
    parts = list(path.with_suffix("").parts)
    if "repro" not in parts:
        return None
    parts = parts[parts.index("repro"):]
    if parts[-1] == "__init__":
        parts = parts[:-1] or ["repro"]
    return ".".join(parts)


def load_module(path: Path, display_path: str | None = None
                ) -> tuple[ModuleInfo | None, Finding | None]:
    """Parse one file; returns ``(module, None)`` or ``(None, finding)``."""
    display = display_path if display_path is not None else str(path)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=display)
    except (OSError, SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", None) or 1
        return None, Finding(path=display, line=int(line), col=0,
                             code=PARSE_ERROR_CODE,
                             message=f"file cannot be analysed: {exc}")
    lines = tuple(source.splitlines())
    return ModuleInfo(path=display, module_name=module_name_for(path),
                      tree=tree, source_lines=lines,
                      noqa=scan_noqa(lines)), None


def discover_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(
                f for f in p.rglob("*.py")
                if "__pycache__" not in f.parts
                and not any(part.startswith(".") for part in f.parts)))
        elif p.suffix == ".py":
            files.append(p)
    seen: set[Path] = set()
    unique = []
    for f in files:
        if f not in seen:
            seen.add(f)
            unique.append(f)
    return unique


@dataclass(frozen=True)
class AnalysisReport:
    """Outcome of one analysis run."""

    findings: tuple[Finding, ...]
    n_files: int
    n_noqa_suppressed: int
    n_baseline_suppressed: int

    @property
    def clean(self) -> bool:
        return not self.findings


def _matches_select(code: str, select: Sequence[str]) -> bool:
    return any(code.startswith(prefix) for prefix in select)


def run_analysis(paths: Iterable[str | Path],
                 checkers: Sequence["object"] | None = None,
                 baseline: dict[str, int] | None = None,
                 select: Sequence[str] | None = None,
                 focus: Iterable[str | Path] | None = None
                 ) -> AnalysisReport:
    """Analyse ``paths`` with ``checkers`` (default: the full registry).

    ``baseline`` is a ``{baseline_key: count}`` mapping of accepted
    findings (see :mod:`repro.analysis.baseline`); matching findings are
    consumed against their counts and dropped from the report.

    ``select`` restricts the run to code prefixes (``["RPA3", "RPA8"]``
    runs only layering and hot-path hygiene): checkers with no matching
    code are skipped entirely, and stray findings outside the selection
    are filtered.  Parse errors (RPA001) are always reported.

    ``focus`` restricts *reporting* (not analysis) to the given files:
    the whole path set is still parsed so the project-wide passes —
    import cycles, layering — resolve against the real tree, but only
    findings landing in a focus file survive.  This is what
    ``--changed`` mode uses; analysing the changed subset alone would
    hand the layering checker a truncated project in which package
    imports appear cyclic or unknown.
    """
    from repro.analysis.checkers import default_checkers

    active = list(checkers) if checkers is not None else default_checkers()
    if select:
        select = [prefix.strip().upper() for prefix in select
                  if prefix.strip()]
        active = [checker for checker in active
                  if any(_matches_select(code, select)
                         for code in getattr(checker, "codes", {}))]

    modules: list[ModuleInfo] = []
    findings: list[Finding] = []
    for path in discover_files(paths):
        module, parse_finding = load_module(path)
        if parse_finding is not None:
            findings.append(parse_finding)
            continue
        assert module is not None
        modules.append(module)

    project = Project(modules=modules)
    for checker in active:
        for module in modules:
            findings.extend(checker.check_module(module))
        findings.extend(checker.check_project(project))

    if select:
        findings = [f for f in findings
                    if f.code == PARSE_ERROR_CODE
                    or _matches_select(f.code, select)]

    n_files = len(modules)
    if focus is not None:
        focus_set = {Path(p).resolve() for p in focus}
        findings = [f for f in findings
                    if Path(f.path).resolve() in focus_set]
        n_files = sum(1 for m in modules
                      if Path(m.path).resolve() in focus_set)

    by_path = {m.path: m for m in modules}
    kept: list[Finding] = []
    n_noqa = 0
    for finding in sorted(findings):
        module = by_path.get(finding.path)
        if module is not None and module.is_suppressed(finding):
            n_noqa += 1
            continue
        kept.append(finding)

    n_baseline = 0
    if baseline:
        budget = dict(baseline)
        surviving = []
        for finding in kept:
            key = finding.baseline_key()
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                n_baseline += 1
            else:
                surviving.append(finding)
        kept = surviving

    return AnalysisReport(findings=tuple(kept), n_files=n_files,
                          n_noqa_suppressed=n_noqa,
                          n_baseline_suppressed=n_baseline)
