"""Command-line front end: ``python -m repro.analysis`` / ``repro lint``.

Exit codes: 0 clean, 1 findings reported, 2 usage error (or, under
``--strict``, findings reported — so CI jobs that must hard-fail can
distinguish "dirty" from "merely advisory").
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from repro.analysis.baseline import (
    DEFAULT_BASELINE_NAME,
    load_baseline,
    write_baseline,
)
from repro.analysis.checkers import all_codes
from repro.analysis.engine import run_analysis
from repro.analysis.reporters import render_json, render_text

_RENDERERS = {
    "text": render_text,
    "json": render_json,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Physics-aware static analysis for the repro tree "
                    "(determinism RPA1xx, units RPA2xx, layering RPA3xx, "
                    "API contracts RPA4xx, resilience RPA5xx, hot-path "
                    "hygiene RPA8xx)")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to analyse "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--select", metavar="PREFIXES", default=None,
                        help="comma-separated code prefixes to run "
                             "(e.g. 'RPA3,RPA8' for layering and hot-path "
                             "hygiene only)")
    parser.add_argument("--changed", metavar="REF", nargs="?",
                        const="HEAD", default=None,
                        help="restrict analysis to .py files differing "
                             "from a git ref (default HEAD), plus "
                             "untracked ones — fast pre-commit mode")
    parser.add_argument("--strict", action="store_true",
                        help="exit 2 instead of 1 when findings remain")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="baseline file of accepted findings "
                             f"(default: {DEFAULT_BASELINE_NAME} if it "
                             "exists)")
    parser.add_argument("--write-baseline", metavar="FILE", default=None,
                        help="accept all current findings into FILE and "
                             "exit 0")
    parser.add_argument("--list-codes", action="store_true",
                        help="list every rule code and exit")
    return parser


def changed_files(ref: str, within: list[str]) -> list[str] | None:
    """``.py`` files differing from ``ref`` (tracked) or untracked.

    Returns ``None`` when git is unavailable or the ref does not
    resolve (the caller falls back to a full run — a lint must degrade
    toward checking more, not less).  Results are filtered to the
    requested ``within`` paths so ``repro lint --changed src/repro``
    keeps its scope.
    """
    try:
        diff = subprocess.run(
            ["git", "diff", "--name-only", "--diff-filter=d", ref,
             "--", "*.py"],
            capture_output=True, text=True, check=True, timeout=60)
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard",
             "--", "*.py"],
            capture_output=True, text=True, check=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    candidates = [line.strip() for out in (diff.stdout, untracked.stdout)
                  for line in out.splitlines() if line.strip()]
    scopes = [Path(p).resolve() for p in within]
    selected: list[str] = []
    for candidate in candidates:
        path = Path(candidate)
        if not path.is_file():
            continue
        resolved = path.resolve()
        if any(scope == resolved or scope in resolved.parents
               for scope in scopes):
            selected.append(candidate)
    return sorted(set(selected))


def main(argv: list[str] | None = None,
         args: argparse.Namespace | None = None) -> int:
    """Run the linter; ``args`` lets ``repro lint`` pass a parsed namespace."""
    if args is None:
        args = build_parser().parse_args(argv)

    if args.list_codes:
        for code, description in all_codes().items():
            print(f"{code}  {description}")
        return 0

    baseline = None
    baseline_path = args.baseline
    if baseline_path is None and Path(DEFAULT_BASELINE_NAME).is_file() \
            and args.write_baseline is None:
        baseline_path = DEFAULT_BASELINE_NAME
    if baseline_path is not None and args.write_baseline is None:
        try:
            baseline = load_baseline(baseline_path)
        except (OSError, ValueError, TypeError) as exc:
            print(f"error: cannot load baseline: {exc}", file=sys.stderr)
            return 2

    paths = list(args.paths)
    focus = None
    changed = getattr(args, "changed", None)
    if changed is not None:
        subset = changed_files(changed, paths)
        if subset is not None:
            if not subset:
                print(f"0 finding(s): no .py files changed vs {changed}")
                return 0
            # The full path set is still parsed (the project-wide
            # passes need the real tree to resolve imports); only the
            # reporting narrows to the changed files.
            focus = subset
        else:
            print(f"warning: cannot diff against {changed!r}; "
                  "analysing the full path set", file=sys.stderr)

    select = None
    if getattr(args, "select", None):
        select = [p for p in args.select.split(",") if p.strip()]

    report = run_analysis(paths, baseline=baseline, select=select,
                          focus=focus)

    if args.write_baseline is not None:
        n = write_baseline(args.write_baseline, report.findings)
        print(f"wrote {n} accepted finding(s) to {args.write_baseline}")
        return 0

    renderer = _RENDERERS[args.format]
    print(renderer(report))
    if report.clean:
        return 0
    return 2 if getattr(args, "strict", False) else 1


if __name__ == "__main__":
    sys.exit(main())
