"""Command-line front end: ``repro characterize`` / ``python -m ...``.

Modes (composable, mirroring ``repro lint`` conventions — exit codes:
0 clean, 1 drift/failures found, 2 usage error):

* default / ``--check`` — run the selected experiments, diff against the
  committed goldens, print a per-metric report;
* ``--update --reason TEXT`` — run, re-bless the goldens with the reason
  recorded in the file, and regenerate the docs pages so goldens and
  docs can never disagree;
* ``--docs`` — regenerate ``docs/experiments/`` from the committed
  goldens without running anything;
* ``--docs --check`` — drift check only: fail if a committed page
  differs from its regeneration.

The run config (:class:`~repro.config.RunConfig`) is resolved once from
the environment, ``--workers`` taking precedence; a malformed knob
exits 2 before anything runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from repro import obs
from repro.characterize.goldens import bless_golden
from repro.characterize.markdown import docs_drift, write_docs
from repro.characterize.runner import (
    CharacterizationRun,
    characterize,
    resolve_ids,
    run_manifest,
)
from repro.characterize.specs import SPECS
from repro.config import RunConfig
from repro.errors import GoldenError
from repro.runtime import activate

_GLYPH = {"pass": "ok", "fail": "FAIL", "nan-mismatch": "NAN-MISMATCH",
          "missing-metric": "MISSING", "new-metric": "NEW"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro characterize",
        description="Golden-regression harness: run the paper "
                    "experiments, extract figures of merit, and diff "
                    "them against the committed goldens/ files")
    parser.add_argument("--check", action="store_true",
                        help="diff against goldens (default action; "
                             "with --docs: check docs drift only)")
    parser.add_argument("--update", action="store_true",
                        help="re-bless goldens from this run and "
                             "regenerate docs (requires --reason)")
    parser.add_argument("--docs", action="store_true",
                        help="regenerate docs/experiments/ from the "
                             "committed goldens (no experiments run)")
    parser.add_argument("--reason", metavar="TEXT", default=None,
                        help="why the goldens move; recorded in the "
                             "golden files (required with --update)")
    parser.add_argument("--only", metavar="IDS", default=None,
                        help="comma-separated experiment ids "
                             "(default: all 14)")
    parser.add_argument("--fast", action="store_true",
                        help="use the reduced experiment grids and the "
                             "goldens' 'fast' mode block")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="experiments run in parallel worker processes "
                             "(default: $REPRO_WORKERS or serial)")
    return parser


def _fmt(value: float) -> str:
    return "nan" if math.isnan(value) else f"{value:.6g}"


def render_text(run: CharacterizationRun) -> str:
    """Human-readable per-metric report."""
    lines: list[str] = []
    for eid, diff in run.diffs.items():
        spec = SPECS[eid]
        verdict = diff.status.upper() if not diff.ok else "ok"
        lines.append(f"{eid}: {verdict} ({spec.title}, mode={run.mode}, "
                     f"{run.timings_s.get(eid, 0.0):.1f} s)")
        if diff.status == "unblessed":
            lines.append("  no golden block for this mode; bless with "
                         "--update --reason ...")
            continue
        for metric in diff.metrics:
            if metric.ok and diff.ok:
                continue  # quiet rows for passing experiments
            mark = _GLYPH.get(metric.status, metric.status)
            detail = (f"  [{mark}] {metric.name}: measured "
                      f"{_fmt(metric.measured)} vs golden "
                      f"{_fmt(metric.golden)}")
            if not math.isnan(metric.allowance):
                detail += (f" (drift {_fmt(metric.drift)}, allowance "
                           f"{_fmt(metric.allowance)}, margin "
                           f"{_fmt(metric.margin)})")
            lines.append(detail)
    n_fail = len(run.failing_ids())
    lines.append(f"{len(run.diffs) - n_fail}/{len(run.diffs)} "
                 f"experiment(s) pass in {run.wall_s:.1f} s")
    return "\n".join(lines)


def _metric_json(metric) -> dict:
    def opt(value: float) -> float | None:
        return None if math.isnan(value) else value
    return {"name": metric.name, "status": metric.status,
            "measured": opt(metric.measured),
            "golden": opt(metric.golden),
            "allowance": opt(metric.allowance),
            "drift": opt(metric.drift), "margin": opt(metric.margin)}


def render_json(run: CharacterizationRun) -> str:
    """Machine-readable report (schema ``repro-characterize-report/1``)."""
    diffs: dict[str, dict] = {}
    for eid, diff in run.diffs.items():
        diffs[eid] = {
            "status": diff.status,
            "metrics": [_metric_json(m) for m in diff.metrics],
            "wall_s": run.timings_s.get(eid),
        }
    return json.dumps({
        "schema": "repro-characterize-report/1",
        "mode": run.mode,
        "ok": run.ok,
        "experiments": diffs,
        "wall_s": run.wall_s,
    }, indent=2)


def _docs_only(args: argparse.Namespace) -> int:
    if args.check:
        drifted = docs_drift()
        if not drifted:
            print("docs/experiments/ is in sync with goldens/")
            return 0
        for path in drifted:
            print(f"drift: {path}")
        print(f"{len(drifted)} page(s) differ from regeneration; run "
              "'repro characterize --docs' and commit")
        return 1
    for path in write_docs():
        print(f"wrote {path}")
    return 0


def _check_or_update(args: argparse.Namespace, config: RunConfig) -> int:
    try:
        ids = resolve_ids(args.only)
    except GoldenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if obs.ACTIVE:
        obs.reset()
    run = characterize(ids, fast=args.fast, config=config)

    if args.update:
        mode = "fast" if args.fast else "full"
        for eid in ids:
            path = bless_golden(eid, mode, run.measured[eid],
                                reason=args.reason)
            print(f"blessed {path} [{mode}]")
        for path in write_docs():
            print(f"wrote {path}")
        return 0

    renderer = render_text if args.format == "text" else render_json
    print(renderer(run))
    if obs.ACTIVE:
        manifest = run_manifest(run, ids, config)
        path = obs.write_manifest(manifest,
                                  "repro-characterize.manifest.json")
        print(f"wrote {path}", file=sys.stderr)
    return 0 if run.ok else 1


def main(argv: list[str] | None = None,
         args: argparse.Namespace | None = None) -> int:
    """Entry point; ``args`` lets ``repro characterize`` pass a namespace."""
    if args is None:
        args = build_parser().parse_args(argv)
    if args.update and (args.docs or not (args.reason or "").strip()):
        reason = ("--update cannot be combined with --docs"
                  if args.docs else "--update requires --reason TEXT")
        print(f"error: {reason}", file=sys.stderr)
        return 2
    try:
        config = RunConfig.from_env().override(workers=args.workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.docs:
        return _docs_only(args)
    activate(config)
    try:
        return _check_or_update(args, config)
    except GoldenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
