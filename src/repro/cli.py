"""Command-line interface: list and run the paper's experiments.

Usage::

    repro list
    repro run fig4 [--fast] [--out report.txt] [--workers 4] [--no-cache]
    repro run all [--fast] [--sanitize] [--trace]
    repro run fig4 [--strict] [--faults SPEC]
    repro lint [paths ...] [--format json] [--baseline FILE]
    repro characterize [--check|--update|--docs] [--only fig2,table1] [--fast]
    repro cache info
    repro cache clear
    repro trace summarize manifest.json [--format text|json] [--top N]

``repro run``, ``repro characterize`` and ``repro cache`` resolve one
:class:`~repro.config.RunConfig` from the ``REPRO_*`` environment, their
flags taking precedence, before doing anything else; a malformed knob
exits 2 with one line naming it.  ``repro run`` hands its experiments and
the config to :func:`repro.characterize.runner.run_experiments`, the
fan-out ``repro characterize`` uses too: ``--workers N`` runs N
experiments at once in worker processes (every sweep inside an
experiment runs in-process) and ``--no-cache`` bypasses the on-disk
table cache; ``--strict`` / ``--faults SPEC`` set the resilience layer
of :mod:`repro.runtime.resilience` (see ``docs/robustness.md``),
``--sanitize`` the numerical sanitizer of :mod:`repro.sanitize` and
``--trace`` the observability layer of :mod:`repro.obs`, which writes
a JSON run manifest next to the report.  ``repro lint`` is the static
analysis front end of :mod:`repro.analysis`, and ``repro trace
summarize`` renders a manifest as a human-readable summary (or a
condensed JSON document).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import obs
from repro.analysis.cli import build_parser as build_lint_parser
from repro.analysis.cli import main as lint_main
from repro.characterize.cli import build_parser as build_characterize_parser
from repro.characterize.cli import main as characterize_main
from repro.characterize.runner import report_of, run_experiments
from repro.config import RunConfig
from repro.reporting.experiments import EXPERIMENTS
from repro.runtime import ArtifactCache, activate


def _cmd_list(_args) -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for key in EXPERIMENTS:
        description, _ = EXPERIMENTS[key]
        print(f"{key.ljust(width)}  {description}")
    return 0


def _resolve_config(args) -> RunConfig | None:
    """The environment's config with this command's flags on top.

    Prints one line naming the bad knob and returns None when a value is
    malformed.
    """
    try:
        return RunConfig.from_env().override(
            workers=getattr(args, "workers", None),
            use_cache=False if getattr(args, "no_cache", False) else None,
            strict=getattr(args, "strict", False) or None,
            faults=getattr(args, "faults", None),
            sanitize=getattr(args, "sanitize", False) or None,
            trace=getattr(args, "trace", False) or None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _manifest_path(out: str | None) -> Path:
    """Manifest lands next to the report (``<out>.manifest.json``)."""
    if out:
        return Path(str(out) + ".manifest.json")
    return Path("repro-run.manifest.json")


def _cmd_run(args) -> int:
    config = _resolve_config(args)
    if config is None:
        return 2
    targets = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.experiment != "all" and args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; try 'repro list'",
              file=sys.stderr)
        return 2
    activate(config)
    if obs.ACTIVE:
        obs.reset()
    wall_start = time.perf_counter()
    cpu_start, children_start = time.process_time(), obs.children_cpu_s()
    results = run_experiments(targets, args.fast, config, report_of,
                              span="cli.run")
    reports = []
    for target, (report, elapsed) in zip(targets, results):
        banner = f"=== {target} ({elapsed:.1f} s) ==="
        reports.append(banner + "\n" + report)
        print(banner)
        print(report)
        print()
    if args.out:
        Path(args.out).write_text("\n\n".join(reports) + "\n")
        print(f"wrote {args.out}")
    if obs.ACTIVE:
        manifest = obs.build_manifest(
            label="repro run " + " ".join(targets),
            config={"experiments": targets, "fast": bool(args.fast)},
            wall_s=time.perf_counter() - wall_start,
            cpu_s=time.process_time() - cpu_start,
            cpu_children_s=obs.children_cpu_s() - children_start,
            run_config=config)
        path = obs.write_manifest(manifest, _manifest_path(args.out))
        print(f"wrote {path}")
    return 0


def _cmd_lint(args) -> int:
    return lint_main(args=args)


def _cmd_characterize(args) -> int:
    return characterize_main(args=args)


def _cmd_cache(args) -> int:
    config = _resolve_config(args)
    if config is None:
        return 2
    store = ArtifactCache.for_config("tables", config)
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} cached table(s) from {store.directory}")
        return 0
    keys = store.keys()
    size_mb = store.size_bytes() / 1e6
    print(f"cache root:  {config.cache_root}")
    print(f"enabled:     {store.enabled}")
    print(f"tables:      {len(keys)} artifact(s), {size_mb:.2f} MB")
    for key in keys:
        print(f"  {key}")
    return 0


def _cmd_trace(args) -> int:
    if args.action != "summarize":  # argparse restricts; defensive
        print(f"unknown trace action {args.action!r}", file=sys.stderr)
        return 2
    try:
        manifest = obs.load_manifest(args.manifest)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot read manifest: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(obs.summarize_json(manifest, top=args.top),
                         indent=2))
    else:
        print(obs.summarize_text(manifest, top=args.top), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Technology exploration for graphene "
                    "nanoribbon FETs' (DAC 2008)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list available experiments")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one experiment (or 'all')")
    p_run.add_argument("experiment", help="experiment id or 'all'")
    p_run.add_argument("--fast", action="store_true",
                       help="reduced resolution for a quick pass")
    p_run.add_argument("--out", help="also write the report to a file")
    p_run.add_argument("--workers", type=int, default=None, metavar="N",
                       help="experiments run in parallel worker processes "
                            "(default: $REPRO_WORKERS or serial)")
    p_run.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk device-table cache "
                            "(equivalent to REPRO_NO_CACHE=1)")
    p_run.add_argument("--sanitize", action="store_true",
                       help="enable the numerical sanitizer "
                            "(equivalent to REPRO_SANITIZE=1)")
    p_run.add_argument("--strict", action="store_true",
                       help="raise on the first non-converged sweep cell "
                            "instead of quarantining it "
                            "(equivalent to REPRO_STRICT=1)")
    p_run.add_argument("--faults", default=None, metavar="SPEC",
                       help="deterministic fault injection spec, e.g. "
                            "'scf@3,17x2;worker@1' "
                            "(equivalent to REPRO_FAULTS=SPEC; testing "
                            "aid — see docs/robustness.md)")
    p_run.add_argument("--trace", action="store_true",
                       help="enable tracing/metrics and write a JSON run "
                            "manifest (equivalent to REPRO_TRACE=1)")
    p_run.set_defaults(func=_cmd_run)

    p_lint = sub.add_parser(
        "lint", parents=[build_lint_parser()], add_help=False,
        help="physics-aware static analysis of the repro tree")
    p_lint.set_defaults(func=_cmd_lint)

    p_char = sub.add_parser(
        "characterize", parents=[build_characterize_parser()],
        add_help=False,
        help="golden-regression harness over all paper experiments")
    p_char.set_defaults(func=_cmd_characterize)

    p_cache = sub.add_parser("cache",
                             help="inspect or clear the on-disk cache")
    p_cache.add_argument("action", choices=("info", "clear"),
                         help="'info' lists artifacts, 'clear' deletes them")
    p_cache.set_defaults(func=_cmd_cache)

    p_trace = sub.add_parser("trace",
                             help="inspect run manifests written by --trace")
    p_trace.add_argument("action", choices=("summarize",),
                         help="'summarize' renders a manifest")
    p_trace.add_argument("manifest", help="path to a *.manifest.json file")
    p_trace.add_argument("--format", choices=("text", "json"),
                         default="text", help="output format")
    p_trace.add_argument("--top", type=int, default=obs.DEFAULT_TOP_SPANS,
                         metavar="N", help="spans to list in the ranking")
    p_trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
