"""One benchmark pass in a fresh process: run experiments, diff goldens.

Started by ``run.py`` with an allowlisted environment; it goes through
the public characterization API only (``runner.measure`` and
``diffing.diff_experiment``) and writes one JSON result file.

    python benchmarks/e2e/child.py --ids fig2,ext-oxide --mode fast \
        --spawned-at <perf_counter> --result out/pass.json \
        --goldens goldens [--trace]

``--spawned-at`` is the parent's ``time.perf_counter()`` just before the
spawn (a system-wide monotonic clock on Linux), so ``setup_s`` covers
interpreter start-up plus ``import repro.cli``: the start-up every CLI
user pays.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ids", required=True)
    parser.add_argument("--mode", choices=("fast", "full"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--goldens", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    return parser.parse_args(argv)


def fom_counts(diffs: list, spec_sizes: dict[str, int]) -> tuple[int, int]:
    """``(checked, failed)`` figures of merit over a list of diffs.

    An unblessed experiment counts every metric its spec declares as
    failed, so a vanished golden cannot shrink the base to zero.
    """
    checked = failed = 0
    for diff in diffs:
        if diff.status == "unblessed":
            checked += spec_sizes[diff.experiment_id]
            failed += spec_sizes[diff.experiment_id]
            continue
        checked += len(diff.metrics)
        failed += sum(1 for m in diff.metrics if not m.ok)
    return checked, failed


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import repro.cli  # noqa: F401  (start-up cost every CLI user pays)
    from repro.characterize import diffing, goldens, runner
    from repro.characterize.specs import SPECS
    setup_s = time.perf_counter() - args.spawned_at

    ids = args.ids.split(",")
    golden = goldens.load_goldens(ids, root=args.goldens)
    tracer = None
    if args.trace:
        import layers  # sibling module; the script directory is on sys.path

        layers.import_reachable()
        tracer = layers.Tracer().__enter__()
    start = time.perf_counter()
    try:
        measured, _ = runner.measure(ids, fast=args.mode == "fast")
        diffs = [diffing.diff_experiment(SPECS[eid], measured[eid],
                                         golden.get(eid), args.mode)
                 for eid in ids]
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    checked, failed = fom_counts(
        diffs, {eid: len(SPECS[eid].metrics) for eid in ids})

    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "foms_checked": checked,
        "foms_failed": failed,
        "failures": [f"{d.experiment_id}.{m.name}:{m.status}"
                     for d in diffs for m in d.failures()]
                    + [f"{d.experiment_id}:unblessed" for d in diffs
                       if d.status == "unblessed"],
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = tracer.summary(wall_s)
        result["requests"] = tracer.request_totals()
        result["spans"] = tracer.spans
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
