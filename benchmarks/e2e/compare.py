"""Comparison gate between two benchmark sets.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

Both arguments are sets written by ``run.py`` (``repro-e2e-set/1``), or
directories of them whose runs are merged in file-name order.  One
row per (end-to-end metric, workload) gives each side's median and
quartiles over its runs and a verdict, using the bounds and directions
of ``BENCHMARK.json``:

* ``unresolved`` -- the base's own quartile spread exceeds the bound,
  unless every new run beats every base run;
* ``improved`` -- the new median is better and differs from the base by
  more than the base's inter-quartile distance, and either the new side
  wins at least nine tenths of at least :data:`MIN_PAIRS` pairs (equal
  run counts are taken as pairs, run ``i`` against run ``i``) or every
  new run beats every base run;
* ``regressed`` -- the new median is worse by more than the bound;
* ``flat`` -- none of these.

A ``fail_frac`` row per workload compares failed / attempted figures of
merit.  The exit status is 1 on any regression or ``fail_frac`` rise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Fewest pairs of runs that the nine-in-ten rule is applied to.
MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], bound: float,
            better: str) -> str:
    """Verdict of one metric on one workload (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    n_med = quartiles(new)[1]
    spread = b_q3 - b_q1
    scale = abs(b_med) or 1.0
    worse = sign * (n_med - b_med) / scale  # > 0: new is worse
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    beats = all_better
    if len(base) == len(new) >= MIN_PAIRS:
        wins = sum(1 for b, n in zip(base, new) if sign * (n - b) < 0)
        beats = wins >= 0.9 * len(base)
    if spread / scale > bound and not all_better:
        return "unresolved"
    if worse < 0 and beats and abs(n_med - b_med) > spread:
        return "improved"
    if worse > bound:
        return "regressed"
    return "flat"


def fail_frac(workload: dict) -> tuple[float, int]:
    """``(failed / attempted, attempted)`` over a workload's runs."""
    attempted = sum(r["attempted"] for r in workload["runs"])
    failed = sum(r["failed"] for r in workload["runs"])
    return failed / max(attempted, 1), attempted


def load_set(path: Path) -> dict:
    """One set file, or the runs of every set in a directory, merged."""
    if not path.is_dir():
        return json.loads(path.read_text())
    merged: dict = {"workloads": {}}
    for file in sorted(path.glob("*.json")):
        for name, w in json.loads(file.read_text())["workloads"].items():
            merged["workloads"].setdefault(name, {"runs": []})
            merged["workloads"][name]["runs"] += w["runs"]
    return merged


def compare(base: dict, new: dict, bench: dict) -> tuple[list[dict], bool]:
    """Rows of the comparison and whether the gate passes."""
    rows = []
    ok = True
    for name in base["workloads"]:
        if name not in new["workloads"]:
            continue
        b_w, n_w = base["workloads"][name], new["workloads"][name]
        for metric in bench["end_to_end"]:
            key = metric["name"]
            b_vals = [r["metrics"][key] for r in b_w["runs"]]
            n_vals = [r["metrics"][key] for r in n_w["runs"]]
            v = verdict(b_vals, n_vals, metric["bound"], metric["better"])
            ok &= v != "regressed"
            rows.append({"metric": key, "workload": name,
                         "unit": metric["unit"], "bound": metric["bound"],
                         "base": quartiles(b_vals), "new": quartiles(n_vals),
                         "verdict": v})
        (b_frac, b_n), (n_frac, n_n) = fail_frac(b_w), fail_frac(n_w)
        rise = n_frac > b_frac
        ok &= not rise
        rows.append({"metric": "fail_frac", "workload": name, "unit": "ratio",
                     "bound": 0.0, "base": (b_frac,) * 3,
                     "new": (n_frac,) * 3,
                     "verdict": "regressed" if rise else "flat",
                     "foms_checked": (b_n, n_n)})
    return rows, ok


def format_row(row: dict) -> str:
    b_q1, b_med, b_q3 = row["base"]
    n_q1, n_med, n_q3 = row["new"]
    change = (n_med - b_med) / b_med if b_med else 0.0
    return (f"{row['metric']:<12} {row['workload']:<14} "
            f"base {b_med:10.4f} [{b_q1:.4f}, {b_q3:.4f}]  "
            f"new {n_med:10.4f} [{n_q1:.4f}, {n_q3:.4f}] {row['unit']:<5} "
            f"{change:+7.2%} (bound {row['bound']:.0%})  {row['verdict']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads(args.benchmark.read_text())
    base, new = load_set(args.base), load_set(args.new)
    rows, ok = compare(base, new, bench)
    for row in rows:
        print(format_row(row))
    print("gate: " + ("pass" if ok else "FAIL (regression or fail_frac rise)"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
