"""Adaptive exploration engine: solve reduction at golden accuracy.

Measures contour-guided V_DD-V_T refinement against the dense Fig. 3
sweep and writes the headline numbers to ``BENCH_adaptive.json`` at the
repository root (plus a line in ``BENCH_trajectory.jsonl``):
``refine_vdd_vt`` on the full Fig. 3 grid (15 x 13) must pass every
committed ``goldens/fig3.json`` allowance (the goldens were blessed
from the *dense* sweep) while issuing at least **5x fewer** device
solves than the dense grid's valid-cell count.

Smoke mode (``REPRO_BENCH_SMOKE=1``) switches to the fast grid, where
the adaptive schedule must still beat dense by >= 2x; golden agreement
is asserted in both modes.  Smoke never rewrites the committed
``BENCH_adaptive.json``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.characterize.diffing import diff_experiment
from repro.characterize.goldens import load_goldens
from repro.characterize.specs import SPECS, extract_fig3
from repro.characterize.trajectory import (
    append_trajectory,
    trajectory_entry,
)
from repro.exploration.adaptive import refine_vdd_vt
from repro.exploration.operating_point import (
    min_edp_at_frequency,
    min_edp_at_frequency_and_snm,
    min_edp_point,
)
from repro.reporting.tables import format_table

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_adaptive.json"
GOLDEN_ROOT = ROOT / "goldens"

MODE = "fast" if SMOKE else "full"
MIN_REDUCTION = 2.0 if SMOKE else 5.0


def _fig3_grids() -> tuple[np.ndarray, np.ndarray]:
    if SMOKE:
        return np.linspace(0.02, 0.3, 8), np.linspace(0.1, 0.7, 8)
    return np.linspace(0.02, 0.30, 15), np.linspace(0.10, 0.70, 13)


def _fig3_payload(grid) -> dict:
    """The slice of ``run_fig3``'s payload that ``extract_fig3`` reads."""
    snm_floor = 0.6 * float(np.nanmax(grid.snm_v))
    return {
        "optimum": min_edp_point(grid),
        "A": min_edp_at_frequency(grid, 3e9),
        "B": min_edp_at_frequency_and_snm(grid, 3e9, snm_floor),
    }


def test_adaptive_exploration_engine(benchmark, tech, save_report):
    goldens = load_goldens(root=GOLDEN_ROOT)
    vt_grid, vdd_grid = _fig3_grids()

    # ---- contour-guided refinement vs the dense-blessed golden ---- #
    start = time.perf_counter()
    refined = benchmark.pedantic(
        lambda: refine_vdd_vt(tech, vt_grid, vdd_grid),
        rounds=1, iterations=1)
    refine_wall = time.perf_counter() - start

    fig3_diff = diff_experiment(SPECS["fig3"],
                                extract_fig3(_fig3_payload(refined.grid)),
                                goldens.get("fig3"), MODE)
    n_cells = vt_grid.size * vdd_grid.size
    reduction_valid = refined.n_valid / refined.n_solves
    reduction_cells = n_cells / refined.n_solves

    rows = [
        [f"fig3 refinement ({len(vt_grid)}x{len(vdd_grid)})",
         f"{refined.n_solves} solves",
         f"{reduction_valid:.2f}x vs {refined.n_valid} valid "
         f"({reduction_cells:.2f}x vs {n_cells} cells), "
         f"{refined.n_waves} wave(s), {refine_wall:.1f} s"],
        ["fig3 golden diff",
         "ok" if fig3_diff.ok else "FAIL",
         f"{len(fig3_diff.metrics)} metrics vs goldens/fig3.json "
         f"[{MODE}]"],
    ]
    report = format_table(
        ["path", "result", "detail"], rows,
        title=f"Adaptive exploration engine ({MODE} mode"
              f"{', smoke' if SMOKE else ''})")
    save_report("adaptive", report)
    print(report)

    # Accuracy first: the golden diff passes within the committed
    # per-metric allowances (blessed from the dense baseline).
    assert fig3_diff.ok, [m.name for m in fig3_diff.metrics if not m.ok]

    # Then economy: the refinement must beat dense by the mode's floor.
    assert reduction_valid >= MIN_REDUCTION
    assert reduction_cells >= MIN_REDUCTION

    metrics = {
        "fig3_solves": refined.n_solves,
        "fig3_reduction_vs_valid": round(reduction_valid, 3),
    }
    append_trajectory(trajectory_entry(
        "bench_adaptive", MODE, fig3_diff.ok, refine_wall, metrics))

    if SMOKE:
        return

    payload = {
        "schema": "repro-bench-adaptive/2",
        "fig3_refinement": {
            "grid": [len(vt_grid), len(vdd_grid)],
            "dense_cells": n_cells,
            "dense_valid_cells": refined.n_valid,
            "adaptive_solves": refined.n_solves,
            "coarse_solves": refined.n_coarse,
            "refinement_solves": refined.n_refined,
            "polish_solves": refined.n_polish,
            "waves": refined.n_waves,
            "levels": refined.levels,
            "reduction_vs_valid": reduction_valid,
            "reduction_vs_cells": reduction_cells,
            "golden_diff_ok": fig3_diff.ok,
            "wall_s": refine_wall,
        },
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
