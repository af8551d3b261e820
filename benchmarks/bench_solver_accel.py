"""Solver acceleration layer: the hot-path wins, measured.

The acceleration work has six legs, each with a quantitative
acceptance target measured here and persisted to ``BENCH_solvers.json``
at the repository root:

* **Semianalytic WKB kernel** — ``SBFETModel.transmission`` shares one
  ``(E - u)**2`` across modes, reduces each mode's gap integral with a
  single matvec and reads the band masks off a sorted-profile CDF.
  Replays every ``transmission`` call of the nominal N = 12 table build
  through the frozen per-mode formulation
  (``tests/device/wkb_reference.py``) and the production kernel.
  Target: >= 4x per call with relative parity <= 1e-12; the whole
  table sweep is timed under both kernels.
* **Table builds** — ``sweep_iv`` solves every cell's channel midgap in
  one vectorized bisection (``SBFETModel.solve_midgaps``) and integrates
  each current on a breakpoint grid: merged fine windows around the
  subband edges ``u_ch +- E_n`` only, coarse elsewhere
  (``repro.negf.energy_grid.breakpoint_energy_grid``).  Measures, on five
  tables (nominal N = 12, 400 K, 2.1 nm oxide, N = 9, -1q impurity), the
  points per cell and the relative current error of the previous
  overlaid grid and of the breakpoint grid against a 0.05 meV uniform
  grid, and times the serial nominal build with the frozen scalar
  bisection (``tests/device/bisection_reference.py``) and the previous
  grid swapped in, with every p-branch cell integrated at its own point
  (the mirror off), and production, alternating.  It also records how
  far each mirrored p-branch current moved from its own-point integral.
  Target: worst-cell error no larger than the previous grid's on the
  nominal table and <= 1e-3 on every table, bitwise midgaps and charges,
  build <= 0.6x of the previous path, mirrored build <= 0.85x of the
  unmirrored one with bitwise n-branch currents.
* **Compiled circuit engine** — ``solve_dc`` and ``simulate_transient``
  run the Newton loops that each netlist topology is emitted and
  compiled into as straight-line Python
  (:class:`repro.circuit.netlist.Kernel`), each iteration solved by a
  sparse elimination fixed at emit time, each transient step started
  from a predicted iterate.  Replays the nominal FO4 transient of
  ``characterize_inverter``, a 61-point inverter VTC (``compute_vtc``,
  each DC solve replayed from the same start) and 300 steps of the
  15-stage ring through the frozen per-element engine
  (``tests/circuit/engine_reference.py``) and through production, and
  records each circuit's generated kernel (source lines, emit + compile
  time, multipliers, updates and fill of both eliminations) and one ring
  iteration's linear solve through dense LAPACK, ``splu`` and the
  generated elimination.  The FO4 and ring netlists come from the
  frozen explicit-replica netlist functions
  (``tests/circuit/replica_reference.py``), so this leg keeps measuring
  the engine on the same circuits.  Target: identical time grids and DC
  iteration counts, drift within the bounds of
  ``tests/circuit/test_engine_parity.py``, >= 3.5x per FO4 transient
  step and per VTC sweep, >= 6x per ring step.
* **Fanout replicas as one m-fold load** — the netlists wire a load's
  identical replica inverters as one inverter with ``m``-fold tables and
  junction capacitances (FO4 chain 10 -> 4 FETs, 15-stage ring
  120 -> 60).  Runs one nominal ``characterize_inverter`` and 300 ring
  steps on the explicit netlists of the frozen reference and on the
  collapsed ones.  Target: figures of merit within 1e-6 relative,
  >= 1.5x per FO4 transient step and per ring step.
* **Vectorized Monte Carlo** — the Fig. 6 sample phase draws one block
  of normals per sample and evaluates the stage-delay surrogate on
  vectors spanning every sample.  Replays the Fig. 6 study (2,000
  samples) through the frozen scalar sampler
  (``tests/variability/mc_reference.py``) and through production.
  Target: bitwise-identical samples, nominal values, variant counts and
  failure records, >= 20x in samples per second.
* **NEGF experiments** — the Fig. 5 chain kernel runs site-major into
  scratch rows, ``fermi_dirac`` takes one exponential, and an
  edge-roughness ensemble decimates its leads once and runs a
  transmission-only RGF per sample.  Replays every chain call of one
  full-grid Fig. 5 solve, the conduction-band Fermi–Dirac argument of
  the equilibrium density table, and one ensemble (N = 12, p = 0.05,
  24 cells, 10 samples) through the frozen formulation
  (``tests/device/negf_reference.py``) and through production.  Target:
  bitwise-identical outputs, >= 1.2x per chain call, >= 2x per
  Fermi–Dirac call and >= 3x per ensemble.  Fig. 5's electrostatics is
  the channel-row response of ``NEGFDevice``: the leg times its build,
  one solve as the response matvec and as the ``PoissonOperator`` solve
  it replaced (largest |dU| between them <= 1e-13 of the profile), and
  one Fig. 5 NEGF pass (five devices, one response build) on each.

Each test rewrites only its own legs of ``BENCH_solvers.json``.  Smoke
mode (``REPRO_BENCH_SMOKE=1``) shrinks the workloads and relaxes the
ratio assertions to sanity bounds; it never rewrites the committed
``BENCH_solvers.json``.
"""

import importlib.util
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from repro.circuit import inverter, netlist, vtc
from repro.circuit.dc import _solve as dc_core
from repro.circuit.inverter import (
    add_inverter,
    build_inverter_chain,
    characterize_inverter,
    estimate_inverter_delay,
)
from repro.circuit.netlist import Circuit
from repro.circuit.ring_oscillator import (
    _alternating_start,
    build_ring_oscillator,
)
from repro.circuit.transient import simulate_transient
from repro.circuit.vtc import compute_vtc
from repro.config import RunConfig
from repro.constants import KT_ROOM_EV, LANDAUER_PREFACTOR_A_PER_EV, fermi_dirac
from repro.device import negf_device, sbfet
from repro.device.geometry import ChargeImpurity, GNRFETGeometry
from repro.device.iv import sweep_iv
from repro.device.sbfet import SBFETModel
from repro.device.tables import DEFAULT_VD_GRID, DEFAULT_VG_GRID
from repro.negf.energy_grid import adaptive_energy_grid, uniform_energy_grid
from repro.poisson.grid import Grid2D
from repro.reporting.tables import format_table
from repro.variability.edge_roughness import roughness_ensemble
from repro.variability.montecarlo import run_ring_oscillator_monte_carlo

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_solvers.json"

# Workload sizes (full / smoke).
WKB_VG_GRID = DEFAULT_VG_GRID[::6] if SMOKE else DEFAULT_VG_GRID
WKB_VD_GRID = DEFAULT_VD_GRID[::3] if SMOKE else DEFAULT_VD_GRID
WKB_REPEATS = 1 if SMOKE else 3
GRID_VG = DEFAULT_VG_GRID[::6] if SMOKE else DEFAULT_VG_GRID
GRID_VD = DEFAULT_VD_GRID[::3] if SMOKE else DEFAULT_VD_GRID
GRID_REFERENCE_STEP_EV = 5e-5
GRID_BUILD_PAIRS = 2 if SMOKE else 5
CIRCUIT_FO4_CYCLES = 0.5 if SMOKE else 2.0
CIRCUIT_VTC_POINTS = 21 if SMOKE else 61
CIRCUIT_RING_STEPS = 40 if SMOKE else 300
CIRCUIT_REPEATS = 1 if SMOKE else 5
RING_SOLVE_REPEATS = 20 if SMOKE else 200
REPLICA_REPEATS = 3 if SMOKE else 7
MC_SAMPLES = 200 if SMOKE else 2000
MC_REPEATS = 1 if SMOKE else 3
NEGF_CHAIN_N_X = 31 if SMOKE else 51
NEGF_ENSEMBLE = (12, 0.05, 12, 4) if SMOKE else (12, 0.05, 24, 10)
NEGF_REPEATS = 3 if SMOKE else 10
NEGF_PASS_REPEATS = 1 if SMOKE else 3

SCHEMA = "repro-bench-solvers/12"
TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"
ORACLE_PATH = TESTS_DIR / "device" / "wkb_reference.py"
BISECTION_ORACLE_PATH = TESTS_DIR / "device" / "bisection_reference.py"
CIRCUIT_ORACLE_PATH = TESTS_DIR / "circuit" / "engine_reference.py"
CIRCUIT_PARITY_PATH = TESTS_DIR / "circuit" / "test_engine_parity.py"
REPLICA_ORACLE_PATH = TESTS_DIR / "circuit" / "replica_reference.py"
MC_ORACLE_PATH = TESTS_DIR / "variability" / "mc_reference.py"
NEGF_ORACLE_PATH = TESTS_DIR / "device" / "negf_reference.py"


def _load_module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_legs(legs: dict) -> None:
    """Replace ``legs`` in ``BENCH_solvers.json``, keeping the others."""
    payload = (json.loads(JSON_PATH.read_text()) if JSON_PATH.exists()
               else {})
    payload.update(legs)
    payload["schema"] = SCHEMA
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def _load_wkb_oracle():
    """The frozen per-mode WKB formulation the test suite pins."""
    return _load_module(ORACLE_PATH).reference_transmission


def _bench_wkb_kernel() -> dict:
    """Production WKB kernel vs the frozen oracle on real table inputs.

    The nominal N = 12 table sweep runs once with a recording wrapper
    around ``SBFETModel.transmission``; the captured (energies, profile)
    pairs are then replayed through both kernels.  The whole sweep is
    also timed with each kernel installed.
    """
    oracle = _load_wkb_oracle()
    geometry = GNRFETGeometry()
    production = SBFETModel.transmission
    calls: list[tuple[SBFETModel, np.ndarray, np.ndarray]] = []

    def record(self, energies_ev, profile_midgap_ev):
        calls.append((self, np.array(energies_ev, dtype=float),
                      np.array(profile_midgap_ev, dtype=float)))
        return production(self, energies_ev, profile_midgap_ev)

    def sweep_s(kernel) -> float:
        SBFETModel.transmission = kernel
        try:
            start = time.perf_counter()
            sweep_iv(geometry, WKB_VG_GRID, WKB_VD_GRID, config=RunConfig())
            return time.perf_counter() - start
        finally:
            SBFETModel.transmission = production

    sweep_s(record)
    max_rel = 0.0
    for model, energies, profile in calls:
        ref = oracle(model, energies, profile)
        new = production(model, energies, profile)
        rel = np.abs(new - ref) / np.maximum(np.abs(ref), 1e-300)
        max_rel = max(max_rel, float(rel.max()))

    def replay_s(kernel) -> float:
        best = np.inf
        for _ in range(WKB_REPEATS):
            start = time.perf_counter()
            for model, energies, profile in calls:
                kernel(model, energies, profile)
            best = min(best, time.perf_counter() - start)
        return best

    oracle_s = replay_s(oracle)
    kernel_s = replay_s(production)
    sweep_oracle_s = min(sweep_s(oracle) for _ in range(WKB_REPEATS))
    sweep_kernel_s = min(sweep_s(production) for _ in range(WKB_REPEATS))
    return {
        "n_index": geometry.n_index,
        "grid": [int(WKB_VG_GRID.size), int(WKB_VD_GRID.size)],
        "calls": len(calls),
        "energies": int(sum(e.size for _, e, _ in calls)),
        "oracle_ms_per_call": oracle_s / len(calls) * 1e3,
        "kernel_ms_per_call": kernel_s / len(calls) * 1e3,
        "speedup": oracle_s / kernel_s,
        "max_rel_dT": max_rel,
        "sweep_oracle_s": sweep_oracle_s,
        "sweep_kernel_s": sweep_kernel_s,
        "sweep_speedup": sweep_oracle_s / sweep_kernel_s,
    }


def test_solver_acceleration(save_report):
    wkb = _bench_wkb_kernel()

    rows = [
        [f"WKB kernel (N={wkb['n_index']} table, {wkb['calls']} calls)",
         f"{wkb['oracle_ms_per_call']:.2f} ms/call",
         f"{wkb['kernel_ms_per_call']:.2f} ms/call",
         f"{wkb['speedup']:.2f}x (rel dT {wkb['max_rel_dT']:.1e})"],
        [f"WKB table sweep ({wkb['grid'][0]}x{wkb['grid'][1]})",
         f"{wkb['sweep_oracle_s']:.2f} s",
         f"{wkb['sweep_kernel_s']:.2f} s",
         f"{wkb['sweep_speedup']:.2f}x"],
    ]
    report = format_table(
        ["path", "before", "after", "gain"], rows,
        title="Solver acceleration layer (best of repeated runs)")
    save_report("solver_accel", report)
    print(report)

    # Physics parity first: acceleration is worthless if answers moved.
    assert wkb["max_rel_dT"] <= 1e-12

    if SMOKE:
        # Sanity bounds only: smoke runners are slow and shared.
        assert wkb["speedup"] > 1.5
        return

    assert wkb["speedup"] >= 4.0

    _write_legs({"wkb_kernel": wkb})


GRID_TABLES = {
    "nominal": GNRFETGeometry(n_index=12),
    "400K": GNRFETGeometry(n_index=12, temperature_k=400.0),
    "oxide_2.1nm": GNRFETGeometry(n_index=12, oxide_thickness_nm=2.1),
    "N9": GNRFETGeometry(n_index=9),
    "impurity_-1q": GNRFETGeometry(
        n_index=12, impurity=ChargeImpurity(charge_e=-1.0)),
}


def _previous_current_grid(model, u_ch_ev, vd):
    """The quadrature of ``current_a`` before the breakpoint grid: a
    0.8 meV grid per feature (subband edges and both Fermi levels)
    overlaid on a 4 meV one and merged by ``np.unique``."""
    window = 12.0 * model.kt_ev
    e_min = min(-vd, 0.0) - window
    e_max = max(-vd, 0.0) + window
    features = [0.0, -vd]
    for edge in model._edges_ev:
        features += [u_ch_ev + edge, u_ch_ev - edge]
    features = [f for f in features if e_min <= f <= e_max]
    return adaptive_energy_grid(e_min, e_max, features,
                                coarse_step_ev=4e-3, fine_step_ev=8e-4)


def _reference_current_grid(model, u_ch_ev, vd):
    """0.05 meV uniform grid on the same window.  With an impurity it
    also straddles the well factor's jumps at ``u_interior -+ E_n``:
    a uniform grid alone is off there by up to 6e-4 relative."""
    window = 12.0 * model.kt_ev
    e_min = min(-vd, 0.0) - window
    e_max = max(-vd, 0.0) + window
    grid = uniform_energy_grid(e_min, e_max, GRID_REFERENCE_STEP_EV)
    imp = model._impurity_profile_ev
    if not imp.any():
        return grid
    u_interior = float(np.median(model.band_profile_midgap_ev(u_ch_ev, vd)))
    jumps = ([u_interior + e for e in model._edges_ev] if imp.min() < 0.0
             else []) + ([u_interior - e for e in model._edges_ev]
                         if imp.max() > 0.0 else [])
    cuts = [j + side for j in jumps for side in (-1e-10, 1e-10)
            if e_min < j + side < e_max]
    return np.unique(np.concatenate([grid, cuts]))


def _landauer_a(model, u_ch_ev, vd, energies):
    """``current_a``'s integral on the given energies."""
    t = model.transmission(energies, model.band_profile_midgap_ev(u_ch_ev,
                                                                  vd))
    occupation = (fermi_dirac(energies, 0.0, model.kt_ev)
                  - fermi_dirac(energies, -vd, model.kt_ev))
    return LANDAUER_PREFACTOR_A_PER_EV * float(
        np.trapezoid(t * occupation, energies))


def _grid_errors(geometry) -> dict:
    """Points per cell and relative current error of both grids."""
    model = SBFETModel(geometry)
    midgap, _, _ = model.solve_midgaps(GRID_VG[:, None], GRID_VD[None, :])
    grids = {"previous": lambda u, vd: _previous_current_grid(model, u, vd),
             "breakpoint": model._current_energy_grid}
    points: dict[str, list[int]] = {name: [] for name in grids}
    errors: dict[str, list[float]] = {name: [] for name in grids}
    for i in range(GRID_VG.size):
        for j, vd in enumerate(GRID_VD.tolist()):
            if vd == 0.0:
                continue
            u = float(midgap[i, j])
            ref = _landauer_a(model, u, vd,
                              _reference_current_grid(model, u, vd))
            for name, grid in grids.items():
                energies = grid(u, vd)
                value = _landauer_a(model, u, vd, energies)
                points[name].append(energies.size)
                errors[name].append(abs(value - ref) / abs(ref))
            assert value == model.current_a(u, vd)  # the production path
    out: dict = {"cells": len(errors["breakpoint"])}
    for name in grids:
        err = np.array(errors[name])
        out[name] = {
            "points_per_cell": float(np.mean(points[name])),
            "worst_rel_err": float(err.max()),
            "p50_rel_err": float(np.quantile(err, 0.5)),
            "p90_rel_err": float(np.quantile(err, 0.9)),
        }
    return out


def _own_points(self, vg, vd):
    """``SBFETModel.mirror_gate_v`` with the mirror off: every point is
    integrated at its own gate bias."""
    return np.broadcast_arrays(np.asarray(vg, dtype=float),
                               np.asarray(vd, dtype=float))[0].copy()


def _unmirrored_sweep(geometry, vg, vd):
    mirror = SBFETModel.mirror_gate_v
    SBFETModel.mirror_gate_v = _own_points
    try:
        return sweep_iv(geometry, vg, vd, config=RunConfig(workers=1))
    finally:
        SBFETModel.mirror_gate_v = mirror


def _mirror_drift(geometry) -> dict:
    """How far the mirrored p-branch currents of a table moved from
    their own-point integrals; every other cell must keep its bits."""
    own = _unmirrored_sweep(geometry, GRID_VG, GRID_VD)
    mirrored = sweep_iv(geometry, GRID_VG, GRID_VD,
                        config=RunConfig(workers=1))
    p_branch = ((GRID_VG[:, None] < 0.5 * GRID_VD[None, :])
                & (GRID_VD[None, :] > 0.0)
                & SBFETModel(geometry).mirror_symmetric)
    drift = (np.abs(mirrored.current_a[p_branch] - own.current_a[p_branch])
             / np.abs(own.current_a[p_branch]))
    return {
        "p_branch_cells": int(p_branch.sum()),
        "max_rel_drift": float(drift.max()) if drift.size else 0.0,
        "other_cells_bitwise": bool(np.array_equal(
            mirrored.current_a[~p_branch], own.current_a[~p_branch])),
    }


def _build_times() -> dict:
    """Serial nominal build: previous path, unmirrored and production,
    alternating.

    The previous path is the sweep with the frozen scalar bisection
    (one cell per call) and the previous grid swapped in; the unmirrored
    path is production with every cell integrated at its own point."""
    oracle = _load_module(BISECTION_ORACLE_PATH).reference_solve_midgap_ev
    solve, grid = SBFETModel.solve_midgaps, SBFETModel._current_energy_grid

    def scalar_solve(self, vg, vd, tol_ev=1e-6, max_iter=80):
        vg_b, vd_b = np.broadcast_arrays(vg, vd)
        cells = [oracle(self, a, b, tol_ev, max_iter)
                 for a, b in zip(vg_b.ravel().tolist(),
                                 vd_b.ravel().tolist())]
        return (np.array([u for u, _ in cells]).reshape(vg_b.shape),
                np.array([n for _, n in cells]).reshape(vg_b.shape), {})

    def build(path: str):
        if path == "previous":
            SBFETModel.solve_midgaps = scalar_solve
            SBFETModel._current_energy_grid = _previous_current_grid
        try:
            start = time.perf_counter()
            if path == "production":
                sweep = sweep_iv(GRID_TABLES["nominal"], GRID_VG, GRID_VD,
                                 config=RunConfig(workers=1))
            else:
                sweep = _unmirrored_sweep(GRID_TABLES["nominal"], GRID_VG,
                                          GRID_VD)
            return time.perf_counter() - start, sweep
        finally:
            SBFETModel.solve_midgaps, SBFETModel._current_energy_grid = (
                solve, grid)

    runs: dict[str, list[float]] = {
        "previous": [], "unmirrored": [], "production": []}
    sweeps = {}
    for _ in range(GRID_BUILD_PAIRS):
        for path, times in runs.items():
            t, sweeps[path] = build(path)
            times.append(t)
    before, unmirrored, after = (float(np.median(times))
                                 for times in runs.values())
    old, new = sweeps["previous"], sweeps["production"]
    return {
        "grid": [int(GRID_VG.size), int(GRID_VD.size)],
        "pairs": GRID_BUILD_PAIRS,
        "before_s": before,
        "unmirrored_s": unmirrored,
        "after_s": after,
        "ratio": after / before,
        "mirror_ratio": after / unmirrored,
        "before_runs_s": runs["previous"],
        "unmirrored_runs_s": runs["unmirrored"],
        "after_runs_s": runs["production"],
        "bitwise_midgap_charge": bool(
            np.array_equal(old.midgap_ev, new.midgap_ev)
            and np.array_equal(old.charge_c, new.charge_c)),
    }


def test_current_grid(save_report):
    leg = {
        "reference_step_ev": GRID_REFERENCE_STEP_EV,
        "breakpoint_grid": {
            "fine_step_ev": sbfet.CURRENT_GRID_FINE_STEP_EV,
            "coarse_step_ev": sbfet.CURRENT_GRID_COARSE_STEP_EV,
            "halfwidth_kt": sbfet.CURRENT_GRID_HALFWIDTH_KT},
        "previous_grid": {"fine_step_ev": 8e-4, "coarse_step_ev": 4e-3,
                          "halfwidth_ev": 4.0 * KT_ROOM_EV},
        "tables": {name: _grid_errors(g) for name, g in GRID_TABLES.items()},
        "mirror": {name: _mirror_drift(g) for name, g in GRID_TABLES.items()},
        "build": _build_times(),
    }
    rows = []
    for name, table in leg["tables"].items():
        prev, new = table["previous"], table["breakpoint"]
        rows.append([f"{name} ({table['cells']} cells)",
                     f"{prev['points_per_cell']:.0f} pts, worst "
                     f"{prev['worst_rel_err']:.1e}",
                     f"{new['points_per_cell']:.0f} pts, worst "
                     f"{new['worst_rel_err']:.1e}",
                     f"p50 {new['p50_rel_err']:.1e}, "
                     f"p90 {new['p90_rel_err']:.1e}"])
    for name, mirror in leg["mirror"].items():
        rows.append([f"{name} mirror ({mirror['p_branch_cells']} p-branch "
                     "cells)", "own-point integrals",
                     f"twin integrals, max drift "
                     f"{mirror['max_rel_drift']:.1e}",
                     f"others bitwise: {mirror['other_cells_bitwise']}"])
    build = leg["build"]
    rows.append([f"serial build {build['grid'][0]}x{build['grid'][1]} "
                 f"(median of {build['pairs']})",
                 f"{build['before_s']:.3f} s", f"{build['after_s']:.3f} s",
                 f"{build['ratio']:.2f}x"])
    rows.append(["serial build, mirror off -> on",
                 f"{build['unmirrored_s']:.3f} s", f"{build['after_s']:.3f} s",
                 f"{build['mirror_ratio']:.2f}x"])
    report = format_table(
        ["table", "previous grid", "breakpoint grid", "breakpoint spread"],
        rows, title="Current quadrature vs a "
                    f"{GRID_REFERENCE_STEP_EV * 1e3:.2f} meV reference")
    save_report("current_grid", report)
    print(report)

    assert build["bitwise_midgap_charge"]
    for table in leg["tables"].values():
        assert table["breakpoint"]["worst_rel_err"] <= 1e-3
        assert (table["breakpoint"]["points_per_cell"]
                < table["previous"]["points_per_cell"])
    for mirror in leg["mirror"].values():
        assert mirror["other_cells_bitwise"]
        assert mirror["max_rel_drift"] <= 1e-11
    if SMOKE:
        # The smoke grid's twins mostly fall off it: no mirror ratio.
        assert build["ratio"] < 1.0
        return
    nominal = leg["tables"]["nominal"]
    assert (nominal["breakpoint"]["worst_rel_err"]
            <= nominal["previous"]["worst_rel_err"])
    assert build["ratio"] <= 0.6
    assert build["mirror_ratio"] <= 0.85
    _write_legs({"current_grid": leg})


def _best_pair_s(oracle, kernel, repeats: int) -> tuple[float, float]:
    """Best times of two callables, run alternately so that a change in
    host speed during the measurement hits both sides."""
    best = [np.inf, np.inf]
    for _ in range(repeats):
        for k, fn in enumerate((oracle, kernel)):
            start = time.perf_counter()
            fn()
            best[k] = min(best[k], time.perf_counter() - start)
    return best[0], best[1]


def _fo4_characterization(n_table, p_table, vdd, params, build):
    """One nominal ``characterize_inverter`` on the FO4 chain ``build``
    makes:
    its metrics and the FO4 transient it ran, as ``(circuit, args,
    kwargs)`` of ``simulate_transient``."""
    calls = []

    def record(circuit, *args, **kwargs):
        calls.append((circuit, args, kwargs))
        return simulate_transient(circuit, *args, **kwargs)

    inverter.simulate_transient = record
    inverter.build_inverter_chain = build
    try:
        metrics = characterize_inverter(n_table, p_table, vdd, params)
    finally:
        inverter.simulate_transient = simulate_transient
        inverter.build_inverter_chain = build_inverter_chain
    return metrics, calls[0]


def _fo4_transient(n_table, p_table, vdd, params, build):
    """The nominal FO4 transient exactly as ``characterize_inverter``
    runs it on the chain ``build`` makes, cut to ``CIRCUIT_FO4_CYCLES``
    input cycles (characterize runs two)."""
    _, (circuit, (t_end_s, dt_s, v0), kwargs) = _fo4_characterization(
        n_table, p_table, vdd, params, build)
    return circuit, (t_end_s * CIRCUIT_FO4_CYCLES / 2.0, dt_s, v0), kwargs


def _ring_transient(n_table, p_table, vdd, params, build, start,
                    n_stages=15):
    """``CIRCUIT_RING_STEPS`` steps of the ring ``build`` makes, from the
    alternating ``start`` and at the time step of
    ``simulate_ring_oscillator``."""
    circuit = build(n_table, p_table, vdd, n_stages, params)
    v0 = start(circuit, vdd, n_stages, params)
    est = estimate_inverter_delay(n_table, p_table, vdd, params)
    dt = max(2.0 * n_stages * est * 2.5 / 480.0, 0.05e-12)
    args = (CIRCUIT_RING_STEPS * dt, dt, v0)
    return circuit, args, {"monitor_supplies": (circuit.node("vdd"),)}


def _max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _transient_leg(oracle, circuit, args, kwargs) -> tuple[dict, dict]:
    """Timings of one transient, and its drift from the oracle's: the
    largest voltage difference and the largest supply-current difference
    relative to that trace's peak.  The time grids must be identical."""
    result = simulate_transient(circuit, *args, **kwargs)
    ref_t, ref_v, ref_supplies = oracle.simulate_transient(circuit, *args,
                                                           **kwargs)
    assert np.array_equal(result.time_s, ref_t)
    drift = {
        "waveform_v": _max_abs_diff(result.voltages, ref_v),
        "supply": max(_max_abs_diff(result.supply_currents[m], trace)
                      / float(np.max(np.abs(trace)))
                      for m, trace in ref_supplies.items()),
    }
    steps = len(ref_t) - 1
    oracle_s, kernel_s = _best_pair_s(
        lambda: oracle.simulate_transient(circuit, *args, **kwargs),
        lambda: simulate_transient(circuit, *args, **kwargs),
        CIRCUIT_REPEATS)
    return {
        "nodes": circuit.n_nodes,
        "elements": len(circuit.elements),
        "steps": steps,
        "oracle_ms_per_step": oracle_s / steps * 1e3,
        "kernel_ms_per_step": kernel_s / steps * 1e3,
        "speedup": oracle_s / kernel_s,
    }, drift


def _vtc_leg(oracle, n_table, p_table, vdd, params
             ) -> tuple[dict, dict, Circuit]:
    """A ``compute_vtc`` sweep of one inverter against the oracle's
    plain continuation over the same grid, and the DC drift: every
    point's call of the DC core, replayed through the oracle from the
    same start, must take as many iterations."""
    circuit = Circuit("inverter-vtc")
    vin, vout = circuit.node("in"), circuit.node("out")
    vdd_node = circuit.node("vdd")
    circuit.fix(vdd_node, vdd)
    circuit.fix(vin, 0.0)
    add_inverter(circuit, "dut", vin, vout, vdd_node, n_table, p_table,
                 params)
    grid = np.linspace(0.0, vdd, CIRCUIT_VTC_POINTS)

    calls = []
    n = circuit.n_nodes

    def record(prog, fixed, v_slots, warm, **kwargs):
        # The kernel updates the slots in place: keep the start.
        start = v_slots[:n]
        v_slots, iters = dc_core(prog, fixed, v_slots, warm, **kwargs)
        calls.append((start, v_slots[:n], iters))
        return v_slots, iters

    vtc._solve = record
    try:
        compute_vtc(circuit, vin, vout, grid)
    finally:
        vtc._solve = dc_core
    assert len(calls) == grid.size
    dc_v, iterations = 0.0, 0
    for value, (start, v, iters) in zip(grid, calls):
        circuit.fixed[vin] = float(value)
        ref_v, ref_iterations = oracle.solve_dc(circuit, v0=start)
        assert iters == ref_iterations
        dc_v = max(dc_v, _max_abs_diff(v, ref_v))
        iterations += iters

    def reference() -> int:
        total, v_prev = 0, None
        for value in grid:
            circuit.fixed[vin] = float(value)
            v_prev, iters = oracle.solve_dc(circuit, v0=v_prev)
            total += iters
        return total

    ref_iterations = reference()
    oracle_s, kernel_s = _best_pair_s(
        reference, lambda: compute_vtc(circuit, vin, vout, grid),
        CIRCUIT_REPEATS)
    return {
        "points": int(grid.size),
        "newton_iterations": iterations,
        "oracle_newton_iterations": ref_iterations,
        "oracle_us_per_iteration": oracle_s / ref_iterations * 1e6,
        "kernel_us_per_iteration": kernel_s / iterations * 1e6,
        "speedup": oracle_s / kernel_s,
    }, {"dc_v": dc_v}, circuit


def _generated_kernel(circuit) -> dict:
    """Size of ``circuit``'s generated kernel, the best time to emit and
    compile it again, and the symbolic factorizations of its DC and
    transient Newton functions."""
    program = circuit.program()
    best = np.inf
    for _ in range(CIRCUIT_REPEATS):
        start = time.perf_counter()
        dc_source, run_source, _, _ = netlist._kernel_source(
            *program.signature)
        compile(dc_source, "<circuit kernel>", "exec")
        compile(run_source, "<circuit kernel>", "exec")
        best = min(best, time.perf_counter() - start)
    kernel = program.kernel
    return {
        "source_lines": len(kernel.source.splitlines()),
        "emit_compile_ms": best * 1e3,
        **{name: {"multipliers": lu.multipliers, "updates": lu.updates,
                  "fill": lu.fill}
           for name, lu in (("dc_elimination", kernel.dc_elimination),
                            ("transient_elimination",
                             kernel.transient_elimination))},
    }


def _ring_linear_solve(oracle, circuit, args) -> dict:
    """One Newton iteration's linear solve on the production ring (one
    ``fanout - 1``-fold replica per stage), three ways.

    The system is the ring's transient free-block Jacobian one step into
    the window (static stamps, each capacitor branch's trapezoidal
    companion at the ``oracle``'s branch capacitances there, ``gmin``)
    with the static residual there as ``r`` in ``J dv = -r``.
    It is solved by the dense LAPACK call the engine used to
    make (a preallocated matrix refilled from the flat Jacobian list,
    ``solve1``, the step back to a list), by ``splu`` (CSC assembly,
    factorization, solve) and by the kernel's generated elimination
    (compiled alone, reading the same entries).  Best per-call time of
    ``RING_SOLVE_REPEATS`` calls each, and the largest difference of the
    two alternatives from LAPACK relative to the step's largest entry.
    """
    program = circuit.program()
    free, width = program.free, program.n_nodes + 1
    t_end_s, dt_s, v0 = args
    state = simulate_transient(circuit, dt_s, dt_s, v0).voltages[-1]
    v = state.tolist() + [0.0]
    f, flat = program.assemble(v)
    jac = np.array(flat).reshape(width, width)
    for a, b, c in (stamp for el in circuit.elements
                    for stamp in oracle.capacitor_stamps(el, state)):
        # Ground (-1) indexes the last slot, which the free block drops.
        geq = 2.0 * c / dt_s
        jac[a, a] += geq
        jac[a, b] -= geq
        jac[b, b] += geq
        jac[b, a] -= geq
    gmin = 1e-12
    jac = jac[np.ix_(free, free)] + gmin * np.eye(len(free))
    residual = [f[i] + gmin * v[i] for i in free]
    m = len(free)

    matrix = np.empty((m, m))
    flat_jac = jac.reshape(-1).tolist()

    def dense():
        matrix.reshape(-1)[:] = flat_jac
        return netlist._solve1(matrix, np.negative(residual)).tolist()

    index = {slot: k for k, slot in enumerate(free)}
    lu = program.kernel.transient_elimination
    entries = sorted(lu.pattern)
    rows = [index[i] for i, _ in entries]
    cols = [index[j] for _, j in entries]
    values = [float(jac[r, c]) for r, c in zip(rows, cols)]

    def sparse():
        matrix = csc_matrix((values, (rows, cols)), shape=(m, m))
        return splu(matrix).solve(np.negative(residual)).tolist()

    lines, _, _ = netlist._elimination(width, list(lu.order), lu.pattern)
    names = [f"q{i * width + j}" for i, j in entries]
    names += [f"r{i}" for i in free]
    solution = ", ".join(f"-q{i * width + width - 1}" for i in free)
    namespace: dict = {}
    exec(compile("\n".join(
        ["def eliminate(values):", f"    {', '.join(names)}, = values"]
        + ["    " + line for line in lines]
        + [f"    return [{solution}]"]), "<ring elimination>", "exec"),
        namespace)
    eliminate = namespace["eliminate"]
    inputs = values + residual

    def best_us(fn) -> float:
        best = np.inf
        for _ in range(RING_SOLVE_REPEATS):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best * 1e6

    want = np.array(dense())
    scale = float(np.max(np.abs(want)))
    return {
        "free_nodes": m,
        "nonzeros": len(entries),
        "dense_solve1_us": best_us(dense),
        "splu_us": best_us(sparse),
        "elimination_us": best_us(lambda: eliminate(inputs)),
        "splu_rel_diff": _max_abs_diff(sparse(), want) / scale,
        "elimination_rel_diff": _max_abs_diff(eliminate(inputs), want)
        / scale,
    }


def _bench_circuit_engine(tech) -> dict:
    """Production circuit engine vs the frozen per-element oracle."""
    # The oracle reads tables through ``tests.device.table_reference``.
    if str(TESTS_DIR.parent) not in sys.path:
        sys.path.insert(0, str(TESTS_DIR.parent))
    oracle = _load_module(CIRCUIT_ORACLE_PATH)
    replicas = _load_module(REPLICA_ORACLE_PATH)
    n_table, p_table = tech.inverter_tables(0.13)
    params, vdd = tech.params, 0.4
    fo4_case = _fo4_transient(n_table, p_table, vdd, params,
                              replicas.build_inverter_chain)
    fo4, fo4_drift = _transient_leg(oracle, *fo4_case)
    vtc_leg, vtc_drift, vtc_circuit = _vtc_leg(oracle, n_table, p_table,
                                               vdd, params)
    ring_case = _ring_transient(n_table, p_table, vdd, params,
                                replicas.build_ring_oscillator,
                                replicas.ring_initial_state)
    ring, ring_drift = _transient_leg(oracle, *ring_case)
    return {
        "fo4_transient": fo4,
        "vtc": vtc_leg,
        "ring_window": ring,
        "generated_kernel": {
            "fo4_transient": _generated_kernel(fo4_case[0]),
            "vtc": _generated_kernel(vtc_circuit),
            "ring_window": _generated_kernel(ring_case[0]),
        },
        "ring_linear_solve": _ring_linear_solve(oracle, *_ring_transient(
            n_table, p_table, vdd, params, build_ring_oscillator,
            _alternating_start)[:2]),
        "max_drift": {
            "dc_v": vtc_drift["dc_v"],
            "waveform_v": max(fo4_drift["waveform_v"],
                              ring_drift["waveform_v"]),
            "supply": max(fo4_drift["supply"], ring_drift["supply"]),
        },
    }


def test_circuit_engine(tech, save_report):
    engine = _bench_circuit_engine(tech)
    fo4, vtc_leg, ring = (engine["fo4_transient"], engine["vtc"],
                          engine["ring_window"])
    kernels = {leg: f"{k['source_lines']} lines, "
                    f"{k['emit_compile_ms']:.1f} ms, fill "
                    f"{k['transient_elimination']['fill']}"
               for leg, k in engine["generated_kernel"].items()}
    rows = [
        [f"FO4 transient ({fo4['nodes']} nodes, {fo4['steps']} steps)",
         f"{fo4['oracle_ms_per_step']:.3f} ms/step",
         f"{fo4['kernel_ms_per_step']:.3f} ms/step",
         f"{fo4['speedup']:.2f}x", kernels["fo4_transient"]],
        [f"inverter VTC ({vtc_leg['points']} points, "
         f"{vtc_leg['oracle_newton_iterations']} -> "
         f"{vtc_leg['newton_iterations']} Newton iterations)",
         f"{vtc_leg['oracle_us_per_iteration']:.1f} us/iter",
         f"{vtc_leg['kernel_us_per_iteration']:.1f} us/iter",
         f"{vtc_leg['speedup']:.2f}x", kernels["vtc"]],
        [f"15-stage ring ({ring['nodes']} nodes, {ring['steps']} steps)",
         f"{ring['oracle_ms_per_step']:.2f} ms/step",
         f"{ring['kernel_ms_per_step']:.2f} ms/step",
         f"{ring['speedup']:.2f}x", kernels["ring_window"]],
    ]
    drift = engine["max_drift"]
    report = format_table(
        ["path", "oracle", "kernel", "gain", "generated kernel"], rows,
        title="Generated circuit kernel vs per-element oracle "
              f"(best of {CIRCUIT_REPEATS}; drift: DC "
              f"{drift['dc_v']:.1e} V, waveform "
              f"{drift['waveform_v']:.1e} V, supply "
              f"{drift['supply']:.1e} of peak)")
    solve = engine["ring_linear_solve"]
    report += "\n" + format_table(
        ["solver", "us per iteration", "max rel diff"],
        [["dense LAPACK solve1", f"{solve['dense_solve1_us']:.1f}", "-"],
         ["scipy splu", f"{solve['splu_us']:.1f}",
          f"{solve['splu_rel_diff']:.1e}"],
         ["generated elimination", f"{solve['elimination_us']:.1f}",
          f"{solve['elimination_rel_diff']:.1e}"]],
        title=f"One ring iteration's linear solve ({solve['free_nodes']} "
              f"free nodes, {solve['nonzeros']} nonzeros; best of "
              f"{RING_SOLVE_REPEATS})")
    save_report("circuit_engine", report)
    print(report)

    # The kernel eliminates in its own order (LAPACK pivots) and starts
    # each step from a predicted iterate, so waveforms and DC solutions
    # drift from the oracle's by rounding and the Newton tolerance, within
    # the parity suite's bounds.
    parity = _load_module(CIRCUIT_PARITY_PATH)
    assert drift["dc_v"] <= parity.DC_BOUND_V
    assert drift["waveform_v"] <= parity.WAVEFORM_BOUND_V
    assert drift["supply"] <= parity.SUPPLY_BOUND
    assert solve["elimination_rel_diff"] <= 1e-12
    if SMOKE:
        assert fo4["speedup"] > 1.2
        return
    assert fo4["speedup"] >= 3.5
    assert vtc_leg["speedup"] >= 3.5
    assert ring["speedup"] >= 6.0
    assert solve["elimination_us"] < solve["dense_solve1_us"]
    _write_legs({"circuit_engine": engine})


#: The figures of merit of ``characterize_inverter``.
FO4_METRICS = ("delay_s", "t_plh_s", "t_phl_s", "static_power_w",
               "dynamic_power_w", "snm_v")


def _replica_leg(explicit, collapsed) -> dict:
    """One transient on the explicit and on the collapsed netlist: sizes,
    best alternating ms per step and the largest voltage difference on
    the nodes both netlists have."""
    (old, old_args, old_kwargs), (new, new_args, new_kwargs) = (explicit,
                                                                collapsed)
    want = simulate_transient(old, *old_args, **old_kwargs)
    got = simulate_transient(new, *new_args, **new_kwargs)
    assert np.array_equal(got.time_s, want.time_s)
    names = [old.node_name(i) for i in range(old.n_nodes)]
    shared = [name for name in (new.node_name(i) for i in range(new.n_nodes))
              if name in names]
    max_dv = max(float(np.max(np.abs(got.v(name) - want.v(name))))
                 for name in shared)
    explicit_s, collapsed_s = _best_pair_s(
        lambda: simulate_transient(old, *old_args, **old_kwargs),
        lambda: simulate_transient(new, *new_args, **new_kwargs),
        REPLICA_REPEATS)
    steps = len(want.time_s) - 1
    return {
        "nodes": [old.n_nodes, new.n_nodes],
        "elements": [len(old.elements), len(new.elements)],
        "steps": steps,
        "explicit_ms_per_step": explicit_s / steps * 1e3,
        "collapsed_ms_per_step": collapsed_s / steps * 1e3,
        "speedup": explicit_s / collapsed_s,
        "max_abs_dv": max_dv,
    }


def _bench_fanout_replicas(tech) -> dict:
    """Explicit replica loads (frozen reference) vs one m-fold replica."""
    replicas = _load_module(REPLICA_ORACLE_PATH)
    n_table, p_table = tech.inverter_tables(0.13)
    params, vdd = tech.params, 0.4
    want, fo4_explicit = _fo4_characterization(
        n_table, p_table, vdd, params, replicas.build_inverter_chain)
    got, fo4_collapsed = _fo4_characterization(
        n_table, p_table, vdd, params, build_inverter_chain)
    drift = {name: abs(getattr(got, name) - getattr(want, name))
             / abs(getattr(want, name)) for name in FO4_METRICS}
    ring = [_ring_transient(n_table, p_table, vdd, params, build, start)
            for build, start in ((replicas.build_ring_oscillator,
                                  replicas.ring_initial_state),
                                 (build_ring_oscillator,
                                  _alternating_start))]
    return {
        "fo4_transient": _replica_leg(fo4_explicit, fo4_collapsed),
        "ring_window": _replica_leg(*ring),
        "fo4_rel_drift": drift,
        "max_rel_drift": max(drift.values()),
    }


def test_fanout_replicas(tech, save_report):
    legs = _bench_fanout_replicas(tech)
    fo4, ring = legs["fo4_transient"], legs["ring_window"]
    rows = [
        [f"{label} ({leg['nodes'][0]} -> {leg['nodes'][1]} nodes, "
         f"{leg['steps']} steps)",
         f"{leg['explicit_ms_per_step']:.3f} ms/step",
         f"{leg['collapsed_ms_per_step']:.3f} ms/step",
         f"{leg['speedup']:.2f}x", f"{leg['max_abs_dv']:.1e} V"]
        for label, leg in (("FO4 transient", fo4),
                           ("15-stage ring", ring))]
    report = format_table(
        ["path", "explicit", "collapsed", "gain", "max |dv|"], rows,
        title="Fanout replicas as one m-fold load (best of "
              f"{REPLICA_REPEATS} alternating; FO4 figures of merit within "
              f"{legs['max_rel_drift']:.1e} relative)")
    save_report("fanout_replicas", report)
    print(report)

    # Exact in real arithmetic; rounding, tol_a and the gmin shunts of
    # the replica outputs the collapsed netlist no longer has move the
    # figures of merit by ~3e-7 at most.
    assert legs["max_rel_drift"] <= 1e-6
    if SMOKE:
        assert fo4["speedup"] >= 1.3
        return
    assert fo4["speedup"] >= 1.5
    assert ring["speedup"] >= 1.5
    _write_legs({"fanout_replicas": legs})


def _bench_monte_carlo(tech) -> dict:
    """Production Fig. 6 sampler vs the frozen scalar oracle."""
    oracle = _load_module(MC_ORACLE_PATH)
    result = run_ring_oscillator_monte_carlo(tech, n_samples=MC_SAMPLES,
                                             config=RunConfig())
    reference = oracle.monte_carlo(tech, n_samples=MC_SAMPLES)
    bitwise = (
        all(np.array_equal(getattr(result, name), reference[name])
            for name in ("frequencies_hz", "dynamic_power_w",
                         "static_power_w"))
        and all(getattr(result, name) == reference[name]
                for name in ("nominal_frequency_hz",
                             "nominal_dynamic_power_w",
                             "nominal_static_power_w"))
        and (list(result.variant_counts.items())
             == list(reference["variant_counts"].items())))
    oracle_s, kernel_s = _best_pair_s(
        lambda: oracle.monte_carlo(tech, n_samples=MC_SAMPLES),
        lambda: run_ring_oscillator_monte_carlo(
            tech, n_samples=MC_SAMPLES, config=RunConfig()),
        MC_REPEATS)
    return {
        "samples": MC_SAMPLES,
        "oracle_s": oracle_s,
        "kernel_s": kernel_s,
        "oracle_samples_per_s": MC_SAMPLES / oracle_s,
        "kernel_samples_per_s": MC_SAMPLES / kernel_s,
        "speedup": oracle_s / kernel_s,
        "bitwise": bitwise,
    }


def test_monte_carlo(tech, save_report):
    mc = _bench_monte_carlo(tech)
    report = format_table(
        ["path", "oracle", "kernel", "gain"],
        [[f"Fig. 6 Monte Carlo ({mc['samples']} samples, warm tables)",
          f"{mc['oracle_samples_per_s']:,.0f} samples/s",
          f"{mc['kernel_samples_per_s']:,.0f} samples/s",
          f"{mc['speedup']:.1f}x"]],
        title="Vectorized Monte Carlo vs scalar oracle "
              f"(best of {MC_REPEATS}; bitwise: {mc['bitwise']})")
    save_report("monte_carlo", report)
    print(report)

    # Same draws and float operations in the same order: every sample,
    # nominal value, variant count and failure record is the oracle's.
    assert mc["bitwise"]
    if SMOKE:
        assert mc["speedup"] >= 5.0
        return
    assert mc["speedup"] >= 20.0
    _write_legs({"monte_carlo": mc})


def _bench_negf() -> dict:
    """Production NEGF experiment kernels vs the frozen oracle."""
    oracle = _load_module(NEGF_ORACLE_PATH)

    # Chain kernel: every call of one Fig. 5 solve, replayed.
    production = negf_device._scalar_chain_rgf
    calls: list[tuple] = []

    def record(*args):
        calls.append(args)
        return production(*args)

    negf_device._scalar_chain_rgf = record
    try:
        negf_device.NEGFDevice(GNRFETGeometry(n_index=12),
                               n_x=NEGF_CHAIN_N_X, n_y=11).solve(0.1, 0.5)
    finally:
        negf_device._scalar_chain_rgf = production
    chain_bitwise = True
    for args in calls:
        new, ref = production(*args), oracle._scalar_chain_rgf(*args)
        chain_bitwise &= all(
            np.array_equal(getattr(new, name), getattr(ref, name))
            for name in ("transmission", "spectral_source",
                         "spectral_drain"))

    def replay(kernel):
        for args in calls:
            kernel(*args)

    chain_oracle_s, chain_kernel_s = _best_pair_s(
        lambda: replay(oracle._scalar_chain_rgf), lambda: replay(production),
        NEGF_REPEATS)

    # Fermi-Dirac: the conduction-band argument of the density table.
    model = SBFETModel(GNRFETGeometry())
    e_k = np.sqrt(model.modes[0].edge_ev ** 2
                  + (model._hv_ev_nm[0] * model._k_grids[0]) ** 2)
    energies = np.linspace(-3.0, 3.0, 2401)[:, None] + e_k[None, :]
    kt = model.kt_ev
    fermi_bitwise = np.array_equal(
        fermi_dirac(energies, 0.0, kt).view(np.uint64),
        oracle.fermi_dirac(energies, 0.0, kt).view(np.uint64))
    fermi_oracle_s, fermi_kernel_s = _best_pair_s(
        lambda: oracle.fermi_dirac(energies, 0.0, kt),
        lambda: fermi_dirac(energies, 0.0, kt), 2 * NEGF_REPEATS)
    peaks = []
    for fn in (oracle.fermi_dirac, fermi_dirac):
        tracemalloc.start()
        fn(energies, 0.0, kt)
        peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        tracemalloc.stop()

    # One edge-roughness ensemble.
    n_index, probability, n_cells, n_samples = NEGF_ENSEMBLE

    def ensemble():
        # Uncached, so every repeat times the transport, not a disk read.
        return roughness_ensemble(n_index, probability, n_cells=n_cells,
                                  n_samples=n_samples,
                                  config=RunConfig(use_cache=False)).samples

    def ensemble_oracle():
        return oracle.roughness_samples(n_index, probability, n_cells,
                                        n_samples)

    ensemble_bitwise = np.array_equal(ensemble(), ensemble_oracle())
    ens_oracle_s, ens_kernel_s = _best_pair_s(ensemble_oracle, ensemble,
                                              NEGF_REPEATS)
    return {
        "chain_kernel": {
            "n_x": NEGF_CHAIN_N_X,
            "calls": len(calls),
            "max_energies": max(args[0].size for args in calls),
            "oracle_ms_per_call": chain_oracle_s / len(calls) * 1e3,
            "kernel_ms_per_call": chain_kernel_s / len(calls) * 1e3,
            "speedup": chain_oracle_s / chain_kernel_s,
            "bitwise": chain_bitwise,
        },
        "fermi_dirac": {
            "shape": list(energies.shape),
            "oracle_ms": fermi_oracle_s * 1e3,
            "kernel_ms": fermi_kernel_s * 1e3,
            "speedup": fermi_oracle_s / fermi_kernel_s,
            "oracle_peak_mb": peaks[0],
            "kernel_peak_mb": peaks[1],
            "bitwise": bool(fermi_bitwise),
        },
        "roughness_ensemble": {
            "n_index": n_index,
            "vacancy_probability": probability,
            "n_cells": n_cells,
            "n_samples": n_samples,
            "oracle_ms": ens_oracle_s * 1e3,
            "kernel_ms": ens_kernel_s * 1e3,
            "speedup": ens_oracle_s / ens_kernel_s,
            "bitwise": bool(ensemble_bitwise),
        },
    }


def _bench_electrostatics(oracle) -> dict:
    """Fig. 5's channel-row response against the 2-D operator solve it
    replaced (``oracle.OperatorNEGFDevice``)."""
    n_x, n_y = NEGF_CHAIN_N_X, 11
    geometry = GNRFETGeometry(n_index=12,
                              impurity=ChargeImpurity(charge_e=-2.0))
    grid = Grid2D(lx_nm=geometry.channel_length_nm,
                  ly_nm=geometry.gate_separation_nm, nx=n_x, ny=n_y)
    build_s = np.inf
    for _ in range(NEGF_REPEATS):
        start = time.perf_counter()
        negf_device._channel_response.__wrapped__(grid, geometry.eps_ox)
        build_s = min(build_s, time.perf_counter() - start)

    device = negf_device.NEGFDevice(geometry, n_x=n_x, n_y=n_y)
    operator = oracle.OperatorNEGFDevice(geometry, n_x=n_x, n_y=n_y)
    rng = np.random.default_rng(0)
    draws = [(rng.normal(scale=10.0 ** rng.uniform(-3.0, 1.0), size=n_x),
              *rng.uniform(-1.0, 1.0, size=2)) for _ in range(20)]
    max_du = rel_du = 0.0
    for draw in draws:
        new = device._solve_poisson_midgap(*draw)
        old = operator._solve_poisson_midgap(*draw)
        du = float(np.max(np.abs(new - old)))
        max_du = max(max_du, du)
        rel_du = max(rel_du, du / float(np.max(np.abs(old))))

    def solves(dev):
        return lambda: [dev._solve_poisson_midgap(*draw) for draw in draws]

    operator_s, response_s = _best_pair_s(solves(operator), solves(device),
                                          NEGF_REPEATS)

    def fig5_pass(cls):
        def run():
            # A fresh process's pass builds the response once; the
            # operator pass finds it memoized and builds five operators.
            if cls is negf_device.NEGFDevice:
                negf_device._channel_response.cache_clear()
            return [cls(GNRFETGeometry(
                n_index=12,
                impurity=ChargeImpurity(charge_e=q) if q else None),
                n_x=n_x, n_y=n_y).solve(0.1, 0.5).conduction_band_ev
                for q in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        return run

    pass_operator_s, pass_response_s = _best_pair_s(
        fig5_pass(oracle.OperatorNEGFDevice),
        fig5_pass(negf_device.NEGFDevice), NEGF_PASS_REPEATS)
    shift = max(float(np.max(np.abs(a - b))) for a, b in zip(
        fig5_pass(oracle.OperatorNEGFDevice)(),
        fig5_pass(negf_device.NEGFDevice)()))
    return {
        "grid": [n_x, n_y],
        "response_build_ms": build_s * 1e3,
        "operator_solve_us": operator_s / len(draws) * 1e6,
        "response_solve_us": response_s / len(draws) * 1e6,
        "solve_speedup": operator_s / response_s,
        "max_abs_du_ev": max_du,
        "max_rel_du": rel_du,
        "fig5_pass_operator_ms": pass_operator_s * 1e3,
        "fig5_pass_response_ms": pass_response_s * 1e3,
        "fig5_max_abs_dec_ev": shift,
    }


def test_negf(save_report):
    legs = _bench_negf()
    legs["electrostatics"] = _bench_electrostatics(
        _load_module(NEGF_ORACLE_PATH))
    chain, fermi, ens, elec = (legs["chain_kernel"], legs["fermi_dirac"],
                               legs["roughness_ensemble"],
                               legs["electrostatics"])
    rows = [
        [f"chain kernel (n_x={chain['n_x']}, {chain['calls']} calls of "
         f"one Fig. 5 solve, <= {chain['max_energies']} E)",
         f"{chain['oracle_ms_per_call']:.2f} ms/call",
         f"{chain['kernel_ms_per_call']:.2f} ms/call",
         f"{chain['speedup']:.2f}x", str(chain["bitwise"])],
        [f"fermi_dirac {fermi['shape'][0]}x{fermi['shape'][1]} "
         f"(peak {fermi['oracle_peak_mb']:.1f} -> "
         f"{fermi['kernel_peak_mb']:.1f} MB)",
         f"{fermi['oracle_ms']:.2f} ms", f"{fermi['kernel_ms']:.2f} ms",
         f"{fermi['speedup']:.2f}x", str(fermi["bitwise"])],
        [f"roughness ensemble (N={ens['n_index']}, "
         f"p={ens['vacancy_probability']}, {ens['n_cells']} cells, "
         f"{ens['n_samples']} samples)",
         f"{ens['oracle_ms']:.1f} ms", f"{ens['kernel_ms']:.1f} ms",
         f"{ens['speedup']:.2f}x", str(ens["bitwise"])],
        [f"Poisson solve, {elec['grid'][0]}x{elec['grid'][1]} "
         f"(response build {elec['response_build_ms']:.2f} ms)",
         f"{elec['operator_solve_us']:.1f} us",
         f"{elec['response_solve_us']:.1f} us",
         f"{elec['solve_speedup']:.2f}x",
         f"|dU| <= {elec['max_abs_du_ev']:.1e} eV"],
        ["Fig. 5 NEGF pass (five devices)",
         f"{elec['fig5_pass_operator_ms']:.0f} ms",
         f"{elec['fig5_pass_response_ms']:.0f} ms",
         f"{elec['fig5_pass_operator_ms'] / elec['fig5_pass_response_ms']:.2f}x",
         f"|dEC| <= {elec['fig5_max_abs_dec_ev']:.1e} eV"],
    ]
    report = format_table(
        ["path", "oracle", "kernel", "gain", "bitwise or drift"], rows,
        title="NEGF experiment kernels vs frozen oracle "
              f"(best of {NEGF_REPEATS} alternating; electrostatics: "
              "PoissonOperator vs channel-row response)")
    save_report("negf", report)
    print(report)

    # Same float operations in the same order: every output is the
    # oracle's, bit for bit.
    assert chain["bitwise"] and fermi["bitwise"] and ens["bitwise"]
    # The response is the operator's channel row, not an approximation,
    # and a matvec beats a 2-D right-hand side and two triangular solves.
    assert elec["max_rel_du"] <= 1e-13
    assert elec["solve_speedup"] >= 2.0
    if SMOKE:
        assert ens["speedup"] >= 1.5
        return
    assert chain["speedup"] >= 1.2
    assert fermi["speedup"] >= 2.0
    assert ens["speedup"] >= 3.0
    _write_legs({"negf": legs})
