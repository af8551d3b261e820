"""Solver acceleration layer: the hot-path wins, measured.

The acceleration work has five legs, each with a quantitative
acceptance target measured here and persisted to ``BENCH_solvers.json``
at the repository root:

* **Prefactorized Poisson** — :class:`repro.poisson.fd.PoissonOperator`
  assembles + LU-factorizes once per (grid, permittivity, mask); each
  SCF iteration then pays two triangular substitutions.  Target: >= 3x
  over assemble-per-solve on the reference 61 x 15 device grid (measured
  ~25x: factorization dominates at this size).
* **Energy-batched real-space transport** — stacked Sancho-Rubio + RGF
  kernels carry all energies per LAPACK call.  Target: >= 5x over the
  per-energy loop at 12 and at 64 energies on the edge-roughness
  ensemble workload shape (N = 7 ribbon, 80 cells), with parity to
  1e-10.  (On wide ribbons the stacked calls amortize less — see
  docs/performance.md for the block-size dependence.)
* **Mode-space engine** — the coupled mode-space reduction of
  :class:`repro.device.negf_modespace.ModeSpaceGNRDevice` shrinks every
  RGF block from ``2N`` to the retained mode count.  Target: >= 5x over
  the real-space engine at matched accuracy (max |dT| <= 0.05 and
  relative dI <= 0.05 over the transport window) on the paper-scale
  N = 12 barrier device, with the full n_modes/accuracy trade-off curve
  recorded.
* **Semianalytic WKB kernel** — ``SBFETModel.transmission`` shares one
  ``(E - u)**2`` across modes, reduces each mode's gap integral with a
  single matvec and reads the band masks off a sorted-profile CDF.
  Replays every ``transmission`` call of the nominal N = 12 table build
  through the frozen per-mode formulation
  (``tests/device/wkb_reference.py``) and the production kernel.
  Target: >= 4x per call with relative parity <= 1e-12; the whole
  table sweep is timed under both kernels.
* **Compiled circuit engine** — ``solve_dc`` and ``simulate_transient``
  run the Newton steps that each netlist topology is emitted and compiled
  into as straight-line Python (:class:`repro.circuit.netlist.Kernel`).
  Replays the nominal FO4 transient of ``characterize_inverter``, a
  61-point inverter VTC and 300 steps of the 15-stage ring through the
  frozen per-element engine (``tests/circuit/engine_reference.py``) and
  through production, and records each circuit's generated kernel (source
  lines, emit + compile time).  Target: bitwise-identical waveforms and DC
  solutions, >= 3.5x per FO4 transient step and per VTC Newton
  iteration, >= 1.6x per ring step.
* **Vectorized Monte Carlo** — the Fig. 6 sample phase draws one block
  of normals per sample and evaluates the stage-delay surrogate on
  vectors spanning every sample.  Replays the Fig. 6 study (2,000
  samples) through the frozen scalar sampler
  (``tests/variability/mc_reference.py``) and through production.
  Target: bitwise-identical samples, nominal values, variant counts and
  failure records, >= 20x in samples per second.

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
from pathlib import Path

import numpy as np

from repro.circuit import inverter, netlist
from repro.circuit.dc import solve_dc
from repro.circuit.inverter import (
    add_inverter,
    characterize_inverter,
    estimate_inverter_delay,
)
from repro.circuit.netlist import Circuit
from repro.circuit.ring_oscillator import build_ring_oscillator
from repro.circuit.transient import simulate_transient
from repro.device.geometry import GNRFETGeometry
from repro.device.iv import sweep_iv
from repro.device.negf_modespace import ModeSpaceGNRDevice
from repro.device.negf_realspace import RealSpaceGNRDevice
from repro.device.sbfet import SBFETModel
from repro.device.tables import DEFAULT_VD_GRID, DEFAULT_VG_GRID
from repro.poisson.fd import PoissonOperator, solve_poisson_2d
from repro.poisson.grid import Grid2D
from repro.reporting.tables import format_table
from repro.variability.montecarlo import run_ring_oscillator_monte_carlo

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_solvers.json"

# Workload sizes (full / smoke).
POISSON_SHAPE = (61, 15)
POISSON_REPEATS = 50 if SMOKE else 200
TRANSPORT_N_INDEX = 7
TRANSPORT_CELLS = 16 if SMOKE else 80
TRANSPORT_GRIDS = (12,) if SMOKE else (12, 64)
TRANSPORT_REPEATS = 1 if SMOKE else 5
MODESPACE_N_INDEX = 12
MODESPACE_CELLS = 12 if SMOKE else 36
MODESPACE_ENERGIES = 21 if SMOKE else 61
MODESPACE_REPEATS = 1 if SMOKE else 3
MODESPACE_SWEEP = (4,) if SMOKE else (2, 4, 6, None)
WKB_VG_GRID = DEFAULT_VG_GRID[::6] if SMOKE else DEFAULT_VG_GRID
WKB_VD_GRID = DEFAULT_VD_GRID[::3] if SMOKE else DEFAULT_VD_GRID
WKB_REPEATS = 1 if SMOKE else 3
CIRCUIT_FO4_CYCLES = 0.5 if SMOKE else 2.0
CIRCUIT_VTC_POINTS = 21 if SMOKE else 61
CIRCUIT_RING_STEPS = 40 if SMOKE else 300
CIRCUIT_REPEATS = 1 if SMOKE else 5
MC_SAMPLES = 200 if SMOKE else 2000
MC_REPEATS = 1 if SMOKE else 3

SCHEMA = "repro-bench-solvers/8"
TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"
ORACLE_PATH = TESTS_DIR / "device" / "wkb_reference.py"
CIRCUIT_ORACLE_PATH = TESTS_DIR / "circuit" / "engine_reference.py"
MC_ORACLE_PATH = TESTS_DIR / "variability" / "mc_reference.py"


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


def _bench_poisson() -> dict:
    grid = Grid2D(15.0, 3.0, *POISSON_SHAPE)
    rng = np.random.default_rng(0)
    eps = rng.uniform(1.0, 4.0, grid.shape)
    mask = np.zeros(grid.shape, dtype=bool)
    mask[:, 0] = mask[:, -1] = mask[0, :] = mask[-1, :] = True
    values = np.zeros(grid.shape)
    rho = rng.normal(scale=1e-21, size=grid.shape)

    operator = PoissonOperator.for_grid(grid, eps, mask)
    start = time.perf_counter()
    for _ in range(POISSON_REPEATS):
        phi_fast = operator.solve(rho, values)
    prefactorized_s = (time.perf_counter() - start) / POISSON_REPEATS

    one_shot_repeats = max(POISSON_REPEATS // 10, 3)
    start = time.perf_counter()
    for _ in range(one_shot_repeats):
        phi_ref = solve_poisson_2d(grid, eps, rho, mask, values)
    one_shot_s = (time.perf_counter() - start) / one_shot_repeats

    return {
        "grid": list(POISSON_SHAPE),
        "one_shot_ms": one_shot_s * 1e3,
        "prefactorized_ms": prefactorized_s * 1e3,
        "speedup": one_shot_s / prefactorized_s,
        "max_abs_dphi": float(np.max(np.abs(phi_fast - phi_ref))),
    }


def _bench_batched_transport() -> dict:
    device = RealSpaceGNRDevice(TRANSPORT_N_INDEX, TRANSPORT_CELLS)
    grids = {}
    for n_energy in TRANSPORT_GRIDS:
        energies = np.linspace(-1.0, 1.0, n_energy)
        looped = device.transport(energies, batched=False)
        batched = device.transport(energies, batched=True)
        parity = float(np.max(np.abs(looped.transmission
                                     - batched.transmission)))
        best_loop = best_batch = np.inf
        for _ in range(TRANSPORT_REPEATS):
            start = time.perf_counter()
            device.transport(energies, batched=False)
            best_loop = min(best_loop, time.perf_counter() - start)
            start = time.perf_counter()
            device.transport(energies, batched=True)
            best_batch = min(best_batch, time.perf_counter() - start)
        grids[str(n_energy)] = {
            "looped_ms": best_loop * 1e3,
            "batched_ms": best_batch * 1e3,
            "speedup": best_loop / best_batch,
            "max_abs_dT": parity,
        }
    return {
        "n_index": TRANSPORT_N_INDEX,
        "n_cells": TRANSPORT_CELLS,
        "energy_grids": grids,
    }


def _bench_modespace_engine() -> dict:
    """Mode-space vs real-space engine on a paper-scale barrier device.

    The workload is the 15 nm channel shape: an N = 12 ribbon with a
    smooth 0.35 eV barrier over the middle third, swept over the
    transport window.  Current parity integrates the transmission
    between source/drain windows at V_D = 0.5 V.
    """
    n_cells = MODESPACE_CELLS
    cells = np.arange(n_cells)
    profile = 0.35 * np.exp(-(((cells + 0.5) / n_cells - 0.5) / 0.18) ** 2)
    energies = np.linspace(-1.0, 1.0, MODESPACE_ENERGIES)
    mu_source, mu_drain = 0.0, -0.5

    realspace = RealSpaceGNRDevice(
        MODESPACE_N_INDEX, n_cells,
        onsite_ev=np.repeat(profile, 2 * MODESPACE_N_INDEX))
    ref = realspace.transport(energies)
    i_ref = ref.current_a(mu_source, mu_drain)
    best_ref = np.inf
    for _ in range(MODESPACE_REPEATS):
        start = time.perf_counter()
        realspace.transport(energies)
        best_ref = min(best_ref, time.perf_counter() - start)

    sweep = {}
    for n_modes in MODESPACE_SWEEP:
        device = ModeSpaceGNRDevice(MODESPACE_N_INDEX, n_cells,
                                    onsite_ev=profile, n_modes=n_modes)
        result = device.transport(energies)
        best = np.inf
        for _ in range(MODESPACE_REPEATS):
            start = time.perf_counter()
            device.transport(energies)
            best = min(best, time.perf_counter() - start)
        i_ms = result.current_a(mu_source, mu_drain)
        sweep[str(n_modes)] = {
            "n_retained": device.n_retained,
            "realspace_ms": best_ref * 1e3,
            "modespace_ms": best * 1e3,
            "speedup": best_ref / best,
            "max_abs_dT": float(np.max(np.abs(ref.transmission
                                              - result.transmission))),
            "rel_dI": abs(i_ms - i_ref) / abs(i_ref),
        }
    return {
        "n_index": MODESPACE_N_INDEX,
        "n_cells": n_cells,
        "n_energies": MODESPACE_ENERGIES,
        "n_orbitals": 2 * MODESPACE_N_INDEX,
        "barrier_ev": 0.35,
        "tolerance": {"max_abs_dT": 0.05, "rel_dI": 0.05},
        "n_modes_sweep": sweep,
    }


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
            sweep_iv(geometry, WKB_VG_GRID, WKB_VD_GRID, workers=1,
                     checkpoint=0, resume=False)
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
    poisson = _bench_poisson()
    transport = _bench_batched_transport()
    modespace = _bench_modespace_engine()
    wkb = _bench_wkb_kernel()

    rows = [
        ["Poisson prefactorized "
         f"({poisson['grid'][0]}x{poisson['grid'][1]})",
         f"{poisson['one_shot_ms']:.2f} ms",
         f"{poisson['prefactorized_ms']:.3f} ms",
         f"{poisson['speedup']:.1f}x"],
    ]
    for n_energy, g in transport["energy_grids"].items():
        rows.append(
            [f"batched transport (N={transport['n_index']}, "
             f"{transport['n_cells']} cells, {n_energy} E)",
             f"{g['looped_ms']:.1f} ms",
             f"{g['batched_ms']:.1f} ms",
             f"{g['speedup']:.2f}x"])
    for n_modes, g in modespace["n_modes_sweep"].items():
        rows.append(
            [f"modespace engine (N={modespace['n_index']}, "
             f"n_modes={n_modes}, m={g['n_retained']})",
             f"{g['realspace_ms']:.1f} ms",
             f"{g['modespace_ms']:.1f} ms",
             f"{g['speedup']:.2f}x (dT {g['max_abs_dT']:.1e})"])
    rows.append(
        [f"WKB kernel (N={wkb['n_index']} table, {wkb['calls']} calls)",
         f"{wkb['oracle_ms_per_call']:.2f} ms/call",
         f"{wkb['kernel_ms_per_call']:.2f} ms/call",
         f"{wkb['speedup']:.2f}x (rel dT {wkb['max_rel_dT']:.1e})"])
    rows.append(
        [f"WKB table sweep ({wkb['grid'][0]}x{wkb['grid'][1]})",
         f"{wkb['sweep_oracle_s']:.2f} s",
         f"{wkb['sweep_kernel_s']:.2f} s",
         f"{wkb['sweep_speedup']:.2f}x"])
    report = format_table(
        ["path", "before", "after", "gain"], rows,
        title="Solver acceleration layer (best of repeated runs)")
    save_report("solver_accel", report)
    print(report)

    # Physics parity first: acceleration is worthless if answers moved.
    assert poisson["max_abs_dphi"] == 0.0  # same operator, same solve
    for g in transport["energy_grids"].values():
        assert g["max_abs_dT"] < 1e-10
    # Full rank must reproduce real space to round-off; the truncated
    # points must stay inside the documented accuracy contract.
    tol = modespace["tolerance"]
    for n_modes, g in modespace["n_modes_sweep"].items():
        if n_modes == "None":
            assert g["max_abs_dT"] < 1e-6
        if n_modes in ("4", "6", "None"):
            assert g["max_abs_dT"] <= tol["max_abs_dT"]
            assert g["rel_dI"] <= tol["rel_dI"]
    assert wkb["max_rel_dT"] <= 1e-12

    if SMOKE:
        # Sanity bounds only: smoke runners are slow and shared.
        assert poisson["speedup"] > 1.5
        for g in transport["energy_grids"].values():
            assert g["speedup"] > 1.5
        assert modespace["n_modes_sweep"]["4"]["speedup"] > 1.5
        assert wkb["speedup"] > 1.5
        return

    assert poisson["speedup"] >= 3.0
    for g in transport["energy_grids"].values():
        assert g["speedup"] >= 5.0
    # The headline claim: >= 5x over real space at matched accuracy.
    assert modespace["n_modes_sweep"]["4"]["speedup"] >= 5.0
    assert wkb["speedup"] >= 4.0

    _write_legs({
        "poisson_prefactorized": poisson,
        "batched_transport": transport,
        "modespace_engine": modespace,
        "wkb_kernel": wkb,
    })


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


def _fo4_transient(n_table, p_table, vdd, params):
    """The nominal FO4 transient exactly as ``characterize_inverter``
    issues it, as ``(circuit, args, kwargs)`` of ``simulate_transient``,
    cut to ``CIRCUIT_FO4_CYCLES`` input cycles (characterize runs two)."""
    calls = []

    def record(circuit, *args, **kwargs):
        calls.append((circuit, args, kwargs))
        return simulate_transient(circuit, *args, **kwargs)

    inverter.simulate_transient = record
    try:
        characterize_inverter(n_table, p_table, vdd, params)
    finally:
        inverter.simulate_transient = simulate_transient
    circuit, (t_end_s, dt_s, v0), kwargs = calls[0]
    return circuit, (t_end_s * CIRCUIT_FO4_CYCLES / 2.0, dt_s, v0), kwargs


def _ring_transient(n_table, p_table, vdd, params, n_stages=15):
    """``CIRCUIT_RING_STEPS`` steps of the ring from the alternating start
    and at the time step of ``simulate_ring_oscillator``."""
    circuit = build_ring_oscillator(n_table, p_table, vdd, n_stages, params)
    v0 = np.zeros(circuit.n_nodes)
    v0[circuit.node("vdd")] = vdd
    for i in range(n_stages):
        v0[circuit.node(f"s{i}")] = vdd if i % 2 == 0 else 0.0
    v0[circuit.node(f"s{n_stages - 1}")] = vdd / 2.0
    for i in range(n_stages):
        for k in range(params.fanout - 1):
            drive = v0[circuit.node(f"s{(i + 1) % n_stages}")]
            v0[circuit.node(f"inv{i}.load{k}")] = vdd - drive
    est = estimate_inverter_delay(n_table, p_table, vdd, params)
    dt = max(2.0 * n_stages * est * 2.5 / 480.0, 0.05e-12)
    args = (CIRCUIT_RING_STEPS * dt, dt, v0)
    return circuit, args, {"monitor_supplies": (circuit.node("vdd"),)}


def _transient_leg(oracle, circuit, args, kwargs) -> tuple[dict, bool]:
    result = simulate_transient(circuit, *args, **kwargs)
    ref_t, ref_v, ref_supplies = oracle.simulate_transient(circuit, *args,
                                                           **kwargs)
    bitwise = (np.array_equal(result.time_s, ref_t)
               and np.array_equal(result.voltages, ref_v)
               and all(np.array_equal(result.supply_currents[m], trace)
                       for m, trace in ref_supplies.items()))
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
    }, bitwise


def _vtc_leg(oracle, n_table, p_table, vdd, params
             ) -> tuple[dict, bool, Circuit]:
    """A continuation VTC of one inverter, as ``compute_vtc`` runs it."""
    circuit = Circuit("inverter-vtc")
    vin, vout = circuit.node("in"), circuit.node("out")
    vdd_node = circuit.node("vdd")
    circuit.fix(vdd_node, vdd)
    circuit.fix(vin, 0.0)
    add_inverter(circuit, "dut", vin, vout, vdd_node, n_table, p_table,
                 params)
    grid = np.linspace(0.0, vdd, CIRCUIT_VTC_POINTS)

    def sweep(solve) -> tuple[list, int]:
        solutions, iterations, v_prev = [], 0, None
        for value in grid:
            circuit.fixed[vin] = float(value)
            v_prev, iters = solve(v_prev)
            solutions.append(v_prev)
            iterations += iters
        return solutions, iterations

    def kernel(v0):
        result = solve_dc(circuit, v0=v0)
        return result.voltages, result.iterations

    def reference(v0):
        return oracle.solve_dc(circuit, v0=v0)

    new, iterations = sweep(kernel)
    ref, ref_iterations = sweep(reference)
    bitwise = (iterations == ref_iterations
               and all(np.array_equal(a, b) for a, b in zip(new, ref)))
    oracle_s, kernel_s = _best_pair_s(lambda: sweep(reference),
                                      lambda: sweep(kernel), CIRCUIT_REPEATS)
    return {
        "points": int(grid.size),
        "newton_iterations": iterations,
        "oracle_us_per_iteration": oracle_s / iterations * 1e6,
        "kernel_us_per_iteration": kernel_s / iterations * 1e6,
        "speedup": oracle_s / kernel_s,
    }, bitwise, circuit


def _generated_kernel(circuit) -> dict:
    """Size of ``circuit``'s generated kernel and the best time to emit
    and compile it again."""
    program = circuit.program()
    best = np.inf
    for _ in range(CIRCUIT_REPEATS):
        start = time.perf_counter()
        source = netlist._kernel_source(*program.signature)
        compile(source, "<circuit kernel>", "exec")
        best = min(best, time.perf_counter() - start)
    return {"source_lines": len(program.kernel.source.splitlines()),
            "emit_compile_ms": best * 1e3}


def _bench_circuit_engine(tech) -> dict:
    """Production circuit engine vs the frozen per-element oracle."""
    # The oracle reads tables through ``tests.device.table_reference``.
    if str(TESTS_DIR.parent) not in sys.path:
        sys.path.insert(0, str(TESTS_DIR.parent))
    oracle = _load_module(CIRCUIT_ORACLE_PATH)
    n_table, p_table = tech.inverter_tables(0.13)
    params, vdd = tech.params, 0.4
    fo4_case = _fo4_transient(n_table, p_table, vdd, params)
    fo4, fo4_bitwise = _transient_leg(oracle, *fo4_case)
    vtc, vtc_bitwise, vtc_circuit = _vtc_leg(oracle, n_table, p_table, vdd,
                                             params)
    ring_case = _ring_transient(n_table, p_table, vdd, params)
    ring, ring_bitwise = _transient_leg(oracle, *ring_case)
    return {
        "fo4_transient": fo4,
        "vtc": vtc,
        "ring_window": ring,
        "generated_kernel": {
            "fo4_transient": _generated_kernel(fo4_case[0]),
            "vtc": _generated_kernel(vtc_circuit),
            "ring_window": _generated_kernel(ring_case[0]),
        },
        "bitwise": fo4_bitwise and vtc_bitwise and ring_bitwise,
    }


def test_circuit_engine(tech, save_report):
    engine = _bench_circuit_engine(tech)
    fo4, vtc, ring = (engine["fo4_transient"], engine["vtc"],
                      engine["ring_window"])
    kernels = {leg: f"{k['source_lines']} lines, "
                    f"{k['emit_compile_ms']:.1f} ms"
               for leg, k in engine["generated_kernel"].items()}
    rows = [
        [f"FO4 transient ({fo4['nodes']} nodes, {fo4['steps']} steps)",
         f"{fo4['oracle_ms_per_step']:.3f} ms/step",
         f"{fo4['kernel_ms_per_step']:.3f} ms/step",
         f"{fo4['speedup']:.2f}x", kernels["fo4_transient"]],
        [f"inverter VTC ({vtc['points']} points, "
         f"{vtc['newton_iterations']} Newton iterations)",
         f"{vtc['oracle_us_per_iteration']:.1f} us/iter",
         f"{vtc['kernel_us_per_iteration']:.1f} us/iter",
         f"{vtc['speedup']:.2f}x", kernels["vtc"]],
        [f"15-stage ring ({ring['nodes']} nodes, {ring['steps']} steps)",
         f"{ring['oracle_ms_per_step']:.2f} ms/step",
         f"{ring['kernel_ms_per_step']:.2f} ms/step",
         f"{ring['speedup']:.2f}x", kernels["ring_window"]],
    ]
    report = format_table(
        ["path", "oracle", "kernel", "gain", "generated kernel"], rows,
        title="Generated circuit kernel vs per-element oracle "
              f"(best of {CIRCUIT_REPEATS}; bitwise: {engine['bitwise']})")
    save_report("circuit_engine", report)
    print(report)

    # Same float operations in the same order: every waveform, DC
    # solution and iteration count is identical to the oracle's.
    assert engine["bitwise"]
    if SMOKE:
        assert fo4["speedup"] > 1.2
        return
    assert fo4["speedup"] >= 3.5
    assert vtc["speedup"] >= 3.5
    assert ring["speedup"] >= 1.6
    _write_legs({"circuit_engine": engine})


def _bench_monte_carlo(tech) -> dict:
    """Production Fig. 6 sampler vs the frozen scalar oracle."""
    oracle = _load_module(MC_ORACLE_PATH)
    result = run_ring_oscillator_monte_carlo(tech, n_samples=MC_SAMPLES,
                                             workers=1)
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
             == list(reference["variant_counts"].items()))
        and result.failures == reference["failures"])
    oracle_s, kernel_s = _best_pair_s(
        lambda: oracle.monte_carlo(tech, n_samples=MC_SAMPLES),
        lambda: run_ring_oscillator_monte_carlo(
            tech, n_samples=MC_SAMPLES, workers=1),
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
