"""15-stage fanout-of-4 ring oscillator: build, simulate, estimate.

The paper's representative circuit for technology exploration: "a 15-stage
ring oscillator where each inverter drives a fanout-of-four load".  In the
ring, each stage's load is the next stage plus ``fanout - 1`` replica
inverters, simulated as one ``(fanout - 1)``-fold replica inverter
(:func:`repro.circuit.inverter.add_replica_load`).

Two paths again:

* :func:`simulate_ring_oscillator` — full transient; frequency from the
  settled oscillation, power from the supply-current trace.  Used at the
  headline operating points (Table 1 and the Fig. 6 nominal).
* :func:`estimate_ring_oscillator` — quasi-static: frequency from the
  per-stage delay estimate, powers from the charge/leakage estimators.
  Used for the dense V_DD-V_T contour sweep of Fig. 3(b); validated
  against the transient path in ``benchmarks/bench_ablation_estimators.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.circuit.inverter import (
    CircuitParameters,
    add_inverter,
    add_replica_load,
    estimate_inverter_delay,
    estimate_inverter_energy,
    inverter_static_power_w,
)
from repro.circuit.metrics import average_power_w, oscillation_frequency
from repro.circuit.netlist import Circuit
from repro.circuit.transient import simulate_transient
from repro.device.tables import DeviceTable
from repro.errors import AnalysisError


@dataclass(frozen=True)
class RingOscillatorMetrics:
    """Measured (or estimated) oscillator figures of merit.

    ``edp_j_s`` is the paper's EDP: total supply energy per oscillation
    cycle times the per-stage delay.
    """

    frequency_hz: float
    stage_delay_s: float
    total_power_w: float
    static_power_w: float
    dynamic_power_w: float
    edp_j_s: float
    vdd: float
    n_stages: int


def build_ring_oscillator(
    n_table: DeviceTable,
    p_table: DeviceTable,
    vdd: float,
    n_stages: int = 15,
    params: CircuitParameters | None = None,
    per_stage_tables: list[tuple[DeviceTable, DeviceTable]] | None = None,
) -> Circuit:
    """Assemble the ring.

    ``per_stage_tables`` overrides the (n, p) tables stage by stage — the
    hook used by the Monte Carlo study.  Replica loads always use the
    nominal tables (they represent surrounding logic).
    """
    if n_stages < 3 or n_stages % 2 == 0:
        raise ValueError("ring needs an odd number of stages >= 3")
    params = params or CircuitParameters()
    circuit = Circuit(f"ro-{n_stages}")
    vdd_node = circuit.node("vdd")
    circuit.fix(vdd_node, vdd)

    stage_nodes = [circuit.node(f"s{i}") for i in range(n_stages)]
    for i in range(n_stages):
        vin = stage_nodes[i]
        vout = stage_nodes[(i + 1) % n_stages]
        nt, pt = (per_stage_tables[i] if per_stage_tables is not None
                  else (n_table, p_table))
        add_inverter(circuit, f"inv{i}", vin, vout, vdd_node, nt, pt, params)
        add_replica_load(circuit, f"inv{i}.load", vout, vdd_node, n_table,
                         p_table, params, copies=params.fanout - 1)
    return circuit


def simulate_ring_oscillator(
    n_table: DeviceTable,
    p_table: DeviceTable,
    vdd: float,
    n_stages: int = 15,
    params: CircuitParameters | None = None,
    per_stage_tables: list[tuple[DeviceTable, DeviceTable]] | None = None,
    n_periods: float = 4.0,
    dt_s: float | None = None,
) -> RingOscillatorMetrics:
    """Transient simulation of the ring oscillator.

    The ring is started from an alternating initial condition (a DC
    solution cannot exist for an odd ring away from the metastable point;
    the alternating start kicks it onto the oscillation immediately).
    """
    params = params or CircuitParameters()
    circuit = build_ring_oscillator(n_table, p_table, vdd, n_stages,
                                    params, per_stage_tables)
    vdd_node = circuit.node("vdd")

    est_stage = estimate_inverter_delay(n_table, p_table, vdd, params)
    if not np.isfinite(est_stage):
        raise AnalysisError("drive current is zero; ring cannot oscillate")
    # The quasi-static estimator neglects slew and short-circuit overlap
    # and underestimates the transient stage delay by ~2-2.5x; budget the
    # simulation window accordingly so enough settled periods land in it.
    period_est = 2.0 * n_stages * est_stage * 2.5
    t_end = n_periods * period_est
    dt = dt_s if dt_s is not None else max(period_est / 480.0, 0.05e-12)
    v0 = _alternating_start(circuit, vdd, n_stages, params)

    # The window is budgeted from the quasi-static estimate; if the real
    # oscillation turns out slower, extend and retry rather than fail.
    freq = None
    with obs.span("circuit.ring_oscillator", vdd=vdd, n_stages=n_stages):
        for _attempt in range(3):
            result = simulate_transient(circuit, t_end, dt, v0,
                                        monitor_supplies=(vdd_node,))
            try:
                freq = oscillation_frequency(result.time_s, result.v("s0"),
                                             vdd, settle_fraction=0.35)
                break
            except AnalysisError:
                t_end *= 2.0
                if obs.ACTIVE:
                    obs.incr("circuit.ring_window_retries")
    if freq is None:
        raise AnalysisError(
            "no sustained oscillation detected even after extending the "
            "simulation window 4x; the ring may be overdamped")
    p_total = average_power_w(result.time_s,
                              result.supply_currents[vdd_node], vdd,
                              settle_fraction=0.35)
    # Static floor: every inverter (ring + replicas) leaking at DC.
    p_stat = _ring_static_power(n_table, p_table, vdd, n_stages, params,
                                per_stage_tables)
    p_dyn = max(p_total - p_stat, 0.0)
    stage_delay = 1.0 / (2.0 * n_stages * freq)
    edp = (p_total / freq) * stage_delay
    return RingOscillatorMetrics(
        frequency_hz=freq, stage_delay_s=stage_delay, total_power_w=p_total,
        static_power_w=p_stat, dynamic_power_w=p_dyn, edp_j_s=edp,
        vdd=vdd, n_stages=n_stages)


def _alternating_start(circuit: Circuit, vdd: float, n_stages: int,
                       params: CircuitParameters) -> np.ndarray:
    """Alternating initial state of a ring from
    :func:`build_ring_oscillator` (last stage mid-rail to break the tie;
    each replica output at the complement of its input)."""
    v0 = np.zeros(circuit.n_nodes)
    v0[circuit.node("vdd")] = vdd
    for i in range(n_stages):
        v0[circuit.node(f"s{i}")] = vdd if i % 2 == 0 else 0.0
    v0[circuit.node(f"s{n_stages - 1}")] = vdd / 2.0
    if params.fanout > 1:
        for i in range(n_stages):
            drive = v0[circuit.node(f"s{(i + 1) % n_stages}")]
            v0[circuit.node(f"inv{i}.load.out")] = vdd - drive
    return v0


def _ring_static_power(n_table, p_table, vdd, n_stages, params,
                       per_stage_tables) -> float:
    """Leakage of all ring + replica inverters at their DC states."""
    p_nominal = inverter_static_power_w(n_table, p_table, vdd, params)
    total = n_stages * (params.fanout - 1) * p_nominal
    if per_stage_tables is None:
        total += n_stages * p_nominal
    else:
        for nt, pt in per_stage_tables:
            total += inverter_static_power_w(nt, pt, vdd, params)
    return total


#: Transient/quasi-static stage-delay ratio at the nominal operating
#: point (slew and short-circuit overlap that the charge/current estimate
#: neglects).  Measured once against the full transient and validated in
#: ``benchmarks/bench_ablation_estimators.py``.
ESTIMATOR_DELAY_CALIBRATION = 2.28


def estimate_ring_oscillator(
    n_table: DeviceTable,
    p_table: DeviceTable,
    vdd: float,
    n_stages: int = 15,
    params: CircuitParameters | None = None,
    delay_calibration: float = ESTIMATOR_DELAY_CALIBRATION,
) -> RingOscillatorMetrics:
    """Quasi-static oscillator estimate for dense parameter sweeps."""
    if obs.ACTIVE:
        obs.incr("circuit.ring_estimates")
    params = params or CircuitParameters()
    stage_delay = estimate_inverter_delay(n_table, p_table, vdd, params)
    stage_delay *= delay_calibration
    if not np.isfinite(stage_delay) or stage_delay <= 0.0:
        raise AnalysisError("drive current is zero; ring cannot oscillate")
    freq = 1.0 / (2.0 * n_stages * stage_delay)
    e_cycle_stage = estimate_inverter_energy(n_table, p_table, vdd, params)
    p_dyn = n_stages * e_cycle_stage * freq
    p_stat = n_stages * params.fanout * inverter_static_power_w(
        n_table, p_table, vdd, params)
    p_total = p_dyn + p_stat
    edp = (p_total / freq) * stage_delay
    return RingOscillatorMetrics(
        frequency_hz=freq, stage_delay_s=stage_delay, total_power_w=p_total,
        static_power_w=p_stat, dynamic_power_w=p_dyn, edp_j_s=edp,
        vdd=vdd, n_stages=n_stages)
