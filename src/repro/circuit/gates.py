"""Static CMOS-style logic gates built from GNRFET tables.

The paper characterizes inverters, ring oscillators and latches; real
technology exploration also needs multi-input gates, so NAND2 and NOR2
builders are provided on the same extrinsic-device template (contact
resistors + parasitic capacitances per device, Fig. 3a).  Series devices
share the internal stack node; each device keeps its own contact
resistors.

The gate characterization mirrors the inverter's: worst-case propagation
delay over the input patterns, average leakage over all static input
states, and the DC transfer curve of the switching input.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from repro.circuit.dc import solve_dc
from repro.circuit.elements import Capacitor, Resistor, TableFET
from repro.circuit.inverter import CircuitParameters, add_replica_load
from repro.circuit.metrics import propagation_delays
from repro.circuit.netlist import Circuit
from repro.circuit.transient import simulate_transient
from repro.device.tables import DeviceTable
from repro.errors import AnalysisError


@dataclass(frozen=True)
class GateMetrics:
    """Characterization of one two-input gate."""

    name: str
    worst_delay_s: float
    delays_s: dict
    static_power_w: float
    vdd: float


def _stacked_pair(circuit: Circuit, prefix: str, out: int, rail: int,
                  gates: tuple[int, int], table: DeviceTable,
                  polarity: int, params: CircuitParameters) -> None:
    """Two series FETs from ``out`` to ``rail`` gated by ``gates``."""
    r = params.contact_resistance_ohm
    cp = params.c_parasitic_f
    d_top = circuit.node(f"{prefix}.d_top")
    stack = circuit.node(f"{prefix}.stack")
    s_bot = circuit.node(f"{prefix}.s_bot")
    circuit.add(Resistor(out, d_top, r))
    circuit.add(TableFET(d_top, gates[0], stack, table, polarity,
                         c_par_gs_f=cp, c_par_gd_f=cp))
    circuit.add(TableFET(stack, gates[1], s_bot, table, polarity,
                         c_par_gs_f=cp, c_par_gd_f=cp))
    circuit.add(Resistor(s_bot, rail, r))


def _parallel_pair(circuit: Circuit, prefix: str, out: int, rail: int,
                   gates: tuple[int, int], table: DeviceTable,
                   polarity: int, params: CircuitParameters) -> None:
    """Two parallel FETs from ``out`` to ``rail``."""
    r = params.contact_resistance_ohm
    cp = params.c_parasitic_f
    for k, gate in enumerate(gates):
        d = circuit.node(f"{prefix}.d{k}")
        s = circuit.node(f"{prefix}.s{k}")
        circuit.add(Resistor(out, d, r))
        circuit.add(TableFET(d, gate, s, table, polarity,
                             c_par_gs_f=cp, c_par_gd_f=cp))
        circuit.add(Resistor(s, rail, r))


def build_nand2(n_table: DeviceTable, p_table: DeviceTable, vdd: float,
                params: CircuitParameters | None = None) -> Circuit:
    """NAND2: series n-stack to ground, parallel p-devices to V_DD.

    Nodes: ``a``, ``b`` (fixed inputs), ``out``, ``vdd``; the output
    carries the wire load and a fanout-of-``params.fanout`` replica
    inverter load (one ``params.fanout``-fold inverter, ``load.out``).
    """
    params = params or CircuitParameters()
    circuit = Circuit("nand2")
    a, b = circuit.node("a"), circuit.node("b")
    out = circuit.node("out")
    vdd_node = circuit.node("vdd")
    gnd = circuit.node("0")
    circuit.fix(vdd_node, vdd)
    circuit.fix(a, 0.0)
    circuit.fix(b, 0.0)

    _stacked_pair(circuit, "ndn", out, gnd, (a, b), n_table, +1, params)
    _parallel_pair(circuit, "pup", out, vdd_node, (a, b), p_table, -1,
                   params)
    if params.c_wire_f > 0.0:
        circuit.add(Capacitor(out, gnd, params.c_wire_f))
    add_replica_load(circuit, "load", out, vdd_node, n_table, p_table,
                     params, copies=params.fanout)
    return circuit


def build_nor2(n_table: DeviceTable, p_table: DeviceTable, vdd: float,
               params: CircuitParameters | None = None) -> Circuit:
    """NOR2: parallel n-devices to ground, series p-stack to V_DD."""
    params = params or CircuitParameters()
    circuit = Circuit("nor2")
    a, b = circuit.node("a"), circuit.node("b")
    out = circuit.node("out")
    vdd_node = circuit.node("vdd")
    gnd = circuit.node("0")
    circuit.fix(vdd_node, vdd)
    circuit.fix(a, 0.0)
    circuit.fix(b, 0.0)

    _parallel_pair(circuit, "ndn", out, gnd, (a, b), n_table, +1, params)
    _stacked_pair(circuit, "pup", out, vdd_node, (a, b), p_table, -1,
                  params)
    if params.c_wire_f > 0.0:
        circuit.add(Capacitor(out, gnd, params.c_wire_f))
    add_replica_load(circuit, "load", out, vdd_node, n_table, p_table,
                     params, copies=params.fanout)
    return circuit


def gate_truth_table(circuit: Circuit, vdd: float) -> dict:
    """DC output level for each input combination (volts)."""
    a = circuit.node("a")
    b = circuit.node("b")
    out = circuit.node("out")
    levels = {}
    v_prev = None
    for va, vb in product((0.0, vdd), repeat=2):
        circuit.fixed[a] = va
        circuit.fixed[b] = vb
        result = solve_dc(circuit, v0=v_prev)
        v_prev = result.voltages
        levels[(va > 0, vb > 0)] = result.voltage(out)
    return levels


def gate_static_power_w(circuit: Circuit, vdd: float) -> float:
    """Average leakage over the four static input states."""
    a, b = circuit.node("a"), circuit.node("b")
    vdd_node = circuit.node("vdd")
    total = 0.0
    v_prev = None
    for va, vb in product((0.0, vdd), repeat=2):
        circuit.fixed[a] = va
        circuit.fixed[b] = vb
        result = solve_dc(circuit, v0=v_prev)
        v_prev = result.voltages
        total += abs(result.source_current(vdd_node))
    return vdd * total / 4.0


def characterize_gate(
    kind: str,
    n_table: DeviceTable,
    p_table: DeviceTable,
    vdd: float,
    params: CircuitParameters | None = None,
    dt_s: float = 0.25e-12,
) -> GateMetrics:
    """Transient characterization of a NAND2 / NOR2.

    For each input pin, the other pin is held at its non-controlling
    value and the switching pin toggles; the reported delay is the worst
    pin's average of rise/fall propagation delays.
    """
    params = params or CircuitParameters()
    if kind == "nand2":
        circuit = build_nand2(n_table, p_table, vdd, params)
        noncontrolling = vdd
    elif kind == "nor2":
        circuit = build_nor2(n_table, p_table, vdd, params)
        noncontrolling = 0.0
    else:
        raise ValueError(f"kind must be 'nand2' or 'nor2', got {kind!r}")

    a, b = circuit.node("a"), circuit.node("b")
    out = circuit.node("out")
    vdd_node = circuit.node("vdd")

    from repro.circuit.inverter import estimate_inverter_delay

    est = estimate_inverter_delay(n_table, p_table, vdd, params)
    cycle = max(20.0 * est, 60e-12)
    ramp = max(2.0 * est, 2e-12)
    half = cycle / 2.0

    delays = {}
    for switching, held in ((a, b), (b, a)):
        circuit.fixed[held] = noncontrolling
        circuit.fixed[switching] = 0.0
        dc0 = solve_dc(circuit)

        def waveform(t: float) -> float:
            t_mod = t % cycle
            if t_mod < ramp:
                return vdd * t_mod / ramp
            if t_mod < half:
                return vdd
            if t_mod < half + ramp:
                return vdd * (1.0 - (t_mod - half) / ramp)
            return 0.0

        circuit.fixed[switching] = waveform
        result = simulate_transient(circuit, 2.0 * cycle, dt_s,
                                    dc0.voltages,
                                    monitor_supplies=(vdd_node,))
        second = result.time_s >= cycle
        try:
            t_plh, t_phl = propagation_delays(
                result.time_s[second],
                result.voltages[second][:, switching],
                result.voltages[second][:, out], vdd)
        except AnalysisError:
            delays[circuit.node_name(switching)] = np.nan
            continue
        delays[circuit.node_name(switching)] = 0.5 * (t_plh + t_phl)
        circuit.fixed[switching] = 0.0

    worst = max(delays.values())
    return GateMetrics(name=kind, worst_delay_s=float(worst),
                       delays_s=delays,
                       static_power_w=gate_static_power_w(circuit, vdd),
                       vdd=vdd)
