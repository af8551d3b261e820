"""NAND2 and NOR2 netlists: multi-input topologies for circuit tests.

No experiment simulates a gate; the engine-parity and replica-load
tests use these netlists as topologies the inverter circuits do not
have (a series stack with an internal node, parallel devices sharing
an output).  Each device carries the extrinsic template of Fig. 3a:
contact resistors on both terminals and parasitic gate capacitances.
Series devices share the internal stack node; each device keeps its own
contact resistors.
"""

from __future__ import annotations

from repro.circuit.elements import Capacitor, Resistor, TableFET
from repro.circuit.inverter import CircuitParameters, add_replica_load
from repro.circuit.netlist import Circuit
from repro.device.tables import DeviceTable


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
