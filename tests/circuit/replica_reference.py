"""Frozen reference netlists with one inverter per replica load.

These are the FO4 chain, ring oscillator, NAND2 and NOR2 netlist
functions as they were before replica loads were collapsed: each of the
``fanout`` (``fanout - 1`` in the ring) load inverters was wired on its
own, with its FETs directly on the rails and its own unread output
node.  They are
kept verbatim (the replica branch of the old ``add_inverter`` lifted out
as :func:`add_replica_inverter`) as the oracle that
``tests/circuit/test_replica_load.py`` and
``benchmarks/bench_solver_accel.py`` hold the collapsed netlists to.
The extrinsic (driven) inverters come from production and the gate
pull networks from ``tests/circuit/gate_netlists.py``; the collapse
touches neither.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.elements import Capacitor, TableFET
from repro.circuit.inverter import CircuitParameters, add_inverter
from repro.circuit.netlist import Circuit
from repro.device.tables import DeviceTable
from tests.circuit.gate_netlists import _parallel_pair, _stacked_pair


def add_replica_inverter(
    circuit: Circuit,
    input_node: int,
    output_node: int,
    vdd_node: int,
    n_table: DeviceTable,
    p_table: DeviceTable,
    params: CircuitParameters,
) -> tuple[TableFET, TableFET]:
    """One lightweight replica inverter: FETs on the rails, parasitic
    caps retained, no contact resistors."""
    cp = params.c_parasitic_f
    gnd = circuit.node("0")
    nfet = TableFET(output_node, input_node, gnd, n_table, polarity=+1,
                    c_par_gs_f=cp, c_par_gd_f=cp)
    pfet = TableFET(output_node, input_node, vdd_node, p_table,
                    polarity=-1, c_par_gs_f=cp, c_par_gd_f=cp)
    circuit.add(nfet)
    circuit.add(pfet)
    return nfet, pfet


def build_inverter_chain(
    n_table: DeviceTable,
    p_table: DeviceTable,
    vdd: float,
    params: CircuitParameters | None = None,
    load_tables: tuple[DeviceTable, DeviceTable] | None = None,
) -> Circuit:
    """DUT inverter with ``params.fanout`` explicit replica inverters."""
    params = params or CircuitParameters()
    load_tables = load_tables or (n_table, p_table)
    circuit = Circuit("inverter-fo4")
    vin = circuit.node("in")
    vout = circuit.node("out")
    vdd_node = circuit.node("vdd")
    circuit.fix(vdd_node, vdd)
    circuit.fix(vin, 0.0)

    add_inverter(circuit, "dut", vin, vout, vdd_node,
                 n_table, p_table, params)
    for k in range(params.fanout):
        load_out = circuit.node(f"load{k}.out")
        add_replica_inverter(circuit, vout, load_out, vdd_node,
                             load_tables[0], load_tables[1], params)
    return circuit


def build_ring_oscillator(
    n_table: DeviceTable,
    p_table: DeviceTable,
    vdd: float,
    n_stages: int = 15,
    params: CircuitParameters | None = None,
    per_stage_tables: list[tuple[DeviceTable, DeviceTable]] | None = None,
) -> Circuit:
    """The ring with ``fanout - 1`` explicit replicas per stage output."""
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
        for k in range(params.fanout - 1):
            load_out = circuit.node(f"inv{i}.load{k}")
            add_replica_inverter(circuit, vout, load_out, vdd_node,
                                 n_table, p_table, params)
    return circuit


def ring_initial_state(circuit: Circuit, vdd: float, n_stages: int,
                       params: CircuitParameters) -> np.ndarray:
    """The alternating start of ``simulate_ring_oscillator`` on the
    explicit-replica ring (every replica output set)."""
    v0 = np.zeros(circuit.n_nodes)
    v0[circuit.node("vdd")] = vdd
    for i in range(n_stages):
        v0[circuit.node(f"s{i}")] = vdd if i % 2 == 0 else 0.0
    v0[circuit.node(f"s{n_stages - 1}")] = vdd / 2.0
    for i in range(n_stages):
        for k in range(params.fanout - 1):
            drive = v0[circuit.node(f"s{(i + 1) % n_stages}")]
            v0[circuit.node(f"inv{i}.load{k}")] = vdd - drive
    return v0


def _gate(kind: str, n_table: DeviceTable, p_table: DeviceTable,
          vdd: float, params: CircuitParameters | None) -> Circuit:
    params = params or CircuitParameters()
    circuit = Circuit(kind)
    a, b = circuit.node("a"), circuit.node("b")
    out = circuit.node("out")
    vdd_node = circuit.node("vdd")
    gnd = circuit.node("0")
    circuit.fix(vdd_node, vdd)
    circuit.fix(a, 0.0)
    circuit.fix(b, 0.0)

    if kind == "nand2":
        _stacked_pair(circuit, "ndn", out, gnd, (a, b), n_table, +1, params)
        _parallel_pair(circuit, "pup", out, vdd_node, (a, b), p_table, -1,
                       params)
    else:
        _parallel_pair(circuit, "ndn", out, gnd, (a, b), n_table, +1, params)
        _stacked_pair(circuit, "pup", out, vdd_node, (a, b), p_table, -1,
                      params)
    if params.c_wire_f > 0.0:
        circuit.add(Capacitor(out, gnd, params.c_wire_f))
    for k in range(params.fanout):
        load_out = circuit.node(f"load{k}.out")
        add_replica_inverter(circuit, out, load_out, vdd_node,
                             n_table, p_table, params)
    return circuit


def build_nand2(n_table: DeviceTable, p_table: DeviceTable, vdd: float,
                params: CircuitParameters | None = None) -> Circuit:
    """NAND2 with ``params.fanout`` explicit replica inverters."""
    return _gate("nand2", n_table, p_table, vdd, params)


def build_nor2(n_table: DeviceTable, p_table: DeviceTable, vdd: float,
               params: CircuitParameters | None = None) -> Circuit:
    """NOR2 with ``params.fanout`` explicit replica inverters."""
    return _gate("nor2", n_table, p_table, vdd, params)
