"""Latch (cross-coupled inverter pair): netlist and hold static power.

Paper Section 5.3: "Figure 7 shows butterfly curves for three cases:
nominal, single GNR affected, and all GNRs affected.  Both inverters in
the latch are assumed to have the same widths and impurities."  The SNM is
read from the butterfly of the two inverters' VTCs
(:mod:`repro.variability.latch_study`); the static power comes from the
DC hold states solved here.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.dc import solve_dc
from repro.circuit.inverter import CircuitParameters, add_inverter
from repro.circuit.netlist import Circuit
from repro.device.tables import DeviceTable


def build_latch(
    n_table: DeviceTable,
    p_table: DeviceTable,
    vdd: float,
    params: CircuitParameters | None = None,
) -> Circuit:
    """Closed-loop latch with nodes ``q`` and ``qb``."""
    params = params or CircuitParameters()
    circuit = Circuit("latch")
    q = circuit.node("q")
    qb = circuit.node("qb")
    vdd_node = circuit.node("vdd")
    circuit.fix(vdd_node, vdd)
    add_inverter(circuit, "inv1", q, qb, vdd_node, n_table, p_table, params)
    add_inverter(circuit, "inv2", qb, q, vdd_node, n_table, p_table, params)
    return circuit


def latch_static_power(
    n_table: DeviceTable,
    p_table: DeviceTable,
    vdd: float,
    params: CircuitParameters | None = None,
) -> float:
    """Leakage power of the latch holding a bit (average of both states).

    Each hold state is found by a DC solve seeded in the corresponding
    basin; if the latch has lost bistability (collapsed butterfly) both
    solves land on the same point, which is then also the honest leakage
    of the degenerate cell.
    """
    params = params or CircuitParameters()
    circuit = build_latch(n_table, p_table, vdd, params)
    vdd_node = circuit.node("vdd")
    q = circuit.node("q")
    qb = circuit.node("qb")

    power = 0.0
    for q_val in (0.0, vdd):
        v0 = np.full(circuit.n_nodes, vdd / 2.0)
        v0[vdd_node] = vdd
        v0[q] = q_val
        v0[qb] = vdd - q_val
        result = solve_dc(circuit, v0=v0)
        power += vdd * abs(result.source_current(vdd_node))
    return power / 2.0
