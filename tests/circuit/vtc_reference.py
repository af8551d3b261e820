"""Frozen reference sweep: ``compute_vtc`` as one public ``solve_dc`` per
point.

This is ``repro.circuit.vtc.compute_vtc`` as it was before the sweep
called the DC solver's core directly: each point went through the whole
public wrapper (program lookup, fixed-voltage evaluation, start
conversion, ``np.errstate``, ``DCResult``).  It is kept verbatim as the
oracle that ``tests/circuit/test_vtc_parity.py`` holds the production
sweep to, bit for bit and counter for counter.  Do not optimise it.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.dc import solve_dc
from repro.circuit.netlist import Circuit


def compute_vtc(
    circuit: Circuit,
    input_node: int | str,
    output_node: int | str,
    vin_grid: np.ndarray,
) -> np.ndarray:
    """Output voltage for each input voltage.

    The input node must already be a fixed node of the circuit; its value
    is overwritten point by point.  Continuation (warm-starting each solve
    near the previous point) makes the sweep fast and keeps the solver on
    one branch of the curve: from the third point on, each solve starts
    on the secant through the last two solutions, and from the last
    solution itself when those two share an input value.
    """
    vin_grid = np.asarray(vin_grid, dtype=float)
    in_idx = circuit.node(input_node) if isinstance(input_node, str) else input_node
    out_idx = circuit.node(output_node) if isinstance(output_node, str) else output_node
    if in_idx not in circuit.fixed:
        raise ValueError("input node must be fixed (driven) in the circuit")

    vout = np.empty_like(vin_grid)
    points = vin_grid.tolist()
    v_prev: list[float] = []
    v_older: list[float] = []
    for i, vin in enumerate(points):
        circuit.fixed[in_idx] = vin
        v0 = v_prev or None
        if i >= 2 and points[i - 1] != points[i - 2]:
            # The secant through the last two solutions, at ``vin``.
            ratio = (vin - points[i - 1]) / (points[i - 1] - points[i - 2])
            v0 = [(p - o) * ratio + p for p, o in zip(v_prev, v_older)]
        result = solve_dc(circuit, v0=v0)
        v_older, v_prev = v_prev, result.voltages.tolist()
        vout[i] = result.voltage(out_idx)
    return vout
