"""Voltage transfer curves by swept DC solves."""

from __future__ import annotations

import numpy as np

from repro.circuit.dc import _default_start, _solve
from repro.circuit.netlist import GROUND, Circuit


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
    solution itself when those two share an input value.  Each point is
    the solve ``solve_dc`` (with its defaults) makes from that start, run
    through its core once the sweep has resolved the circuit.
    """
    vin_grid = np.asarray(vin_grid, dtype=float)
    in_idx = circuit.node(input_node) if isinstance(input_node, str) else input_node
    out_idx = circuit.node(output_node) if isinstance(output_node, str) else output_node
    if in_idx not in circuit.fixed:
        raise ValueError("input node must be fixed (driven) in the circuit")

    prog = circuit.program()
    fixed = circuit.fixed_voltages()
    vout = np.empty_like(vin_grid)
    points = vin_grid.tolist()
    v_prev: list[float] = []
    v_older: list[float] = []
    with np.errstate(all="ignore"):
        for i, vin in enumerate(points):
            circuit.fixed[in_idx] = fixed[in_idx] = vin
            if i >= 2 and points[i - 1] != points[i - 2]:
                # The secant through the last two solutions, at ``vin``.
                ratio = (vin - points[i - 1]) / (points[i - 1] - points[i - 2])
                v = [(p - o) * ratio + p for p, o in zip(v_prev, v_older)]
                v[-1] = 0.0  # the ground slot
            elif v_prev:
                v = v_prev.copy()
            else:
                v = _default_start(prog, fixed)
            for node, value in fixed.items():
                v[node] = value
            v, _ = _solve(prog, fixed, v, bool(v_prev))
            v_older, v_prev = v_prev, v
            vout[i] = 0.0 if out_idx == GROUND else v[out_idx]
    return vout
