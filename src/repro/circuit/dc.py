"""DC operating point: damped Newton with source stepping.

The residual at each free node is the sum of element currents flowing out
of it (KCL); fixed nodes (supplies, inputs) contribute known voltages.  A
small ``gmin`` conductance to ground conditions the Jacobian in cut-off
regions where table derivatives vanish.  Every Newton iteration runs the
circuit's compiled stamp program (:meth:`Circuit.program`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs, sanitize
from repro.circuit.netlist import Circuit, GROUND, StampProgram
from repro.errors import CircuitError, ConvergenceError


@dataclass(frozen=True)
class DCResult:
    """Converged DC solution.

    ``voltages`` is the full node-voltage vector (fixed nodes included);
    use :meth:`source_current` for the current a fixed node's source
    delivers.
    """

    circuit: Circuit
    voltages: np.ndarray
    iterations: int

    def voltage(self, node: int | str) -> float:
        idx = self.circuit.node(node) if isinstance(node, str) else node
        return 0.0 if idx == GROUND else float(self.voltages[idx])

    def source_current(self, node: int | str) -> float:
        """Current delivered *by* the source pinning ``node`` (A).

        Positive when the source pushes current into the circuit.  Only
        fixed nodes have a source; asking for ground or a free node
        raises :class:`CircuitError`.
        """
        idx = self.circuit.node(node) if isinstance(node, str) else node
        if idx == GROUND or idx not in self.circuit.fixed:
            raise CircuitError(
                f"node {self.circuit.node_name(idx)!r} is not driven by a "
                "source (only fixed nodes are)")
        f, _ = self.circuit.program().assemble(self.voltages.tolist() + [0.0])
        # f[idx] is the net element current flowing out of the node into
        # the elements; the source supplies exactly that.
        return float(f[idx])


def _newton(prog: StampProgram, v: list[float], gmin: float, tol_a: float,
            max_iter: int, damping_v: float) -> tuple[int, bool]:
    """Damped Newton on the free slots of ``v``, updated in place;
    returns ``(iterations, converged)``."""
    for iteration in range(1, max_iter + 1):
        f, jac = prog.assemble(v)
        if gmin > 0.0:
            prog.add_gmin(v, f, jac, gmin)
        status = prog.newton_update(v, f, jac, tol_a, damping_v)
        if status is not None:
            return iteration, status
    return max_iter, False


def solve_dc(
    circuit: Circuit,
    v0: np.ndarray | None = None,
    t: float = 0.0,
    gmin: float = 1e-12,
    tol_a: float = 1e-14,
    max_iter: int = 200,
    damping_v: float = 0.2,
    source_steps: int = 8,
) -> DCResult:
    """Solve the DC operating point.

    Strategy: plain damped Newton from ``v0`` (or from all fixed voltages
    applied, free nodes at the average rail voltage); on failure, source
    stepping — ramp every fixed voltage from 0 to its target over
    ``source_steps`` stages, re-converging at each stage.

    ``v0`` also selects the basin for bistable circuits (latches).
    """
    prog = circuit.program()
    fixed = circuit.fixed_voltages(t)
    n = prog.n_nodes

    if v0 is not None:
        v = np.asarray(v0, dtype=float).copy()
        if v.shape != (n,):
            raise ValueError(f"v0 must have shape ({n},), got {v.shape}")
    else:
        v = np.zeros(n)
        if fixed:
            v[prog.free] = 0.5 * float(np.mean(list(fixed.values())))
    for node, value in fixed.items():
        v[node] = value

    v_slots = v.tolist() + [0.0]
    iters, ok = _newton(prog, v_slots, gmin, tol_a, max_iter, damping_v)
    if ok:
        v_sol = np.array(v_slots[:n])
        if sanitize.ACTIVE:
            sanitize.check_finite(v_sol, "solve_dc", "node voltages")
        if obs.ACTIVE:
            obs.incr("circuit.dc_solves")
            obs.incr("circuit.newton_iterations", iters)
            obs.observe("circuit.dc_newton_iterations", iters)
        return DCResult(circuit=circuit, voltages=v_sol, iterations=iters)

    # Source stepping from zero bias.
    v_slots = [0.0] * (n + 1)
    total_iters = iters
    for step in range(1, source_steps + 1):
        frac = step / source_steps
        for node, value in fixed.items():
            v_slots[node] = frac * value
        it, ok = _newton(prog, v_slots, gmin, tol_a, max_iter, damping_v)
        total_iters += it
        if not ok:
            # Retry this stage with a larger gmin before giving up.
            it, ok = _newton(prog, v_slots, gmin * 1e3, tol_a * 10,
                             max_iter, damping_v)
            total_iters += it
            if not ok:
                raise ConvergenceError(
                    f"DC source stepping failed at {frac:.0%} of supply",
                    iterations=total_iters)
    v_sol = np.array(v_slots[:n])
    if sanitize.ACTIVE:
        sanitize.check_finite(v_sol, "solve_dc", "node voltages")
    if obs.ACTIVE:
        obs.incr("circuit.dc_solves")
        obs.incr("circuit.dc_source_stepped")
        obs.incr("circuit.newton_iterations", total_iters)
        obs.observe("circuit.dc_newton_iterations", total_iters)
    return DCResult(circuit=circuit, voltages=v_sol, iterations=total_iters)
