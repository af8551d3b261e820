"""DC operating point: damped Newton with source stepping.

The residual at each free node is the sum of element currents flowing out
of it (KCL); fixed nodes (supplies, inputs) contribute known voltages.  A
small ``gmin`` conductance to ground conditions the Jacobian in cut-off
regions where table derivatives vanish.  Each Newton solve runs as the
``dc_newton`` loop of the circuit's compiled kernel
(:meth:`Circuit.program`), inside one core on slot voltages that
:func:`solve_dc` wraps and sweeps call point by point.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs, sanitize
from repro.circuit.netlist import Circuit, GROUND, StampProgram
from repro.errors import ConvergenceError


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
        idx = self.circuit.source_node(node)
        f, _ = self.circuit.program().assemble(self.voltages.tolist() + [0.0])
        # f[idx] is the net element current flowing out of the node into
        # the elements; the source supplies exactly that.
        return float(f[idx])


def _newton(prog: StampProgram, v: list[float], gmin: float, tol_a: float,
            max_iter: int, damping_v: float, fallbacks: int
            ) -> tuple[int, bool, int]:
    """Damped Newton on the free slots of ``v``, updated in place;
    returns ``(iterations, converged, fallbacks)``, the LAPACK-fallback
    count added to ``fallbacks``."""
    return prog.kernel.dc_newton(v, prog.data, gmin, tol_a, max_iter,
                                 damping_v, fallbacks)


def solve_dc(
    circuit: Circuit,
    v0: np.ndarray | Sequence[float] | None = None,
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
    ``source_steps`` stages, re-converging at each stage.  If that fails
    too after a ``v0`` start, one last Newton runs from the default
    start: damped Newton can 2-cycle across a kink of a bilinear table
    from a warm start that the default start avoids.

    ``v0`` also selects the basin for bistable circuits (latches).
    ``max_iter`` and ``source_steps`` must be at least 1.
    """
    if max_iter < 1 or source_steps < 1:
        raise ValueError("max_iter and source_steps must be >= 1, got "
                         f"{max_iter} and {source_steps}")
    prog = circuit.program()
    fixed = circuit.fixed_voltages(t)
    n = prog.n_nodes
    if v0 is None:
        v_slots = _default_start(prog, fixed)
    else:
        v = np.asarray(v0, dtype=float)
        if v.shape != (n,):
            raise ValueError(f"v0 must have shape ({n},), got {v.shape}")
        v_slots = v.tolist() + [0.0]
        for node, value in fixed.items():
            v_slots[node] = value
    # The kernel's LAPACK fallback reports a singular system as a NaN
    # step, with floating-point flags this silences.
    with np.errstate(all="ignore"):
        v_slots, iters = _solve(prog, fixed, v_slots, v0 is not None, gmin,
                                tol_a, max_iter, damping_v, source_steps)
    return DCResult(circuit=circuit, voltages=np.array(v_slots[:n]),
                    iterations=iters)


def _default_start(prog: StampProgram, fixed: dict[int, float]
                   ) -> list[float]:
    """Slot voltages of the default start: fixed nodes at their values,
    free nodes at half the mean fixed voltage."""
    v_slots = [0.0] * (prog.n_nodes + 1)
    half = 0.5 * float(np.mean(list(fixed.values()))) if fixed else 0.0
    for node in prog.free:
        v_slots[node] = half
    for node, value in fixed.items():
        v_slots[node] = value
    return v_slots


def _solve(prog: StampProgram, fixed: dict[int, float], v_slots: list[float],
           warm: bool, gmin: float = 1e-12, tol_a: float = 1e-14,
           max_iter: int = 200, damping_v: float = 0.2,
           source_steps: int = 8) -> tuple[list[float], int]:
    """:func:`solve_dc` (with its defaults) on slot voltages: Newton from
    ``v_slots`` (fixed slots at ``fixed``, the ground slot at 0), then
    source stepping, then after a ``warm`` start the default start.
    Returns the solution's slots and iteration count and records the
    per-solve counters; the caller holds ``np.errstate(all="ignore")``."""
    iters, ok, fallbacks = _newton(prog, v_slots, gmin, tol_a, max_iter,
                                   damping_v, 0)
    stepped = not ok
    if stepped:
        try:
            v_slots, iters, fallbacks = _source_stepping(
                prog, fixed, gmin, tol_a, max_iter, damping_v,
                source_steps, iters, fallbacks)
        except ConvergenceError as exc:
            if not warm:
                raise
            v_slots = _default_start(prog, fixed)
            it, ok, fallbacks = _newton(prog, v_slots, gmin, tol_a,
                                        max_iter, damping_v, fallbacks)
            if not ok:
                raise
            iters = (exc.iterations or 0) + it
    if sanitize.ACTIVE:
        sanitize.check_finite(np.array(v_slots[:prog.n_nodes]), "solve_dc",
                              "node voltages")
    if obs.ACTIVE:
        obs.incr("circuit.dc_solves")
        if stepped:
            obs.incr("circuit.dc_source_stepped")
        obs.incr("circuit.newton_iterations", iters)
        obs.observe("circuit.dc_newton_iterations", iters)
        obs.incr("circuit.newton_fallbacks", fallbacks)
    return v_slots, iters


def _source_stepping(prog: StampProgram, fixed: dict[int, float],
                     gmin: float, tol_a: float, max_iter: int,
                     damping_v: float, source_steps: int, iters: int,
                     fallbacks: int) -> tuple[list[float], int, int]:
    """Ramp every fixed voltage from 0 to its target over
    ``source_steps`` stages, re-converging at each; returns the slot
    voltages and the total iteration and LAPACK-fallback counts
    (``iters`` and ``fallbacks`` spent before)."""
    v_slots = [0.0] * (prog.n_nodes + 1)
    for step in range(1, source_steps + 1):
        frac = step / source_steps
        for node, value in fixed.items():
            v_slots[node] = frac * value
        it, ok, fallbacks = _newton(prog, v_slots, gmin, tol_a, max_iter,
                                    damping_v, fallbacks)
        iters += it
        if not ok:
            # Retry this stage with a larger gmin before giving up.
            it, ok, fallbacks = _newton(prog, v_slots, gmin * 1e3,
                                        tol_a * 10, max_iter, damping_v,
                                        fallbacks)
            iters += it
            if not ok:
                raise ConvergenceError(
                    f"DC source stepping failed at {frac:.0%} of supply",
                    iterations=iters)
    return v_slots, iters, fallbacks
