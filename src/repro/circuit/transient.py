"""Transient analysis: trapezoidal integration with per-step Newton.

Every dynamic element reduces to bias-dependent two-terminal capacitor
branches (see :class:`repro.circuit.netlist.StampProgram`), so the
circuit's compiled kernel stamps trapezoidal companion models
generically:

``i_C^{n+1} = (2C/h) (v^{n+1} - v^n) - i_C^n``

with ``C`` evaluated at the previous converged solution (semi-implicit in
the bias dependence — standard practice for table-based simulators and
accurate for the smooth Q-V characteristics here).  The per-capacitor
companion current is part of the integrator state.  Each step's Newton
loop is the kernel's ``transient_newton``, started from a first-order
prediction of the free node voltages.

Non-converging steps are retried with halved step size; the supply current
is recorded every step so energy and power integrate directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import obs, sanitize
from repro.circuit.netlist import Circuit, GROUND
from repro.errors import ConvergenceError


@dataclass(frozen=True)
class TransientResult:
    """Waveforms of a transient run.

    Attributes
    ----------
    time_s:
        Time points (first entry is ``t0`` with the initial condition).
    voltages:
        Node voltages, shape ``(n_steps, n_nodes)``.
    supply_currents:
        For each monitored source node: current delivered by the source at
        each time point, keyed by node index.
    """

    circuit: Circuit
    time_s: np.ndarray
    voltages: np.ndarray
    supply_currents: dict[int, np.ndarray] = field(default_factory=dict)

    def v(self, node: int | str) -> np.ndarray:
        idx = self.circuit.node(node) if isinstance(node, str) else node
        if idx == GROUND:
            return np.zeros_like(self.time_s)
        return self.voltages[:, idx]

    def supply_energy_j(self, node: int | str) -> float:
        """Energy delivered by the source at ``node`` over the whole run."""
        idx = self.circuit.node(node) if isinstance(node, str) else node
        if idx not in self.supply_currents:
            raise KeyError(f"node {idx} was not monitored; pass it in "
                           "monitor_supplies when simulating")
        volt = self.v(idx)
        return float(np.trapezoid(self.supply_currents[idx] * volt,
                                  self.time_s))


def simulate_transient(
    circuit: Circuit,
    t_end_s: float,
    dt_s: float,
    v0: np.ndarray,
    monitor_supplies: tuple[int | str, ...] = (),
    gmin: float = 1e-12,
    tol_a: float = 1e-13,
    max_iter: int = 40,
    damping_v: float = 0.3,
    max_step_halvings: int = 8,
) -> TransientResult:
    """Integrate the circuit from the initial state ``v0``.

    Parameters
    ----------
    v0:
        Initial node voltages (use :func:`repro.circuit.dc.solve_dc` for a
        consistent start).  Fixed-node waveforms are re-evaluated every
        step, so time-varying inputs are just callables registered with
        :meth:`Circuit.fix`.
    monitor_supplies:
        Fixed nodes whose delivered current should be recorded (e.g. the
        VDD rail, for power metrics); any other node raises
        :class:`repro.errors.CircuitError`.

    ``t_end_s`` and ``dt_s`` must be finite and positive, ``max_iter`` at
    least 1 and ``max_step_halvings`` at least 0.
    """
    if not (math.isfinite(t_end_s) and math.isfinite(dt_s)
            and t_end_s > 0.0 and dt_s > 0.0):
        raise ValueError("time step and end time must be finite and "
                         f"positive, got dt_s={dt_s}, t_end_s={t_end_s}")
    if max_iter < 1 or max_step_halvings < 0:
        raise ValueError("max_iter must be >= 1 and max_step_halvings >= 0, "
                         f"got {max_iter} and {max_step_halvings}")
    monitor = [circuit.source_node(m) for m in monitor_supplies]
    prog = circuit.program()
    n = prog.n_nodes

    v_init = np.asarray(v0, dtype=float).copy()
    if v_init.shape != (n,):
        raise ValueError(f"v0 must have shape ({n},), got {v_init.shape}")
    for node, value in circuit.fixed_voltages(0.0).items():
        v_init[node] = value
    v = v_init.tolist() + [0.0]

    times = [0.0]
    traj = [v[:n]]
    supply_traces: dict[int, list[float]] = {m: [] for m in monitor}

    def record_supplies(sample: list[float]) -> None:
        for m, current in zip(monitor, sample):
            supply_traces[m].append(current)

    if monitor:
        f0, _ = prog.assemble(v)
        record_supplies([f0[m] for m in monitor])
    # Supply current: the static residual of the source node, taken
    # before companion currents and gmin (capacitive displacement
    # currents integrate to ~zero over a cycle and the builders put
    # decoupling caps on rails anyway); the kernel returns it for every
    # fixed node, in ``prog.fixed`` order.
    monitor_pos = [prog.fixed.index(m) for m in monitor]

    # Initial capacitor state: zero companion current (consistent DC start).
    i_cap = [0.0] * len(prog.branches)

    t = 0.0
    first_step = True
    # The previous accepted state and step, for the predictor.
    v_old, h_old = v, dt_s
    # Counters accumulate in locals and flush to obs once at the end:
    # the step loop is the hot path of every delay/power figure.
    n_steps = 0
    n_halvings = 0
    fallbacks = 0
    branches, newton, data = (prog.kernel.branches,
                              prog.kernel.transient_newton, prog.data)
    with obs.span("circuit.transient", t_end_s=t_end_s, dt_s=dt_s), \
            np.errstate(all="ignore"):
        while t < t_end_s - 1e-21:
            h = min(dt_s, t_end_s - t)
            # Branch capacitances and old branch voltages depend only on
            # the previous converged state, so every halving reuses them.
            caps, dv_old = branches(v, data)
            for attempt in range(max_step_halvings + 1):
                if first_step:
                    # Backward Euler: the trapezoidal companion current
                    # is not known yet (the classic SPICE startup rule).
                    # ``i_cap`` is still all zeros, and subtracting 0.0
                    # leaves the BE current bit for bit.  Newton starts
                    # from ``v0``.
                    v_try = list(v)
                    geqs = [c / h for c in caps]
                else:
                    # Newton starts from the last step extrapolated over
                    # ``h``, but never further than one step (``h`` may
                    # exceed a halved last step).
                    ratio = min(h / h_old, 1.0)
                    v_try = [x + ratio * (x - y) for x, y in zip(v, v_old)]
                    geqs = [2.0 * c / h for c in caps]
                for node, value in circuit.fixed_voltages(t + h).items():
                    v_try[node] = value
                converged, currents, fixed_f, fallbacks = newton(
                    v_try, data, geqs, dv_old, i_cap, gmin, tol_a, max_iter,
                    damping_v, fallbacks)
                if converged:
                    n_halvings += attempt
                    break
                h *= 0.5
            else:
                raise ConvergenceError(
                    f"transient step failed to converge at t = {t:.3e} s "
                    f"even after {max_step_halvings} step halvings")
            t += h
            v_old, v, h_old = v, v_try, h
            i_cap = currents
            if sanitize.ACTIVE:
                sanitize.check_finite(np.array(v[:n]), "simulate_transient",
                                      f"node voltages at t={t:.6g} s")
            first_step = False
            n_steps += 1
            times.append(t)
            traj.append(v[:n])
            record_supplies([fixed_f[k] for k in monitor_pos])
    if obs.ACTIVE:
        obs.incr("circuit.transient_runs")
        obs.incr("circuit.transient_steps", n_steps)
        obs.incr("circuit.step_halvings", n_halvings)
        obs.incr("circuit.newton_fallbacks", fallbacks)

    return TransientResult(
        circuit=circuit,
        time_s=np.array(times),
        voltages=np.array(traj),
        supply_currents={m: np.array(tr) for m, tr in supply_traces.items()},
    )
