"""Transient analysis: trapezoidal integration with per-step Newton.

Every dynamic element reduces to bias-dependent two-terminal capacitor
branches (see :class:`repro.circuit.netlist.StampProgram`), so the
circuit's compiled kernel stamps trapezoidal companion models
generically:

``i_C^{n+1} = (2C/h) (v^{n+1} - v^n) - i_C^n``

with ``C`` evaluated at the previous converged solution (semi-implicit in
the bias dependence — standard practice for table-based simulators and
accurate for the smooth Q-V characteristics here).  The per-capacitor
companion current is part of the integrator state.  The whole step
loop runs as the compiled kernel's ``transient_run`` (see
:class:`repro.circuit.netlist.Kernel`): each step's Newton loop starts
from a first-order prediction of the free node voltages, non-converging
steps are retried with halved step size, and the supply current is
recorded every step so energy and power integrate directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import obs, sanitize
from repro.circuit.netlist import Circuit, GROUND


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
    # Supply current: the static residual of the source node, taken
    # before companion currents and gmin (capacitive displacement
    # currents integrate to ~zero over a cycle and the builders put
    # decoupling caps on rails anyway); the kernel records it for every
    # fixed node, in ``prog.fixed`` order.
    f0 = prog.assemble(v)[0] if monitor else []
    waves = tuple(value if callable(value) else None
                  for value in (circuit.fixed[m] for m in prog.fixed))
    check = _check_finite if sanitize.ACTIVE else None
    with obs.span("circuit.transient", t_end_s=t_end_s, dt_s=dt_s), \
            np.errstate(all="ignore"):
        times, states, rows, halvings, fallbacks = prog.kernel.transient_run(
            v, prog.data, waves, t_end_s, dt_s, gmin, tol_a, max_iter,
            damping_v, max_step_halvings, check)
    if obs.ACTIVE:
        obs.incr("circuit.transient_runs")
        obs.incr("circuit.transient_steps", len(times) - 1)
        obs.incr("circuit.step_halvings", halvings)
        obs.incr("circuit.newton_fallbacks", fallbacks)

    supplies: dict[int, np.ndarray] = {}
    for m in monitor:
        k = prog.fixed.index(m)
        supplies[m] = np.array([f0[m]] + [row[k] for row in rows])
    return TransientResult(
        circuit=circuit,
        time_s=np.array(times),
        voltages=np.array(states),
        supply_currents=supplies,
    )


def _check_finite(t: float, voltages: tuple[float, ...]) -> None:
    """The sanitizer's check of one accepted state."""
    sanitize.check_finite(np.array(voltages), "simulate_transient",
                          f"node voltages at t={t:.6g} s")
