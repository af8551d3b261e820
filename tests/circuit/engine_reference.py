"""Frozen reference formulation of the circuit engine.

This is the per-element engine that ``solve_dc`` and
``simulate_transient`` ran before the compiled stamp program: every
element stamped itself into numpy residual/Jacobian arrays through
``voltage_at`` / ``_add_current`` / ``_add_jac``, the transient collected
capacitor branches per element, and supply currents were recovered by
re-stamping the converged state.  It is kept verbatim (the element
methods lifted out into functions over the element records) as the oracle
the parity tests and ``benchmarks/bench_solver_accel.py`` hold the
production kernel to.  Do not optimise it: its value is that it is the
obvious transcription of nodal analysis, and the production engine must
reproduce it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.elements import (
    Capacitor,
    CompactMOSFET,
    CurrentSource,
    Resistor,
    TableFET,
)
from repro.circuit.netlist import GROUND, Circuit
from repro.errors import ConvergenceError


def voltage_at(v: np.ndarray, node: int) -> float:
    """Voltage of ``node`` with ground folded in."""
    return 0.0 if node == GROUND else float(v[node])


def _add_current(f: np.ndarray, node: int, value: float) -> None:
    if node != GROUND:
        f[node] += value


def _add_jac(jac: np.ndarray | None, row: int, col: int, value: float) -> None:
    if jac is not None and row != GROUND and col != GROUND:
        jac[row, col] += value


def _fet_bias(el, v) -> tuple[float, float]:
    d, g, s = el.nodes
    vgs = voltage_at(v, g) - voltage_at(v, s)
    vds = voltage_at(v, d) - voltage_at(v, s)
    return vgs, vds


def stamp_static(el, v: np.ndarray, f: np.ndarray,
                 jac: np.ndarray | None) -> None:
    """Add ``el``'s outflowing static currents (and derivatives)."""
    if isinstance(el, Resistor):
        n1, n2 = el.nodes
        g = 1.0 / el.resistance_ohm
        i = g * (voltage_at(v, n1) - voltage_at(v, n2))
        _add_current(f, n1, i)
        _add_current(f, n2, -i)
        _add_jac(jac, n1, n1, g)
        _add_jac(jac, n1, n2, -g)
        _add_jac(jac, n2, n1, -g)
        _add_jac(jac, n2, n2, g)
    elif isinstance(el, CurrentSource):
        _add_current(f, el.nodes[0], el.current_a)
        _add_current(f, el.nodes[1], -el.current_a)
    elif isinstance(el, (TableFET, CompactMOSFET)):
        d, g, s = el.nodes
        vgs, vds = _fet_bias(el, v)
        p = el.polarity
        if isinstance(el, TableFET):
            i, di_dvgs, di_dvds = el.table.current_and_derivatives(
                p * vgs, p * vds)
        else:
            i, di_dvgs, di_dvds = el.model.ids(p * vgs, p * vds)
        i = p * float(i)
        di_dvgs = float(di_dvgs)
        di_dvds = float(di_dvds)
        # Current flows drain -> source inside the device for i > 0.
        _add_current(f, d, i)
        _add_current(f, s, -i)
        # dI/dVd = di_dvds ; dI/dVg = di_dvgs ; dI/dVs = -(both).
        _add_jac(jac, d, d, di_dvds)
        _add_jac(jac, d, g, di_dvgs)
        _add_jac(jac, d, s, -(di_dvds + di_dvgs))
        _add_jac(jac, s, d, -di_dvds)
        _add_jac(jac, s, g, -di_dvgs)
        _add_jac(jac, s, s, di_dvds + di_dvgs)


def capacitor_stamps(el, v: np.ndarray) -> list[tuple[int, int, float]]:
    """``el``'s two-terminal capacitances as ``(node_a, node_b, farads)``."""
    if isinstance(el, Capacitor):
        return [(el.nodes[0], el.nodes[1], el.capacitance_f)]
    if isinstance(el, TableFET):
        d, g, s = el.nodes
        vgs, vds = _fet_bias(el, v)
        p = el.polarity
        cgs_i, cgd_i = el.table.capacitances(p * vgs, p * vds)
        return [
            (g, s, float(cgs_i) + el.c_par_gs_f),
            (g, d, float(cgd_i) + el.c_par_gd_f),
        ]
    if isinstance(el, CompactMOSFET):
        d, g, s = el.nodes
        vgs, vds = _fet_bias(el, v)
        p = el.polarity
        cgs, cgd = el.model.capacitances(p * vgs, p * vds)
        return [(g, s, float(cgs)), (g, d, float(cgd))]
    return []


def fet_current(el, v: np.ndarray) -> float:
    """Drain-to-source channel current of a FET at node voltages ``v``."""
    vgs, vds = _fet_bias(el, v)
    p = el.polarity
    if isinstance(el, TableFET):
        return p * float(el.table.current(p * vgs, p * vds))
    i, _, _ = el.model.ids(p * vgs, p * vds)
    return p * float(i)


def source_current(circuit: Circuit, voltages: np.ndarray, idx: int) -> float:
    """The reference ``DCResult.source_current`` at a fixed node."""
    f = np.zeros(circuit.n_nodes)
    for el in circuit.elements:
        stamp_static(el, voltages, f, None)
    return float(f[idx])


# --- DC ----------------------------------------------------------------------
def _assemble(circuit: Circuit, v: np.ndarray, gmin: float
              ) -> tuple[np.ndarray, np.ndarray]:
    n = circuit.n_nodes
    f = np.zeros(n)
    jac = np.zeros((n, n))
    for el in circuit.elements:
        stamp_static(el, v, f, jac)
    if gmin > 0.0:
        f += gmin * v
        jac[np.diag_indices(n)] += gmin
    return f, jac


def _newton(circuit: Circuit, v: np.ndarray, free: np.ndarray,
            gmin: float, tol_a: float, max_iter: int, damping_v: float
            ) -> tuple[np.ndarray, int, bool]:
    for iteration in range(1, max_iter + 1):
        f, jac = _assemble(circuit, v, gmin)
        residual = f[free]
        if np.max(np.abs(residual)) < tol_a:
            return v, iteration, True
        j_ff = jac[np.ix_(free, free)]
        try:
            dv = np.linalg.solve(j_ff, -residual)
        except np.linalg.LinAlgError:
            return v, iteration, False
        if not np.all(np.isfinite(dv)):
            return v, iteration, False
        # Voltage-step damping keeps table FETs in a sane region.
        max_step = np.max(np.abs(dv))
        if max_step > damping_v:
            dv *= damping_v / max_step
        v = v.copy()
        v[free] += dv
    return v, max_iter, False


def solve_dc(circuit: Circuit, v0: np.ndarray | None = None, t: float = 0.0,
             gmin: float = 1e-12, tol_a: float = 1e-14, max_iter: int = 200,
             damping_v: float = 0.2, source_steps: int = 8
             ) -> tuple[np.ndarray, int]:
    """Reference DC solve; returns ``(voltages, iterations)``."""
    circuit.validate()
    fixed = circuit.fixed_voltages(t)
    free = circuit.free_nodes()
    n = circuit.n_nodes

    if v0 is not None:
        v = np.asarray(v0, dtype=float).copy()
        if v.shape != (n,):
            raise ValueError(f"v0 must have shape ({n},), got {v.shape}")
    else:
        v = np.zeros(n)
        if fixed:
            v[free] = 0.5 * float(np.mean(list(fixed.values())))
    for node, value in fixed.items():
        v[node] = value

    v_sol, iters, ok = _newton(circuit, v, free, gmin, tol_a,
                               max_iter, damping_v)
    if ok:
        return v_sol, iters

    # Source stepping from zero bias.
    v = np.zeros(n)
    total_iters = iters
    for step in range(1, source_steps + 1):
        frac = step / source_steps
        for node, value in fixed.items():
            v[node] = frac * value
        v, it, ok = _newton(circuit, v, free, gmin, tol_a,
                            max_iter, damping_v)
        total_iters += it
        if not ok:
            # Retry this stage with a larger gmin before giving up.
            v, it, ok = _newton(circuit, v, free, gmin * 1e3, tol_a * 10,
                                max_iter, damping_v)
            total_iters += it
            if not ok:
                raise ConvergenceError(
                    f"DC source stepping failed at {frac:.0%} of supply",
                    iterations=total_iters)
    return v, total_iters


# --- transient -----------------------------------------------------------------
def _collect_caps(circuit: Circuit, v: np.ndarray
                  ) -> list[tuple[int, int, float]]:
    stamps: list[tuple[int, int, float]] = []
    for el in circuit.elements:
        stamps.extend(capacitor_stamps(el, v))
    return stamps


def _step_newton(circuit: Circuit, v_guess: np.ndarray, free: np.ndarray,
                 caps: list[tuple[int, int, float]],
                 i_cap_prev: np.ndarray, v_prev: np.ndarray, h: float,
                 gmin: float, tol_a: float, max_iter: int,
                 damping_v: float, backward_euler: bool = False
                 ) -> tuple[np.ndarray, np.ndarray, bool]:
    n = circuit.n_nodes
    v = v_guess.copy()
    for _ in range(max_iter):
        f = np.zeros(n)
        jac = np.zeros((n, n))
        for el in circuit.elements:
            stamp_static(el, v, f, jac)
        i_cap_new = np.empty(len(caps))
        for k, (a, b, c) in enumerate(caps):
            dv_now = voltage_at(v, a) - voltage_at(v, b)
            dv_old = voltage_at(v_prev, a) - voltage_at(v_prev, b)
            if backward_euler:
                geq = c / h
                i_k = geq * (dv_now - dv_old)
            else:
                geq = 2.0 * c / h
                i_k = geq * (dv_now - dv_old) - i_cap_prev[k]
            i_cap_new[k] = i_k
            if a != GROUND:
                f[a] += i_k
                jac[a, a] += geq
                if b != GROUND:
                    jac[a, b] -= geq
            if b != GROUND:
                f[b] -= i_k
                jac[b, b] += geq
                if a != GROUND:
                    jac[b, a] -= geq
        f += gmin * v
        jac[np.diag_indices(n)] += gmin

        residual = f[free]
        if np.max(np.abs(residual)) < tol_a:
            return v, i_cap_new, True
        try:
            dv = np.linalg.solve(jac[np.ix_(free, free)], -residual)
        except np.linalg.LinAlgError:
            return v, i_cap_new, False
        if not np.all(np.isfinite(dv)):
            return v, i_cap_new, False
        max_step = np.max(np.abs(dv))
        if max_step > damping_v:
            dv *= damping_v / max_step
        v[free] += dv
    return v, i_cap_prev, False


def simulate_transient(circuit: Circuit, t_end_s: float, dt_s: float,
                       v0: np.ndarray,
                       monitor_supplies: tuple[int | str, ...] = (),
                       gmin: float = 1e-12, tol_a: float = 1e-13,
                       max_iter: int = 40, damping_v: float = 0.3,
                       max_step_halvings: int = 8
                       ) -> tuple[np.ndarray, np.ndarray,
                                  dict[int, np.ndarray]]:
    """Reference transient; returns ``(time_s, voltages, supplies)``."""
    circuit.validate()
    if dt_s <= 0.0 or t_end_s <= 0.0:
        raise ValueError("time step and end time must be positive")
    free = circuit.free_nodes()
    n = circuit.n_nodes

    monitor = [circuit.node(m) if isinstance(m, str) else m
               for m in monitor_supplies]

    v = np.asarray(v0, dtype=float).copy()
    if v.shape != (n,):
        raise ValueError(f"v0 must have shape ({n},), got {v.shape}")
    for node, value in circuit.fixed_voltages(0.0).items():
        v[node] = value

    times = [0.0]
    traj = [v.copy()]
    supply_traces: dict[int, list[float]] = {m: [] for m in monitor}

    def record_supplies(v_now: np.ndarray) -> None:
        if not monitor:
            return
        f = np.zeros(n)
        for el in circuit.elements:
            stamp_static(el, v_now, f, None)
        for m in monitor:
            supply_traces[m].append(float(f[m]))

    caps = _collect_caps(circuit, v)
    i_cap = np.zeros(len(caps))
    record_supplies(v)

    t = 0.0
    first_step = True
    while t < t_end_s - 1e-21:
        h = min(dt_s, t_end_s - t)
        ok = False
        for _attempt in range(max_step_halvings + 1):
            v_try = v.copy()
            for node, value in circuit.fixed_voltages(t + h).items():
                v_try[node] = value
            caps = _collect_caps(circuit, v)
            v_new, i_cap_new, ok = _step_newton(
                circuit, v_try, free, caps, i_cap, v, h,
                gmin, tol_a, max_iter, damping_v,
                backward_euler=first_step)
            if ok:
                break
            h *= 0.5
        if not ok:
            raise ConvergenceError(
                f"transient step failed to converge at t = {t:.3e} s "
                f"even after {max_step_halvings} step halvings")
        t += h
        v = v_new
        i_cap = i_cap_new
        first_step = False
        times.append(t)
        traj.append(v.copy())
        record_supplies(v)
    return (np.array(times), np.array(traj),
            {m: np.array(tr) for m, tr in supply_traces.items()})
