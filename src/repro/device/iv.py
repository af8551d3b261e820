"""I-V / Q-V sweep drivers.

Runs a device engine over a bias grid and collects the ``I_D(V_G, V_D)``
and ``Q(V_G, V_D)`` data that Section 3 of the paper stores in lookup
tables "at discrete voltage steps of V_GS and V_DS ranging from 0 V to
0.75 V".

A cell's current is the Landauer integral at its *canonical point*
(:meth:`SBFETModel.mirror_gate_v`): its own bias point, or on a
mirror-symmetric model (ambipolar SBFET, no impurity) the n-branch twin
``(round(V_D - V_G, 10), V_D)`` of a p-branch cell.  The channel
electrostatics of the whole grid, plus the canonical points that fall
off it, are solved first in one vectorized bisection
(:meth:`SBFETModel.solve_midgaps`), and the channel charges in one
broadcast.  Each distinct canonical point is then integrated once,
fanned out across worker processes through
:class:`repro.runtime.LocalScheduler` with one task per canonical gate
bias; on the default 31 x 16 grid that is 282 integrals for 465 cells
with ``V_D > 0``.  Every point is solved from scratch, so a stored value
is a pure function of the geometry and its own ``(V_G, V_D)``: serial
and parallel sweeps are bit-for-bit equal regardless of worker count or
chunking, every cell equals a lone :meth:`SBFETModel.solve_bias`, and a
sweep over a subset of the bias axes reproduces the full sweep at the
shared points (a twin that falls off the subset is bisected as an extra
point).

Resilience (see ``docs/robustness.md``): the cells are visited in order
after the integrals, each one the ``scf`` fault site at its flat index.
A cell whose bisection fails, or whose canonical twin's does, raises a
:class:`~repro.errors.ConvergenceError` and is NaN-masked and recorded
as a :class:`~repro.runtime.resilience.FailureRecord` on the result (and
in the obs manifest) unless the run config is ``strict``, in which case
the first failed cell raises with its bias point and cell index in the
error context.  A fault at one cell of a mirror pair leaves the other
intact.  A crashed worker process costs only its unfinished integrals,
which are recomputed in-process from the salvaged
:class:`~repro.errors.ParallelMapError` state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro import obs, sanitize
from repro.config import RunConfig
from repro.device.engines import DEFAULT_ENGINE, resolve_engine
from repro.device.geometry import GNRFETGeometry
from repro.device.sbfet import SBFETModel, record_bias_point
from repro.errors import ConvergenceError
from repro.runtime import (
    FailureRecord,
    LocalScheduler,
    in_worker,
    quarantine,
    resolve_workers,
)
from repro.runtime import faults


@dataclass
class IVSweep:
    """Gridded intrinsic device data.

    Attributes
    ----------
    vg, vd:
        Bias axes in volts (ascending).
    current_a:
        Drain current, shape ``(len(vg), len(vd))``.
    charge_c:
        Channel charge, same shape.
    midgap_ev:
        Converged channel midgap energy per bias point (diagnostic).
    geometry:
        The device specification the sweep belongs to.
    failures:
        Quarantined cells (empty unless a cell failed to converge in a
        non-strict sweep); each record's grid coordinates point at a
        NaN-masked cell of the arrays above.
    """

    vg: np.ndarray
    vd: np.ndarray
    current_a: np.ndarray
    charge_c: np.ndarray
    midgap_ev: np.ndarray
    geometry: GNRFETGeometry
    failures: tuple[FailureRecord, ...] = field(default=())

    def current_curve(self, vd: float) -> np.ndarray:
        """I_D(V_G) at the tabulated drain voltage nearest ``vd``."""
        j = int(np.argmin(np.abs(self.vd - vd)))
        return self.current_a[:, j]

    def on_off_ratio(self, vd: float, vg_on: float | None = None) -> float:
        """``I_on / I_off`` at drain bias ``vd``.

        ``I_on`` is the current at ``vg_on`` (default: the top of the
        gate range); ``I_off`` the minimum over the gate sweep (the
        ambipolar leakage floor).
        """
        curve = np.abs(self.current_curve(vd))
        i_on = curve[-1] if vg_on is None else curve[
            int(np.argmin(np.abs(self.vg - vg_on)))]
        i_off = curve.min()
        if i_off <= 0.0:
            return np.inf
        return float(i_on / i_off)


def _integrate_currents(geometry: GNRFETGeometry, n_modes: int | None,
                        engine: str,
                        task: tuple[int, np.ndarray, np.ndarray],
                        model: SBFETModel | None = None) -> np.ndarray:
    """The Landauer integrals of one task (module-level so it pickles
    to workers).

    ``task`` is ``(index, drains, midgaps)``: the drain biases and
    solved channel midgaps of the points to integrate, all at one gate
    bias.  The task index keys the ``worker`` fault site.  When no
    ``model`` is supplied (worker processes) one is rebuilt from the
    geometry; construction is deterministic and each integral depends
    only on its own midgap and drain bias, so results do not depend on
    how the points are batched.
    """
    index, drains, midgaps = task
    if model is None:
        model = SBFETModel(geometry, n_modes=n_modes, engine=engine)
    if faults.ACTIVE and in_worker():
        faults.inject("worker", index)
    return np.array([model.current_a(float(u), float(vd))
                     for u, vd in zip(midgaps, drains)])


def _twin_failure(err: ConvergenceError, twin_vg: float
                  ) -> ConvergenceError:
    """A cell's own copy of its canonical twin's bisection failure (the
    cell fills in its own gate bias and index)."""
    context = {key: value for key, value in err.context.items()
               if key not in ("vg", "cell_index")}
    context["twin_vg"] = twin_vg
    return ConvergenceError(f"mirror twin at VG={twin_vg}: {err}",
                            iterations=err.iterations, residual=err.residual,
                            context=context)


def sweep_iv(
    geometry: GNRFETGeometry,
    vg_grid: np.ndarray,
    vd_grid: np.ndarray,
    n_modes: int | None = None,
    engine: str = DEFAULT_ENGINE,
    config: RunConfig | None = None,
) -> IVSweep:
    """Run the selected transport engine over a (V_G, V_D) grid.

    ``engine`` picks the transmission engine (see
    :mod:`repro.device.engines`).

    ``config`` (default :meth:`RunConfig.from_env`) says how the sweep
    executes: ``workers`` > 1 fans the current integrals out across a
    process pool in one dispatch (bit-for-bit identical to serial);
    ``strict`` re-raises the first failed cell instead of quarantining
    it.
    """
    vg_grid = np.asarray(vg_grid, dtype=float)
    vd_grid = np.asarray(vd_grid, dtype=float)
    if vg_grid.ndim != 1 or vd_grid.ndim != 1:
        raise ValueError("bias grids must be one-dimensional")
    if np.any(np.diff(vg_grid) <= 0) or np.any(np.diff(vd_grid) <= 0):
        raise ValueError("bias grids must be strictly ascending")

    engine = resolve_engine(engine)
    config = RunConfig.from_env() if config is None else config
    strict = config.strict

    n_vg, n_vd = vg_grid.size, vd_grid.size
    n_cells = n_vg * n_vd
    with obs.span("device.sweep_iv", n_index=geometry.n_index,
                  grid=f"{n_vg}x{n_vd}"):
        model = SBFETModel(geometry, n_modes=n_modes, engine=engine)
        # Cells in row-major order; each one's current is the integral
        # at its canonical point (model.mirror_gate_v).  Canonical points
        # off the grid are appended to the cells, so one vectorized
        # bisection solves every point, and its channel charges follow
        # in one broadcast.
        points_vg = np.repeat(vg_grid, n_vd)
        points_vd = np.tile(vd_grid, n_vg)
        twin_vg = model.mirror_gate_v(points_vg, points_vd)
        row_of = {v: i for i, v in enumerate(vg_grid.tolist())}
        extra: dict[tuple[float, float], int] = {}
        canonical = np.arange(n_cells)
        for cell in np.flatnonzero(twin_vg != points_vg).tolist():
            twin, vd = float(twin_vg[cell]), float(points_vd[cell])
            if twin in row_of:
                canonical[cell] = row_of[twin] * n_vd + cell % n_vd
            else:
                canonical[cell] = extra.setdefault(
                    (twin, vd), n_cells + len(extra))
        points_vg = np.concatenate((points_vg, [vg for vg, _ in extra]))
        points_vd = np.concatenate((points_vd, [vd for _, vd in extra]))
        midgaps, iterations, errors = model.solve_midgaps(points_vg,
                                                          points_vd)
        midgap = midgaps[:n_cells].reshape(n_vg, n_vd)
        charge = model.channel_charges_c(midgap, vd_grid[None, :])
        if sanitize.ACTIVE:
            solved = ~np.isnan(midgap)
            sanitize.check_finite(charge[solved], "sweep_iv",
                                  "channel charge")

        # Each distinct canonical point of a solved cell is integrated
        # once; one task per gate bias goes to the workers.
        failed = np.zeros(points_vg.size, dtype=bool)
        failed[list(errors)] = True
        solved_cells = ~failed[:n_cells] & ~failed[canonical]
        by_gate: dict[float, list[int]] = {}
        for point in np.unique(canonical[solved_cells]).tolist():
            by_gate.setdefault(float(points_vg[point]), []).append(point)
        tasks = [(index, points_vd[points], midgaps[points])
                 for index, points in enumerate(by_gate.values())]
        fn = partial(_integrate_currents, geometry, n_modes, engine)
        if resolve_workers(config.workers) <= 1:
            # Serial fast path: one model serves every task.
            results = [fn(task, model=model) for task in tasks]
        else:
            results = LocalScheduler(workers=config.workers).run(
                fn, tasks, strict=strict)
        integral = np.full(points_vg.size, np.nan)
        for points, values in zip(by_gate.values(), results):
            integral[points] = values

        # The cells: fault site, counters, quarantine and strict.
        current = np.full(n_cells, np.nan)
        failures: list[FailureRecord] = []
        for cell in range(n_cells):
            i, j = divmod(cell, n_vd)
            vg, vd = float(vg_grid[i]), float(vd_grid[j])
            point = int(canonical[cell])
            try:
                if faults.ACTIVE:
                    faults.inject("scf", cell, detail=f"VG={vg}, VD={vd}")
                if cell in errors:
                    raise errors[cell]
                if point in errors:
                    raise _twin_failure(errors[point],
                                        float(points_vg[point]))
                if obs.ACTIVE:
                    record_bias_point(int(iterations[cell]))
                current[cell] = integral[point]
            except ConvergenceError as exc:
                exc.with_context(vg=vg, vd=vd, cell_index=cell)
                if strict:
                    raise
                failures.append(quarantine(
                    exc, site="scf", index=cell, coords=(i, j),
                    bias={"vg": vg, "vd": vd}))
                continue
            if sanitize.ACTIVE:
                sanitize.check_finite(current[cell:cell + 1], "sweep_iv",
                                      "drain current",
                                      bias=sanitize.format_bias(vg=vg, vd=vd))

    current = current.reshape(n_vg, n_vd)
    for record in failures:
        # Injected faults hit converged cells: mask them like the rest.
        midgap[record.coords] = charge[record.coords] = np.nan
    return IVSweep(vg=vg_grid, vd=vd_grid, current_a=current,
                   charge_c=charge, midgap_ev=midgap, geometry=geometry,
                   failures=tuple(failures))
