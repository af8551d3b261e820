"""I-V / Q-V sweep drivers.

Runs a device engine over a bias grid and collects the ``I_D(V_G, V_D)``
and ``Q(V_G, V_D)`` data that Section 3 of the paper stores in lookup
tables "at discrete voltage steps of V_GS and V_DS ranging from 0 V to
0.75 V".

The channel electrostatics of the whole grid are solved first, in one
vectorized bisection (:meth:`SBFETModel.solve_midgaps`), and the channel
charges in one broadcast.  The current integrals then fan out across
worker processes through :class:`repro.runtime.LocalScheduler` with one
task per gate row.  Every cell is solved from scratch, so a stored value
is a pure function of the geometry and its own ``(V_G, V_D)``: serial
and parallel sweeps are bit-for-bit equal regardless of worker count or
chunking, and a sweep over a subset of the bias axes reproduces the full
sweep at the shared points.

Resilience (see ``docs/robustness.md``): a cell whose solve fails with a
:class:`~repro.errors.ConvergenceError` is NaN-masked and recorded as a
:class:`~repro.runtime.resilience.FailureRecord` on the result (and in
the obs manifest) unless the run config is ``strict``, in which case
the first failure raises with its bias point and cell index in the
error context.  A crashed worker process costs only its unfinished rows,
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


def _solve_iv_row(geometry: GNRFETGeometry, vd_grid: np.ndarray,
                  n_modes: int | None, strict: bool, engine: str,
                  task: tuple[int, float, np.ndarray, np.ndarray,
                              dict[int, ConvergenceError]],
                  model: SBFETModel | None = None
                  ) -> tuple[np.ndarray, list[FailureRecord]]:
    """The currents of one gate row (module-level so it pickles to
    workers).

    ``task`` is ``(row_index, vg, midgaps, iterations, errors)``: the
    row's solved channel midgaps and bisection iteration counts, and the
    bisection failures keyed by column.  The row index keys the
    ``worker`` fault site, and the flat cell index
    ``row * len(vd_grid) + column`` keys the ``scf`` fault site and
    quarantine records.  When no ``model`` is supplied (worker
    processes) one is rebuilt from the geometry; construction is
    deterministic and every cell's current depends only on its own
    midgap, so row results do not depend on how rows are batched.
    """
    i, vg, midgaps, iterations, errors = task
    if model is None:
        model = SBFETModel(geometry, n_modes=n_modes, engine=engine)
    if faults.ACTIVE and in_worker():
        faults.inject("worker", i)
    n_vd = vd_grid.size
    current = np.full(n_vd, np.nan)
    failures: list[FailureRecord] = []
    for j, vd in enumerate(vd_grid):
        cell = i * n_vd + j
        try:
            if faults.ACTIVE:
                faults.inject("scf", cell, detail=f"VG={vg}, VD={vd}")
            if j in errors:
                raise errors[j]
            if obs.ACTIVE:
                record_bias_point(int(iterations[j]))
            current[j] = model.current_a(float(midgaps[j]), float(vd))
        except ConvergenceError as exc:
            exc.with_context(vg=float(vg), vd=float(vd), cell_index=cell)
            if strict:
                raise
            failures.append(quarantine(
                exc, site="scf", index=cell, coords=(i, j),
                bias={"vg": float(vg), "vd": float(vd)}))
            continue
        if sanitize.ACTIVE:
            sanitize.check_finite(current[j:j + 1], "sweep_iv",
                                  "drain current",
                                  bias=sanitize.format_bias(vg=vg, vd=vd))
    return current, failures


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
    executes: ``workers`` > 1 fans the gate rows out across a process
    pool in one dispatch (bit-for-bit identical to serial); ``strict``
    re-raises the first failed cell instead of quarantining it.
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

    n_vd = vd_grid.size
    with obs.span("device.sweep_iv", n_index=geometry.n_index,
                  grid=f"{vg_grid.size}x{n_vd}"):
        # The electrostatics of every cell in one vectorized bisection,
        # and their channel charges in one broadcast; the rows then
        # integrate the currents.
        model = SBFETModel(geometry, n_modes=n_modes, engine=engine)
        midgap, iterations, errors = model.solve_midgaps(
            vg_grid[:, None], vd_grid[None, :])
        charge = model.channel_charges_c(midgap, vd_grid[None, :])
        if sanitize.ACTIVE:
            solved = ~np.isnan(midgap)
            sanitize.check_finite(charge[solved], "sweep_iv",
                                  "channel charge")
        row_errors: list[dict[int, ConvergenceError]] = [
            {} for _ in vg_grid]
        for cell, err in errors.items():
            row_errors[cell // n_vd][cell % n_vd] = err
        tasks = [(i, float(vg), midgap[i], iterations[i], row_errors[i])
                 for i, vg in enumerate(vg_grid)]
        fn = partial(_solve_iv_row, geometry, vd_grid, n_modes, strict,
                     engine)
        if resolve_workers(config.workers) <= 1:
            # Serial fast path: one model serves every row.
            rows = [fn(task, model=model) for task in tasks]
        else:
            rows = LocalScheduler(workers=config.workers).run(
                fn, tasks, strict=strict)

    current = np.array([row_current for row_current, _ in rows]
                       ).reshape(vg_grid.size, n_vd)
    failures = [record for _, row_failures in rows
                for record in row_failures]
    for record in failures:
        # Injected faults hit converged cells: mask them like the rest.
        midgap[record.coords] = charge[record.coords] = np.nan
    return IVSweep(vg=vg_grid, vd=vd_grid, current_a=current,
                   charge_c=charge, midgap_ev=midgap, geometry=geometry,
                   failures=tuple(failures))
