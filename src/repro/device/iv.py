"""I-V / Q-V sweep drivers.

Runs a device engine over a bias grid and collects the ``I_D(V_G, V_D)``
and ``Q(V_G, V_D)`` data that Section 3 of the paper stores in lookup
tables "at discrete voltage steps of V_GS and V_DS ranging from 0 V to
0.75 V".

The grid fans out across worker processes through
:class:`repro.runtime.LocalScheduler` with one task per gate row.  Every
cell is solved from scratch, so a stored current is a pure function of
the geometry and its own ``(V_G, V_D)``: serial and parallel sweeps are
bit-for-bit equal regardless of worker count or chunking, and a sweep
over a subset of the bias axes reproduces the full sweep at the shared
points.

Resilience (see ``docs/robustness.md``): a cell whose solve raises
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

from repro import obs
from repro.config import RunConfig
from repro.device.engines import DEFAULT_ENGINE, resolve_engine
from repro.device.geometry import GNRFETGeometry
from repro.device.sbfet import SBFETModel
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
                  task: tuple[int, float],
                  model: SBFETModel | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                             list[FailureRecord]]:
    """One gate row of the sweep (module-level so it pickles to workers).

    ``task`` is ``(row_index, vg)``; the row index keys the ``worker``
    fault site, and the flat cell index ``row * len(vd_grid) + column``
    keys the ``scf`` fault site and quarantine records.  When no
    ``model`` is supplied (worker processes) one is rebuilt from the
    geometry; construction is deterministic and every cell is solved
    from scratch, so row results do not depend on how rows are batched.
    """
    i, vg = task
    if model is None:
        model = SBFETModel(geometry, n_modes=n_modes, engine=engine)
    if faults.ACTIVE and in_worker():
        faults.inject("worker", i)
    n_vd = vd_grid.size
    current = np.full(n_vd, np.nan)
    charge = np.full(n_vd, np.nan)
    midgap = np.full(n_vd, np.nan)
    failures: list[FailureRecord] = []
    for j, vd in enumerate(vd_grid):
        cell = i * n_vd + j
        try:
            if faults.ACTIVE:
                faults.inject("scf", cell, detail=f"VG={vg}, VD={vd}")
            sol = model.solve_bias(float(vg), float(vd))
        except ConvergenceError as exc:
            exc.with_context(vg=float(vg), vd=float(vd), cell_index=cell)
            if strict:
                raise
            failures.append(quarantine(
                exc, site="scf", index=cell, coords=(i, j),
                bias={"vg": float(vg), "vd": float(vd)}))
            continue
        current[j] = sol.current_a
        charge[j] = sol.charge_c
        midgap[j] = sol.midgap_ev
    return current, charge, midgap, failures


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

    tasks = [(int(i), float(vg)) for i, vg in enumerate(vg_grid)]
    fn = partial(_solve_iv_row, geometry, vd_grid, n_modes, strict, engine)
    with obs.span("device.sweep_iv", n_index=geometry.n_index,
                  grid=f"{vg_grid.size}x{vd_grid.size}"):
        if resolve_workers(config.workers) <= 1:
            # Serial fast path: one model serves every row.
            model = SBFETModel(geometry, n_modes=n_modes, engine=engine)
            rows = [fn(task, model=model) for task in tasks]
        else:
            rows = LocalScheduler(workers=config.workers).run(
                fn, tasks, strict=strict)

    shape = (vg_grid.size, vd_grid.size)
    current = np.full(shape, np.nan)
    charge = np.full(shape, np.nan)
    midgap = np.full(shape, np.nan)
    failures: list[FailureRecord] = []
    for i, (i_row, q_row, m_row, row_failures) in enumerate(rows):
        current[i], charge[i], midgap[i] = i_row, q_row, m_row
        failures.extend(row_failures)
    return IVSweep(vg=vg_grid, vd=vd_grid, current_a=current,
                   charge_c=charge, midgap_ev=midgap, geometry=geometry,
                   failures=tuple(failures))
