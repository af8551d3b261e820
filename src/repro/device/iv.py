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
error context.  With the config's ``checkpoint``/``resume`` the sweep
writes atomic row-granular checkpoints and skips already-completed rows
on resume — bitwise identical to an uninterrupted run because rows are
independent.  A crashed worker process costs only its unfinished rows,
which are recomputed in-process from the salvaged
:class:`~repro.errors.ParallelMapError` state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro import obs
from repro.config import RunConfig
from repro.device.engines import DEFAULT_ENGINE, engine_version, resolve_engine
from repro.device.geometry import GNRFETGeometry
from repro.device.sbfet import SBFETModel
from repro.errors import ConvergenceError
from repro.runtime import (
    FailureRecord,
    LocalScheduler,
    SweepCheckpoint,
    content_key,
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


_RowResult = tuple[np.ndarray, np.ndarray, np.ndarray, list[FailureRecord]]


def sweep_checkpoint_key(geometry: GNRFETGeometry, vg_grid: np.ndarray,
                         vd_grid: np.ndarray, n_modes: int | None,
                         engine: str = DEFAULT_ENGINE) -> str:
    """Checkpoint key of one sweep: every input its rows depend on."""
    return content_key("sweep_iv", geometry, np.asarray(vg_grid, float),
                       np.asarray(vd_grid, float), n_modes, engine,
                       engine_version(engine))


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
    :mod:`repro.device.engines`).  Its name and version tag enter the
    checkpoint key, so checkpoints from different engines can never be
    resumed into each other.

    ``config`` (default :meth:`RunConfig.from_env`) says how the sweep
    executes: ``workers`` > 1 fans the gate rows out across a process
    pool (bit-for-bit identical to serial); ``strict`` re-raises the
    first failed cell instead of quarantining it; ``checkpoint`` is the
    checkpoint interval in completed rows (0 disables) and ``resume``
    loads an existing checkpoint and computes only the missing rows.
    Checkpoints are keyed by :func:`sweep_checkpoint_key` under the
    ``checkpoints`` cache namespace and deleted on completion.
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
    interval = config.checkpoint
    resume = config.resume

    shape = (vg_grid.size, vd_grid.size)
    current = np.full(shape, np.nan)
    charge = np.full(shape, np.nan)
    midgap = np.full(shape, np.nan)
    done = np.zeros(vg_grid.size, dtype=bool)
    failures: list[FailureRecord] = []

    ckpt: SweepCheckpoint | None = None
    if interval > 0 or resume:
        ckpt = SweepCheckpoint.for_config(
            sweep_checkpoint_key(geometry, vg_grid, vd_grid, n_modes,
                                 engine), config)
        if resume:
            loaded = ckpt.load()
            if loaded is not None and loaded[0].shape == done.shape:
                done, arrays, saved_failures = loaded
                current = np.asarray(arrays["current_a"], dtype=float)
                charge = np.asarray(arrays["charge_c"], dtype=float)
                midgap = np.asarray(arrays["midgap_ev"], dtype=float)
                for record in saved_failures:
                    failures.append(record)
                    if obs.ACTIVE:
                        # Re-recorded so the resumed run's manifest
                        # carries the full failure set, not just the
                        # post-resume tail.
                        obs.incr("resilience.quarantined")
                        obs.record_failure(record.to_dict())

    def save_checkpoint() -> None:
        assert ckpt is not None
        ckpt.save(done, {"current_a": current, "charge_c": charge,
                         "midgap_ev": midgap}, failures)

    def store(i: int, row: _RowResult) -> None:
        current[i], charge[i], midgap[i] = row[0], row[1], row[2]
        failures.extend(row[3])
        done[i] = True

    tasks = [(int(i), float(vg_grid[i]))
             for i in range(vg_grid.size) if not done[i]]
    fn = partial(_solve_iv_row, geometry, vd_grid, n_modes, strict, engine)
    with obs.span("device.sweep_iv", n_index=geometry.n_index,
                  grid=f"{vg_grid.size}x{vd_grid.size}"):
        if resolve_workers(config.workers) <= 1:
            # Serial fast path: one model serves every row.
            model = SBFETModel(geometry, n_modes=n_modes, engine=engine)
            for task in tasks:
                store(task[0], fn(task, model=model))
                if ckpt is not None and ckpt.due():
                    save_checkpoint()
        else:
            # With checkpointing on, rows are dispatched in waves of one
            # checkpoint interval so a snapshot lands between waves;
            # with it off this is a single scheduler call.
            scheduler = LocalScheduler(workers=config.workers)
            wave_size = (interval if ckpt is not None and ckpt.enabled
                         and interval > 0 else len(tasks)) or 1
            for w in range(0, len(tasks), wave_size):
                wave = tasks[w:w + wave_size]
                rows = scheduler.run(fn, wave, strict=strict)
                for task, row in zip(wave, rows):
                    store(task[0], row)
                if ckpt is not None and ckpt.enabled and interval > 0:
                    save_checkpoint()
        if ckpt is not None:
            ckpt.clear()
    return IVSweep(vg=vg_grid, vd=vd_grid, current_a=current,
                   charge_c=charge, midgap_ev=midgap, geometry=geometry,
                   failures=tuple(failures))
