"""I-V / Q-V sweep drivers.

Runs a device engine over a bias grid and collects the ``I_D(V_G, V_D)``
and ``Q(V_G, V_D)`` data that Section 3 of the paper stores in lookup
tables "at discrete voltage steps of V_GS and V_DS ranging from 0 V to
0.75 V".

The grid fans out across worker processes through
:func:`repro.runtime.parallel_map` with one task per gate row; within a
row each converged midgap warm-starts the next drain point (SCF
continuation, disabled by ``REPRO_NO_WARMSTART``), and rows always cold
start.  Serial sweeps run the identical per-row helper, so parallel and
serial sweeps are bit-for-bit equal regardless of worker count or
chunking.

Resilience (see ``docs/robustness.md``): every cell solve runs behind
the warm→cold→relaxed retry ladder of :func:`solve_cell_resilient`; a
cell whose ladder exhausts is NaN-masked and recorded as a
:class:`~repro.runtime.resilience.FailureRecord` on the result (and in
the obs manifest) unless ``strict`` is set, in which case the first
failure raises as before.  With ``REPRO_CHECKPOINT``/``REPRO_RESUME``
(or the corresponding arguments) the sweep writes atomic row-granular
checkpoints and skips already-completed rows on resume — bitwise
identical to an uninterrupted run because rows are independent and
cold-started.  A crashed worker process costs only its unfinished rows,
which are recomputed in-process from the salvaged
:class:`~repro.errors.ParallelMapError` state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro import obs
from repro.device.engines import engine_version, resolve_engine
from repro.device.geometry import GNRFETGeometry
from repro.device.sbfet import SBFETModel, SBFETSolution
from repro.errors import ConvergenceError, ParallelMapError
from repro.runtime import (
    FailureRecord,
    SweepCheckpoint,
    checkpoint_interval,
    content_key,
    in_worker,
    parallel_map,
    quarantine,
    recover_parallel,
    resolve_workers,
    resume_enabled,
    run_ladder,
    strict_default,
)
from repro.runtime import faults
from repro.runtime.accel import warmstart_enabled

#: Base electrostatic-bisection budget of the cell ladder (the engine's
#: historical default); the ``relaxed`` rung quadruples it.
CELL_BASE_MAX_ITER = 80


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
        Quarantined cells (empty unless a retry ladder exhausted in a
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


def solve_cell_resilient(model: SBFETModel, vg: float, vd: float,
                         guess_ev: float | None,
                         cell_index: int) -> SBFETSolution:
    """Solve one bias cell behind the warm→cold→relaxed retry ladder.

    Rungs (via :func:`repro.runtime.resilience.run_ladder`, retries
    counted under ``scf.retries``):

    1. ``warm`` — the continuation ``guess_ev`` with the base bisection
       budget; byte-identical to the pre-ladder solve, so sweeps without
       failures are unchanged.  Skipped when there is no guess.
    2. ``cold`` — discard the guess (a stale warm bracket is the usual
       reason a cell that used to converge stops doing so).
    3. ``relaxed`` — cold with a 4x iteration budget.

    The ``scf`` fault-injection site fires here, keyed by the flat
    ``cell_index``, *inside* each rung attempt — injected failures
    traverse the genuine recovery path.  Exhaustion re-raises the last
    :class:`~repro.errors.ConvergenceError` with the bias point, cell
    index, and rungs tried in its context.
    """
    def attempt(initial: float | None,
                max_iter: int) -> Callable[[], SBFETSolution]:
        def thunk() -> SBFETSolution:
            if faults.ACTIVE:
                faults.inject("scf", cell_index,
                              detail=f"VG={vg}, VD={vd}")
            return model.solve_bias(vg, vd, initial_midgap_ev=initial,
                                    max_iter=max_iter)
        return thunk

    rungs: list[tuple[str, Callable[[], SBFETSolution]]] = []
    if guess_ev is not None:
        rungs.append(("warm", attempt(guess_ev, CELL_BASE_MAX_ITER)))
    rungs.append(("cold", attempt(None, CELL_BASE_MAX_ITER)))
    rungs.append(("relaxed", attempt(None, 4 * CELL_BASE_MAX_ITER)))
    try:
        solution, _tried = run_ladder(rungs, site="scf",
                                      counter="scf.retries")
    except ConvergenceError as exc:
        raise exc.with_context(vg=float(vg), vd=float(vd),
                               cell_index=int(cell_index))
    return solution


def _solve_iv_row(geometry: GNRFETGeometry, vd_grid: np.ndarray,
                  n_modes: int | None, strict: bool, engine: str,
                  task: tuple[int, float],
                  model: SBFETModel | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                             list[FailureRecord]]:
    """One gate row of the sweep (module-level so it pickles to workers).

    ``task`` is ``(row_index, vg)``; the row index keys fault injection
    and the flat cell indices of quarantine records.  When no ``model``
    is supplied (worker processes) one is rebuilt from the geometry;
    construction is deterministic, so row results do not depend on how
    rows are batched.  Each converged midgap warm-starts the next drain
    point of the *same* row (continuation along V_D); rows always
    cold-start, which makes serial and parallel sweeps — where the row
    is the unit of work — bit-for-bit identical.  A quarantined cell
    breaks the continuation chain: the next cell falls back to the last
    finite midgap, or a cold start.
    """
    i, vg = task
    if model is None:
        model = SBFETModel(geometry, n_modes=n_modes, engine=engine)
    if faults.ACTIVE and in_worker():
        faults.inject("worker", i)
    n_vd = vd_grid.size
    current = np.empty(n_vd)
    charge = np.empty(n_vd)
    midgap = np.empty(n_vd)
    failures: list[FailureRecord] = []
    for j, vd in enumerate(vd_grid):
        # Continuation guess: linear extrapolation of the two previous
        # converged midgaps.  The midgap is nearly linear in V_D over a
        # sweep step, so the extrapolation error (~the second difference)
        # is an order of magnitude below the step itself and the warm
        # bracket almost always holds on its first, tightest width.
        prev1 = midgap[j - 1] if j >= 1 else np.nan
        prev2 = midgap[j - 2] if j >= 2 else np.nan
        guess: float | None
        if j >= 2 and np.isfinite(prev1) and np.isfinite(prev2):
            guess = 2.0 * prev1 - prev2
        elif j >= 1 and np.isfinite(prev1):
            guess = float(prev1)
        else:
            guess = None
        cell = i * n_vd + j
        try:
            sol = solve_cell_resilient(model, float(vg), float(vd),
                                       guess, cell)
        except ConvergenceError as exc:
            if strict:
                raise
            failures.append(quarantine(
                exc, site="scf", index=cell, coords=(i, j),
                bias={"vg": float(vg), "vd": float(vd)}))
            current[j] = charge[j] = midgap[j] = np.nan
            continue
        current[j] = sol.current_a
        charge[j] = sol.charge_c
        midgap[j] = sol.midgap_ev
    return current, charge, midgap, failures


_RowResult = tuple[np.ndarray, np.ndarray, np.ndarray, list[FailureRecord]]


def sweep_iv(
    geometry: GNRFETGeometry,
    vg_grid: np.ndarray,
    vd_grid: np.ndarray,
    n_modes: int | None = None,
    workers: int | None = None,  # repro: nokey[RPA601] parallelism degree; serial and parallel sweeps are bit-identical
    strict: bool | None = None,  # repro: nokey[RPA601] failure policy: strict raises, non-strict quarantines; finished rows agree
    checkpoint: int | None = None,  # repro: nokey[RPA601] checkpoint cadence only; saved rows are engine output either way
    resume: bool | None = None,  # repro: nokey[RPA601] whether to load the checkpoint this key names, not what it holds
    engine: str | None = None,
) -> IVSweep:
    """Run the selected transport engine over a (V_G, V_D) grid.

    ``workers`` > 1 fans the gate rows out across a process pool (default
    comes from ``REPRO_WORKERS``; unset means serial).  Parallel results
    are bit-for-bit identical to serial ones.

    ``engine`` picks the transmission engine (argument > ``REPRO_ENGINE``
    > ``semianalytic``; see :mod:`repro.device.engines`).  The resolved
    name and its version tag enter the checkpoint key, so checkpoints
    from different engines can never be resumed into each other.

    ``strict`` (default from ``REPRO_STRICT``, normally ``False``)
    re-raises the first exhausted cell instead of quarantining it.
    ``checkpoint`` is the checkpoint interval in completed rows (default
    from ``REPRO_CHECKPOINT``; 0 disables); ``resume`` (default from
    ``REPRO_RESUME``) loads an existing checkpoint and computes only the
    missing rows.  Checkpoints are keyed by the full sweep spec under
    the ``checkpoints`` cache namespace and deleted on completion.
    """
    vg_grid = np.asarray(vg_grid, dtype=float)
    vd_grid = np.asarray(vd_grid, dtype=float)
    if vg_grid.ndim != 1 or vd_grid.ndim != 1:
        raise ValueError("bias grids must be one-dimensional")
    if np.any(np.diff(vg_grid) <= 0) or np.any(np.diff(vd_grid) <= 0):
        raise ValueError("bias grids must be strictly ascending")

    engine = resolve_engine(engine)
    strict = strict_default() if strict is None else strict
    interval = (checkpoint_interval() if checkpoint is None
                else max(0, int(checkpoint)))
    resume = resume_enabled() if resume is None else resume

    shape = (vg_grid.size, vd_grid.size)
    current = np.full(shape, np.nan)
    charge = np.full(shape, np.nan)
    midgap = np.full(shape, np.nan)
    done = np.zeros(vg_grid.size, dtype=bool)
    failures: list[FailureRecord] = []

    ckpt: SweepCheckpoint | None = None
    if interval > 0 or resume:
        key = content_key("sweep_iv", geometry, vg_grid, vd_grid, n_modes,
                          engine, engine_version(engine), warmstart_enabled())
        ckpt = SweepCheckpoint(key, interval=interval)
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
        if resolve_workers(workers) <= 1:
            # Serial fast path: one model serves every row.  The rows run
            # through the same helper as the parallel path (per-row
            # warm-start continuation, cold start at row boundaries), so
            # serial and parallel sweeps stay bit-for-bit identical.
            model = SBFETModel(geometry, n_modes=n_modes, engine=engine)
            for task in tasks:
                store(task[0], fn(task, model=model))
                if ckpt is not None and ckpt.due():
                    save_checkpoint()
        else:
            # With checkpointing on, rows are dispatched in waves of one
            # checkpoint interval so a snapshot lands between waves;
            # with it off this is a single parallel_map call, exactly
            # the historical fast path.
            wave_size = (interval if ckpt is not None and ckpt.enabled
                         and interval > 0 else len(tasks)) or 1
            for w in range(0, len(tasks), wave_size):
                wave = tasks[w:w + wave_size]
                try:
                    rows = parallel_map(fn, wave, workers=workers)
                except ParallelMapError as err:
                    if strict:
                        raise
                    rows = recover_parallel(err, fn, wave)
                for task, row in zip(wave, rows):
                    store(task[0], row)
                if ckpt is not None and ckpt.enabled and interval > 0:
                    save_checkpoint()
        if ckpt is not None:
            ckpt.clear()
    return IVSweep(vg=vg_grid, vd=vd_grid, current_a=current,
                   charge_c=charge, midgap_ev=midgap, geometry=geometry,
                   failures=tuple(failures))
