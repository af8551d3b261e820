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
broadcast.  Each distinct canonical point is then integrated once; on
the default 31 x 16 grid that is 282 integrals for 465 cells with
``V_D > 0``.  The sweep runs in-process (parallelism lives one level up,
in the experiment fan-out).  Every point is solved from scratch, so a
stored value is a pure function of the geometry and its own
``(V_G, V_D)``: every cell equals a lone :meth:`SBFETModel.solve_bias`,
and a sweep over a subset of the bias axes reproduces the full sweep at
the shared points (a twin that falls off the subset is bisected as an
extra point).

Resilience (see ``docs/robustness.md``): the cells are visited in order
after the integrals.  A cell whose bisection fails, or whose canonical
twin's does, raises a :class:`~repro.errors.ConvergenceError` and gets a
NaN current and a :class:`~repro.runtime.resilience.FailureRecord` on
the result (and in the obs manifest) unless the run config is
``strict``, in which case the first failed cell raises with its bias
point and cell index in the error context.  A p-branch cell whose own
bisection fails leaves its twin intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs, sanitize
from repro.config import RunConfig
from repro.device.engines import DEFAULT_ENGINE, resolve_engine
from repro.device.geometry import GNRFETGeometry
from repro.device.sbfet import SBFETModel, record_bias_point
from repro.errors import ConvergenceError
from repro.runtime import FailureRecord, quarantine


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
        non-strict sweep); each record's grid coordinates point at a NaN
        ``current_a`` cell, whose ``midgap_ev`` and ``charge_c`` are NaN
        too unless only its canonical twin failed.
    """

    vg: np.ndarray
    vd: np.ndarray
    current_a: np.ndarray
    charge_c: np.ndarray
    midgap_ev: np.ndarray
    geometry: GNRFETGeometry
    failures: tuple[FailureRecord, ...] = field(default=())


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
    handles failures: ``strict`` re-raises the first failed cell
    instead of quarantining it.
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
        # once.
        failed = np.zeros(points_vg.size, dtype=bool)
        failed[list(errors)] = True
        solved_cells = ~failed[:n_cells] & ~failed[canonical]
        integral = np.full(points_vg.size, np.nan)
        for point in np.unique(canonical[solved_cells]).tolist():
            integral[point] = model.current_a(float(midgaps[point]),
                                              float(points_vd[point]))

        # The cells: counters, quarantine and strict.
        current = np.full(n_cells, np.nan)
        failures: list[FailureRecord] = []
        for cell in range(n_cells):
            i, j = divmod(cell, n_vd)
            vg, vd = float(vg_grid[i]), float(vd_grid[j])
            point = int(canonical[cell])
            try:
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
    return IVSweep(vg=vg_grid, vd=vd_grid, current_a=current,
                   charge_c=charge, midgap_ev=midgap, geometry=geometry,
                   failures=tuple(failures))
