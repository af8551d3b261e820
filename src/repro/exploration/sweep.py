"""Dense V_DD-V_T exploration sweep (the data behind Fig. 3b).

Every (V_T, V_DD) cell is an independent quasi-static analysis; the
sweep visits the V_T rows in order, in-process (parallelism lives one
level up, in the experiment fan-out).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.circuit.inverter import inverter_snm
from repro.circuit.ring_oscillator import estimate_ring_oscillator
from repro.config import RunConfig
from repro.errors import AnalysisError, ConvergenceError
from repro.exploration.technology import GNRFETTechnology
from repro.runtime import FailureRecord, quarantine
from repro.runtime import faults


@dataclass
class ExplorationGrid:
    """Metrics of the 15-stage FO4 ring oscillator over the (V_T, V_DD) plane.

    All arrays have shape ``(len(vt), len(vdd))``; entries where the
    oscillator cannot run (no drive) are NaN.
    """

    vt: np.ndarray
    vdd: np.ndarray
    frequency_hz: np.ndarray
    edp_j_s: np.ndarray
    snm_v: np.ndarray
    total_power_w: np.ndarray
    static_power_w: np.ndarray
    failures: tuple[FailureRecord, ...] = ()

    def log_edp(self, floor: float = 1e-40) -> np.ndarray:
        """Natural log of the EDP in aJ-ps (the paper's Fig. 3b contour
        labels are ln(EDP) with EDP in aJ-ps)."""
        edp_aj_ps = self.edp_j_s / (1e-18 * 1e-12)
        return np.log(np.clip(edp_aj_ps, floor, None))


def _explore_vt_row(tech: GNRFETTechnology, vdd_grid: np.ndarray,
                    n_stages: int, with_snm: bool, strict: bool,
                    i: int, vt: float
                    ) -> tuple[np.ndarray, ...]:
    """All V_DD cells of V_T row ``i``.

    The row index keys the ``scf`` fault-injection site and quarantine
    records.  A device-table build with a failed cell (it surfaces here
    as a :class:`~repro.errors.ConvergenceError` when the underlying
    sweep is strict) NaN-masks the whole row and yields one
    :class:`~repro.runtime.resilience.FailureRecord` unless ``strict``.
    """
    n_vdd = vdd_grid.size
    freq = np.full(n_vdd, np.nan)
    edp = np.full(n_vdd, np.nan)
    snm = np.full(n_vdd, np.nan)
    p_tot = np.full(n_vdd, np.nan)
    p_stat = np.full(n_vdd, np.nan)
    failures: list[FailureRecord] = []
    try:
        if faults.ACTIVE:
            faults.inject("scf", i, detail=f"VT={vt}")
        nt, pt = tech.inverter_tables(float(vt))
    except ConvergenceError as exc:
        if strict:
            raise exc.with_context(vt=float(vt), row_index=int(i))
        failures.append(quarantine(
            exc.with_context(vt=float(vt)), site="exploration", index=i,
            coords=(i,), bias={"vt": float(vt)}))
        return freq, edp, snm, p_tot, p_stat, failures
    n_skipped = 0
    for j, vdd in enumerate(vdd_grid):
        vdd = float(vdd)
        if vt >= vdd:
            # No gate overdrive anywhere in the swing: the oscillator
            # estimate cannot produce a usable operating point, so the
            # cell stays NaN without paying for the estimate.
            n_skipped += 1
            continue
        try:
            m = estimate_ring_oscillator(nt, pt, vdd, n_stages, tech.params)
        except AnalysisError:
            continue
        freq[j] = m.frequency_hz
        edp[j] = m.edp_j_s
        p_tot[j] = m.total_power_w
        p_stat[j] = m.static_power_w
        if with_snm:
            snm[j] = inverter_snm(nt, pt, vdd, tech.params)
    if obs.ACTIVE and n_skipped:
        obs.incr("exploration.invalid_cells_skipped", n_skipped)
    return freq, edp, snm, p_tot, p_stat, failures


def sweep_vdd_vt(
    tech: GNRFETTechnology,
    vt_grid: np.ndarray,
    vdd_grid: np.ndarray,
    n_stages: int = 15,
    with_snm: bool = True,
    config: RunConfig | None = None,
) -> ExplorationGrid:
    """Quasi-static sweep of RO metrics and inverter SNM.

    Invalid corners (V_T >= V_DD with no headroom, vanishing drive) are
    recorded as NaN rather than raised, so contour extraction can operate
    on the full rectangle.

    ``config`` (default :meth:`RunConfig.from_env`): ``strict``
    re-raises the first failed device-table build, otherwise the
    affected V_T row is NaN-masked and recorded on ``failures``.
    """
    vt_grid = np.asarray(vt_grid, dtype=float)
    vdd_grid = np.asarray(vdd_grid, dtype=float)
    config = RunConfig.from_env() if config is None else config
    shape = (vt_grid.size, vdd_grid.size)
    freq = np.full(shape, np.nan)
    edp = np.full(shape, np.nan)
    snm = np.full(shape, np.nan)
    p_tot = np.full(shape, np.nan)
    p_stat = np.full(shape, np.nan)
    failures: list[FailureRecord] = []

    with obs.span("exploration.sweep_vdd_vt",
                  grid=f"{vt_grid.size}x{vdd_grid.size}"):
        for i, vt in enumerate(vt_grid):
            *row, row_failures = _explore_vt_row(
                tech, vdd_grid, n_stages, with_snm, config.strict, i,
                float(vt))
            freq[i], edp[i], snm[i], p_tot[i], p_stat[i] = row
            failures.extend(row_failures)

    return ExplorationGrid(vt=vt_grid, vdd=vdd_grid, frequency_hz=freq,
                           edp_j_s=edp, snm_v=snm, total_power_w=p_tot,
                           static_power_w=p_stat,
                           failures=tuple(failures))
