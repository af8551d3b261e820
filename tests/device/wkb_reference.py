"""Frozen reference formulation of the semianalytic WKB transmission.

This is the per-mode ``np.where`` + ``np.trapezoid`` kernel that
``SBFETModel.transmission`` used before the shared-square / CDF-mask
rewrite.  It is kept verbatim (only lifted out of the class) as the
oracle the parity tests and ``benchmarks/bench_solver_accel.py`` hold
the production kernel to.  Do not optimise it: its value is that it is
the obvious transcription of the physics.
"""

from __future__ import annotations

import numpy as np

from repro import sanitize
from repro.device.sbfet import SBFETModel


def reference_transmission(model: SBFETModel, energies_ev: np.ndarray,
                           profile_midgap_ev: np.ndarray) -> np.ndarray:
    """WKB transmission summed over ``model``'s modes (semianalytic only)."""
    e = np.asarray(energies_ev, dtype=float)[:, None]
    u = np.asarray(profile_midgap_ev, dtype=float)[None, :]
    u_interior = float(np.median(u))
    imp = model._impurity_profile_ev
    well_e = max(0.0, -float(imp.min()))
    well_h = max(0.0, float(imp.max()))

    total = np.zeros(e.shape[0])
    for edge, hv in zip(model._edges_ev, model._hv_ev_nm):
        delta = e - u
        kappa_gap = np.sqrt(np.clip(edge ** 2 - delta ** 2, 0.0, None)) / hv
        kappa_max = edge / hv
        above_cond = delta > edge
        below_val = delta < -edge
        kappa_e = np.where(above_cond, 0.0,
                           np.where(below_val, kappa_max, kappa_gap))
        kappa_h = np.where(below_val, 0.0,
                           np.where(above_cond, kappa_max, kappa_gap))
        exp_e = 2.0 * np.trapezoid(kappa_e, dx=model._dx_nm, axis=1)
        exp_h = 2.0 * np.trapezoid(kappa_h, dx=model._dx_nm, axis=1)
        t_e = np.exp(-np.clip(exp_e, 0.0, 200.0))
        t_h = np.exp(-np.clip(exp_h, 0.0, 200.0))
        if well_e > 0.0:
            t_e = t_e * model._well_factor(
                e[:, 0] - u_interior, edge, hv, well_e)
        if well_h > 0.0:
            t_h = t_h * model._well_factor(
                -(e[:, 0] - u_interior), edge, hv, well_h)
        total += np.maximum(t_e, t_h)
    if sanitize.ACTIVE:
        sanitize.check_transmission(total, len(model.modes),
                                    "SBFETModel.transmission",
                                    energies_ev=e[:, 0])
    return total
