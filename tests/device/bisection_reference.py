"""Frozen reference formulation of the SBFET electrostatic bisection.

This is the scalar ``SBFETModel.solve_midgap_ev`` that solved one bias
point per call before ``SBFETModel.solve_midgaps`` ran the whole sweep
as one vectorized bisection.  It is kept verbatim (only lifted out of
the class) as the oracle the parity tests and
``benchmarks/bench_solver_accel.py`` hold the vectorized solver to.  Do
not optimise it: its value is that it is the obvious transcription of
the recurrence.
"""

from __future__ import annotations

import numpy as np

from repro.constants import Q_E
from repro.device.sbfet import SBFETModel
from repro.errors import ConvergenceError


def reference_solve_midgap_ev(model: SBFETModel, vg: float, vd: float,
                              tol_ev: float = 1e-6,
                              max_iter: int = 80) -> tuple[float, int]:
    """Self-consistent channel midgap of one bias point by bisection."""
    u_laplace = model.laplace_midgap_ev(vg, vd)
    c_ins = model.geometry.insulator_capacitance_f_per_nm
    mu_s, mu_d = 0.0, -vd
    lut_u, lut_q0 = model._lut_u, model._lut_q0

    def residual(u: float) -> float:
        # n - p with the ballistic filling of _densities_at_level.
        q = 0.5 * (np.interp(u - mu_s, lut_u, lut_q0)
                   + np.interp(u - mu_d, lut_u, lut_q0))
        charging = Q_E * q / c_ins  # volts == eV here
        return float(u - u_laplace - charging)

    lo, hi = u_laplace - 1.5, u_laplace + 1.5
    r_lo, r_hi = residual(lo), residual(hi)
    expand = 0
    while r_lo > 0.0 or r_hi < 0.0:
        lo -= 1.0
        hi += 1.0
        r_lo, r_hi = residual(lo), residual(hi)
        expand += 1
        if expand > 5:
            raise ConvergenceError(
                f"cannot bracket electrostatic solution at "
                f"VG={vg}, VD={vd}",
                context={"solver": "sbfet_bisection",
                         "stage": "bracket",
                         "vg": float(vg), "vd": float(vd),
                         "n_index": model.geometry.n_index})

    for iteration in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        r_mid = residual(mid)
        if r_mid > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol_ev:
            return 0.5 * (lo + hi), iteration
    raise ConvergenceError(
        f"electrostatic bisection stalled at VG={vg}, VD={vd}",
        iterations=max_iter, residual=hi - lo,
        context={"solver": "sbfet_bisection", "stage": "bisect",
                 "vg": float(vg), "vd": float(vd),
                 "tol_ev": float(tol_ev), "max_iter": int(max_iter),
                 "n_index": model.geometry.n_index})
