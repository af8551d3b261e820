"""Fast semi-analytic ballistic Schottky-barrier GNRFET engine.

This is the production device engine that populates the circuit lookup
tables.  It implements the same physics the paper's NEGF simulation
captures for an ideal ballistic SBFET, at a tiny fraction of the cost:

* **Band structure** — subband edges, masses and two-band velocities come
  from the exact edge-relaxed p_z tight-binding bands
  (:mod:`repro.atomistic`), so the width (index) dependence of everything
  is atomistic, not fitted.
* **Electrostatics** — the channel midgap ``U_ch`` follows the
  top-of-the-barrier model: a Laplace part set by gate/drain capacitive
  coupling plus a charging term ``q (n - p) / C_ins``, solved
  self-consistently (this is what limits the on-current through the
  quantum capacitance).
* **Contacts** — metal source/drain with midgap Fermi-level pinning
  (Schottky barriers ``Phi_Bn = Phi_Bp = E_g/2``, as the paper specifies).
  The contact-induced band bending decays exponentially into the channel
  with the double-gate natural length.
* **Transport** — coherent Landauer current with WKB transmission through
  the classically forbidden (gap) regions, using the two-band imaginary
  dispersion ``kappa(E) = sqrt((E_g/2)^2 - E^2) / (hbar v)``.  Thermionic
  emission, Schottky tunneling, ambipolar conduction (minimum leakage at
  ``V_G ~ V_D/2``) and direct source-drain tunneling all emerge from the
  single energy integral.
* **Charge impurities** — the gate-image-screened Coulomb potential of an
  oxide point charge (:mod:`repro.poisson.pointcharge`) is added to the
  band profile, modulating barrier height and thickness exactly as in the
  paper's Fig. 5(a).

The engine is cross-validated against the reference NEGF + Poisson device
simulator in the test suite and in ``benchmarks/bench_ablation_engines.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro import obs, sanitize
from repro.constants import (
    HBAR_SI,
    LANDAUER_PREFACTOR_A_PER_EV,
    Q_E,
    fermi_dirac,
    thermal_energy_ev,
)
from repro.atomistic.modespace import TransverseMode, transverse_modes
from repro.device.engines import (
    DEFAULT_ENGINE,
    AtomisticTransport,
    resolve_engine,
)
from repro.device.geometry import GNRFETGeometry, GRAPHENE_THICKNESS_NM
from repro.errors import ConvergenceError
from repro.negf.energy_grid import breakpoint_energy_grid
from repro.poisson.pointcharge import screened_impurity_potential_ev


@dataclass(frozen=True)
class BiasPoint:
    """One (V_G, V_D) bias point, in volts, source grounded."""

    vg: float
    vd: float


@dataclass(frozen=True)
class SBFETSolution:
    """Self-consistent solution of one bias point (one ribbon).

    Attributes
    ----------
    bias:
        The bias point solved.
    midgap_ev:
        Converged channel midgap energy ``U_ch`` relative to the source
        Fermi level.
    current_a:
        Drain current in amperes (positive from drain to source for
        normal n-branch operation).
    charge_c:
        Net mobile channel charge ``q (n - p)`` integrated along the
        channel, in coulombs (positive when electrons dominate; the
        sign convention only matters through derivatives).
    electron_linear_density_per_nm, hole_linear_density_per_nm:
        Carrier densities at the top of the barrier.
    iterations:
        Bisection iterations used by the electrostatic solve.
    """

    bias: BiasPoint
    midgap_ev: float
    current_a: float
    charge_c: float
    electron_linear_density_per_nm: float
    hole_linear_density_per_nm: float
    iterations: int


#: Landauer quadrature of the current (:meth:`SBFETModel._current_energy_grid`):
#: fine and coarse steps, and the half-width of the fine window around each
#: subband edge in units of kT.  Chosen by the error study against a
#: 0.05 meV uniform grid in ``benchmarks/bench_solver_accel.py`` (the
#: ``current_grid`` leg of ``BENCH_solvers.json``).
CURRENT_GRID_FINE_STEP_EV = 5e-4
CURRENT_GRID_COARSE_STEP_EV = 3e-3
CURRENT_GRID_HALFWIDTH_KT = 2.0

#: Decimals of the canonical twin ``np.round(V_D - V_G, BIAS_DECIMALS)``
#: of a mirrored bias point: the rounding of the default table grids
#: (:data:`repro.device.tables.DEFAULT_VG_GRID`), so a twin that lies on
#: such a grid is that grid point, bit for bit.
BIAS_DECIMALS = 10

#: Drain biases below this magnitude (volts) carry no current:
#: :meth:`SBFETModel.current_a` returns 0.0 without an integral, and no
#: such point is mirrored.
_ZERO_DRAIN_V = 1e-12


def record_bias_point(iterations: int) -> None:
    """Count one solved bias point (call under ``obs.ACTIVE``).

    The bisection is this engine's SCF: it emits the same counter family
    as the NEGF loop so rollups cover both engines.
    """
    obs.incr("device.bias_points")
    obs.incr("scf.solves")
    obs.incr("scf.converged")
    obs.incr("scf.iterations", iterations)
    obs.observe("scf.iterations_to_converge", iterations)


def _mode_grids(modes: tuple[TransverseMode, ...], n_k: int
                ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-mode ``hbar v`` in eV nm (it converts kappa to 1/nm), and the
    k-grid of each mode's charge integral, spanning energies up to ~1 eV
    above its subband edge."""
    hv_ev_nm = np.array(
        [HBAR_SI * m.velocity_m_per_s / Q_E * 1e9 for m in modes])
    k_grids = []
    for m, hv in zip(modes, hv_ev_nm):
        e_span = 1.0
        k_max = np.sqrt((m.edge_ev + e_span) ** 2 - m.edge_ev ** 2) / hv
        k_grids.append(np.linspace(0.0, k_max, n_k))
    return hv_ev_nm, k_grids


@lru_cache(maxsize=32)
def _density_lut(modes: tuple[TransverseMode, ...], n_k: int, kt_ev: float
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Equilibrium carrier densities vs midgap level: ``(u, n0, p0,
    q0)``.

    With a single chemical potential ``mu``, the densities depend
    only on ``u - mu`` (the Fermi factor sees ``E(k) + u - mu``), so
    one equilibrium table ``n0(u)`` / ``p0(u)`` at ``mu = 0`` serves
    every bias: the ballistic two-contact filling is the average of
    two shifted lookups.  This turns the inner loop of the
    electrostatic bisection into two ``np.interp`` calls on the
    net-charge table ``q0 = n0 - p0``.

    The table depends only on the retained modes, the k-grid size and
    ``kT``, so it is built once per process for each (every impurity
    variant of a ribbon shares it) and returned read-only.
    """
    hv_ev_nm, k_grids = _mode_grids(modes, n_k)
    u_grid = np.linspace(-3.0, 3.0, 2401)
    n0 = np.zeros_like(u_grid)
    p0 = np.zeros_like(u_grid)
    for mode, hv, ks in zip(modes, hv_ev_nm, k_grids):
        e_k = np.sqrt(mode.edge_ev ** 2 + (hv * ks) ** 2)  # (nk,)
        e_cond = u_grid[:, None] + e_k[None, :]
        e_val = u_grid[:, None] - e_k[None, :]
        f_cond = fermi_dirac(e_cond, 0.0, kt_ev)
        f_val = fermi_dirac(e_val, 0.0, kt_ev)
        # n = (2/pi) int dk f(E(k)); spin x2, +-k folded in.
        n0 += (2.0 / np.pi) * np.trapezoid(f_cond, ks, axis=1)
        p0 += (2.0 / np.pi) * np.trapezoid(1.0 - f_val, ks, axis=1)
    lut = (u_grid, n0, p0, n0 - p0)
    for array in lut:
        array.flags.writeable = False
    return lut


class SBFETModel:
    """Fast ballistic SBFET solver for one :class:`GNRFETGeometry`.

    Parameters
    ----------
    geometry:
        Device specification (includes any charge impurity).
    n_modes:
        Number of transverse subbands retained.  ``None`` (default)
        retains every subband whose edge lies below ``mode_cutoff_ev``
        (at least two), so wide ribbons automatically gain the extra
        low-lying subbands responsible for their larger channel
        capacitance (paper anchor A5).
    n_x:
        Transport-grid resolution for the WKB integrals.
    n_k:
        k-grid resolution for the charge integrals.
    mode_cutoff_ev:
        Subband-edge cutoff used when ``n_modes`` is ``None``.
    engine:
        Transport engine computing ``transmission`` (see
        :mod:`repro.device.engines`): ``semianalytic`` (default; the
        WKB kernel below), ``modespace`` (coupled mode-space NEGF on
        the retained subbands) or ``realspace`` (full atomistic NEGF).
        The electrostatics (bisection, density LUT) are shared by all
        engines.

    Attributes
    ----------
    mirror_symmetric:
        Whether the model holds ``I(V_G, V_D) = I(V_D - V_G, V_D)`` to
        round-off, checked from its own inputs: the semianalytic engine,
        no impurity profile, and ``gate_coupling + 2 drain_coupling = 1``
        (the Laplace midgap then mirrors about ``-V_D / 2``, and with
        midgap-pinned contacts so do the band profile, the charge and the
        Landauer grid).  Such a model takes the current of a p-branch
        point from its canonical n-branch twin (:meth:`mirror_gate_v`),
        so :meth:`solve_bias`, :meth:`current_at` and
        :func:`repro.device.iv.sweep_iv` integrate each mirror pair once.
        :meth:`current_a` stays the raw integral at the level it is given.
    """

    def __init__(self, geometry: GNRFETGeometry, n_modes: int | None = None,
                 n_x: int = 81, n_k: int = 161,
                 mode_cutoff_ev: float = 1.35,
                 engine: str = DEFAULT_ENGINE):
        self.geometry = geometry
        self.engine = resolve_engine(engine)
        if n_modes is None:
            candidates = transverse_modes(geometry.n_index, 6)
            n_modes = max(2, sum(1 for m in candidates
                                 if m.edge_ev < mode_cutoff_ev))
        self.modes: tuple[TransverseMode, ...] = transverse_modes(
            geometry.n_index, n_modes)
        if self.engine == "semianalytic":
            self._atomistic = None
        else:
            # realspace keeps the full orbital basis; modespace retains
            # the same subband count the WKB kernel would sum over.
            self._atomistic = AtomisticTransport(
                self.engine, geometry.n_index, geometry.channel_length_nm,
                n_modes=None if self.engine == "realspace" else n_modes)
        self.kt_ev = thermal_energy_ev(geometry.temperature_k)

        length = geometry.channel_length_nm
        self._x_nm = np.linspace(0.0, length, n_x)
        self._dx_nm = self._x_nm[1] - self._x_nm[0]
        # Trapezoid weights of the WKB x-integrals (dx, halved at the ends).
        self._trap_w = np.full(n_x, self._dx_nm)
        self._trap_w[[0, -1]] *= 0.5

        self._hv_ev_nm, self._k_grids = _mode_grids(self.modes, n_k)
        self._edges_ev = np.array([m.edge_ev for m in self.modes])
        # Band-mask bounds b with mask == [E - u >= b]: ``E - u > edge``
        # is ``>=`` the next float above the edge (hole channel, one row
        # per mode), and "not ``E - u < -edge``" is ``>= -edge``
        # (electron channel); see _mask_weights.
        self._mask_bounds = np.concatenate(
            (np.nextafter(self._edges_ev, np.inf), -self._edges_ev))[:, None]

        self._impurity_profile_ev = self._build_impurity_profile()
        self.mirror_symmetric = bool(
            self.engine == "semianalytic"
            and not self._impurity_profile_ev.any()
            and abs(geometry.gate_coupling + 2.0 * geometry.drain_coupling
                    - 1.0) <= 4.0 * np.finfo(float).eps)
        self._lut_u, self._lut_n0, self._lut_p0, self._lut_q0 = _density_lut(
            self.modes, n_k, self.kt_ev)

    # ------------------------------------------------------------------ #
    # Electrostatics
    # ------------------------------------------------------------------ #
    def _build_impurity_profile(self) -> np.ndarray:
        """Electron-energy shift along the channel from the oxide impurity."""
        imp = self.geometry.impurity
        if imp is None or imp.charge_e == 0.0:
            return np.zeros_like(self._x_nm)
        d = self.geometry.gate_separation_nm
        z_plane = d / 2.0
        z_imp = z_plane + GRAPHENE_THICKNESS_NM / 2.0 + imp.height_nm
        # Clamp inside the stack (a tall "height" would poke into the gate).
        z_imp = min(z_imp, d - 1e-3)
        lateral = np.abs(self._x_nm - imp.position_nm)
        u = screened_impurity_potential_ev(
            imp.charge_e, lateral, impurity_height_nm=z_imp,
            gate_separation_nm=d, eps_r=self.geometry.eps_ox,
            plane_height_nm=z_plane)
        return self.geometry.impurity_screening * u

    def laplace_midgap_ev(self, vg: float | np.ndarray,
                          vd: float | np.ndarray) -> float | np.ndarray:
        """Channel midgap in the zero-charge (Laplace) limit
        (elementwise for arrays)."""
        g = self.geometry
        return -g.gate_coupling * vg - g.drain_coupling * vd

    def band_profile_midgap_ev(self, u_ch_ev: float | np.ndarray,
                               vd: float | np.ndarray) -> np.ndarray:
        """Midgap energy along the channel for a given channel level.

        Contact-induced band bending is exponential with the natural
        length; the source interface midgap is pinned at the source Fermi
        level (0) and the drain interface at ``-V_D`` (midgap pinning with
        barriers E_g/2 for both carriers).  Array levels and drain biases
        broadcast, and the channel axis is appended last.
        """
        lam = self.geometry.natural_length_nm
        x = self._x_nm
        length = self.geometry.channel_length_nm
        u = np.asarray(u_ch_ev, dtype=float)[..., None]
        drain = np.asarray(vd, dtype=float)[..., None]
        profile = (u
                   + (0.0 - u) * np.exp(-x / lam)
                   + (-drain - u) * np.exp(-(length - x) / lam))
        return profile + self._impurity_profile_ev

    def _densities_at_level(self, u_ev: np.ndarray, mu_s_ev: float,
                            mu_d_ev: float | np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Electron/hole linear densities (1/nm) for midgap level(s) ``u``.

        Ballistic filling: half the states populated from each contact
        (+k from source, -k from drain), i.e. the average Fermi factor,
        served from the equilibrium lookup table.
        """
        u = np.atleast_1d(np.asarray(u_ev, dtype=float))
        n = 0.5 * (np.interp(u - mu_s_ev, self._lut_u, self._lut_n0)
                   + np.interp(u - mu_d_ev, self._lut_u, self._lut_n0))
        p = 0.5 * (np.interp(u - mu_s_ev, self._lut_u, self._lut_p0)
                   + np.interp(u - mu_d_ev, self._lut_u, self._lut_p0))
        return n, p

    def solve_midgaps(self, vg: np.ndarray | float, vd: np.ndarray | float,
                      tol_ev: float = 1e-6, max_iter: int = 80
                      ) -> tuple[np.ndarray, np.ndarray,
                                 dict[int, ConvergenceError]]:
        """Self-consistent channel midgaps of many bias points by bisection.

        ``vg`` and ``vd`` broadcast to the shape of the bias points.
        Returns ``(midgap_ev, iterations, failures)`` of that shape:
        failed cells hold NaN and 0 iterations, and ``failures`` maps
        each one's flat (row-major) index to its
        :class:`~repro.errors.ConvergenceError`, which is returned, not
        raised.

        The residual ``r(U) = U - U_L - q (n(U) - p(U)) / C_ins`` is
        strictly increasing in ``U`` (raising the bands empties electrons
        and adds holes), so the root is unique and bisection cannot fail
        once bracketed.  The bracket starts 3 eV wide around the Laplace
        midgap and widens by 1 eV per side until it holds the root; a
        cell still open at the sixth widening fails.  Every cell runs
        the scalar recurrence with the same floating-point operations
        and stops at its own ``hi - lo < tol_ev``, so a cell's midgap and
        iteration count do not depend on the other cells solved with it.
        """
        vg_b, vd_b = np.broadcast_arrays(np.asarray(vg, dtype=float),
                                         np.asarray(vd, dtype=float))
        shape = vg_b.shape
        vg_f, vd_f = vg_b.ravel(), vd_b.ravel()
        u_laplace = np.asarray(self.laplace_midgap_ev(vg_f, vd_f))
        c_ins = self.geometry.insulator_capacitance_f_per_nm
        lut_u, lut_q0 = self._lut_u, self._lut_q0

        def residual(u: np.ndarray, drain: np.ndarray,
                     laplace: np.ndarray) -> np.ndarray:
            # n - p with the ballistic filling of _densities_at_level
            # (source at 0, drain at -V_D).
            q = 0.5 * (np.interp(u, lut_u, lut_q0)
                       + np.interp(u + drain, lut_u, lut_q0))
            charging = Q_E * q / c_ins  # volts == eV here
            return u - laplace - charging

        lo, hi = u_laplace - 1.5, u_laplace + 1.5
        cells = np.arange(vg_f.size)    # cells whose bracket may be open
        for widenings in range(6):
            drain, laplace = vd_f[cells], u_laplace[cells]
            cells = cells[(residual(lo[cells], drain, laplace) > 0.0)
                          | (residual(hi[cells], drain, laplace) < 0.0)]
            if not cells.size or widenings == 5:
                break
            lo[cells] -= 1.0
            hi[cells] += 1.0
        failures = {c: ConvergenceError(
            f"cannot bracket electrostatic solution at "
            f"VG={float(vg_f[c])}, VD={float(vd_f[c])}",
            context={"solver": "sbfet_bisection", "stage": "bracket",
                     "vg": float(vg_f[c]), "vd": float(vd_f[c]),
                     "n_index": self.geometry.n_index})
            for c in cells.tolist()}

        midgap = np.full(vg_f.size, np.nan)
        iterations = np.zeros(vg_f.size, dtype=np.int64)
        bracketed = np.ones(vg_f.size, dtype=bool)
        bracketed[cells] = False
        cells = np.flatnonzero(bracketed)
        lo, hi = lo[cells], hi[cells]
        drain, laplace = vd_f[cells], u_laplace[cells]
        for iteration in range(1, max_iter + 1):
            if not cells.size:
                break
            mid = 0.5 * (lo + hi)
            above = residual(mid, drain, laplace) > 0.0
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
            done = hi - lo < tol_ev
            if done.any():
                midgap[cells[done]] = 0.5 * (lo[done] + hi[done])
                iterations[cells[done]] = iteration
                keep = ~done
                cells, lo, hi = cells[keep], lo[keep], hi[keep]
                drain, laplace = drain[keep], laplace[keep]
        for c, width in zip(cells.tolist(), (hi - lo).tolist()):
            failures[c] = ConvergenceError(
                f"electrostatic bisection stalled at "
                f"VG={float(vg_f[c])}, VD={float(vd_f[c])}",
                iterations=max_iter, residual=width,
                context={"solver": "sbfet_bisection", "stage": "bisect",
                         "vg": float(vg_f[c]), "vd": float(vd_f[c]),
                         "tol_ev": float(tol_ev), "max_iter": int(max_iter),
                         "n_index": self.geometry.n_index})
        return (midgap.reshape(shape), iterations.reshape(shape),
                dict(sorted(failures.items())))

    def solve_midgap_ev(self, vg: float, vd: float,
                        tol_ev: float = 1e-6,
                        max_iter: int = 80) -> tuple[float, int]:
        """Self-consistent channel midgap of one bias point: a one-cell
        :meth:`solve_midgaps` that raises the cell's
        :class:`~repro.errors.ConvergenceError` if it fails."""
        midgap, iterations, failures = self.solve_midgaps(
            vg, vd, tol_ev, max_iter)
        if failures:
            raise failures[0]
        return float(midgap), int(iterations)

    def mirror_gate_v(self, vg: float | np.ndarray,
                      vd: float | np.ndarray) -> np.ndarray:
        """Gate bias of the point whose Landauer integral is the current
        at ``(vg, vd)``, elementwise over the broadcast arrays.

        On a :attr:`mirror_symmetric` model a p-branch point
        (``vg < vd / 2``, ``vd`` nonzero) maps to its canonical twin
        ``np.round(vd - vg, BIAS_DECIMALS)`` at the same drain bias; every
        other point maps to its own gate bias.  The map depends on the
        point alone, so a current taken through it stays a pure function
        of the point.
        """
        vg = np.asarray(vg, dtype=float)
        vd = np.asarray(vd, dtype=float)
        p_branch = ((vg < 0.5 * vd) & (np.abs(vd) >= _ZERO_DRAIN_V)
                    & self.mirror_symmetric)
        return np.where(p_branch, np.round(vd - vg, BIAS_DECIMALS), vg)

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def transmission(self, energies_ev: np.ndarray,
                     profile_midgap_ev: np.ndarray) -> np.ndarray:
        """WKB transmission summed over modes, shape ``(n_energy,)``.

        Each mode carries two independent WKB channels:

        * the **electron channel** propagates where ``E > E_C(x)``, decays
          with the two-band ``kappa`` inside the local gap, and decays at
          the maximal midgap rate ``E_n / (hbar v)`` where the energy dips
          below the local valence edge (a conduction state has no
          propagating continuation there; treating that region as
          transmitting would amount to unphysical interband transparency
          through tall barrier bumps, which the paper's atomistic NEGF
          does not show);
        * the **hole channel** is the mirror image.

        A mode transmits through whichever channel survives better
        (interband mixing is neglected), and modes add as independent
        Landauer channels.

        Evaluation takes a few array passes per (E, x) element.  Since
        the gap ``kappa`` vanishes wherever ``|E - u| >= edge``, the
        per-channel decay rates fold into
        ``kappa_e = kappa_gap + kappa_max [E - u < -edge]`` and
        ``kappa_h = kappa_gap + kappa_max [E - u > edge]``.  The square
        ``(E - u(x))**2`` is formed once and shared by every mode; each
        mode then writes ``sqrt(max(edge**2 - d2, 0))`` into one reused
        buffer and reduces it with a single matvec against the
        trapezoid weights (divided by ``hbar v`` after the reduction).
        The two mask integrals are weighted CDFs of the profile, read
        off the sorted ``u(x)`` by ``searchsorted`` (see
        :meth:`_mask_weights`), so they cost ``O(n_energy log n_x)``
        per mode instead of a pass over every (E, x) element.

        When a NEGF engine is selected (``engine=``),
        the WKB evaluation below is replaced by the corresponding
        atomistic kernel on the same profile; everything upstream
        (electrostatics, energy grids, current integral) is shared.
        """
        if self._atomistic is not None:
            if obs.ACTIVE:
                obs.incr(f"device.engine.{self.engine}")
            total = self._atomistic.transmission(
                energies_ev, profile_midgap_ev, self._x_nm)
            if sanitize.ACTIVE:
                sanitize.check_transmission(
                    total, 2 * self.geometry.n_index,
                    "SBFETModel.transmission",
                    energies_ev=np.asarray(energies_ev, dtype=float))
            return total
        e = np.asarray(energies_ev, dtype=float)
        u = np.asarray(profile_midgap_ev, dtype=float)
        # Interior midgap level and impurity-induced well depths for the
        # quantum-reflection correction (WKB alone is transparent to
        # attractive wells, which would overstate the benefit of
        # favourable impurities; see _well_factor).
        u_interior = float(np.median(u))
        imp = self._impurity_profile_ev
        well_e = max(0.0, -float(imp.min()))   # electron well (positive charge)
        well_h = max(0.0, float(imp.max()))    # hole well (negative charge)

        d2 = np.subtract.outer(e, u)
        np.square(d2, out=d2)
        buf = np.empty_like(d2)
        w_above, w_below = self._mask_weights(e, u)

        total = np.zeros(e.size)
        for m, (edge, hv) in enumerate(zip(self._edges_ev, self._hv_ev_nm)):
            np.subtract(edge ** 2, d2, out=buf)
            np.maximum(buf, 0.0, out=buf)
            np.sqrt(buf, out=buf)
            gap = (buf @ self._trap_w) / hv
            kappa_max = edge / hv
            exp_e = 2.0 * (gap + kappa_max * w_below[m])
            exp_h = 2.0 * (gap + kappa_max * w_above[m])
            t_e = np.exp(-np.clip(exp_e, 0.0, 200.0))
            t_h = np.exp(-np.clip(exp_h, 0.0, 200.0))
            if well_e > 0.0:
                t_e = t_e * self._well_factor(
                    e - u_interior, edge, hv, well_e)
            if well_h > 0.0:
                t_h = t_h * self._well_factor(
                    -(e - u_interior), edge, hv, well_h)
            total += np.maximum(t_e, t_h)
        if sanitize.ACTIVE:
            sanitize.check_transmission(total, len(self.modes),
                                        "SBFETModel.transmission",
                                        energies_ev=e)
        return total

    def _mask_weights(self, e: np.ndarray, u: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        """x-integrals of the band masks, each of shape ``(n_modes, n_E)``.

        Returns ``(sum_x w [E - u > edge], sum_x w [E - u < -edge])``
        with ``w`` the trapezoid weights, computed with the same
        floating-point comparisons as an elementwise mask.  ``E - u``
        rounds monotonically in ``u``, so each mask selects a run of the
        sorted profile and its integral is a cumulative sum of the
        sorted weights, indexed at the cut.  ``searchsorted`` on
        ``E - bound`` places the cut up to round-off; elements within an
        ulp of it are then settled by the exact comparison.
        """
        order = np.argsort(u, kind="stable")
        cdf = np.concatenate(([0.0], np.cumsum(self._trap_w[order])))
        bound = self._mask_bounds
        # Cut k = number of sorted u with E - u >= bound.  Infinite
        # sentinels make the checks at k = 0 and k = n_x pass trivially.
        padded = np.concatenate(([-np.inf], u[order], [np.inf]))
        k = np.searchsorted(padded[1:-1], e - bound, side="right")
        while True:
            grow = e - padded[k + 1] >= bound
            shrink = e - padded[k] < bound
            if not (grow.any() or shrink.any()):
                break
            k += grow
            k -= shrink
        n_modes = self._edges_ev.size
        return cdf[k[:n_modes]], cdf[-1] - cdf[k[n_modes:]]

    @staticmethod
    def _well_factor(delta_ev: np.ndarray, edge_ev: float, hv_ev_nm: float,
                     well_depth_ev: float) -> np.ndarray:
        """Quantum-reflection factor of an impurity-induced potential well.

        WKB transmits attractive wells perfectly, but a nanometre-scale
        well (comparable to the carrier wavelength) reflects through
        wave-vector mismatch at its walls.  The well is treated as two
        abrupt steps composed incoherently: per step
        ``t = 4 k1 k2 / (k1 + k2)^2`` with the two-band wave vectors in
        the channel interior (``k1``) and at the well bottom (``k2``);
        total ``T = t / (2 - t)``.  Applied only to energies that
        propagate in the channel interior (tunneling energies are already
        handled by the decay exponent).
        """
        d1 = np.asarray(delta_ev, dtype=float)
        k1 = np.sqrt(np.clip(d1 ** 2 - edge_ev ** 2, 0.0, None)) / hv_ev_nm
        propagating = d1 > edge_ev
        d2 = d1 + well_depth_ev
        k2 = np.sqrt(np.clip(d2 ** 2 - edge_ev ** 2, 0.0, None)) / hv_ev_nm
        with np.errstate(divide="ignore", invalid="ignore"):
            t_step = np.where((k1 > 0) & (k2 > 0),
                              4.0 * k1 * k2 / (k1 + k2) ** 2, 1.0)
        t_well = t_step / (2.0 - t_step)
        return np.where(propagating, t_well, 1.0)

    def _current_energy_grid(self, u_ch_ev: float, vd: float) -> np.ndarray:
        """Landauer quadrature of :meth:`current_a`.

        The window reaches 12 kT beyond both contact Fermi levels.  The
        WKB transmission's sharp features sit where ``E -+ E_n`` crosses
        an extreme level of the band profile: the channel interior
        ``u_ch`` and, with an impurity, the profile's turning points and
        its global maximum and minimum.  The grid is fine within
        ``CURRENT_GRID_HALFWIDTH_KT`` kT of each such subband edge and
        coarse elsewhere (the Fermi factors are smooth on the coarse
        step).  An impurity's well factor also switches on with a jump
        at ``u_interior +- E_n`` (see :meth:`transmission`), which the
        grid straddles.  Without an impurity the edges of a mirrored
        bias point mirror about ``-V_D / 2``, and so does the grid.
        """
        window = 12.0 * self.kt_ev
        e_min = min(-vd, 0.0) - window
        e_max = max(-vd, 0.0) + window
        edges = self._edges_ev.tolist()
        levels = [u_ch_ev]
        jumps: list[float] = []
        imp = self._impurity_profile_ev
        if imp.any():
            profile = self.band_profile_midgap_ev(u_ch_ev, vd)
            slope = np.diff(profile)
            turns = np.flatnonzero(slope[1:] * slope[:-1] < 0.0) + 1
            levels += profile[turns].tolist()
            levels += [float(profile.max()), float(profile.min())]
            u_interior = float(np.median(profile))
            if imp.min() < 0.0:     # electron well
                jumps += [u_interior + edge for edge in edges]
            if imp.max() > 0.0:     # hole well
                jumps += [u_interior - edge for edge in edges]
        breakpoints = [level + sign * edge for level in levels
                       for edge in edges for sign in (1.0, -1.0)]
        return breakpoint_energy_grid(
            e_min, e_max, breakpoints, CURRENT_GRID_FINE_STEP_EV,
            CURRENT_GRID_COARSE_STEP_EV,
            CURRENT_GRID_HALFWIDTH_KT * self.kt_ev, jumps)

    def current_a(self, u_ch_ev: float, vd: float) -> float:
        """Landauer current at a converged channel level (the raw
        integral; no mirroring)."""
        if abs(vd) < _ZERO_DRAIN_V:
            return 0.0
        profile = self.band_profile_midgap_ev(u_ch_ev, vd)
        energies = self._current_energy_grid(u_ch_ev, vd)
        t = self.transmission(energies, profile)
        f_s = fermi_dirac(energies, 0.0, self.kt_ev)
        f_d = fermi_dirac(energies, -vd, self.kt_ev)
        return LANDAUER_PREFACTOR_A_PER_EV * float(
            np.trapezoid(t * (f_s - f_d), energies))

    def channel_charges_c(self, u_ch_ev: np.ndarray,
                          vd: np.ndarray) -> np.ndarray:
        """Net mobile charge ``q (n - p)`` integrated along the channel,
        one per bias point of the broadcast ``u_ch_ev`` and ``vd``."""
        profile = self.band_profile_midgap_ev(u_ch_ev, vd)
        mu_d = -np.asarray(vd, dtype=float)[..., None]
        n_x, p_x = self._densities_at_level(profile, 0.0, mu_d)
        return np.asarray(Q_E * np.trapezoid(n_x - p_x, self._x_nm, axis=-1))

    def channel_charge_c(self, u_ch_ev: float, vd: float) -> float:
        """Net mobile charge ``q (n - p)`` integrated along the channel."""
        return float(self.channel_charges_c(np.asarray(u_ch_ev),
                                            np.asarray(vd)))

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #
    def solve_bias(self, vg: float, vd: float) -> SBFETSolution:
        """Solve one bias point self-consistently and return all outputs.

        The result depends on ``(vg, vd)`` and the model alone, never on
        which bias points were solved before it.  The midgap, charge and
        densities are the point's own; on a :attr:`mirror_symmetric`
        model the current of a p-branch point is the integral at its
        canonical twin (:meth:`mirror_gate_v`), whose failed bisection
        fails the point.
        """
        u_ch, iterations = self.solve_midgap_ev(vg, vd)
        vg_integral = float(self.mirror_gate_v(vg, vd))
        u_integral = (u_ch if vg_integral == vg
                      else self.solve_midgap_ev(vg_integral, vd)[0])
        if obs.ACTIVE:
            record_bias_point(iterations)
        n, p = self._densities_at_level(np.array([u_ch]), 0.0, -vd)
        current = self.current_a(u_integral, vd)
        charge = self.channel_charge_c(u_ch, vd)
        if sanitize.ACTIVE:
            op = "SBFETModel.solve_bias"
            bias = sanitize.format_bias(vg=vg, vd=vd)
            sanitize.check_finite(np.array([u_ch, current, charge,
                                            n[0], p[0]]),
                                  op, "bias-point solution", bias=bias)
        return SBFETSolution(
            bias=BiasPoint(vg=vg, vd=vd),
            midgap_ev=u_ch,
            current_a=current,
            charge_c=charge,
            electron_linear_density_per_nm=float(n[0]),
            hole_linear_density_per_nm=float(p[0]),
            iterations=iterations,
        )

    def current_at(self, vg: float, vd: float) -> float:
        """Convenience: self-consistent drain current at one bias point,
        the :meth:`solve_bias` current (only the point that is integrated
        is bisected)."""
        vg_integral = float(self.mirror_gate_v(vg, vd))
        u_ch, _ = self.solve_midgap_ev(vg_integral, vd)
        return self.current_a(u_ch, vd)
