"""Reference self-consistent NEGF + Poisson GNRFET simulator.

This is the rigorous engine corresponding to Section 2 of the paper: the
mode-space NEGF transport equation solved self-consistently with the
Poisson equation on the double-gate device cross-section.

Physics and numerics
--------------------
* **Transport** — one effective-mass tight-binding chain per transverse
  subband and carrier type (electron/hole), with subband edges and masses
  taken from the exact p_z bands.  The chain NEGF is solved with a
  vectorized scalar recursive Green's function (all energies
  simultaneously), giving transmission and contact-resolved spectral
  densities along the channel.
* **Contacts** — metallic leads (half-filled chains of matching hopping)
  whose Fermi levels pin the midgap at the contact interfaces: Schottky
  barriers ``Phi_Bn = Phi_Bp = E_g/2`` for the lowest subband, exactly the
  paper's contact model.
* **Electrostatics** — 2-D finite-difference Poisson on the (transport x
  gate-stack) cross-section: gate / oxide / GNR sheet / oxide / gate, with
  Dirichlet gates and contact columns.  Mobile charge enters as a sheet
  charge on the channel row.  The oxide point-charge impurity is added as
  the analytic gate-image-screened Coulomb potential (a point charge
  cannot be represented on a translationally invariant 2-D cross-section
  without becoming a line charge; see DESIGN.md, substitution table).
* **Self-consistency** — Anderson-accelerated fixed point on the channel
  potential-energy profile ``U(x)``.

The engine is deliberately the *reference* (slow, explicit) path: the
production lookup tables come from :mod:`repro.device.sbfet`, which is
cross-validated against this module in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs, sanitize
from repro.constants import (
    HBAR_SI,
    LANDAUER_PREFACTOR_A_PER_EV,
    Q_E,
    fermi_dirac,
    thermal_energy_ev,
)
from repro.atomistic.modespace import transverse_modes
from repro.device.geometry import GNRFETGeometry, GRAPHENE_THICKNESS_NM
from repro.negf.energy_grid import adaptive_energy_grid
from repro.negf.mixing import AndersonMixer
from repro.negf.scf import (
    SCFOptions,
    SCFResult,
    scf_escalation,
    self_consistent_loop,
)
from repro.negf.self_energy import lead_self_energy_1d
from repro.poisson.fd import PoissonOperator
from repro.poisson.grid import Grid2D
from repro.poisson.pointcharge import screened_impurity_potential_ev


@dataclass
class _ChainRGFOutput:
    """Vectorized scalar-chain RGF output for one (mode, carrier) chain."""

    transmission: np.ndarray          # (n_energy,)
    spectral_source: np.ndarray       # (n_energy, n_x)
    spectral_drain: np.ndarray        # (n_energy, n_x)


def _scalar_chain_rgf(
    energies_ev: np.ndarray,
    onsite_ev: np.ndarray,
    hopping_ev: float,
    sigma_left: np.ndarray,
    sigma_right: np.ndarray,
    eta_ev: float = 1e-8,
) -> _ChainRGFOutput:
    """Recursive Green's function of a scalar chain, vectorized in energy.

    Implements the same recurrences as
    :func:`repro.negf.greens.recursive_greens_function` specialized to
    1x1 blocks, with every energy point carried simultaneously as a numpy
    vector (two orders of magnitude faster than looping the generic
    matrix kernel over energies).  Validated against the matrix kernel in
    the test suite.

    The recurrences run site-major: each stored array is ``(n_x, n_e)``,
    so every step reads and writes contiguous rows, through ``out=``
    ufuncs into two scratch rows.  Only ``G_11`` of the diagonal is read,
    so the diagonal recurrence keeps one running row, and the first and
    last block columns overwrite the right- and left-connected functions
    they are built from.  Each element sees the same float operations in
    the same order as in the energy-major formulation, so the results are
    bitwise the same; the spectral arrays are returned C-ordered as
    ``(n_e, n_x)``, so energy integrals over them sum in that order too.
    """
    energies = np.asarray(energies_ev, dtype=float)
    eps = np.asarray(onsite_ev, dtype=float)
    n_x = eps.size
    n_e = energies.size
    z = energies + 1j * eta_ev
    h01 = -hopping_ev  # off-diagonal Hamiltonian element
    h2 = h01 * h01

    a = z[None, :] - eps[:, None]
    a[0] -= sigma_left
    a[-1] -= sigma_right
    # Two scratch rows: a complex product written over one of its own
    # operands rounds differently for a single energy, so products
    # never alias their output.
    s1 = np.empty(n_e, dtype=complex)
    s2 = np.empty(n_e, dtype=complex)

    # Left-connected g_i; becomes the last column G_iN below.
    g_left = np.empty((n_x, n_e), dtype=complex)
    np.divide(1.0, a[0], out=g_left[0])
    for i in range(1, n_x):
        np.multiply(h2, g_left[i - 1], out=s1)
        np.subtract(a[i], s1, out=s1)
        np.divide(1.0, s1, out=g_left[i])

    # Right-connected g_i; becomes the first column G_i1 below.
    g_right = np.empty((n_x, n_e), dtype=complex)
    np.divide(1.0, a[-1], out=g_right[-1])
    for i in range(n_x - 2, -1, -1):
        np.multiply(h2, g_right[i + 1], out=s1)
        np.subtract(a[i], s1, out=s1)
        np.divide(1.0, s1, out=g_right[i])

    # Backward: diagonal G_ii (one running row, ending at G_11) and the
    # last column G_iN = g_i h01 G_{i+1,N}, in place of g_i.
    diag = g_left[-1].copy()
    for i in range(n_x - 2, -1, -1):
        g_i = g_left[i]
        np.multiply(h2, diag, out=s1)
        np.multiply(s1, g_i, out=s2)
        np.add(1.0, s2, out=s2)
        np.multiply(g_i, s2, out=diag)
        np.multiply(g_i, h01, out=s1)
        np.multiply(s1, g_left[i + 1], out=g_i)
    last_col = g_left

    # Forward: first column G_i1 = g_i h01 G_{i-1,1}, in place of g_i.
    first_col = g_right
    first_col[0] = diag
    for i in range(1, n_x):
        np.multiply(first_col[i], h01, out=s1)
        np.multiply(s1, first_col[i - 1], out=first_col[i])

    gamma_left = -2.0 * np.imag(sigma_left)
    gamma_right = -2.0 * np.imag(sigma_right)

    abs_first = np.abs(first_col)
    np.square(abs_first, out=abs_first)
    abs_last = np.abs(last_col)
    np.square(abs_last, out=abs_last)
    transmission = gamma_left * gamma_right * abs_last[0]
    spectral_source = np.multiply(abs_first.T, gamma_left[:, None],
                                  out=np.empty((n_e, n_x)))
    spectral_drain = np.multiply(abs_last.T, gamma_right[:, None],
                                 out=np.empty((n_e, n_x)))
    if sanitize.ACTIVE:
        op = "_scalar_chain_rgf"
        sanitize.check_transmission(transmission, 1.0, op,
                                    energies_ev=energies)
        sanitize.check_finite(spectral_source, op, "A_source",
                              energies_ev=energies)
        sanitize.check_finite(spectral_drain, op, "A_drain",
                              energies_ev=energies)
    if obs.ACTIVE:
        obs.incr("negf.chain_rgf_solves")
        obs.incr("negf.chain_energy_points", n_e)
    return _ChainRGFOutput(transmission=transmission,
                           spectral_source=spectral_source,
                           spectral_drain=spectral_drain)


@dataclass(frozen=True)
class NEGFDeviceResult:
    """Converged solution of one bias point.

    Attributes
    ----------
    vg, vd:
        Bias point (V).
    current_a:
        Total (electron + hole branch) drain current.
    x_nm:
        Transport grid.
    midgap_ev:
        Self-consistent midgap profile ``U(x)``.
    conduction_band_ev, valence_band_ev:
        Lowest-subband band edges ``U(x) +- E_1`` (paper Fig. 5a plots
        the conduction band profile).
    electron_density_per_nm, hole_density_per_nm:
        Carrier line densities along the channel.
    scf:
        Self-consistency diagnostics.
    """

    vg: float
    vd: float
    current_a: float
    x_nm: np.ndarray
    midgap_ev: np.ndarray
    conduction_band_ev: np.ndarray
    valence_band_ev: np.ndarray
    electron_density_per_nm: np.ndarray
    hole_density_per_nm: np.ndarray
    scf: SCFResult | None = field(repr=False, default=None)


class NEGFDevice:
    """Self-consistent mode-space NEGF + 2-D Poisson device simulator."""

    def __init__(self, geometry: GNRFETGeometry, n_modes: int = 2,
                 n_x: int = 61, n_y: int = 15,
                 coarse_step_ev: float = 5e-3, fine_step_ev: float = 1e-3):
        # The contact columns and gate rails are Dirichlet nodes: with
        # fewer than three nodes along x there is no interior channel
        # site, and along y the channel row would be a gate rail, so
        # Poisson would never see the mobile charge.
        if n_x < 3 or n_y < 3:
            raise ValueError(
                f"NEGFDevice needs n_x >= 3 and n_y >= 3, got n_x={n_x}, "
                f"n_y={n_y}")
        self.geometry = geometry
        self.modes = transverse_modes(geometry.n_index, n_modes)
        self.kt_ev = thermal_energy_ev(geometry.temperature_k)
        self._coarse_step_ev = coarse_step_ev
        self._fine_step_ev = fine_step_ev

        length = geometry.channel_length_nm
        self.x_nm = np.linspace(0.0, length, n_x)
        self._dx = self.x_nm[1] - self.x_nm[0]

        # Effective-mass chain hoppings, one per mode: t = hbar^2/(2 m a^2).
        a_m = self._dx * 1e-9
        self._t_chain_ev = np.array(
            [HBAR_SI ** 2 / (2.0 * m.mass_kg * a_m * a_m) / Q_E
             for m in self.modes])

        # Electrostatic cross-section grid: y spans gate-to-gate.
        self._grid = Grid2D(lx_nm=length,
                            ly_nm=geometry.gate_separation_nm,
                            nx=n_x, ny=n_y)
        self._channel_row = n_y // 2
        self._eps = np.full(self._grid.shape, geometry.eps_ox)
        self._impurity_profile = self._impurity_potential_ev()

        # Boundary conditions: the *placement* of Dirichlet nodes (both
        # gate rails, source and drain columns) is bias-independent, and
        # only the gate/drain values change per bias — so the mask, the
        # values template, and the prefactorized Poisson operator are all
        # built once here.  Every SCF iteration of every bias point then
        # reuses the same LU factorization through the RHS.  Assignment
        # order matters for the corner nodes: contact columns are pinned
        # after the gate rails so corners take the contact potential.
        mask = np.zeros(self._grid.shape, dtype=bool)
        mask[:, 0] = True
        mask[:, -1] = True
        mask[0, :] = True
        mask[-1, :] = True
        self._bc_mask = mask
        self._bc_values = np.zeros(self._grid.shape)
        self._poisson_op = PoissonOperator.for_grid(self._grid, self._eps,
                                                    mask)

    # ------------------------------------------------------------------ #
    # Electrostatics
    # ------------------------------------------------------------------ #
    def _impurity_potential_ev(self) -> np.ndarray:
        imp = self.geometry.impurity
        if imp is None or imp.charge_e == 0.0:
            return np.zeros_like(self.x_nm)
        d = self.geometry.gate_separation_nm
        z_plane = d / 2.0
        z_imp = min(z_plane + GRAPHENE_THICKNESS_NM / 2.0 + imp.height_nm,
                    d - 1e-3)
        u = screened_impurity_potential_ev(
            imp.charge_e, np.abs(self.x_nm - imp.position_nm),
            impurity_height_nm=z_imp, gate_separation_nm=d,
            eps_r=self.geometry.eps_ox, plane_height_nm=z_plane)
        return self.geometry.impurity_screening * u

    def _solve_poisson_midgap(self, net_density_per_nm: np.ndarray,
                              vg: float, vd: float) -> np.ndarray:
        """Poisson solve -> midgap energy profile on the channel row.

        ``net_density_per_nm`` is ``n - p`` (electrons positive) per unit
        channel length.  Potential boundary conditions: both gates at
        ``phi = vg`` (work function folded into the reference so that
        ``V_G = 0`` leaves the channel at flat-band/midgap), source column
        at ``phi = 0`` and drain column at ``phi = vd``; the electron
        midgap energy is ``U = -phi``.
        """
        g = self._grid
        rho = np.zeros(g.shape)
        w_eff = self.geometry.width_nm + self.geometry.oxide_thickness_nm
        sheet = -Q_E * np.asarray(net_density_per_nm) / w_eff  # C/nm^2
        rho[:, self._channel_row] = sheet / g.dy_nm

        values = self._bc_values
        values[:, 0] = vg
        values[:, -1] = vg
        values[0, :] = 0.0
        values[-1, :] = vd

        phi = self._poisson_op.solve(rho, values)
        return -phi[:, self._channel_row] + self._impurity_profile

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _energy_grid(self, edge_profile: np.ndarray, mu_a: float,
                     mu_b: float) -> np.ndarray:
        window = 14.0 * self.kt_ev
        e_min = float(edge_profile.min()) - 0.05
        e_max = max(float(edge_profile.max()), mu_a, mu_b) + window
        if e_max <= e_min:
            e_max = e_min + 0.1
        features = [mu_a, mu_b, float(edge_profile.min()),
                    float(edge_profile.max()),
                    float(edge_profile[len(edge_profile) // 2])]
        features = [f for f in features if e_min <= f <= e_max]
        return adaptive_energy_grid(e_min, e_max, features,
                                    coarse_step_ev=self._coarse_step_ev,
                                    fine_step_ev=self._fine_step_ev)

    def _solve_chain(self, edge_profile: np.ndarray, t_chain: float,
                     mu_left: float, mu_right: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray, np.ndarray]:
        """NEGF solve of one carrier chain.

        Returns ``(energies, transmission, density_per_site, f_left,
        f_right)`` where the density is the carrier occupation per site
        filled from the two contacts at their chemical potentials, and
        ``f_left``/``f_right`` are the contacts' Fermi factors on the
        energy grid (the current integral reuses them).
        """
        energies = self._energy_grid(edge_profile, mu_left, mu_right)
        onsite = edge_profile + 2.0 * t_chain
        sigma_l = lead_self_energy_1d(energies, mu_left, t_chain)
        sigma_r = lead_self_energy_1d(energies, mu_right, t_chain)
        out = _scalar_chain_rgf(energies, onsite, t_chain, sigma_l, sigma_r)

        f_l = fermi_dirac(energies, mu_left, self.kt_ev)
        f_r = fermi_dirac(energies, mu_right, self.kt_ev)
        integrand = (out.spectral_source * f_l[:, None]
                     + out.spectral_drain * f_r[:, None])
        density = (2.0 / (2.0 * np.pi)) * np.trapezoid(
            integrand, energies, axis=0)
        return energies, out.transmission, density, f_l, f_r

    def _transport(self, midgap_ev: np.ndarray, vd: float
                   ) -> tuple[float, np.ndarray, np.ndarray]:
        """All-mode transport solve: returns (current, n(x), p(x))."""
        mu_s, mu_d = 0.0, -vd
        current = 0.0
        n_tot = np.zeros_like(self.x_nm)
        p_tot = np.zeros_like(self.x_nm)
        for mode, t_chain in zip(self.modes, self._t_chain_ev):
            # Electron chain: conduction edge U + E_n; metal Fermi levels
            # pin the contact midgap, i.e. barriers of height E_n.
            e_edge = midgap_ev + mode.edge_ev
            energies, trans, dens, f_s, f_d = self._solve_chain(
                e_edge, t_chain, mu_s, mu_d)
            current += LANDAUER_PREFACTOR_A_PER_EV * float(
                np.trapezoid(trans * (f_s - f_d), energies))
            n_tot += dens / self._dx

            # Hole chain in the hole-energy picture (eps = -E): band edge
            # -E_V = E_n - U, hole chemical potentials -mu.
            h_edge = mode.edge_ev - midgap_ev
            mu_s_h, mu_d_h = 0.0, vd
            energies_h, trans_h, dens_h, f_s_h, f_d_h = self._solve_chain(
                h_edge, t_chain, mu_s_h, mu_d_h)
            # I_v = (2e/h) int T_h(eps) [f(eps; vd) - f(eps; 0)] deps >= 0
            current += LANDAUER_PREFACTOR_A_PER_EV * float(
                np.trapezoid(trans_h * (f_d_h - f_s_h), energies_h))
            p_tot += dens_h / self._dx
        return current, n_tot, p_tot

    # ------------------------------------------------------------------ #
    # Self-consistent solve
    # ------------------------------------------------------------------ #
    def solve(self, vg: float, vd: float,
              tolerance_ev: float = 1e-3,
              max_iterations: int = 60) -> NEGFDeviceResult:
        """Self-consistently solve one bias point.

        The SCF loop starts from the Laplace (zero-charge) midgap
        profile.  A base solve that fails to converge escalates through
        the :func:`repro.negf.scf.scf_escalation` retry ladder (halved
        mixing beta, damped Picard with a larger iteration budget).
        Escalations count under ``scf.retries`` /
        ``resilience.retries``; if every rung fails the method keeps its
        historical never-raise contract and returns the last best-effort
        state (``result.scf.converged`` is ``False``).
        """
        # The SCF loop's last solve_charge call is always evaluated at the
        # potential it returns (on convergence it recomputes), so the
        # carriers/current recorded here describe the final state and no
        # extra transport solve is needed afterwards.
        state: dict[str, np.ndarray | float] = {}

        def solve_charge(u: np.ndarray) -> np.ndarray:
            current, n, p = self._transport(u, vd)
            state["current"], state["n"], state["p"] = current, n, p
            return n - p

        def solve_potential(net: np.ndarray) -> np.ndarray:
            return self._solve_poisson_midgap(net, vg, vd)

        u0 = self._solve_poisson_midgap(np.zeros_like(self.x_nm), vg, vd)
        options = SCFOptions(tolerance_ev=tolerance_ev,
                             max_iterations=max_iterations,
                             mixer=AndersonMixer(beta=0.15, history=6),
                             raise_on_failure=False)
        with obs.span("device.negf_solve", vg=vg, vd=vd):
            scf = self_consistent_loop(solve_charge, solve_potential, u0,
                                       options)
            if not scf.converged:
                for _name, opts in scf_escalation(options)[1:]:
                    if obs.ACTIVE:
                        obs.incr("resilience.retries")
                        obs.incr("scf.retries")
                    # The rungs inherit raise_on_failure=False: each one
                    # returns its best-effort state, and SCFResult
                    # guarantees charge/potential consistency, so the
                    # never-raise contract of this method survives an
                    # exhausted ladder.
                    scf = self_consistent_loop(solve_charge, solve_potential,
                                               u0, opts)
                    if scf.converged:
                        break
                else:
                    if obs.ACTIVE:
                        obs.incr("resilience.exhausted")
        if obs.ACTIVE:
            obs.incr("device.bias_points")

        u = scf.potential
        if sanitize.ACTIVE:
            op = "NEGFDevice.solve"
            bias = sanitize.format_bias(vg=vg, vd=vd)
            sanitize.check_finite(np.asarray(state["current"]), op,
                                  "drain current", bias=bias)
            sanitize.check_finite(state["n"], op,
                                  "electron density", bias=bias)
            sanitize.check_finite(state["p"], op,
                                  "hole density", bias=bias)
            sanitize.check_finite(u, op, "midgap profile", bias=bias)
        edge = self.modes[0].edge_ev
        return NEGFDeviceResult(
            vg=vg, vd=vd, current_a=float(state["current"]),
            x_nm=self.x_nm.copy(),
            midgap_ev=u, conduction_band_ev=u + edge,
            valence_band_ev=u - edge,
            electron_density_per_nm=state["n"], hole_density_per_nm=state["p"],
            scf=scf)

    def band_profile(self, vg: float, vd: float) -> tuple[np.ndarray, np.ndarray]:
        """Convenience: ``(x, E_C(x))`` of the converged solution."""
        result = self.solve(vg, vd)
        return result.x_nm, result.conduction_band_ev
