"""Frozen reference formulation of the NEGF experiments' transport.

These are ``_scalar_chain_rgf`` (energy-major ``(n_e, n_x)`` arrays,
every recurrence materialized), the ``_solve_chain``/``_transport`` pair
of :class:`repro.device.negf_device.NEGFDevice` that evaluates the two
contact Fermi vectors of every chain twice, and the three-exponential
``fermi_dirac`` of :mod:`repro.constants`, as they were before the
site-major chain kernel and the one-exponential Fermi–Dirac; and the
edge-roughness ensemble loop as it was before the lead self-energies
were shared, with each sample's ``transmission_at`` inlined (its own
Sancho–Rubio leads and a full recursive Green's function).  They are
kept verbatim (the methods only lifted into a subclass) as the oracle
the parity tests and ``benchmarks/bench_solver_accel.py`` hold
production to.  Do not optimise them: their value is that they are the
obvious transcription of the recurrences.
"""

from __future__ import annotations

import numpy as np

from repro import obs, sanitize
from repro.atomistic.lattice import ArmchairGNR
from repro.constants import KT_ROOM_EV, LANDAUER_PREFACTOR_A_PER_EV
from repro.device.negf_device import NEGFDevice, _ChainRGFOutput
from repro.device.negf_realspace import RealSpaceGNRDevice, rough_edge_onsite
from repro.negf.greens import recursive_greens_function
from repro.negf.self_energy import lead_self_energy_1d
from repro.variability.edge_roughness import _probe_energy_ev


def fermi_dirac(energy_ev: float | np.ndarray, mu_ev: float,
                kt_ev: float = KT_ROOM_EV) -> float | np.ndarray:
    """Fermi-Dirac occupation f(E) for energies in eV.

    Implemented in an overflow-safe way so it can be evaluated on numpy
    arrays spanning many k_B T on either side of the chemical potential.
    """
    import numpy as np

    if kt_ev <= 0.0:
        raise ValueError(f"kT must be positive, got {kt_ev}")
    x = (np.asarray(energy_ev, dtype=float) - mu_ev) / kt_ev
    # exp(-|x|) never overflows; branch on the sign of x.
    out = np.where(x > 0.0,
                   np.exp(-np.clip(x, 0.0, None)) / (1.0 + np.exp(-np.clip(x, 0.0, None))),
                   1.0 / (1.0 + np.exp(np.clip(x, None, 0.0))))
    if np.isscalar(energy_ev):
        return float(out)
    return out


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
    """
    energies = np.asarray(energies_ev, dtype=float)
    eps = np.asarray(onsite_ev, dtype=float)
    n_x = eps.size
    n_e = energies.size
    z = energies + 1j * eta_ev
    h01 = -hopping_ev  # off-diagonal Hamiltonian element
    h2 = h01 * h01

    a0 = z[:, None] - eps[None, :]
    a = a0.copy()
    a[:, 0] -= sigma_left
    a[:, -1] -= sigma_right

    g_left = np.empty((n_e, n_x), dtype=complex)
    g_left[:, 0] = 1.0 / a[:, 0]
    for i in range(1, n_x):
        g_left[:, i] = 1.0 / (a[:, i] - h2 * g_left[:, i - 1])

    g_right = np.empty((n_e, n_x), dtype=complex)
    g_right[:, -1] = 1.0 / a[:, -1]
    for i in range(n_x - 2, -1, -1):
        g_right[:, i] = 1.0 / (a[:, i] - h2 * g_right[:, i + 1])

    diag = np.empty((n_e, n_x), dtype=complex)
    diag[:, -1] = g_left[:, -1]
    for i in range(n_x - 2, -1, -1):
        diag[:, i] = g_left[:, i] * (1.0 + h2 * diag[:, i + 1] * g_left[:, i])

    first_col = np.empty((n_e, n_x), dtype=complex)
    first_col[:, 0] = diag[:, 0]
    for i in range(1, n_x):
        first_col[:, i] = g_right[:, i] * h01 * first_col[:, i - 1]

    last_col = np.empty((n_e, n_x), dtype=complex)
    last_col[:, -1] = diag[:, -1]
    for i in range(n_x - 2, -1, -1):
        last_col[:, i] = g_left[:, i] * h01 * last_col[:, i + 1]

    gamma_left = -2.0 * np.imag(sigma_left)
    gamma_right = -2.0 * np.imag(sigma_right)

    transmission = gamma_left * gamma_right * np.abs(last_col[:, 0]) ** 2
    spectral_source = (np.abs(first_col) ** 2) * gamma_left[:, None]
    spectral_drain = (np.abs(last_col) ** 2) * gamma_right[:, None]
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


class ReferenceNEGFDevice(NEGFDevice):
    """:class:`NEGFDevice` whose transport runs the frozen formulation."""

    def _solve_chain(self, edge_profile: np.ndarray, t_chain: float,
                     mu_left: float, mu_right: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """NEGF solve of one carrier chain.

        Returns ``(energies, transmission, density_per_site)`` where the
        density is the carrier occupation per site filled from the two
        contacts at their chemical potentials.
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
        return energies, out.transmission, density

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
            energies, trans, dens = self._solve_chain(
                e_edge, t_chain, mu_s, mu_d)
            f_s = fermi_dirac(energies, mu_s, self.kt_ev)
            f_d = fermi_dirac(energies, mu_d, self.kt_ev)
            current += LANDAUER_PREFACTOR_A_PER_EV * float(
                np.trapezoid(trans * (f_s - f_d), energies))
            n_tot += dens / self._dx

            # Hole chain in the hole-energy picture (eps = -E): band edge
            # -E_V = E_n - U, hole chemical potentials -mu.
            h_edge = mode.edge_ev - midgap_ev
            mu_s_h, mu_d_h = 0.0, vd
            energies_h, trans_h, dens_h = self._solve_chain(
                h_edge, t_chain, mu_s_h, mu_d_h)
            f_s_h = fermi_dirac(energies_h, mu_s_h, self.kt_ev)
            f_d_h = fermi_dirac(energies_h, mu_d_h, self.kt_ev)
            # I_v = (2e/h) int T_h(eps) [f(eps; vd) - f(eps; 0)] deps >= 0
            current += LANDAUER_PREFACTOR_A_PER_EV * float(
                np.trapezoid(trans_h * (f_d_h - f_s_h), energies_h))
            p_tot += dens_h / self._dx
        return current, n_tot, p_tot


def roughness_samples(n_index: int, vacancy_probability: float,
                      n_cells: int = 24, n_samples: int = 12,
                      seed: int = 17) -> np.ndarray:
    """The transmission samples of ``roughness_ensemble``."""
    rng = np.random.default_rng(seed)
    ribbon = ArmchairGNR(n_index, n_cells=n_cells)
    energy = _probe_energy_ev(n_index)
    eta_ev = 1e-6
    samples = np.empty(n_samples)
    for s in range(n_samples):
        onsite, _ = rough_edge_onsite(ribbon, vacancy_probability, rng)
        device = RealSpaceGNRDevice(n_index, n_cells, onsite)
        sigma_l, sigma_r = device.lead_self_energies(energy, eta_ev)
        result = recursive_greens_function(
            energy, device.diagonal, device.coupling, sigma_l, sigma_r,
            eta_ev)
        samples[s] = max(result.transmission, 0.0)
    return samples
