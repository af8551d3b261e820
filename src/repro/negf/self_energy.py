"""Contact self-energies for open-boundary NEGF.

The self-energy matrices "describe how the channel couples to the source
contact, the drain contact, and the dissipative processes" (paper, Sec. 2).
Transport here is ballistic, so only contact self-energies are needed:

* :func:`lead_self_energy_1d` — analytic surface Green's function of a
  semi-infinite nearest-neighbour chain (the leads of the mode-space
  device model);
* :func:`sancho_rubio_surface_gf` — the Lopez-Sancho/Rubio decimation
  iteration for arbitrary periodic leads (the full p_z-basis GNR leads);
* :func:`wide_band_self_energy` — energy-independent metal contact in the
  wide-band limit, used for Schottky metal source/drain electrodes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError


def lead_self_energy_1d(
    energy_ev: complex | np.ndarray,
    onsite_ev: float,
    hopping_ev: float,
    eta_ev: float = 1e-6,
) -> complex | np.ndarray:
    """Retarded self-energy of a semi-infinite 1-D tight-binding lead.

    The lead has dispersion ``E(k) = onsite + 2 t cos(k a)`` with hopping
    matrix element ``t = -hopping_ev`` on the off-diagonal (the sign of the
    hopping does not affect the self-energy of a 1-D chain).  The surface
    Green's function is

    ``g(E) = (z - sqrt(z^2 - 4 t^2)) / (2 t^2)``, ``z = E + i eta - onsite``

    with the branch chosen so that ``Im g <= 0`` (retarded).  The
    self-energy on the channel site attached to the lead is
    ``sigma = t^2 g``.

    ``energy_ev`` may be a scalar (returns a scalar) or an ndarray
    (returns an elementwise ndarray); the vectorized path is what the
    device layer's per-energy solves dispatch through.
    """
    scalar_input = np.ndim(energy_ev) == 0
    t = float(hopping_ev)
    if t == 0.0:
        if scalar_input:
            return 0.0 + 0.0j
        return np.zeros(np.shape(energy_ev), dtype=complex)
    z = np.asarray(energy_ev, dtype=complex) + 1j * eta_ev - onsite_ev
    root = np.sqrt(z * z - 4.0 * t * t + 0j)
    g_plus = (z + root) / (2.0 * t * t)
    g_minus = (z - root) / (2.0 * t * t)
    # Inside the band exactly one branch has Im(g) < 0 (retarded); outside
    # the band both are almost real and the physical branch is the bounded
    # one (|g| <= 1/|t|).  Selecting the candidate with the more negative
    # imaginary part, breaking near-ties by magnitude, covers both cases.
    pick_minus = np.where(np.abs(g_plus.imag - g_minus.imag) > 1e-14,
                          g_minus.imag < g_plus.imag,
                          np.abs(g_minus) <= np.abs(g_plus))
    g = np.where(pick_minus, g_minus, g_plus)
    sigma = t * t * g
    if scalar_input:
        return complex(sigma)
    return sigma


def sancho_rubio_surface_gf(
    energy_ev: float,
    h00: np.ndarray,
    h01: np.ndarray,
    eta_ev: float = 1e-6,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> np.ndarray:
    """Surface Green's function of a semi-infinite periodic lead.

    Implements the decimation algorithm of M. P. Lopez Sancho, J. M. Lopez
    Sancho and J. Rubio (J. Phys. F 15, 851, 1985), which doubles the
    effective lead length per iteration and therefore converges in
    O(log) steps.

    Parameters
    ----------
    h00, h01:
        Principal-layer Hamiltonian and coupling from one layer to the
        next (``h01`` rows index the layer closer to the device).
    eta_ev:
        Positive imaginary part regularizing the retarded GF.  Exactly at
        a band center the decimation converges slowly in ``eta``; use
        ``eta_ev >= 1e-6`` (the default) or offset the energy, as the
        device layer's energy grids naturally do.

    Returns
    -------
    ``g_s`` such that the lead self-energy on the device surface is
    ``h01 @ g_s @ h01.conj().T`` (for a lead extending away through h01).
    """
    n = h00.shape[0]
    z = (energy_ev + 1j * eta_ev) * np.eye(n)
    eps_s = h00.astype(complex).copy()
    eps = h00.astype(complex).copy()
    alpha = h01.astype(complex).copy()
    beta = h01.conj().T.copy()

    for _ in range(max_iter):
        g_bulk = np.linalg.solve(z - eps, np.eye(n, dtype=complex))
        agb = alpha @ g_bulk @ beta
        bga = beta @ g_bulk @ alpha
        eps_s = eps_s + agb
        eps = eps + agb + bga
        alpha = alpha @ g_bulk @ alpha
        beta = beta @ g_bulk @ beta
        if np.max(np.abs(alpha)) < tol and np.max(np.abs(beta)) < tol:
            return np.linalg.solve(z - eps_s, np.eye(n, dtype=complex))
    raise ConvergenceError(
        f"Sancho-Rubio iteration did not converge at E = {energy_ev} eV",
        iterations=max_iter,
        residual=float(np.max(np.abs(alpha)) + np.max(np.abs(beta))),
        context={"solver": "sancho_rubio_surface_gf",
                 "energy_ev": float(energy_ev), "eta_ev": float(eta_ev),
                 "tol": float(tol), "max_iter": int(max_iter)})


def _sr_rungs(eta_ev: float, max_iter: int) -> list[tuple[str, float, int]]:
    """Escalation settings of :func:`resilient_surface_gf`.

    A decimation that stalls at ``max_iter`` is almost always sitting on
    a band edge where the couplings decay slowly: more doubling steps
    usually finish the job, and a 10x eta bump (still well below any
    physical broadening scale) regularizes the truly singular points at
    the cost of a slightly smoothed spectral density.
    """
    return [("base", eta_ev, max_iter),
            ("more-iter", eta_ev, 4 * max_iter),
            ("eta-bump", 10.0 * eta_ev, 4 * max_iter)]


def resilient_surface_gf(
    energy_ev: float,
    h00: np.ndarray,
    h01: np.ndarray,
    eta_ev: float = 1e-6,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> np.ndarray:
    """:func:`sancho_rubio_surface_gf` behind a retry ladder.

    Escalates through :func:`_sr_rungs` (raised ``max_iter``, then a
    small eta bump) via :func:`repro.runtime.resilience.run_ladder`;
    retries count under ``negf.sr_retries``.  Drop-in replacement: the
    return value is the surface Green's function of the first rung that
    converges, and exhaustion re-raises the last
    :class:`~repro.errors.ConvergenceError` with the rungs tried in its
    context.
    """
    from repro.runtime.resilience import run_ladder

    rungs = [(name, (lambda e, m: lambda: sancho_rubio_surface_gf(
        energy_ev, h00, h01, eta_ev=e, tol=tol, max_iter=m))(eta, iters))
        for name, eta, iters in _sr_rungs(eta_ev, max_iter)]
    result, _ = run_ladder(rungs, site="sr", counter="negf.sr_retries")
    return result


def self_energy_from_surface_gf(g_surface: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """Self-energy ``tau g_s tau^dagger`` projected on the device surface.

    ``coupling`` is the hopping block from the device surface layer to the
    first lead layer.
    """
    return coupling @ g_surface @ coupling.conj().T


def wide_band_self_energy(gamma_ev: float, n: int = 1) -> np.ndarray:
    """Energy-independent wide-band-limit contact self-energy ``-i Gamma/2``.

    A standard idealization of a metal contact whose density of states is
    flat over the energy window of interest; used for the Schottky-barrier
    metal source/drain of the GNRFET.
    """
    if gamma_ev < 0.0:
        raise ValueError(f"broadening must be non-negative, got {gamma_ev}")
    return -0.5j * gamma_ev * np.eye(n, dtype=complex)
