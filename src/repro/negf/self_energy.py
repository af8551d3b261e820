"""Contact self-energies for open-boundary NEGF.

The self-energy matrices "describe how the channel couples to the source
contact, the drain contact, and the dissipative processes" (paper, Sec. 2).
Transport here is ballistic, so only contact self-energies are needed:

* :func:`lead_self_energy_1d` — analytic surface Green's function of a
  semi-infinite nearest-neighbour chain (the leads of the mode-space
  device model);
* :func:`sancho_rubio_surface_gf` — the Lopez-Sancho/Rubio decimation
  iteration for arbitrary periodic leads (the full p_z-basis GNR leads);
* :func:`sancho_rubio_surface_gf_batched` — the same decimation carried
  over a leading energy axis (one stacked LAPACK call per doubling step);
* :func:`wide_band_self_energy` — energy-independent metal contact in the
  wide-band limit, used for Schottky metal source/drain electrodes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError
from repro.negf.greens import stacked_identity


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


def sancho_rubio_surface_gf_batched(
    energies_ev: np.ndarray,
    h00: np.ndarray,
    h01: np.ndarray,
    eta_ev: float = 1e-6,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> np.ndarray:
    """Surface GF of a periodic lead at many energies simultaneously.

    Energy-batched form of :func:`sancho_rubio_surface_gf`: every
    decimation update is carried over a leading energy axis (broadcast
    ``np.linalg.solve``/``@``), replacing the per-energy Python loop with
    a handful of stacked LAPACK calls per doubling step.  Because the
    iteration count varies strongly across the band (band-edge energies
    decimate slowly, interior ones fast), the kernel shrinks its active
    set each step: an energy whose couplings have decayed below ``tol``
    is finalized at exactly the iteration where the scalar kernel would
    stop, and drops out of subsequent stacked updates.  Total work is
    therefore the *sum* of per-energy iteration counts (as in the
    loop), not ``n_energy x max``.

    Returns the ``(n_energy, n, n)`` stack of surface Green's functions;
    matches the scalar kernel to numerical round-off.
    """
    energies = np.atleast_1d(np.asarray(energies_ev, dtype=float))
    n = h00.shape[0]
    n_e = energies.size
    z = (energies[:, None, None] + 1j * eta_ev) * np.eye(n, dtype=complex)
    eps_s = np.broadcast_to(h00.astype(complex), (n_e, n, n)).copy()
    eps = eps_s.copy()
    alpha = np.broadcast_to(h01.astype(complex), (n_e, n, n)).copy()
    beta = np.broadcast_to(h01.conj().T.astype(complex), (n_e, n, n)).copy()

    out = np.empty((n_e, n, n), dtype=complex)
    idx = np.arange(n_e)  # original positions of the active members
    # Hoisted identity stack: the active set only shrinks, so a view of
    # the first idx.size (or conv.sum()) members serves every solve.
    ident = stacked_identity(n_e, n)
    for _ in range(max_iter):
        g_bulk = np.linalg.solve(z - eps, ident[:idx.size])
        # Cache alpha @ g and beta @ g: the four decimation products all
        # left-associate through them, so this reproduces the scalar
        # kernel's arithmetic exactly while dropping two matmuls per step.
        ag = alpha @ g_bulk
        bg = beta @ g_bulk
        agb = ag @ beta
        bga = bg @ alpha
        eps_s = eps_s + agb
        eps = eps + agb + bga
        alpha = ag @ alpha
        beta = bg @ beta
        conv = ((np.max(np.abs(alpha), axis=(-2, -1)) < tol)
                & (np.max(np.abs(beta), axis=(-2, -1)) < tol))
        if conv.any():
            out[idx[conv]] = np.linalg.solve(
                z[conv] - eps_s[conv], ident[:int(conv.sum())])
            if conv.all():
                return out
            keep = ~conv
            idx = idx[keep]
            z = z[keep]
            eps = eps[keep]
            eps_s = eps_s[keep]
            alpha = alpha[keep]
            beta = beta[keep]
    worst = int(idx[np.argmax(np.max(np.abs(alpha), axis=(-2, -1))
                              + np.max(np.abs(beta), axis=(-2, -1)))])
    raise ConvergenceError(
        f"batched Sancho-Rubio iteration did not converge "
        f"(slowest energy E = {energies[worst]} eV)",
        iterations=max_iter,
        context={"solver": "sancho_rubio_surface_gf_batched",
                 "energy_ev": float(energies[worst]),
                 "eta_ev": float(eta_ev), "tol": float(tol),
                 "max_iter": int(max_iter),
                 "n_unconverged": int(idx.size)})


def _sr_rungs(eta_ev: float, max_iter: int) -> list[tuple[str, float, int]]:
    """Escalation settings shared by the resilient SR wrappers.

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


def resilient_surface_gf_batched(
    energies_ev: np.ndarray,
    h00: np.ndarray,
    h01: np.ndarray,
    eta_ev: float = 1e-6,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> np.ndarray:
    """:func:`sancho_rubio_surface_gf_batched` behind the same ladder as
    :func:`resilient_surface_gf` (``negf.sr_retries`` counts retries)."""
    from repro.runtime.resilience import run_ladder

    rungs = [(name, (lambda e, m: lambda: sancho_rubio_surface_gf_batched(
        energies_ev, h00, h01, eta_ev=e, tol=tol, max_iter=m))(eta, iters))
        for name, eta, iters in _sr_rungs(eta_ev, max_iter)]
    result, _ = run_ladder(rungs, site="sr", counter="negf.sr_retries")
    return result


def self_energy_from_surface_gf(g_surface: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """Self-energy ``tau g_s tau^dagger`` projected on the device surface.

    ``coupling`` is the hopping block from the device surface layer to the
    first lead layer.  ``g_surface`` may be a single matrix or an
    ``(..., n, n)`` stack (the batched kernel's output); the matmuls
    broadcast over the leading axes either way.
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


def broadening_from_self_energy(sigma: np.ndarray) -> np.ndarray:
    """Broadening matrix ``Gamma = i (Sigma - Sigma^dagger)``."""
    sigma = np.atleast_2d(np.asarray(sigma, dtype=complex))
    return 1j * (sigma - sigma.conj().T)
