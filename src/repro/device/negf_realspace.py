"""Real-space atomistic p_z-basis NEGF transport through a GNR segment.

This is the paper's own basis choice — "the DC characteristics of
ballistic GNRFETs are simulated by solving the Schrodinger equation using
the NEGF formalism in the atomistic p_z orbital basis set" — implemented
without the mode-space reduction: the device is an explicit honeycomb
segment whose Hamiltonian blocks feed the generic recursive Green's
function, with semi-infinite pristine-GNR leads closed by Sancho-Rubio
self-energies.

Two uses:

* **validation of the mode-space substitution** (DESIGN.md §5): for an
  ideal ribbon with a longitudinal potential profile, the real-space
  transmission must reproduce the subband staircase and barrier
  tunneling that the per-mode 1-D chains model;
* **atomistic defects beyond mode space**: edge roughness (the paper's
  reference [17], Yoon & Guo APL 2007, flagged in Section 4 as a defect
  mechanism "to be explored by readily extending the bottom-up simulation
  framework") breaks the transverse-mode decoupling and *requires* the
  real-space basis.  :func:`rough_edge_onsite` implements vacancy-style
  edge roughness via the standard large-on-site-energy device.

The ``realspace`` transport engine reads only the device's ``diagonal``
and ``coupling`` blocks and closes them with wide-band metal contacts
(:class:`~repro.device.engines.AtomisticTransport`); the GNR leads here
serve the two uses above, one energy at a time.

Cost: O(n_cells) inversions of (2N x 2N) blocks per energy — fine for the
15 nm / N<=18 devices studied here, which is exactly the "routine device
simulation ... on a personal computer" regime the paper describes.
"""

from __future__ import annotations

import numpy as np

from repro.constants import EDGE_RELAXATION, T_HOPPING_EV
from repro.atomistic.hamiltonian import (
    block_tridiagonal_blocks,
    build_unit_cell_hamiltonian,
)
from repro.atomistic.lattice import ArmchairGNR
from repro.errors import InvalidDeviceError
from repro.negf.greens import rgf_transmission
from repro.negf.self_energy import (
    resilient_surface_gf,
    self_energy_from_surface_gf,
)

#: On-site energy used to expel the p_z orbital of a removed edge atom.
#: The standard vacancy treatment: a site energy far outside the band
#: (|E| >> 3t) decouples the atom without changing the matrix size.
VACANCY_ONSITE_EV = 1e3


class RealSpaceGNRDevice:
    """Atomistic p_z NEGF device: GNR segment + pristine GNR leads.

    Parameters
    ----------
    n_index:
        A-GNR index of channel and leads.
    n_cells:
        Device length in unit cells (one cell = 0.426 nm).
    onsite_ev:
        Per-atom on-site energies (potential profile, impurities, edge
        vacancies), length ``2 * n_index * n_cells``; scalar broadcast.
    """

    def __init__(self, n_index: int, n_cells: int,
                 onsite_ev: np.ndarray | float = 0.0,
                 hopping_ev: float = T_HOPPING_EV,
                 edge_relaxation: float = EDGE_RELAXATION):
        if n_cells < 1:
            raise InvalidDeviceError("device needs at least one cell")
        self.ribbon = ArmchairGNR(n_index, n_cells=n_cells)
        self.hopping_ev = hopping_ev
        self.edge_relaxation = edge_relaxation
        self.diagonal, self.coupling = block_tridiagonal_blocks(
            self.ribbon, onsite_ev, hopping_ev, edge_relaxation)
        self._h00, self._h01 = build_unit_cell_hamiltonian(
            ArmchairGNR(n_index), hopping_ev, edge_relaxation)

    # ------------------------------------------------------------------ #
    def lead_self_energies(self, energy_ev: float, eta_ev: float = 1e-6
                           ) -> tuple[np.ndarray, np.ndarray]:
        """(Sigma_L, Sigma_R) of the semi-infinite pristine leads.

        The left lead extends through ``h01^T`` (towards -x), the right
        lead through ``h01``; both surface GFs come from Sancho-Rubio
        behind the retry ladder of
        :func:`repro.negf.self_energy.resilient_surface_gf` (the base
        rung runs the exact legacy settings, so a converging decimation
        is bitwise-unchanged).
        """
        g_left = resilient_surface_gf(energy_ev, self._h00, self._h01.T,
                                      eta_ev)
        sigma_l = self_energy_from_surface_gf(g_left, self._h01.T)
        g_right = resilient_surface_gf(energy_ev, self._h00, self._h01,
                                       eta_ev)
        sigma_r = self_energy_from_surface_gf(g_right, self._h01)
        return sigma_l, sigma_r

    def transmission_at(
            self, energy_ev: float, eta_ev: float = 1e-6, *,
            self_energies: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> float:
        """Landauer transmission at one energy.

        ``self_energies`` is ``lead_self_energies(energy_ev, eta_ev)``
        computed earlier, for callers that probe many devices with the
        same leads at the same energy (a disorder ensemble); the leads
        depend only on the ribbon index, the energy and ``eta_ev``, not
        on the device segment.
        """
        if self_energies is None:
            self_energies = self.lead_self_energies(energy_ev, eta_ev)
        sigma_l, sigma_r = self_energies
        transmission = rgf_transmission(
            energy_ev, self.diagonal, self.coupling, sigma_l, sigma_r,
            eta_ev)
        return max(transmission, 0.0)


def longitudinal_onsite(ribbon: ArmchairGNR,
                        profile_ev: np.ndarray) -> np.ndarray:
    """Per-atom on-site array from a per-cell potential profile.

    ``profile_ev`` has one entry per unit cell; every atom of a cell
    shares it (adequate for potentials smooth on the 0.43 nm cell scale,
    which is the same smoothness assumption mode space makes).
    """
    profile_ev = np.asarray(profile_ev, dtype=float)
    if profile_ev.shape != (ribbon.n_cells,):
        raise ValueError(
            f"profile must have one entry per cell ({ribbon.n_cells}), "
            f"got {profile_ev.shape}")
    return np.repeat(profile_ev, ribbon.atoms_per_cell)


def rough_edge_onsite(
    ribbon: ArmchairGNR,
    vacancy_probability: float,
    rng: np.random.Generator,
    base_onsite_ev: np.ndarray | float = 0.0,
) -> tuple[np.ndarray, int]:
    """Edge roughness: randomly remove edge atoms of the segment.

    Implements the defect mechanism of the paper's reference [17]: each
    atom on the two outermost dimer lines is removed independently with
    ``vacancy_probability`` (set to a large on-site energy, expelling its
    orbital from the transport window).

    Returns ``(onsite_array, n_removed)``.
    """
    if not 0.0 <= vacancy_probability <= 1.0:
        raise ValueError("vacancy probability must be in [0, 1]")
    n = ribbon.n_atoms
    onsite = np.asarray(base_onsite_ev, dtype=float)
    if onsite.ndim == 0:
        onsite = np.full(n, float(onsite))
    else:
        onsite = onsite.copy()
        if onsite.shape != (n,):
            raise ValueError(f"base onsite must have shape ({n},)")

    n_removed = 0
    for cell in range(ribbon.n_cells):
        for row in (0, ribbon.n_index - 1):
            for slot in (0, 1):
                if rng.random() < vacancy_probability:
                    idx = ribbon.atom_index(cell, row, slot)
                    onsite[idx] = VACANCY_ONSITE_EV
                    n_removed += 1
    return onsite, n_removed


def ideal_transmission_staircase(n_index: int,
                                 energies_ev: np.ndarray) -> np.ndarray:
    """Reference: channel count of a pristine ribbon vs energy.

    For an ideal ribbon with matched leads, T(E) equals the number of
    propagating subbands at E — a staircase with steps at the subband
    edges.  Computed by counting band crossings of the exact Bloch bands.
    """
    from repro.atomistic.bandstructure import compute_bands

    bands = compute_bands(n_index, n_k=301)
    energies_ev = np.asarray(energies_ev, dtype=float)
    counts = np.zeros(energies_ev.size)
    for b in range(bands.n_bands):
        e_band = bands.energies_ev[:, b]
        lo, hi = e_band.min(), e_band.max()
        inside = (energies_ev >= lo) & (energies_ev <= hi)
        counts += inside.astype(float)
    return counts
