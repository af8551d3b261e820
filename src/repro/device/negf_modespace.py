"""Coupled mode-space NEGF transport through a GNR segment.

The real-space engine (:mod:`repro.device.negf_realspace`) carries all
``2N`` p_z orbitals of every unit cell through the RGF recurrences.  For
potentials that are smooth across the ribbon width — the regime of every
self-consistent device profile in this repo — most of those orbitals are
spectators: transport near the gap lives in the few lowest transverse
subbands.  Following the coupled mode-space method of Zhao-Guo
(arXiv:0902.4621), this engine projects the Hamiltonian onto the
invariant-subspace basis of :func:`repro.atomistic.modespace.\
transverse_mode_basis` and runs the *same* energy-batched
Sancho-Rubio/RGF kernels on the reduced ``m x m`` blocks
(``m ~ 2 n_modes`` instead of ``2N``), an ``(2N / m)^3``-ish win per
solve.

Accuracy contract
-----------------
* The basis block-diagonalizes the *uniform-hopping* lead exactly at
  every wave vector, and a transversely uniform per-cell potential
  projects exactly (``U^T (H + u I) U = U^T H U + u I``).
* Edge-bond relaxation acquires a truncated coupling to the discarded
  blocks; with the default relaxation (0.12) the full-band transmission
  error is at the few-percent level for ``n_modes`` covering the
  transport window, and vanishes to round-off at full rank
  (``n_modes=None``) — the cross-engine parity suite pins both.
* Transversely *non-uniform* disorder (edge vacancies) breaks mode
  decoupling by construction; the real-space engine remains the
  reference there, as Ouyang-Yoon-Guo (arXiv:0704.2261) motivate.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.constants import EDGE_RELAXATION, T_HOPPING_EV
from repro.atomistic.hamiltonian import cached_unit_cell_hamiltonian
from repro.atomistic.lattice import ArmchairGNR
from repro.atomistic.modespace import ModeBasis, transverse_mode_basis
from repro.device.negf_realspace import RealSpaceTransport
from repro.errors import InvalidDeviceError
from repro.negf.greens import rgf_transmission, rgf_transmission_batched
from repro.negf.self_energy import (
    resilient_surface_gf,
    resilient_surface_gf_batched,
    self_energy_from_surface_gf,
)


@lru_cache(maxsize=64)
def reduced_lead_blocks(
    n_index: int,
    n_modes: int | None,
    hopping_ev: float = T_HOPPING_EV,
    edge_relaxation: float = EDGE_RELAXATION,
) -> tuple[np.ndarray, np.ndarray]:
    """Memoized mode-space lead blocks ``(U^T H00 U, U^T H01 U)``.

    ``H00``/``H01`` are the edge-relaxed unit-cell blocks; ``U`` retains
    enough invariant-subspace blocks of the uniform lead to cover
    ``n_modes`` subbands (``None`` keeps every block).  Cached because
    sweep drivers rebuild engines per bias point; the returned arrays
    are read-only.
    """
    basis = transverse_mode_basis(n_index, hopping_ev)
    u = basis.projector(n_modes)
    h00, h01 = cached_unit_cell_hamiltonian(
        n_index, hopping_ev=hopping_ev, edge_relaxation=edge_relaxation)
    r00 = u.T @ h00 @ u
    r01 = u.T @ h01 @ u
    r00.setflags(write=False)
    r01.setflags(write=False)
    return r00, r01


class ModeSpaceGNRDevice:
    """Mode-space NEGF device: reduced GNR segment + reduced GNR leads.

    API-compatible with :class:`~repro.device.negf_realspace.\
RealSpaceGNRDevice` (``diagonal`` / ``coupling`` blocks,
    ``transmission_at``, ``lead_self_energies[_batched]``,
    ``transport`` returning a
    :class:`~repro.device.negf_realspace.RealSpaceTransport`).

    Parameters
    ----------
    n_index:
        A-GNR index of channel and leads.
    n_cells:
        Device length in unit cells (one cell = 0.426 nm).
    onsite_ev:
        Potential: a scalar, a per-cell profile (length ``n_cells``,
        uniform across the width — projects exactly, blocks stay
        decoupled), or a per-atom array (length ``2 n_index *
        n_cells``, cell-major as in :func:`~repro.device.\
negf_realspace.longitudinal_onsite`).  A transversely *non-uniform*
        per-atom potential (edge vacancies, impurities) is projected as
        ``U^T diag(u) U`` — the inter-mode coupling this generates is
        what makes the method *coupled* mode space; it is exact at full
        rank and truncated (real space stays the reference) otherwise.
    n_modes:
        Transverse subbands to retain (whole invariant blocks are kept,
        so the reduced rank is ``>= 2 n_modes``); ``None`` retains the
        full rank, reproducing real-space transport to round-off.
    lead_onsite_ev:
        Rigid potential shifts ``(source, drain)`` of the two
        semi-infinite leads (e.g. the endpoints of a device profile).
    """

    def __init__(self, n_index: int, n_cells: int,
                 onsite_ev: np.ndarray | float = 0.0,
                 n_modes: int | None = None,
                 hopping_ev: float = T_HOPPING_EV,
                 edge_relaxation: float = EDGE_RELAXATION,
                 lead_onsite_ev: tuple[float, float] = (0.0, 0.0)):
        if n_cells < 1:
            raise InvalidDeviceError("device needs at least one cell")
        self.ribbon = ArmchairGNR(n_index, n_cells=n_cells)
        self.hopping_ev = hopping_ev
        self.edge_relaxation = edge_relaxation
        self.n_modes = n_modes
        self.lead_onsite_ev = (float(lead_onsite_ev[0]),
                               float(lead_onsite_ev[1]))

        self._r00, self._r01 = reduced_lead_blocks(
            n_index, n_modes, hopping_ev, edge_relaxation)
        self.n_retained = self._r00.shape[0]

        onsite = np.asarray(onsite_ev, dtype=float)
        n_orb = 2 * n_index
        eye = np.eye(self.n_retained)
        if onsite.ndim == 0:
            onsite = np.full(n_cells, float(onsite))
        if onsite.shape == (n_cells,):
            # Transversely uniform: u I projects to u I_m exactly.
            self.diagonal = [self._r00 + u_c * eye for u_c in onsite]
        elif onsite.shape == (n_cells * n_orb,):
            # Per-atom potential: project each cell's diagonal through
            # the basis.  U^T diag(u) U couples the retained blocks (and,
            # under truncation, leaks into discarded ones).
            u = self.basis.projector(n_modes)
            per_cell = onsite.reshape(n_cells, n_orb)
            self.diagonal = [self._r00 + u.T @ (u_c[:, None] * u)
                             for u_c in per_cell]
        else:
            raise InvalidDeviceError(
                f"mode-space onsite must be scalar, per-cell ({n_cells},) "
                f"or per-atom ({n_cells * n_orb},), got {onsite.shape}")
        self.coupling = [self._r01.copy() for _ in range(n_cells - 1)]

    @property
    def basis(self) -> ModeBasis:
        """The underlying invariant-subspace basis (cached)."""
        return transverse_mode_basis(self.ribbon.n_index, self.hopping_ev)

    # ------------------------------------------------------------------ #
    def _lead_h00(self, side: int) -> np.ndarray:
        shift = self.lead_onsite_ev[side]
        if shift:
            return self._r00 + shift * np.eye(self.n_retained)
        return self._r00

    def lead_self_energies(self, energy_ev: float, eta_ev: float = 1e-6
                           ) -> tuple[np.ndarray, np.ndarray]:
        """(Sigma_L, Sigma_R) of the reduced semi-infinite leads.

        Same lead convention as the real-space engine: the left lead
        extends through ``r01^T`` (towards -x), the right through
        ``r01``; the decimation runs on the reduced blocks behind the
        standard retry ladder.
        """
        g_left = resilient_surface_gf(energy_ev, self._lead_h00(0),
                                      self._r01.T, eta_ev)
        sigma_l = self_energy_from_surface_gf(g_left, self._r01.T)
        g_right = resilient_surface_gf(energy_ev, self._lead_h00(1),
                                       self._r01, eta_ev)
        sigma_r = self_energy_from_surface_gf(g_right, self._r01)
        return sigma_l, sigma_r

    def transmission_at(self, energy_ev: float,
                        eta_ev: float = 1e-6) -> float:
        """Landauer transmission at one energy."""
        sigma_l, sigma_r = self.lead_self_energies(energy_ev, eta_ev)
        transmission = rgf_transmission(
            energy_ev, self.diagonal, self.coupling, sigma_l, sigma_r,
            eta_ev)
        return max(transmission, 0.0)

    def lead_self_energies_batched(
            self, energies_ev: np.ndarray, eta_ev: float = 1e-6
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked ``(Sigma_L, Sigma_R)``, shape ``(n_energy, m, m)``."""
        energies_ev = np.asarray(energies_ev, dtype=float)
        g_left = resilient_surface_gf_batched(
            energies_ev, self._lead_h00(0), self._r01.T, eta_ev)
        sigma_l = self_energy_from_surface_gf(g_left, self._r01.T)
        g_right = resilient_surface_gf_batched(
            energies_ev, self._lead_h00(1), self._r01, eta_ev)
        sigma_r = self_energy_from_surface_gf(g_right, self._r01)
        return sigma_l, sigma_r

    def transport(self, energies_ev: np.ndarray,
                  eta_ev: float = 1e-6,
                  batched: bool = True) -> RealSpaceTransport:
        """Transmission over an energy grid (batched kernels by default)."""
        energies_ev = np.asarray(energies_ev, dtype=float)
        if not batched or energies_ev.size == 0:
            # Legacy reference path the batched kernels are validated
            # against; kept per-energy by design.
            trans = np.array([self.transmission_at(float(e), eta_ev)  # repro: noqa[RPA802]
                              for e in energies_ev])
            return RealSpaceTransport(energies_ev=energies_ev,
                                      transmission=trans)
        sigma_l, sigma_r = self.lead_self_energies_batched(
            energies_ev, eta_ev)
        trans = rgf_transmission_batched(
            energies_ev, self.diagonal, self.coupling, sigma_l, sigma_r,
            eta_ev)
        return RealSpaceTransport(energies_ev=energies_ev,
                                  transmission=np.maximum(trans, 0.0))
