"""Coupled mode-space blocks of a GNR segment (the ``modespace`` engine).

The real-space device (:mod:`repro.device.negf_realspace`) carries all
``2N`` p_z orbitals of every unit cell through the RGF recurrences.  For
potentials that are smooth across the ribbon width — the regime of every
self-consistent device profile in this repo — most of those orbitals are
spectators: transport near the gap lives in the few lowest transverse
subbands.  Following the coupled mode-space method of Zhao-Guo
(arXiv:0902.4621), this device projects the Hamiltonian onto the
invariant-subspace basis of :func:`repro.atomistic.modespace.\
transverse_mode_basis`, shrinking every block to ``m x m``
(``m ~ 2 n_modes`` instead of ``2N``).  The ``modespace`` engine
(:class:`~repro.device.engines.AtomisticTransport`) closes the reduced
blocks with wide-band metal contacts and runs the energy-batched RGF on
them, as the ``realspace`` engine does on the full blocks.

Accuracy contract
-----------------
* The basis block-diagonalizes the *uniform-hopping* lead exactly at
  every wave vector, and a transversely uniform per-cell potential
  projects exactly (``U^T (H + u I) U = U^T H U + u I``); the wide-band
  contacts project exactly too (``U^T (-i Gamma/2 I) U = -i Gamma/2
  I_m``).  At full rank (``n_modes=None``) the engine reproduces real
  space to round-off.
* Edge-bond relaxation couples the retained blocks to the discarded
  ones, and truncation drops that coupling.  On a 36-cell N = 12 device
  with a 0.35 eV barrier the engine's truncation error is large: max
  |dT| 0.41 and 9.5% in the current at ``n_modes=4``, against 1.6e-13
  without edge relaxation (``docs/performance.md``, "The coupled
  mode-space engine").
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
from repro.atomistic.modespace import transverse_mode_basis
from repro.errors import InvalidDeviceError


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
    """Mode-space GNR segment: the reduced ``diagonal`` / ``coupling``
    blocks, shaped like :class:`~repro.device.negf_realspace.\
RealSpaceGNRDevice`'s, for the ``modespace`` engine to close with
    contacts.

    Parameters
    ----------
    n_index:
        A-GNR index of the ribbon.
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
    """

    def __init__(self, n_index: int, n_cells: int,
                 onsite_ev: np.ndarray | float = 0.0,
                 n_modes: int | None = None,
                 hopping_ev: float = T_HOPPING_EV,
                 edge_relaxation: float = EDGE_RELAXATION):
        if n_cells < 1:
            raise InvalidDeviceError("device needs at least one cell")
        self.ribbon = ArmchairGNR(n_index, n_cells=n_cells)
        self.hopping_ev = hopping_ev
        self.edge_relaxation = edge_relaxation
        self.n_modes = n_modes

        r00, r01 = reduced_lead_blocks(
            n_index, n_modes, hopping_ev, edge_relaxation)
        self.n_retained = r00.shape[0]

        onsite = np.asarray(onsite_ev, dtype=float)
        n_orb = 2 * n_index
        eye = np.eye(self.n_retained)
        if onsite.ndim == 0:
            onsite = np.full(n_cells, float(onsite))
        if onsite.shape == (n_cells,):
            # Transversely uniform: u I projects to u I_m exactly.
            self.diagonal = [r00 + u_c * eye for u_c in onsite]
        elif onsite.shape == (n_cells * n_orb,):
            # Per-atom potential: project each cell's diagonal through
            # the basis.  U^T diag(u) U couples the retained blocks (and,
            # under truncation, leaks into discarded ones).
            u = transverse_mode_basis(n_index, hopping_ev).projector(n_modes)
            per_cell = onsite.reshape(n_cells, n_orb)
            self.diagonal = [r00 + u.T @ (u_c[:, None] * u)
                             for u_c in per_cell]
        else:
            raise InvalidDeviceError(
                f"mode-space onsite must be scalar, per-cell ({n_cells},) "
                f"or per-atom ({n_cells * n_orb},), got {onsite.shape}")
        self.coupling = [r01.copy() for _ in range(n_cells - 1)]
