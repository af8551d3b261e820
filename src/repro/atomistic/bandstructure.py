"""Band structure of armchair GNRs from the tight-binding model.

Provides the quantities the device layer consumes:

* full ``E(k)`` bands on a k-grid,
* band gap and band edges (``E_g(N)`` drives everything in the paper:
  Schottky-barrier heights are ``E_g/2`` and the width-variation study is a
  band-gap study in disguise),
* subband edges and effective masses for the mode-space NEGF reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.constants import EDGE_RELAXATION, T_HOPPING_EV
from repro.atomistic.hamiltonian import bloch_hamiltonian, build_unit_cell_hamiltonian
from repro.atomistic.lattice import ArmchairGNR


@dataclass(frozen=True)
class BandStructure:
    """Tight-binding bands of an A-GNR on a uniform k-grid.

    Attributes
    ----------
    n_index:
        GNR index the bands belong to.
    k_per_nm:
        Wave vectors in rad/nm covering ``[0, pi/L]`` (the bands are even in
        ``k`` by time-reversal symmetry, so only half the Brillouin zone is
        stored).
    energies_ev:
        Array of shape ``(n_k, 2N)``; column ``b`` is band ``b`` sorted
        ascending at each k-point.
    """

    n_index: int
    k_per_nm: np.ndarray
    energies_ev: np.ndarray

    @property
    def n_bands(self) -> int:
        return self.energies_ev.shape[1]

    def conduction_bands(self) -> np.ndarray:
        """Bands with positive energy (electron subbands), shape (n_k, N)."""
        return self.energies_ev[:, self.n_bands // 2:]

    def valence_bands(self) -> np.ndarray:
        """Bands with negative energy (hole subbands), shape (n_k, N)."""
        return self.energies_ev[:, :self.n_bands // 2]


def compute_bands(
    n_index: int,
    n_k: int = 201,
    hopping_ev: float = T_HOPPING_EV,
    edge_relaxation: float = EDGE_RELAXATION,
) -> BandStructure:
    """Diagonalize the Bloch Hamiltonian of an ``N = n_index`` A-GNR.

    The k-grid spans half the one-dimensional Brillouin zone,
    ``k in [0, pi / (3 a_cc)]``.
    """
    if n_k < 2:
        raise ValueError(f"need at least 2 k-points, got {n_k}")
    ribbon = ArmchairGNR(n_index)
    h00, h01 = build_unit_cell_hamiltonian(ribbon, hopping_ev, edge_relaxation)
    period = ribbon.period_nm
    ks = np.linspace(0.0, np.pi / period, n_k)
    energies = np.empty((n_k, ribbon.atoms_per_cell), dtype=float)
    for i, k in enumerate(ks):
        hk = bloch_hamiltonian(h00, h01, k, period)
        energies[i] = np.linalg.eigvalsh(hk)
    return BandStructure(n_index=n_index, k_per_nm=ks, energies_ev=energies)


@lru_cache(maxsize=64)
def _cached_bands(n_index: int, n_k: int, hopping_ev: float,
                  edge_relaxation: float) -> BandStructure:
    return compute_bands(n_index, n_k, hopping_ev, edge_relaxation)


def band_edges_ev(
    n_index: int,
    n_k: int = 201,
    hopping_ev: float = T_HOPPING_EV,
    edge_relaxation: float = EDGE_RELAXATION,
) -> tuple[float, float]:
    """Return ``(E_V, E_C)``: valence-band maximum and conduction-band minimum."""
    bands = _cached_bands(n_index, n_k, hopping_ev, edge_relaxation)
    e_c = float(bands.conduction_bands()[:, 0].min())
    e_v = float(bands.valence_bands()[:, -1].max())
    return e_v, e_c


def band_gap_ev(
    n_index: int,
    n_k: int = 201,
    hopping_ev: float = T_HOPPING_EV,
    edge_relaxation: float = EDGE_RELAXATION,
) -> float:
    """Band gap of an ``N = n_index`` A-GNR in eV.

    With edge relaxation all three families are semiconducting (the paper
    cites the experiment of Li et al. showing all sub-10 nm GNRs are
    semiconducting); the gap of the ``3q+2`` family is small, which is why
    the paper excludes it from the device study.
    """
    e_v, e_c = band_edges_ev(n_index, n_k, hopping_ev, edge_relaxation)
    return e_c - e_v


def subband_edges(
    n_index: int,
    n_subbands: int | None = None,
    n_k: int = 201,
    hopping_ev: float = T_HOPPING_EV,
    edge_relaxation: float = EDGE_RELAXATION,
) -> np.ndarray:
    """Conduction subband minima in ascending order, shape (n_subbands,).

    By particle-hole symmetry the valence subband maxima are the negatives
    of these values.
    """
    bands = _cached_bands(n_index, n_k, hopping_ev, edge_relaxation)
    cond = bands.conduction_bands()
    minima = np.sort(cond.min(axis=0))
    if n_subbands is not None:
        minima = minima[:n_subbands]
    return minima


def effective_masses(
    n_index: int,
    n_subbands: int | None = None,
    n_k: int = 401,
    hopping_ev: float = T_HOPPING_EV,
    edge_relaxation: float = EDGE_RELAXATION,
) -> np.ndarray:
    """Effective masses of the conduction subbands in kg.

    The mass of subband ``n`` is obtained from a parabolic fit
    ``E(k) = E_n + hbar^2 k^2 / (2 m*)`` around the subband minimum.  For
    A-GNRs every subband minimum sits at the zone centre, so the fit uses
    the first few k-points.
    """
    from repro.constants import Q_E

    bands = _cached_bands(n_index, n_k, hopping_ev, edge_relaxation)
    cond = bands.conduction_bands()
    ks = bands.k_per_nm
    order = np.argsort(cond.min(axis=0))
    if n_subbands is not None:
        order = order[:n_subbands]

    masses = []
    n_fit = max(4, n_k // 50)
    for band_idx in order:
        band = cond[:, band_idx]
        i_min = int(np.argmin(band))
        lo = max(0, i_min - n_fit)
        hi = min(len(ks), i_min + n_fit + 1)
        dk = ks[lo:hi] - ks[i_min]
        de = band[lo:hi] - band[i_min]
        # Least-squares fit E = c * k^2; curvature c in eV nm^2.
        denom = float(np.sum(dk ** 4))
        if denom == 0.0:
            raise ValueError("k-grid too coarse to fit an effective mass")
        c = float(np.sum(de * dk ** 2) / denom)
        if c <= 0.0:
            raise ValueError(
                f"non-positive band curvature for subband {band_idx}")
        # E[J] = (hbar^2 / 2m) k^2 with k in 1/m:  c[eV nm^2] * Q_E * 1e-18
        c_si = c * Q_E * 1e-18
        from repro.constants import HBAR_SI

        masses.append(HBAR_SI ** 2 / (2.0 * c_si))
    return np.array(masses)


def band_velocity_m_per_s(gap_half_ev: float, mass_kg: float) -> float:
    """Band-structure velocity of the two-band (Flietner) dispersion.

    In the two-band model ``(E - E_mid)^2 = (E_g/2)^2 + (hbar v k)^2`` the
    curvature at the band edge gives ``m* = (E_g/2) / v^2``, hence
    ``v = sqrt(E_g / (2 m*))`` (with the gap converted to joules).  This
    velocity sets the evanescent decay rate used for Schottky-barrier
    tunneling in the fast device engine.
    """
    from repro.constants import Q_E

    if gap_half_ev <= 0.0:
        raise ValueError(f"half-gap must be positive, got {gap_half_ev}")
    if mass_kg <= 0.0:
        raise ValueError(f"mass must be positive, got {mass_kg}")
    return float(np.sqrt(gap_half_ev * Q_E / mass_kg))
