"""Atomistic substrate: graphene / armchair-GNR geometry, tight binding, bands.

This package provides the bottom layer of the paper's "bottom-up" simulation
stack: the p_z-orbital tight-binding description of armchair-edge graphene
nanoribbons (A-GNRs), from which every higher layer (NEGF transport, the fast
SBFET device engine, the circuit lookup tables) derives its band gaps,
effective masses and mode structure.
"""

from repro.atomistic.lattice import (
    ArmchairGNR,
    gnr_family,
    is_semiconducting_index,
)
from repro.atomistic.hamiltonian import (
    build_unit_cell_hamiltonian,
    build_real_space_hamiltonian,
    bloch_hamiltonian,
)
from repro.atomistic.bandstructure import (
    BandStructure,
    compute_bands,
    band_gap_ev,
    band_edges_ev,
    subband_edges,
    effective_masses,
)
from repro.atomistic.modespace import (
    TransverseMode,
    transverse_modes,
)

__all__ = [
    "ArmchairGNR",
    "gnr_family",
    "is_semiconducting_index",
    "build_unit_cell_hamiltonian",
    "build_real_space_hamiltonian",
    "bloch_hamiltonian",
    "BandStructure",
    "compute_bands",
    "band_gap_ev",
    "band_edges_ev",
    "subband_edges",
    "effective_masses",
    "TransverseMode",
    "transverse_modes",
]
