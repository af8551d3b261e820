"""Non-equilibrium Green's function (NEGF) transport engine.

Implements the quantum-transport machinery of the paper's Section 2:
retarded Green's functions (Eq. 1), contact self-energies, transmission and
Landauer current, spectral charge density, adaptive energy grids and the
mixing schemes used by the self-consistent NEGF-Poisson loop.

The kernels are basis-agnostic: they operate on (block-)tridiagonal
Hamiltonians, so the same code serves the full real-space p_z basis (small
ribbons, used in tests) and the per-subband mode-space chains used by the
production device simulator.
"""

from repro.negf.energy_grid import adaptive_energy_grid, uniform_energy_grid
from repro.negf.self_energy import (
    lead_self_energy_1d,
    resilient_surface_gf,
    resilient_surface_gf_batched,
    sancho_rubio_surface_gf,
    self_energy_from_surface_gf,
    wide_band_self_energy,
    broadening_from_self_energy,
)
from repro.negf.greens import (
    dense_retarded_gf,
    RGFResult,
    recursive_greens_function,
)
from repro.negf.transmission import (
    transmission_dense,
    landauer_current,
    landauer_conductance,
)
from repro.negf.charge import carrier_density_from_spectral
from repro.negf.mixing import LinearMixer, AndersonMixer
from repro.negf.scf import (
    SCFOptions,
    SCFResult,
    scf_escalation,
    self_consistent_loop,
)

__all__ = [
    "adaptive_energy_grid",
    "uniform_energy_grid",
    "lead_self_energy_1d",
    "resilient_surface_gf",
    "resilient_surface_gf_batched",
    "sancho_rubio_surface_gf",
    "self_energy_from_surface_gf",
    "wide_band_self_energy",
    "broadening_from_self_energy",
    "dense_retarded_gf",
    "RGFResult",
    "recursive_greens_function",
    "transmission_dense",
    "landauer_current",
    "landauer_conductance",
    "carrier_density_from_spectral",
    "LinearMixer",
    "AndersonMixer",
    "SCFOptions",
    "SCFResult",
    "scf_escalation",
    "self_consistent_loop",
]
