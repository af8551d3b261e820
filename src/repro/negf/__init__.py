"""Non-equilibrium Green's function (NEGF) transport engine.

Implements the quantum-transport machinery of the paper's Section 2:
retarded Green's functions (Eq. 1) and their transmission, contact
self-energies, adaptive energy grids and the mixing schemes used by the
self-consistent NEGF-Poisson loop.  The device engines
(:mod:`repro.device`) integrate the Landauer current and the carrier
densities over these kernels.

The kernels are basis-agnostic: they operate on (block-)tridiagonal
Hamiltonians, so the same code serves the full real-space p_z basis (small
ribbons, used in tests) and the per-subband mode-space chains used by the
production device simulator.  Each transport job takes one path through
them: semi-infinite GNR leads decimated per energy by Sancho-Rubio with
the transmission-only RGF (edge-roughness ensembles), wide-band metal
contacts with the energy-batched RGF (the atomistic ``engine=`` choices),
and analytic 1-D leads on the Fig. 5 device's mode-space chains.
"""

from repro.negf.energy_grid import adaptive_energy_grid, uniform_energy_grid
from repro.negf.self_energy import (
    lead_self_energy_1d,
    resilient_surface_gf,
    sancho_rubio_surface_gf,
    self_energy_from_surface_gf,
    wide_band_self_energy,
)
from repro.negf.greens import RGFResult, recursive_greens_function
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
    "sancho_rubio_surface_gf",
    "self_energy_from_surface_gf",
    "wide_band_self_energy",
    "RGFResult",
    "recursive_greens_function",
    "LinearMixer",
    "AndersonMixer",
    "SCFOptions",
    "SCFResult",
    "scf_escalation",
    "self_consistent_loop",
]
