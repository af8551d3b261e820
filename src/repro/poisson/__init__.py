"""Electrostatics: finite-difference and finite-element Poisson solvers.

The paper solves "the 3D Poisson's equation ... numerically ... using the
finite element method (FEM)" because "FEM is efficient to treat a device
with multiple gates".  This package provides:

* structured-grid finite-difference solvers in 1-D, 2-D and 3-D with
  spatially varying permittivity and mixed Dirichlet/Neumann boundaries
  (:mod:`repro.poisson.fd`),
* a genuine 2-D P1 finite-element solver on triangular meshes with
  per-element permittivity (:mod:`repro.poisson.fem`) plus a structured
  triangulator for device cross-sections (:mod:`repro.poisson.mesh`),
* screened point-charge (impurity) potentials with gate image charges
  (:mod:`repro.poisson.pointcharge`).

The NEGF device solves the 2-D FD stencil on the (transport x
gate-stack) cross-section as a channel-row response in numpy; the sparse
FD operator, the FEM and the 3-D solvers validate that reduction and
serve the impurity-screening calculation (see DESIGN.md section 5 for
the substitution rationale).

The package root re-exports only the numpy-only grids and point-charge
potentials.  The solvers are imported from their modules
(``repro.poisson.fd``, ``.fem``, ``.mesh``): ``PoissonOperator`` and
the FEM solver load scipy, which no experiment pays for.
"""

from repro.poisson.grid import Grid1D, Grid2D, Grid3D
from repro.poisson.pointcharge import (
    coulomb_potential_ev,
    screened_impurity_potential_ev,
)

__all__ = [
    "Grid1D",
    "Grid2D",
    "Grid3D",
    "coulomb_potential_ev",
    "screened_impurity_potential_ev",
]
