"""Electrostatics: finite-difference Poisson solvers and impurity potentials.

The paper solves "the 3D Poisson's equation ... numerically ... using the
finite element method (FEM)" because "FEM is efficient to treat a device
with multiple gates".  This package substitutes finite differences (see
DESIGN.md section 5 for the rationale) and provides:

* structured-grid finite-difference solvers in 1-D, 2-D and 3-D with
  spatially varying permittivity and mixed Dirichlet/Neumann boundaries
  (:mod:`repro.poisson.fd`),
* screened point-charge (impurity) potentials with gate image charges
  (:mod:`repro.poisson.pointcharge`).

The NEGF device solves the 2-D FD stencil on the (transport x
gate-stack) cross-section as a channel-row response in numpy; the sparse
FD operator and the 3-D solver validate that reduction and serve the
impurity-screening calculation.

The package root re-exports only the numpy-only grids and point-charge
potentials.  The solvers are imported from ``repro.poisson.fd``:
``PoissonOperator`` loads scipy, which no experiment pays for.
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
