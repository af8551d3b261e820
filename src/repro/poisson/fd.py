"""Finite-difference Poisson solvers on structured grids.

Solves the variable-coefficient Poisson equation

``div( eps_r grad(phi) ) = -rho / eps_0``

for the electrostatic potential ``phi`` (volts) with

* ``eps_r`` — relative permittivity per node (harmonically averaged onto
  faces so dielectric interfaces are handled conservatively),
* ``rho`` — charge density in C/nm^d for a d-dimensional grid,
* ``eps_0`` in F/nm, making the units close without conversion factors,
* Dirichlet nodes (gates, ohmic contacts) fixed via a boolean mask,
* homogeneous Neumann (zero normal flux) on every other boundary node,
  which arises naturally from dropping the missing-face flux.

Operator assembly is split from solving: a :class:`PoissonOperator`
assembles the FD matrix once per (grid, permittivity, Dirichlet mask)
and holds a sparse LU factorization of the free-node block, so each
subsequent solve — bias and charge enter only through the right-hand
side — is two triangular substitutions.  The ``solve_poisson_1d/2d/3d``
functions remain as one-shot compatibility wrappers over a throwaway
operator.

The stencil itself (:func:`assemble_stencil`) is numpy-only; scipy is
imported where :class:`PoissonOperator` builds its sparse matrix and
factorization, so importing this module loads no scipy.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.constants import EPS_0_F_PER_NM
from repro.poisson.grid import Grid1D, Grid2D, Grid3D


def assemble_stencil(
    shape: tuple[int, ...],
    spacings: tuple[float, ...],
    eps_r: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Assemble the (negative-divergence, SPD) FD operator as triplets.

    Returns ``(rows, cols, vals, cell_volume)``: the entries of ``A``
    over the flattened grid, each ``(row, col)`` once, where
    ``A phi = rho V / eps_0`` before Dirichlet elimination.  The node
    volume is the cell-centered control volume ``prod(spacings)``;
    boundary half-cells are absorbed into the same expression, which is
    second-order accurate in the interior and first order at Neumann
    boundaries — adequate for the smooth gate fields simulated here.
    """
    ndim = len(shape)
    n_total = int(np.prod(shape))
    cell_volume = float(np.prod(spacings))

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    diag = np.zeros(n_total)
    flat_index = np.arange(n_total).reshape(shape)

    for axis in range(ndim):
        h = spacings[axis]
        # Cross-sectional area of the face perpendicular to `axis`.
        area = cell_volume / h
        coeff = area / h

        sl_lo = [slice(None)] * ndim
        sl_hi = [slice(None)] * ndim
        sl_lo[axis] = slice(0, shape[axis] - 1)
        sl_hi[axis] = slice(1, shape[axis])

        eps_lo = eps_r[tuple(sl_lo)].ravel()
        eps_hi = eps_r[tuple(sl_hi)].ravel()
        eps_face = 2.0 * eps_lo * eps_hi / (eps_lo + eps_hi)

        idx_lo = flat_index[tuple(sl_lo)].ravel()
        idx_hi = flat_index[tuple(sl_hi)].ravel()

        w = coeff * eps_face
        # Flux contribution: A[lo, hi] -= w; A[lo, lo] += w; symmetric.
        rows.append(idx_lo)
        cols.append(idx_hi)
        vals.append(-w)
        rows.append(idx_hi)
        cols.append(idx_lo)
        vals.append(-w)
        np.add.at(diag, idx_lo, w)
        np.add.at(diag, idx_hi, w)

    rows.append(np.arange(n_total))
    cols.append(np.arange(n_total))
    vals.append(diag)
    return (np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
            cell_volume)


class PoissonOperator:
    """Prefactorized FD Poisson operator for one (grid, eps, mask) triple.

    Assembly and LU factorization of the free-node block happen once in
    the constructor; :meth:`solve` then costs two sparse triangular
    substitutions per call.  Charge density and Dirichlet *values* vary
    per solve — the Dirichlet *mask* (which nodes are pinned) is part of
    the operator, because eliminating different node sets changes the
    factorized matrix.

    Parameters
    ----------
    shape, spacings:
        Grid shape and per-axis node spacings (nm); pass ``grid.shape``
        and ``grid.spacings`` of a :class:`~repro.poisson.grid.Grid1D`/
        ``Grid2D``/``Grid3D``, or use :meth:`for_grid`.
    eps_r:
        Relative permittivity per node, same shape as the grid.
    dirichlet_mask:
        Boolean array marking pinned nodes (at least one required).
    """

    def __init__(self, shape: tuple[int, ...], spacings: tuple[float, ...],
                 eps_r: np.ndarray, dirichlet_mask: np.ndarray):
        shape = tuple(int(n) for n in shape)
        eps_r = np.asarray(eps_r, dtype=float)
        dirichlet_mask = np.asarray(dirichlet_mask, dtype=bool)
        for name, arr in (("eps_r", eps_r),
                          ("dirichlet_mask", dirichlet_mask)):
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, "
                                 f"expected {shape}")
        if np.any(eps_r <= 0.0):
            raise ValueError("relative permittivity must be positive everywhere")
        if not np.any(dirichlet_mask):
            raise ValueError(
                "at least one Dirichlet node is required (otherwise the "
                "Neumann problem is singular)")

        # scipy loads with the first operator, not with this module.
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        self.shape = shape
        self.spacings = tuple(float(h) for h in spacings)
        rows, cols, vals, self._cell_volume = assemble_stencil(
            shape, self.spacings, eps_r)
        n_total = int(np.prod(shape))
        self.matrix = sp.csr_matrix((vals, (rows, cols)),
                                    shape=(n_total, n_total))
        self._mask = dirichlet_mask.ravel()
        self._free = ~self._mask
        self._any_free = bool(np.any(self._free))
        # Sparse LU of the free-node block: the one-time O(n^1.5) cost
        # that turns every later solve into two triangular substitutions.
        self._lu = (spla.splu(self.matrix[self._free][:, self._free].tocsc())
                    if self._any_free else None)
        if obs.ACTIVE:
            obs.incr("poisson.factor_builds")

    @classmethod
    def for_grid(cls, grid: Grid1D | Grid2D | Grid3D, eps_r: np.ndarray,
                 dirichlet_mask: np.ndarray) -> "PoissonOperator":
        """Operator on a structured grid object (any dimensionality)."""
        return cls(grid.shape, grid.spacings, eps_r, dirichlet_mask)

    def solve(self, rho: np.ndarray,
              dirichlet_values: np.ndarray) -> np.ndarray:
        """Potential for one charge density + Dirichlet-value assignment.

        ``rho`` is in C/nm^d; ``dirichlet_values`` supplies the pinned
        potentials on masked nodes (entries outside the mask are
        ignored).  Only the right-hand side depends on these inputs, so
        repeated calls reuse the stored factorization.
        """
        rho = np.asarray(rho, dtype=float)
        dirichlet_values = np.asarray(dirichlet_values, dtype=float)
        for name, arr in (("rho", rho),
                          ("dirichlet_values", dirichlet_values)):
            if arr.shape != self.shape:
                raise ValueError(f"{name} has shape {arr.shape}, "
                                 f"expected {self.shape}")

        # The assembled operator is the *negative* divergence (SPD), so
        # A phi = +rho V / eps_0.
        rhs = (rho.ravel() * self._cell_volume) / EPS_0_F_PER_NM
        values = dirichlet_values.ravel()
        # Impose Dirichlet rows: phi_i = value_i, and move known values
        # to the right-hand side of the remaining equations.
        b = rhs - self.matrix @ (values * self._mask)

        phi = np.empty(self._mask.size)
        phi[self._mask] = values[self._mask]
        if self._lu is not None:
            phi[self._free] = self._lu.solve(b[self._free])
        if obs.ACTIVE:
            obs.incr("poisson.factor_solves")
        return phi.reshape(self.shape)


def _assemble_and_solve(
    shape: tuple[int, ...],
    spacings: tuple[float, ...],
    eps_r: np.ndarray,
    rho: np.ndarray,
    dirichlet_mask: np.ndarray,
    dirichlet_values: np.ndarray,
) -> np.ndarray:
    """One-shot assemble + solve; shared by the dimension wrappers."""
    op = PoissonOperator(shape, spacings, np.asarray(eps_r, dtype=float),
                         dirichlet_mask)
    return op.solve(rho, dirichlet_values)


def solve_poisson_1d(
    grid: Grid1D,
    eps_r: np.ndarray,
    rho_c_per_nm: np.ndarray,
    dirichlet_mask: np.ndarray,
    dirichlet_values: np.ndarray,
) -> np.ndarray:
    """1-D Poisson solve; ``rho`` in C/nm (line charge density)."""
    return _assemble_and_solve(grid.shape, grid.spacings, eps_r,
                               rho_c_per_nm, dirichlet_mask, dirichlet_values)


def solve_poisson_2d(
    grid: Grid2D,
    eps_r: np.ndarray,
    rho_c_per_nm2: np.ndarray,
    dirichlet_mask: np.ndarray,
    dirichlet_values: np.ndarray,
) -> np.ndarray:
    """2-D Poisson solve; ``rho`` in C/nm^2.

    The 2-D problem describes a geometry that is translationally invariant
    in the third direction; charge is then per unit area of the simulated
    plane (equivalently, volumetric charge integrated over the out-of-plane
    unit length).
    """
    return _assemble_and_solve(grid.shape, grid.spacings, eps_r,
                               rho_c_per_nm2, dirichlet_mask, dirichlet_values)


def solve_poisson_3d(
    grid: Grid3D,
    eps_r: np.ndarray,
    rho_c_per_nm3: np.ndarray,
    dirichlet_mask: np.ndarray,
    dirichlet_values: np.ndarray,
) -> np.ndarray:
    """3-D Poisson solve; ``rho`` in C/nm^3."""
    return _assemble_and_solve(grid.shape, grid.spacings, eps_r,
                               rho_c_per_nm3, dirichlet_mask, dirichlet_values)
