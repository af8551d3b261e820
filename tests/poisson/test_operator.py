"""PoissonOperator: prefactorized solves must match one-shot references.

The operator is the tentpole of the solver-acceleration layer: assembly
and LU factorization happen once per (grid, permittivity, Dirichlet
mask), and every SCF iteration of every bias point reuses them.  These
tests pin (a) agreement with an independent row-replacement spsolve
reference in all dimensionalities, (b) exact agreement between a reused
operator and the one-shot wrapper functions, (c) input validation, and
(d) the observability counters.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import obs
from repro.constants import EPS_0_F_PER_NM
from repro.poisson.fd import (
    PoissonOperator,
    assemble_stencil,
    solve_poisson_1d,
    solve_poisson_2d,
    solve_poisson_3d,
)
from repro.poisson.grid import Grid1D, Grid2D, Grid3D


def _reference_solve(shape, spacings, eps_r, rho, mask, values):
    """Independent reference: row-replacement Dirichlet + direct spsolve."""
    rows, cols, vals, volume = assemble_stencil(shape, spacings, eps_r)
    b = rho.ravel() * volume / EPS_0_F_PER_NM
    a = sp.lil_matrix(sp.coo_matrix((vals, (rows, cols)),
                                    shape=(b.size, b.size)))
    flat_mask = mask.ravel()
    flat_values = values.ravel()
    for i in np.flatnonzero(flat_mask):
        a.rows[i] = [i]
        a.data[i] = [1.0]
        b[i] = flat_values[i]
    phi = spla.spsolve(sp.csr_matrix(a), b)
    return phi.reshape(shape)


def _random_problem(rng, shape):
    eps = rng.uniform(1.0, 8.0, size=shape)
    rho = rng.normal(scale=1e-21, size=shape)
    mask = np.zeros(shape, dtype=bool)
    # Pin one full face plus a scattering of interior nodes (mixed BC).
    mask[(0,) + (slice(None),) * (len(shape) - 1)] = True
    mask |= rng.random(size=shape) < 0.1
    values = np.where(mask, rng.uniform(-1.0, 1.0, size=shape), 0.0)
    return eps, rho, mask, values


class TestMatchesDirectSolve:
    @pytest.mark.parametrize("grid", [
        Grid1D(8.0, 41),
        Grid2D(6.0, 3.0, 25, 13),
        Grid3D(4.0, 3.0, 2.0, 9, 7, 5),
    ], ids=["1d", "2d", "3d"])
    def test_mixed_boundary_conditions(self, grid):
        rng = np.random.default_rng(len(grid.shape))
        eps, rho, mask, values = _random_problem(rng, grid.shape)
        op = PoissonOperator.for_grid(grid, eps, mask)
        phi = op.solve(rho, values)
        ref = _reference_solve(grid.shape, grid.spacings, eps, rho,
                               mask, values)
        assert np.allclose(phi, ref, rtol=1e-10, atol=1e-12)
        # Dirichlet nodes are reproduced exactly, not to solver accuracy.
        assert np.array_equal(phi[mask], values[mask])

    def test_reuse_matches_one_shot_wrappers(self):
        """One factorization, many right-hand sides: bit-identical to
        assembling from scratch for every solve."""
        grid = Grid2D(5.0, 2.5, 21, 11)
        rng = np.random.default_rng(7)
        eps = rng.uniform(1.0, 4.0, size=grid.shape)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[0, :] = mask[-1, :] = True
        op = PoissonOperator.for_grid(grid, eps, mask)
        for k in range(4):
            rho = rng.normal(scale=1e-21, size=grid.shape)
            values = np.zeros(grid.shape)
            values[-1, :] = 0.1 * k
            assert np.array_equal(
                op.solve(rho, values),
                solve_poisson_2d(grid, eps, rho, mask, values))

    def test_wrappers_cover_all_dimensionalities(self):
        rng = np.random.default_rng(3)
        for grid, solver in ((Grid1D(4.0, 17), solve_poisson_1d),
                             (Grid2D(4.0, 2.0, 9, 7), solve_poisson_2d),
                             (Grid3D(2.0, 2.0, 2.0, 5, 5, 5),
                              solve_poisson_3d)):
            eps, rho, mask, values = _random_problem(rng, grid.shape)
            got = solver(grid, eps, rho, mask, values)
            ref = _reference_solve(grid.shape, grid.spacings, eps, rho,
                                   mask, values)
            assert np.allclose(got, ref, rtol=1e-10, atol=1e-12)

    def test_all_dirichlet_grid(self):
        """Every node pinned: the solve degenerates to a copy."""
        grid = Grid1D(1.0, 5)
        mask = np.ones(5, dtype=bool)
        values = np.linspace(0.0, 1.0, 5)
        op = PoissonOperator.for_grid(grid, np.ones(5), mask)
        assert np.array_equal(op.solve(np.zeros(5), values), values)


class TestValidation:
    def test_shape_mismatches_rejected(self):
        grid = Grid1D(1.0, 5)
        mask = np.zeros(5, dtype=bool)
        mask[0] = True
        with pytest.raises(ValueError, match="eps_r"):
            PoissonOperator.for_grid(grid, np.ones(4), mask)
        with pytest.raises(ValueError, match="dirichlet_mask"):
            PoissonOperator.for_grid(grid, np.ones(5),
                                     np.zeros(4, dtype=bool))
        op = PoissonOperator.for_grid(grid, np.ones(5), mask)
        with pytest.raises(ValueError, match="rho"):
            op.solve(np.zeros(4), np.zeros(5))
        with pytest.raises(ValueError, match="dirichlet_values"):
            op.solve(np.zeros(5), np.zeros(4))

    def test_nonpositive_permittivity_rejected(self):
        grid = Grid1D(1.0, 5)
        mask = np.zeros(5, dtype=bool)
        mask[0] = True
        eps = np.ones(5)
        eps[2] = 0.0
        with pytest.raises(ValueError, match="permittivity"):
            PoissonOperator.for_grid(grid, eps, mask)

    def test_requires_a_dirichlet_node(self):
        grid = Grid1D(1.0, 5)
        with pytest.raises(ValueError, match="Dirichlet"):
            PoissonOperator.for_grid(grid, np.ones(5),
                                     np.zeros(5, dtype=bool))


class TestObservability:
    @pytest.fixture()
    def traced(self, monkeypatch):
        monkeypatch.setattr(obs, "ACTIVE", True)
        obs.reset()
        yield
        obs.reset()

    def test_factor_counters(self, traced):
        grid = Grid1D(2.0, 9)
        mask = np.zeros(9, dtype=bool)
        mask[0] = mask[-1] = True
        op = PoissonOperator.for_grid(grid, np.ones(9), mask)
        for _ in range(3):
            op.solve(np.zeros(9), np.zeros(9))
        counters = obs.snapshot()["counters"]
        assert counters["poisson.factor_builds"] == 1
        assert counters["poisson.factor_solves"] == 3
