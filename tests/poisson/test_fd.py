"""Tests for the finite-difference Poisson solvers against analytics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import EPS_0_F_PER_NM
from repro.poisson.fd import solve_poisson_1d, solve_poisson_2d, solve_poisson_3d
from repro.poisson.grid import Grid1D, Grid2D, Grid3D


def _plate_bc_1d(n, v_right):
    mask = np.zeros(n, dtype=bool)
    mask[0] = mask[-1] = True
    vals = np.zeros(n)
    vals[-1] = v_right
    return mask, vals


class TestFD1D:
    def test_laplace_is_linear(self):
        g = Grid1D(10.0, 41)
        mask, vals = _plate_bc_1d(41, 1.0)
        phi = solve_poisson_1d(g, np.ones(41), np.zeros(41), mask, vals)
        assert np.allclose(phi, g.coordinates / 10.0, atol=1e-12)

    def test_uniform_charge_parabola(self):
        """Grounded plates with uniform rho: phi = rho x (L - x)/(2 eps0)."""
        g = Grid1D(8.0, 81)
        rho = np.full(81, 2e-21)
        mask, vals = _plate_bc_1d(81, 0.0)
        phi = solve_poisson_1d(g, np.ones(81), rho, mask, vals)
        x = g.coordinates
        exact = rho / (2 * EPS_0_F_PER_NM) * x * (8.0 - x)
        assert np.allclose(phi, exact, rtol=1e-10, atol=1e-12)

    def test_dielectric_interface_field_ratio(self):
        """Across an interface eps1/eps2, the E-field ratio is eps2/eps1
        (continuity of displacement)."""
        g = Grid1D(10.0, 101)
        eps = np.ones(101)
        eps[:50] = 3.9
        mask, vals = _plate_bc_1d(101, 1.0)
        phi = solve_poisson_1d(g, eps, np.zeros(101), mask, vals)
        e1 = phi[10] - phi[9]
        e2 = phi[90] - phi[89]
        assert e2 / e1 == pytest.approx(3.9, rel=1e-6)

    def test_neumann_default_floating_boundary(self):
        """With only one Dirichlet node, zero charge -> constant phi."""
        g = Grid1D(5.0, 21)
        mask = np.zeros(21, dtype=bool)
        mask[0] = True
        vals = np.zeros(21)
        vals[0] = 0.7
        phi = solve_poisson_1d(g, np.ones(21), np.zeros(21), mask, vals)
        assert np.allclose(phi, 0.7, atol=1e-10)

    def test_requires_dirichlet(self):
        g = Grid1D(5.0, 11)
        with pytest.raises(ValueError):
            solve_poisson_1d(g, np.ones(11), np.zeros(11),
                             np.zeros(11, bool), np.zeros(11))

    def test_rejects_nonpositive_eps(self):
        g = Grid1D(5.0, 11)
        mask, vals = _plate_bc_1d(11, 1.0)
        with pytest.raises(ValueError):
            solve_poisson_1d(g, np.zeros(11), np.zeros(11), mask, vals)

    def test_superposition(self):
        """The solver is linear: phi(rho1 + rho2) = phi(rho1) + phi(rho2)
        (with zero Dirichlet)."""
        g = Grid1D(6.0, 31)
        rng = np.random.default_rng(0)
        rho1 = rng.normal(scale=1e-21, size=31)
        rho2 = rng.normal(scale=1e-21, size=31)
        mask, vals = _plate_bc_1d(31, 0.0)
        eps = np.ones(31)
        p1 = solve_poisson_1d(g, eps, rho1, mask, vals)
        p2 = solve_poisson_1d(g, eps, rho2, mask, vals)
        p12 = solve_poisson_1d(g, eps, rho1 + rho2, mask, vals)
        assert np.allclose(p12, p1 + p2, atol=1e-12)


class TestFD2D:
    def test_laplace_linear_in_y(self):
        g = Grid2D(4.0, 2.0, 17, 9)
        eps = np.ones(g.shape)
        rho = np.zeros(g.shape)
        mask = np.zeros(g.shape, bool)
        mask[:, 0] = mask[:, -1] = True
        vals = np.zeros(g.shape)
        vals[:, -1] = 0.5
        phi = solve_poisson_2d(g, eps, rho, mask, vals)
        _, yy = g.meshgrid()
        assert np.allclose(phi, 0.5 * yy / 2.0, atol=1e-12)

    def test_separable_laplace_solution(self):
        """phi = sinh(pi y / L) sin(pi x / L) is harmonic; imposing it on
        the full boundary must reproduce it in the interior."""
        g = Grid2D(1.0, 1.0, 41, 41)
        xx, yy = g.meshgrid()
        exact = np.sin(np.pi * xx) * np.sinh(np.pi * yy) / np.sinh(np.pi)
        mask = np.zeros(g.shape, bool)
        mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = True
        vals = np.where(mask, exact, 0.0)
        phi = solve_poisson_2d(g, np.ones(g.shape), np.zeros(g.shape),
                               mask, vals)
        assert np.max(np.abs(phi - exact)) < 2e-3

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=10, deadline=None)
    def test_discrete_maximum_principle(self, seed):
        """Zero charge: the interior solution is bounded by the boundary
        values (no spurious extrema)."""
        rng = np.random.default_rng(seed)
        g = Grid2D(3.0, 2.0, 13, 11)
        mask = np.zeros(g.shape, bool)
        mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = True
        vals = np.where(mask, rng.uniform(-1, 1, g.shape), 0.0)
        eps = rng.uniform(1.0, 10.0, g.shape)
        phi = solve_poisson_2d(g, eps, np.zeros(g.shape), mask, vals)
        assert phi.max() <= vals[mask].max() + 1e-9
        assert phi.min() >= vals[mask].min() - 1e-9

    def test_positive_charge_raises_potential(self):
        g = Grid2D(2.0, 2.0, 21, 21)
        mask = np.zeros(g.shape, bool)
        mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = True
        rho = np.zeros(g.shape)
        rho[10, 10] = 1e-21
        phi = solve_poisson_2d(g, np.ones(g.shape), rho, mask,
                               np.zeros(g.shape))
        assert phi[10, 10] > 0.0
        assert phi[10, 10] == phi.max()

    def test_layered_dielectric_is_a_series_capacitor(self):
        """Oxide (eps_r 3.9) below y = 1.5 nm, vacuum above, plates at 0
        and 0.4 V: the harmonic face average makes the interface face
        two half-cells in series, so the solution is the exact
        series-capacitor profile with the interface at that face's
        midpoint."""
        g = Grid2D(5.0, 3.0, 25, 17)
        _, yy = g.meshgrid()
        eps = np.where(yy < 1.5, 3.9, 1.0)
        mask = np.zeros(g.shape, bool)
        mask[:, 0] = mask[:, -1] = True
        vals = np.zeros(g.shape)
        vals[:, -1] = 0.4
        phi = solve_poisson_2d(g, eps, np.zeros(g.shape), mask, vals)

        y_i = 0.5 * (g.y[7] + g.y[8])
        assert y_i == 1.40625
        d = 0.4 / (y_i / 3.9 + (3.0 - y_i) / 1.0)
        exact = np.where(yy < y_i, d * yy / 3.9,
                         d * y_i / 3.9 + d * (yy - y_i))
        assert np.max(np.abs(phi - exact)) <= 1e-12


class TestFD3D:
    def test_laplace_linear_in_z(self):
        g = Grid3D(2.0, 2.0, 3.0, 7, 7, 13)
        eps = np.ones(g.shape)
        rho = np.zeros(g.shape)
        mask = np.zeros(g.shape, bool)
        mask[:, :, 0] = mask[:, :, -1] = True
        vals = np.zeros(g.shape)
        vals[:, :, -1] = 1.2
        phi = solve_poisson_3d(g, eps, rho, mask, vals)
        z = g.z
        expected = 1.2 * z / 3.0
        assert np.allclose(phi, expected[None, None, :], atol=1e-10)

    def test_point_charge_spherical_decay(self):
        """Far from boundaries, a point charge's potential falls like
        1/r (checked via ratio at two radii along an axis)."""
        g = Grid3D(8.0, 8.0, 8.0, 33, 33, 33)
        mask = np.zeros(g.shape, bool)
        mask[0], mask[-1] = True, True
        mask[:, 0], mask[:, -1] = True, True
        mask[:, :, 0], mask[:, :, -1] = True, True
        rho = np.zeros(g.shape)
        rho[16, 16, 16] = 1e-20
        phi = solve_poisson_3d(g, np.ones(g.shape), rho, mask,
                               np.zeros(g.shape))
        # r = 2 grid cells vs r = 4 grid cells along +x.
        ratio = phi[18, 16, 16] / phi[20, 16, 16]
        assert ratio == pytest.approx(2.0, rel=0.25)

    def test_shape_validation(self):
        g = Grid3D(1, 1, 1, 4, 4, 4)
        with pytest.raises(ValueError):
            solve_poisson_3d(g, np.ones((4, 4)), np.zeros(g.shape),
                             np.zeros(g.shape, bool), np.zeros(g.shape))
