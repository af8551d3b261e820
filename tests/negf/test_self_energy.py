"""Tests for contact self-energies."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.negf.self_energy import (
    lead_self_energy_1d,
    sancho_rubio_surface_gf,
    self_energy_from_surface_gf,
    wide_band_self_energy,
)


class TestLead1D:
    def test_band_center(self):
        """At the band centre of a chain with onsite 0 and hopping t the
        retarded self-energy is exactly -i t."""
        sigma = lead_self_energy_1d(0.0, 0.0, 1.0, eta_ev=1e-12)
        assert sigma == pytest.approx(-1.0j, abs=1e-6)

    def test_retarded_inside_band(self):
        for e in (-1.5, -0.3, 0.7, 1.9):
            sigma = lead_self_energy_1d(e, 0.0, 1.0)
            assert sigma.imag < 0.0

    def test_real_outside_band(self):
        sigma = lead_self_energy_1d(3.0, 0.0, 1.0, eta_ev=1e-10)
        assert abs(sigma.imag) < 1e-6
        assert abs(sigma) <= 1.0 + 1e-9  # bounded branch

    def test_onsite_shift(self):
        s0 = lead_self_energy_1d(0.5, 0.0, 1.0)
        s_shifted = lead_self_energy_1d(1.5, 1.0, 1.0)
        assert s_shifted == pytest.approx(s0, abs=1e-12)

    def test_zero_hopping(self):
        assert lead_self_energy_1d(0.3, 0.0, 0.0) == 0.0

    @given(st.floats(min_value=-1.9, max_value=1.9))
    @settings(max_examples=30)
    def test_matches_sancho_rubio(self, energy):
        """The analytic 1-D formula must agree with the decimation
        algorithm on 1x1 blocks (skip the slow-converging exact band
        centre; see the Sancho-Rubio docstring)."""
        if abs(energy) < 5e-3:
            energy += 0.01
        s_analytic = lead_self_energy_1d(energy, 0.0, 1.0, eta_ev=1e-7)
        g = sancho_rubio_surface_gf(energy, np.array([[0.0]]),
                                    np.array([[-1.0]]), eta_ev=1e-7)
        s_iter = self_energy_from_surface_gf(g, np.array([[-1.0]]))[0, 0]
        assert s_iter == pytest.approx(s_analytic, abs=1e-4)


class TestSanchoRubio:
    def test_ladder_lead_antihermitian_part(self):
        """For a 2-orbital periodic lead the surface GF must yield a
        positive-semidefinite broadening inside the band."""
        h00 = np.array([[0.0, -1.0], [-1.0, 0.0]])
        h01 = np.array([[-1.0, 0.0], [0.0, -1.0]])
        g = sancho_rubio_surface_gf(0.4, h00, h01, eta_ev=1e-7)
        sigma = self_energy_from_surface_gf(g, h01)
        gamma = 1j * (sigma - sigma.conj().T)
        eigs = np.linalg.eigvalsh(gamma)
        assert np.all(eigs > -1e-8)

    def test_gf_is_symmetric_for_symmetric_lead(self):
        h00 = np.array([[0.0, -0.5], [-0.5, 0.3]])
        h01 = np.diag([-1.0, -0.8])
        g = sancho_rubio_surface_gf(0.2, h00, h01)
        assert np.allclose(g, g.T, atol=1e-9)


class TestWideBand:
    def test_constant_antihermitian(self):
        sigma = wide_band_self_energy(0.5, n=3)
        assert sigma.shape == (3, 3)
        gamma = 1j * (sigma - sigma.conj().T)
        assert np.allclose(gamma, 0.5 * np.eye(3))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            wide_band_self_energy(-0.1)

