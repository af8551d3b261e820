"""Tests for A-GNR band structure: gaps, families, masses."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atomistic.bandstructure import (
    band_edges_ev,
    band_gap_ev,
    band_velocity_m_per_s,
    compute_bands,
    effective_masses,
    subband_edges,
)
from repro.constants import Q_E


class TestBands:
    def test_band_count(self):
        bands = compute_bands(9, n_k=31)
        assert bands.energies_ev.shape == (31, 18)

    def test_particle_hole_symmetry(self):
        """Nearest-neighbour hopping on a bipartite lattice gives a
        spectrum symmetric about zero at every k."""
        bands = compute_bands(12, n_k=21)
        e = bands.energies_ev
        assert np.allclose(e, -e[:, ::-1], atol=1e-9)

    def test_bandwidth_is_3t(self):
        # The honeycomb p_z band spans ~[-3t, 3t].
        bands = compute_bands(15, n_k=41)
        assert bands.energies_ev.max() == pytest.approx(3 * 2.7, rel=0.1)

    def test_sorted_per_k(self):
        bands = compute_bands(10, n_k=11)
        assert np.all(np.diff(bands.energies_ev, axis=1) >= -1e-12)


class TestBandGap:
    @pytest.mark.parametrize("n,expected", [
        (9, 0.79), (12, 0.61), (15, 0.49), (18, 0.42),
    ])
    def test_semiconducting_family_gaps(self, n, expected):
        """Gap values of the paper's device indices (edge-relaxed TB with
        t = 2.7 eV; consistent with Son-Cohen-Louie scale)."""
        assert band_gap_ev(n) == pytest.approx(expected, abs=0.03)

    @pytest.mark.parametrize("n", [11, 14, 17])
    def test_3q2_family_small_but_finite_gap(self, n):
        """Edge relaxation opens a small gap in the 3q+2 family (all
        sub-10nm GNRs are semiconducting, paper ref [9])."""
        gap = band_gap_ev(n)
        assert 0.0 < gap < 0.25

    def test_gap_closes_without_edge_relaxation_3q2(self):
        assert band_gap_ev(14, edge_relaxation=0.0) == pytest.approx(
            0.0, abs=0.02)

    def test_gap_decreases_with_width_within_family(self):
        gaps = [band_gap_ev(n) for n in (9, 12, 15, 18, 21)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_inverse_width_scaling(self):
        """E_g ~ 1/W within a family (paper: "the band-gap of the
        semiconducting GNR is, in general, inversely proportional to the
        GNR width")."""
        from repro.constants import gnr_width_nm

        product_9 = band_gap_ev(9) * gnr_width_nm(9)
        product_18 = band_gap_ev(18) * gnr_width_nm(18)
        assert product_18 == pytest.approx(product_9, rel=0.25)

    def test_edges_symmetric(self):
        e_v, e_c = band_edges_ev(12)
        assert e_c == pytest.approx(-e_v, abs=1e-9)


class TestSubbands:
    def test_first_edge_is_half_gap(self):
        edges = subband_edges(12, n_subbands=3)
        assert edges[0] == pytest.approx(band_gap_ev(12) / 2.0, abs=1e-9)

    def test_edges_ascending(self):
        edges = subband_edges(9, n_subbands=5)
        assert np.all(np.diff(edges) > 0.0)

    def test_narrower_ribbon_larger_subband_spacing(self):
        e9 = subband_edges(9, n_subbands=2)
        e18 = subband_edges(18, n_subbands=2)
        assert (e9[1] - e9[0]) > (e18[1] - e18[0])


class TestEffectiveMass:
    def test_positive_and_light(self):
        masses = effective_masses(12, n_subbands=2)
        m_e = 9.109e-31
        assert np.all(masses > 0.0)
        # GNR masses are a few hundredths of m_e.
        assert 0.01 * m_e < masses[0] < 0.3 * m_e

    def test_narrower_ribbon_heavier_mass(self):
        m9 = effective_masses(9, n_subbands=1)[0]
        m18 = effective_masses(18, n_subbands=1)[0]
        assert m9 > m18

    def test_two_band_velocity_consistency(self):
        half_gap = band_gap_ev(12) / 2.0
        mass = effective_masses(12, n_subbands=1)[0]
        v = band_velocity_m_per_s(half_gap, mass)
        # m* = E_n / v^2 must invert exactly.
        assert half_gap * Q_E / v ** 2 == pytest.approx(mass, rel=1e-12)

    def test_velocity_validates_inputs(self):
        with pytest.raises(ValueError):
            band_velocity_m_per_s(-0.1, 1e-31)
        with pytest.raises(ValueError):
            band_velocity_m_per_s(0.1, 0.0)


class TestPropertyBased:
    @given(st.integers(min_value=5, max_value=30))
    @settings(max_examples=10, deadline=None)
    def test_gap_nonnegative_and_bounded(self, n):
        gap = band_gap_ev(n, n_k=101)
        assert 0.0 <= gap < 3.0

    @given(st.floats(min_value=1.0, max_value=4.0))
    @settings(max_examples=8, deadline=None)
    def test_gap_scales_linearly_with_hopping(self, t):
        """The TB spectrum is linear in the single energy scale t."""
        base = band_gap_ev(9, n_k=101, hopping_ev=2.7)
        scaled = band_gap_ev(9, n_k=101, hopping_ev=t)
        assert scaled == pytest.approx(base * t / 2.7, rel=1e-6)
