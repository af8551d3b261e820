"""Tests for the real-space p_z NEGF device."""

import numpy as np
import pytest

from repro.atomistic.lattice import ArmchairGNR
from repro.device.negf_realspace import (
    RealSpaceGNRDevice,
    ideal_transmission_staircase,
    longitudinal_onsite,
    rough_edge_onsite,
)
from repro.errors import InvalidDeviceError


class TestPristineRibbon:
    @pytest.mark.parametrize("n_index", [9, 12])
    def test_transmission_equals_channel_count(self, n_index):
        """Ideal ribbon with matched leads: T(E) = number of propagating
        subbands (the staircase)."""
        dev = RealSpaceGNRDevice(n_index, 8)
        energies = np.array([0.25, 0.5, 1.0, -0.45, -1.0])
        trans = [dev.transmission_at(float(e)) for e in energies]
        ref = ideal_transmission_staircase(n_index, energies)
        assert np.allclose(trans, ref, atol=2e-3)

    def test_gap_blocks(self):
        dev = RealSpaceGNRDevice(12, 8)
        assert dev.transmission_at(0.1) < 1e-2

    def test_particle_hole_symmetric_transmission(self):
        dev = RealSpaceGNRDevice(9, 6)
        t_e = dev.transmission_at(0.6)
        t_h = dev.transmission_at(-0.6)
        assert t_e == pytest.approx(t_h, abs=1e-6)

    def test_length_independence_ballistic(self):
        """Pristine transmission does not decay with length."""
        t_short = RealSpaceGNRDevice(12, 4).transmission_at(0.5)
        t_long = RealSpaceGNRDevice(12, 20).transmission_at(0.5)
        assert t_long == pytest.approx(t_short, abs=1e-4)


class TestPotentialProfile:
    def test_barrier_reflects(self):
        rib = ArmchairGNR(12, 10)
        profile = np.zeros(10)
        profile[4:6] = 0.4
        dev = RealSpaceGNRDevice(12, 10, longitudinal_onsite(rib, profile))
        assert dev.transmission_at(0.35) < 0.8

    def test_in_gap_barrier_blocks_exponentially(self):
        """A barrier that keeps the energy inside the *local* gap decays
        exponentially with barrier length.  (A much taller barrier would
        put the energy into the barrier's valence band, where the
        atomistic model legitimately transmits through interband states
        - the effect the fast engine's two-channel WKB suppresses.)"""
        rib = ArmchairGNR(12, 12)
        short = np.zeros(12)
        short[5:7] = 0.5
        long_b = np.zeros(12)
        long_b[3:9] = 0.5
        t_short = RealSpaceGNRDevice(
            12, 12, longitudinal_onsite(rib, short)).transmission_at(0.35)
        t_long = RealSpaceGNRDevice(
            12, 12, longitudinal_onsite(rib, long_b)).transmission_at(0.35)
        assert t_long < 0.2 * t_short

    def test_profile_shape_validated(self):
        rib = ArmchairGNR(12, 10)
        with pytest.raises(ValueError):
            longitudinal_onsite(rib, np.zeros(9))

    def test_matches_mode_space_barrier_decay(self):
        """Cross-validation of the mode-space substitution: the decay of
        T through a smooth barrier must agree with the two-band kappa
        estimate within a factor ~3 in the exponent region."""
        from repro.atomistic.modespace import transverse_modes

        rib = ArmchairGNR(12, 16)
        profile = np.zeros(16)
        profile[5:11] = 0.5  # 6-cell barrier, 2.56 nm
        dev = RealSpaceGNRDevice(12, 16, longitudinal_onsite(rib, profile))
        energy = 0.35  # inside the shifted gap region of the barrier
        t_real = dev.transmission_at(energy)
        mode = transverse_modes(12, 1)[0]
        kappa = mode.kappa_per_nm(energy - 0.5)  # local midgap at 0.5
        t_wkb = np.exp(-2.0 * kappa * 6 * rib.period_nm)
        assert 0.1 * t_wkb < t_real < 10.0 * t_wkb


class TestEdgeRoughness:
    def test_removal_count_scales_with_probability(self):
        rib = ArmchairGNR(12, 20)
        rng = np.random.default_rng(0)
        _, n_lo = rough_edge_onsite(rib, 0.02, rng)
        rng = np.random.default_rng(0)
        _, n_hi = rough_edge_onsite(rib, 0.3, rng)
        assert n_hi > n_lo

    def test_only_edge_rows_touched(self):
        rib = ArmchairGNR(12, 10)
        rng = np.random.default_rng(3)
        onsite, _ = rough_edge_onsite(rib, 1.0, rng)
        # All edge atoms removed, no interior atom touched.
        for cell in range(10):
            for row in range(12):
                for slot in (0, 1):
                    idx = rib.atom_index(cell, row, slot)
                    if row in (0, 11):
                        assert onsite[idx] > 100.0
                    else:
                        assert onsite[idx] == 0.0

    def test_roughness_degrades_transmission(self):
        rib = ArmchairGNR(9, 16)
        rng = np.random.default_rng(5)
        onsite, _ = rough_edge_onsite(rib, 0.15, rng)
        t_clean = RealSpaceGNRDevice(9, 16).transmission_at(0.55)
        t_rough = RealSpaceGNRDevice(9, 16, onsite).transmission_at(0.55)
        assert t_rough < 0.8 * t_clean

    def test_zero_probability_is_pristine(self):
        rib = ArmchairGNR(9, 8)
        rng = np.random.default_rng(1)
        onsite, n_removed = rough_edge_onsite(rib, 0.0, rng)
        assert n_removed == 0
        assert np.all(onsite == 0.0)

    def test_probability_validated(self):
        rib = ArmchairGNR(9, 4)
        with pytest.raises(ValueError):
            rough_edge_onsite(rib, 1.5, np.random.default_rng(0))

    def test_validation(self):
        with pytest.raises(InvalidDeviceError):
            RealSpaceGNRDevice(12, 0)
