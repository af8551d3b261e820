"""Tests for the V_DD-V_T exploration sweep (coarse grid)."""

import numpy as np
import pytest

from repro.exploration.sweep import sweep_vdd_vt


@pytest.fixture(scope="module")
def small_grid(tech):
    vt = np.array([0.08, 0.15, 0.22])
    vdd = np.array([0.25, 0.4, 0.55])
    return sweep_vdd_vt(tech, vt, vdd, with_snm=True)


class TestSweep:
    def test_shapes(self, small_grid):
        assert small_grid.frequency_hz.shape == (3, 3)
        assert small_grid.edp_j_s.shape == (3, 3)
        assert small_grid.snm_v.shape == (3, 3)

    def test_all_points_valid_in_operating_window(self, small_grid):
        assert np.all(np.isfinite(small_grid.frequency_hz))
        assert np.all(small_grid.frequency_hz > 0.0)
        assert np.all(small_grid.edp_j_s > 0.0)

    def test_frequency_increases_with_vdd(self, small_grid):
        """At fixed V_T, higher V_DD drives faster (paper: delay falls
        with V_DD)."""
        f = small_grid.frequency_hz
        assert np.all(np.diff(f, axis=1) > 0.0)

    def test_frequency_decreases_with_vt(self, small_grid):
        """At fixed V_DD, raising V_T slows the oscillator."""
        f = small_grid.frequency_hz
        assert np.all(np.diff(f, axis=0) < 0.0)

    def test_static_power_minimized_near_ambipolar_alignment(self, tech):
        """Unlike CMOS, GNRFET leakage is minimized when the offset puts
        the off-state at the ambipolar minimum (V_T ~ vt0 - V_DD/2) and
        *increases* for higher V_T - the mechanism behind the paper's
        point-C observation that raising V_T does not buy robustness."""
        vdd = 0.4
        vt_star = tech.vt0 - vdd / 2.0
        vt = np.array([vt_star - 0.08, vt_star, vt_star + 0.1])
        grid = sweep_vdd_vt(tech, vt, np.array([vdd]), with_snm=False)
        p = grid.static_power_w[:, 0]
        assert p[1] == min(p)
        assert p[2] > p[1]

    def test_snm_increases_with_vdd(self, small_grid):
        snm = small_grid.snm_v
        assert np.all(np.diff(snm, axis=1) > -1e-4)

    def test_log_edp_finite(self, small_grid):
        assert np.all(np.isfinite(small_grid.log_edp()))

    def test_edp_has_interior_structure(self, tech):
        """EDP must be non-monotonic in V_T somewhere (the paper's
        optimum at intermediate V_T/V_DD)."""
        vt = np.linspace(0.05, 0.28, 6)
        vdd = np.array([0.3])
        grid = sweep_vdd_vt(tech, vt, vdd, with_snm=False)
        edp = grid.edp_j_s[:, 0]
        i_min = int(np.argmin(edp))
        assert 0 < i_min < len(vt) - 1
