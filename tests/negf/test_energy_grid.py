"""Tests for energy-grid construction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.negf.energy_grid import (
    adaptive_energy_grid,
    breakpoint_energy_grid,
    uniform_energy_grid,
)


class TestUniform:
    def test_includes_endpoints(self):
        g = uniform_energy_grid(-1.0, 1.0, 0.1)
        assert g[0] == -1.0 and g[-1] == 1.0

    def test_spacing_bound(self):
        g = uniform_energy_grid(0.0, 1.0, 0.3)
        assert np.max(np.diff(g)) <= 0.3 + 1e-12

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            uniform_energy_grid(1.0, 1.0, 0.1)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            uniform_energy_grid(0.0, 1.0, 0.0)


class TestAdaptive:
    def test_sorted_unique(self):
        g = adaptive_energy_grid(-1, 1, [0.0, 0.5])
        assert np.all(np.diff(g) > 0.0)

    def test_finer_near_features(self):
        g = adaptive_energy_grid(-1, 1, [0.0], coarse_step_ev=0.05,
                                 fine_step_ev=0.002,
                                 feature_halfwidth_ev=0.1)
        near = g[np.abs(g) < 0.08]
        far = g[np.abs(g) > 0.5]
        assert np.max(np.diff(near)) < 0.003
        assert np.max(np.diff(far)) > 0.01

    def test_features_outside_window_ignored(self):
        g_with = adaptive_energy_grid(-1, 1, [5.0])
        g_without = adaptive_energy_grid(-1, 1, [])
        assert np.array_equal(g_with, g_without)

    def test_rejects_inverted_steps(self):
        with pytest.raises(ValueError):
            adaptive_energy_grid(-1, 1, [], coarse_step_ev=0.001,
                                 fine_step_ev=0.01)

    @given(st.lists(st.floats(min_value=-0.9, max_value=0.9),
                    min_size=0, max_size=5))
    @settings(max_examples=25)
    def test_covers_window_for_any_features(self, features):
        g = adaptive_energy_grid(-1, 1, features)
        assert g[0] == pytest.approx(-1.0)
        assert g[-1] == pytest.approx(1.0)
        assert np.all(np.diff(g) > 0.0)

    def test_integral_of_smooth_function_accurate(self):
        """The adaptive grid must integrate a Fermi-edge-like integrand
        accurately when the feature is flagged."""
        mu = 0.123
        g = adaptive_energy_grid(-1, 1, [mu], coarse_step_ev=0.05,
                                 fine_step_ev=0.001)
        f = 1.0 / (1.0 + np.exp((g - mu) / 0.0259))
        val = np.trapezoid(f, g)
        ref_grid = np.linspace(-1, 1, 200001)
        ref = np.trapezoid(1.0 / (1.0 + np.exp((ref_grid - mu) / 0.0259)),
                           ref_grid)
        assert val == pytest.approx(ref, rel=1e-4)


FINE, COARSE, HALF = 0.001, 0.01, 0.04


def _segments(grid, bounds, steps):
    """Per segment ``[a, b]`` of the expected layout: its spacings and
    the largest step not above its nominal one that divides it."""
    for (a, b), step in zip(zip(bounds, bounds[1:]), steps):
        inside = grid[(grid >= a - 1e-12) & (grid <= b + 1e-12)]
        assert inside[0] == pytest.approx(a, abs=1e-12)
        assert inside[-1] == pytest.approx(b, abs=1e-12)
        width = b - a
        yield np.diff(inside), width / np.ceil(width / step - 1e-9)


class TestBreakpoint:
    def test_overlapping_windows_merge_without_interleaving(self):
        # Windows around 0.0 and 0.05 overlap; 0.5 stands alone.
        g = breakpoint_energy_grid(-1.0, 1.0, [0.05, 0.0, 0.5],
                                   FINE, COARSE, HALF)
        bounds = [-1.0, -0.04, 0.09, 0.46, 0.54, 1.0]
        steps = [COARSE, FINE, COARSE, FINE, COARSE]
        for spacing, step in _segments(g, bounds, steps):
            np.testing.assert_allclose(spacing, step, rtol=1e-9)
        # Interleaved offset grids would leave spacings well below FINE.
        assert np.diff(g).min() > 0.9 * FINE
        assert g.size == 1 + sum(
            int(np.ceil((b - a) / s - 1e-9))
            for a, b, s in zip(bounds, bounds[1:], steps))

    def test_adaptive_grid_interleaves_where_this_one_merges(self):
        features = [0.0, 0.0503]    # windows offset by 0.3 fine steps
        g = adaptive_energy_grid(-1.0, 1.0, features, coarse_step_ev=COARSE,
                                 fine_step_ev=FINE, feature_halfwidth_ev=HALF)
        assert np.diff(g).min() < 0.5 * FINE
        g = breakpoint_energy_grid(-1.0, 1.0, features, FINE, COARSE, HALF)
        assert np.diff(g).min() > 0.9 * FINE

    def test_windows_clip_to_the_range(self):
        g = breakpoint_energy_grid(-1.0, 1.0, [-1.02, 0.99, 3.0],
                                   FINE, COARSE, HALF)
        bounds = [-1.0, -0.98, 0.95, 1.0]
        for spacing, step in _segments(g, bounds, [FINE, COARSE, FINE]):
            np.testing.assert_allclose(spacing, step, rtol=1e-9)

    def test_no_breakpoints_is_uniform_coarse(self):
        g = breakpoint_energy_grid(-1.0, 1.0, [], FINE, COARSE, HALF)
        np.testing.assert_allclose(g, np.linspace(-1.0, 1.0, 201),
                                   rtol=0, atol=1e-12)

    def test_jump_is_straddled(self):
        jump = 0.1234
        g = breakpoint_energy_grid(-1.0, 1.0, [], FINE, COARSE, HALF,
                                   jumps_ev=[jump])
        k = np.searchsorted(g, jump)
        assert g[k - 1] < jump < g[k]
        assert g[k] - g[k - 1] < 1e-8
        assert np.diff(g[(g > jump - HALF) & (g < jump + HALF)]).max() \
            <= FINE * (1 + 1e-9)

    @given(st.lists(st.floats(min_value=-1.2, max_value=1.2),
                    min_size=0, max_size=8),
           st.lists(st.floats(min_value=-0.9, max_value=0.9), max_size=2),
           st.floats(min_value=-1.5, max_value=0.5),
           st.floats(min_value=0.1, max_value=2.0),
           st.floats(min_value=1e-4, max_value=5e-3),
           st.floats(min_value=1.0, max_value=20.0),
           st.floats(min_value=1e-3, max_value=0.2))
    @settings(max_examples=60, deadline=None)
    def test_structure(self, points, jumps, e_min, width, fine, ratio,
                       half):
        e_max = e_min + width
        g = breakpoint_energy_grid(e_min, e_max, points, fine, fine * ratio,
                                   half, jumps_ev=jumps)
        assert g[0] == e_min and g[-1] == e_max
        assert np.all(np.diff(g) > 0.0)
        assert np.diff(g).max() <= fine * ratio * (1 + 1e-9)
        for p in [*points, *jumps]:
            near = g[(g > p - 0.9 * half) & (g < p + 0.9 * half)]
            if near.size > 1:
                assert np.diff(near).max() <= fine * (1 + 1e-9)

    @given(st.lists(st.floats(min_value=-0.8, max_value=0.8),
                    min_size=0, max_size=8),
           st.floats(min_value=-0.6, max_value=0.0),
           st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_mirrored_breakpoints_mirror_the_grid(self, points, centre,
                                                  half_window):
        """Breakpoints mirrored about ``c`` on a window symmetric about
        ``c`` give the grid mirrored about ``c``."""
        e_min, e_max = centre - half_window, centre + half_window
        mirrored = [2.0 * centre - p for p in points]
        g = breakpoint_energy_grid(e_min, e_max, points, FINE, COARSE, HALF)
        h = breakpoint_energy_grid(e_min, e_max, mirrored, FINE, COARSE,
                                   HALF)
        assert g.size == h.size
        np.testing.assert_allclose(2.0 * centre - h[::-1], g, rtol=0,
                                   atol=1e-12)

    def test_emits_grid_counters(self):
        obs.reset()
        obs.enable()
        try:
            g = breakpoint_energy_grid(-1.0, 1.0, [0.0], FINE, COARSE, HALF)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert counters["negf.energy_grids"] == 1
        assert counters["negf.energy_grid_points"] == g.size

    @pytest.mark.parametrize("args", [
        (1.0, 1.0, [], FINE, COARSE, HALF),
        (-1.0, 1.0, [], 0.0, COARSE, HALF),
        (-1.0, 1.0, [], FINE, COARSE, 0.0),
        (-1.0, 1.0, [], COARSE, FINE, HALF)])
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            breakpoint_energy_grid(*args)
