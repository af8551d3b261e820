"""Tests for marching-squares contour extraction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exploration.contours import contour_lines


class TestContours:
    def test_linear_field_contour_is_straight(self):
        x = np.linspace(0, 1, 11)
        y = np.linspace(0, 1, 11)
        z = np.add.outer(x, np.zeros(11))  # z = x
        segs = contour_lines(x, y, z, 0.45)
        assert segs
        for (x1, _), (x2, _) in segs:
            assert x1 == pytest.approx(0.45, abs=1e-9)
            assert x2 == pytest.approx(0.45, abs=1e-9)

    def test_circular_contour_radius(self):
        x = np.linspace(-1, 1, 41)
        y = np.linspace(-1, 1, 41)
        xx, yy = np.meshgrid(x, y, indexing="ij")
        z = np.sqrt(xx ** 2 + yy ** 2)
        segs = contour_lines(x, y, z, 0.5)
        for p1, p2 in segs:
            for px, py in (p1, p2):
                assert np.hypot(px, py) == pytest.approx(0.5, abs=0.02)

    def test_level_outside_range_empty(self):
        x = y = np.linspace(0, 1, 5)
        z = np.zeros((5, 5))
        assert contour_lines(x, y, z, 3.0) == []

    def test_nan_cells_skipped(self):
        x = y = np.linspace(0, 1, 5)
        z = np.add.outer(x, np.zeros(5))
        z[2, 2] = np.nan
        segs = contour_lines(x, y, z, 0.5)
        assert segs  # still produces contours from valid cells
        for p1, p2 in segs:
            assert np.isfinite(p1).all() and np.isfinite(p2).all()

    @given(st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=20)
    def test_segment_endpoints_on_level(self, level):
        """Every returned segment endpoint lies on the contour level of
        a linear field (which marching squares interpolates exactly)."""
        x = np.linspace(0, 1, 21)
        y = np.linspace(0, 1, 21)
        xx, yy = np.meshgrid(x, y, indexing="ij")
        z = 0.5 * xx + 0.5 * yy
        for p1, p2 in contour_lines(x, y, z, level):
            for px, py in (p1, p2):
                assert 0.5 * px + 0.5 * py == pytest.approx(level, abs=1e-12)
