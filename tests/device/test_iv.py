"""Tests for I-V sweep drivers."""

import numpy as np
import pytest

from repro.device.geometry import GNRFETGeometry
from repro.device.iv import sweep_iv


@pytest.fixture(scope="module")
def small_sweep():
    vg = np.linspace(0.0, 0.6, 7)
    vd = np.array([0.0, 0.25, 0.5])
    return sweep_iv(GNRFETGeometry(n_index=12), vg, vd)


class TestSweep:
    def test_shapes(self, small_sweep):
        assert small_sweep.current_a.shape == (7, 3)
        assert small_sweep.charge_c.shape == (7, 3)
        assert small_sweep.midgap_ev.shape == (7, 3)

    def test_zero_vd_column_is_zero_current(self, small_sweep):
        assert np.allclose(small_sweep.current_a[:, 0], 0.0)

    def test_midgap_monotone_in_vg(self, small_sweep):
        """The converged channel level must fall monotonically with
        gate voltage at fixed drain bias."""
        assert np.all(np.diff(small_sweep.midgap_ev[:, 1]) < 0.0)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            sweep_iv(GNRFETGeometry(), np.array([0.2, 0.1]),
                     np.array([0.0, 0.5]))

    def test_rejects_2d_grid(self):
        with pytest.raises(ValueError):
            sweep_iv(GNRFETGeometry(), np.zeros((2, 2)),
                     np.array([0.0, 0.5]))
