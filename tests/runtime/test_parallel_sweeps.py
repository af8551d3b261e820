"""Parallel execution must be bit-for-bit equal to serial at every layer.

These are the contract tests of the tentpole: the device I-V grid, the
V_DD-V_T exploration plane and the ring-oscillator Monte Carlo all run
once serially and once across a worker pool, and every output array must
be *identical* (``np.array_equal``, not ``allclose``).
"""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.device.geometry import GNRFETGeometry
from repro.device.iv import sweep_iv
from repro.exploration.sweep import sweep_vdd_vt
from repro.variability.montecarlo import run_ring_oscillator_monte_carlo

VG = np.array([0.0, 0.15, 0.3, 0.45])
VD = np.array([0.0, 0.25, 0.5])


class TestSweepIV:
    def test_parallel_equals_serial_bitwise(self):
        geom = GNRFETGeometry()
        serial = sweep_iv(geom, VG, VD, config=RunConfig())
        parallel = sweep_iv(geom, VG, VD, config=RunConfig(workers=3))
        assert np.array_equal(serial.current_a, parallel.current_a)
        assert np.array_equal(serial.charge_c, parallel.charge_c)
        assert np.array_equal(serial.midgap_ev, parallel.midgap_ev)

    def test_env_var_controls_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        geom = GNRFETGeometry(n_index=9)
        via_env = sweep_iv(geom, VG[:2], VD[:2])
        monkeypatch.delenv("REPRO_WORKERS")
        serial = sweep_iv(geom, VG[:2], VD[:2])
        assert np.array_equal(via_env.current_a, serial.current_a)


class TestSweepVddVt:
    def test_parallel_equals_serial_bitwise(self, tech):
        vt = np.array([0.08, 0.15, 0.22])
        vdd = np.array([0.25, 0.4])
        serial = sweep_vdd_vt(tech, vt, vdd, config=RunConfig())
        parallel = sweep_vdd_vt(tech, vt, vdd, config=RunConfig(workers=3))
        for name in ("frequency_hz", "edp_j_s", "snm_v", "total_power_w",
                     "static_power_w"):
            assert np.array_equal(getattr(serial, name),
                                  getattr(parallel, name), equal_nan=True), name


class TestMonteCarlo:
    @pytest.fixture(scope="class")
    def serial(self, tech):
        return run_ring_oscillator_monte_carlo(tech, n_samples=40,
                                               seed=2008, config=RunConfig())

    def test_fixed_seed_identical_across_worker_counts(self, tech, serial):
        parallel = run_ring_oscillator_monte_carlo(
            tech, n_samples=40, seed=2008, config=RunConfig(workers=4))
        assert np.array_equal(serial.frequencies_hz, parallel.frequencies_hz)
        assert np.array_equal(serial.dynamic_power_w,
                              parallel.dynamic_power_w)
        assert np.array_equal(serial.static_power_w, parallel.static_power_w)
        assert serial.variant_counts == parallel.variant_counts
        assert serial.nominal_frequency_hz == parallel.nominal_frequency_hz

    def test_sample_prefix_independent_of_sample_count(self, tech, serial):
        """Seeds spawn per sample index, so the first N samples of a
        longer run replicate a shorter run exactly."""
        longer = run_ring_oscillator_monte_carlo(
            tech, n_samples=55, seed=2008, config=RunConfig(workers=2))
        assert np.array_equal(serial.frequencies_hz,
                              longer.frequencies_hz[:40])

    def test_different_seeds_differ(self, tech, serial):
        other = run_ring_oscillator_monte_carlo(
            tech, n_samples=40, seed=1234, config=RunConfig(workers=2))
        assert not np.array_equal(serial.frequencies_hz,
                                  other.frequencies_hz)
