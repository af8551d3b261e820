"""Quarantine and crash recovery in the V_DD-V_T exploration sweep."""

import numpy as np
import pytest

from repro import obs
from repro.config import RunConfig
from repro.errors import ConvergenceError, ParallelMapError
from repro.exploration.sweep import sweep_vdd_vt
from repro.runtime import faults

VT = np.array([0.08, 0.15, 0.22])
VDD = np.array([0.25, 0.4])


@pytest.fixture(autouse=True)
def _disarm():
    faults.disable()
    obs.reset()
    yield
    faults.disable()
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def baseline(tech):
    faults.disable()
    return sweep_vdd_vt(tech, VT, VDD, config=RunConfig())


class TestRowQuarantine:
    def test_failed_row_is_nan_masked_with_record(self, tech, baseline):
        faults.enable("scf@1")
        grid = sweep_vdd_vt(tech, VT, VDD, config=RunConfig())
        assert len(grid.failures) == 1
        record = grid.failures[0]
        assert record.site == "exploration"
        assert record.index == 1
        assert record.bias == {"vt": float(VT[1])}
        assert np.all(np.isnan(grid.frequency_hz[1]))
        # untouched rows match the fault-free baseline exactly
        for row in (0, 2):
            assert np.array_equal(grid.frequency_hz[row],
                                  baseline.frequency_hz[row],
                                  equal_nan=True)

    def test_serial_equals_parallel_bitwise(self, tech):
        faults.enable("scf@1")
        serial = sweep_vdd_vt(tech, VT, VDD, config=RunConfig())
        faults.reset_attempts()
        parallel = sweep_vdd_vt(tech, VT, VDD, config=RunConfig(workers=3))
        for name in ("frequency_hz", "edp_j_s", "snm_v", "total_power_w",
                     "static_power_w"):
            assert np.array_equal(getattr(serial, name),
                                  getattr(parallel, name),
                                  equal_nan=True), name
        assert serial.failures == parallel.failures

    @pytest.mark.parametrize("workers", [1, 2])
    def test_strict_raises(self, tech, workers):
        faults.enable("scf@1")
        with pytest.raises(ConvergenceError) as err:
            sweep_vdd_vt(tech, VT, VDD,
                         config=RunConfig(workers=workers, strict=True))
        assert err.value.context["row_index"] == 1
        assert err.value.context["vt"] == float(VT[1])
        assert err.value.context["injected"] is True


class TestWorkerCrashRecovery:
    def test_crashed_worker_rows_recomputed(self, tech, baseline):
        obs.enable()
        faults.enable("worker@1")
        grid = sweep_vdd_vt(tech, VT, VDD, config=RunConfig(workers=2))
        assert grid.failures == ()
        for name in ("frequency_hz", "edp_j_s", "snm_v"):
            assert np.array_equal(getattr(grid, name),
                                  getattr(baseline, name),
                                  equal_nan=True), name
        counters = obs.snapshot()["counters"]
        assert counters["resilience.worker_crash_recoveries"] == 1

    def test_strict_propagates_pool_failure(self, tech):
        faults.enable("worker@1")
        with pytest.raises(ParallelMapError):
            sweep_vdd_vt(tech, VT, VDD,
                         config=RunConfig(workers=2, strict=True))
