"""Quarantine and crash recovery in the V_DD-V_T exploration sweep."""

from functools import partial

import numpy as np
import pytest

from repro import obs
from repro.config import RunConfig
from repro.errors import ConvergenceError, ParallelMapError
from repro.exploration.sweep import sweep_vdd_vt
from repro.runtime import LocalScheduler, faults

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_strict_raises(self, tech, no_pool, workers):
        faults.enable("scf@1")
        with pytest.raises(ConvergenceError) as err:
            sweep_vdd_vt(tech, VT, VDD,
                         config=RunConfig(workers=workers, strict=True))
        assert err.value.context["row_index"] == 1
        assert err.value.context["vt"] == float(VT[1])
        assert err.value.context["injected"] is True


def _rows(tech, vt):
    """One pool task: V_T rows of the plane, as an experiment's worker
    sweeps them."""
    return sweep_vdd_vt(tech, vt, VDD, config=RunConfig())


class TestWorkerCrashRecovery:
    """The sweeps of an experiment run in its pool task (the scheduler of
    the experiment fan-out); ``worker@0`` exits the process running the
    first task."""

    TASKS = [VT[:1], VT[1:]]

    def test_crashed_worker_rows_recomputed(self, tech, baseline):
        obs.enable()
        faults.enable("worker@0")
        grids = LocalScheduler(2).run(partial(_rows, tech), self.TASKS)
        assert [grid.failures for grid in grids] == [(), ()]
        for name in ("frequency_hz", "edp_j_s", "snm_v"):
            rows = np.concatenate([getattr(grid, name) for grid in grids])
            assert np.array_equal(rows, getattr(baseline, name),
                                  equal_nan=True), name
        counters = obs.snapshot()["counters"]
        assert counters["resilience.worker_crash_recoveries"] == 1

    def test_strict_propagates_pool_failure(self, tech):
        faults.enable("worker@0")
        with pytest.raises(ParallelMapError):
            LocalScheduler(2).run(partial(_rows, tech), self.TASKS,
                                  strict=True)

