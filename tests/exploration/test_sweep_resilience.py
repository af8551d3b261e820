"""Crash recovery around the V_DD-V_T exploration sweep."""

from functools import partial

import numpy as np
import pytest

from repro import obs
from repro.errors import ParallelMapError
from repro.exploration.sweep import sweep_vdd_vt
from repro.runtime import LocalScheduler
from tests.worker_crash import exit_in_worker

VT = np.array([0.08, 0.15, 0.22])
VDD = np.array([0.25, 0.4])


@pytest.fixture(autouse=True)
def _reset_obs():
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def baseline(tech):
    return sweep_vdd_vt(tech, VT, VDD)


def _rows(tech, vt):
    """One pool task: V_T rows of the plane, as an experiment's worker
    sweeps them; the task holding the first row exits the worker running
    it."""
    if vt[0] == VT[0]:
        exit_in_worker()
    return sweep_vdd_vt(tech, vt, VDD)


class TestWorkerCrashRecovery:
    """The sweeps of an experiment run in its pool task (the scheduler of
    the experiment fan-out); the first task exits the process running
    it."""

    TASKS = [VT[:1], VT[1:]]

    def test_crashed_worker_rows_recomputed(self, tech, baseline):
        obs.enable()
        grids = LocalScheduler(2).run(partial(_rows, tech), self.TASKS)
        for name in ("frequency_hz", "edp_j_s", "snm_v"):
            rows = np.concatenate([getattr(grid, name) for grid in grids])
            assert np.array_equal(rows, getattr(baseline, name),
                                  equal_nan=True), name
        counters = obs.snapshot()["counters"]
        assert counters["resilience.worker_crash_recoveries"] == 1

    def test_strict_propagates_pool_failure(self, tech):
        with pytest.raises(ParallelMapError):
            LocalScheduler(2).run(partial(_rows, tech), self.TASKS,
                                  strict=True)
