"""Fault-injection recovery in the device I-V sweep.

Forced SCF failures mid-sweep must yield NaN-masked cells with matching
``FailureRecord``s, ``strict=True`` must keep the raise-on-first-failure
behavior at any worker count (the sweep runs in-process), and a crashed
worker process running the sweep as its pool task must cost nothing but
a recompute.
"""

import numpy as np
import pytest

from repro import obs
from repro.config import RunConfig
from repro.device.geometry import GNRFETGeometry
from repro.device.iv import sweep_iv
from repro.device import tables
from repro.device.tables import build_device_table
from repro.errors import ConvergenceError, ParallelMapError
from repro.runtime import LocalScheduler, faults

VG = np.linspace(0.0, 0.6, 13)
VD = np.linspace(0.0, 0.6, 5)
GEOM = GNRFETGeometry(n_index=12)


@pytest.fixture(autouse=True)
def _disarm():
    faults.disable()
    obs.reset()
    yield
    faults.disable()
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def baseline():
    """Uninterrupted, fault-free reference sweep."""
    faults.disable()
    return sweep_iv(GEOM, VG, VD, config=RunConfig())


def _assert_same(a, b):
    assert np.array_equal(a.current_a, b.current_a, equal_nan=True)
    assert np.array_equal(a.charge_c, b.charge_c, equal_nan=True)
    assert np.array_equal(a.midgap_ev, b.midgap_ev, equal_nan=True)


class TestQuarantine:
    def test_failed_cells_are_nan_masked_with_records(self):
        faults.enable("scf@3,17,40")
        sweep = sweep_iv(GEOM, VG, VD, config=RunConfig())
        failed = {f.index for f in sweep.failures}
        assert failed == {3, 17, 40}
        n_vd = VD.size
        for cell in (3, 17, 40):
            i, j = divmod(cell, n_vd)
            assert np.isnan(sweep.current_a[i, j])
            assert np.isnan(sweep.charge_c[i, j])
            assert np.isnan(sweep.midgap_ev[i, j])
        # exactly those cells — everything else converged
        assert np.count_nonzero(np.isnan(sweep.current_a)) == 3
        for record in sweep.failures:
            assert record.error == "ConvergenceError"
            assert record.context["injected"] is True
            assert record.context["cell_index"] == record.index
            assert record.rungs_tried == ()  # one attempt, no ladder
            i, j = record.coords
            assert record.bias == {"vg": float(VG[i]), "vd": float(VD[j])}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_strict_raises_first_failure(self, no_pool, workers):
        faults.enable("scf@17")
        with pytest.raises(ConvergenceError) as err:
            sweep_iv(GEOM, VG, VD,
                     config=RunConfig(workers=workers, strict=True))
        i, j = divmod(17, VD.size)
        assert err.value.context["cell_index"] == 17
        assert err.value.context["vg"] == float(VG[i])
        assert err.value.context["vd"] == float(VD[j])
        assert err.value.context["injected"] is True

    def test_failures_reach_obs_manifest(self):
        from repro.obs.manifest import build_manifest

        obs.enable()
        faults.enable("scf@3")
        sweep_iv(GEOM, VG, VD, config=RunConfig())
        manifest = build_manifest("test", snapshot=obs.snapshot())
        assert len(manifest["failures"]) == 1
        assert manifest["failures"][0]["index"] == 3
        assert manifest["rollups"]["cells_quarantined"] == 1


def _sweep(geometry):
    """One pool task: a device sweep, as an experiment's worker runs it."""
    return sweep_iv(geometry, VG, VD, config=RunConfig())


class TestWorkerCrashRecovery:
    """The sweeps of an experiment run in its pool task (the scheduler of
    the experiment fan-out); ``worker@0`` exits the process running the
    first task."""

    TASKS = [GEOM, GNRFETGeometry(n_index=9)]

    def test_crashed_worker_rows_are_recomputed(self, baseline):
        obs.enable()
        faults.enable("worker@0")
        sweeps = LocalScheduler(2).run(_sweep, self.TASKS)
        counters = obs.snapshot()["counters"]
        assert counters["resilience.worker_crash_recoveries"] == 1
        assert counters["resilience.rows_recomputed"] >= 1
        faults.disable()
        _assert_same(sweeps[0], baseline)
        _assert_same(sweeps[1], _sweep(self.TASKS[1]))
        assert [sweep.failures for sweep in sweeps] == [(), ()]

    def test_strict_propagates_pool_failure(self):
        faults.enable("worker@0")
        with pytest.raises(ParallelMapError):
            LocalScheduler(2).run(_sweep, self.TASKS, strict=True)


class TestTableBuildQuarantine:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_table_is_nan_masked_and_never_cached(
            self, no_pool, workers, tmp_path, monkeypatch):
        # Fresh cache layers: the other worker count's clean rebuild
        # must not serve this build.
        config = RunConfig(workers=workers, cache_dir=tmp_path)
        monkeypatch.setattr(tables, "_TABLE_CACHE", {})
        vg = np.linspace(0.0, 0.4, 5)
        vd = np.array([0.0, 0.2, 0.4])
        geom = GNRFETGeometry(n_index=9)
        faults.enable("scf@4")
        table = build_device_table(geom, vg, vd, config=config)
        assert len(table.failures) == 1
        assert np.isnan(table.current_a[1, 1])  # cell 4 of a 5x3 grid
        faults.disable()
        rebuilt = build_device_table(geom, vg, vd, config=config)
        # neither the in-process memo nor the disk store kept the holes
        assert rebuilt.failures == ()
        assert np.all(np.isfinite(rebuilt.current_a))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_strict_table_build_raises(self, no_pool, workers, monkeypatch):
        monkeypatch.setattr(tables, "_TABLE_CACHE", {})
        vg = np.linspace(0.0, 0.4, 5)
        vd = np.array([0.0, 0.2, 0.4])
        faults.enable("scf@4")
        with pytest.raises(ConvergenceError) as err:
            build_device_table(GNRFETGeometry(n_index=9), vg, vd,
                               config=RunConfig(use_cache=False, strict=True,
                                                workers=workers))
        assert err.value.context["cell_index"] == 4
        assert err.value.context["vg"] == float(vg[1])
        assert err.value.context["vd"] == float(vd[1])
        assert err.value.context["injected"] is True
