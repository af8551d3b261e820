"""Fault-injection recovery across the sweep layers (ISSUE 5 acceptance).

Forced SCF failures mid-sweep must yield NaN-masked cells with matching
``FailureRecord``s (identically serial and parallel), ``strict=True``
must keep today's raise-on-first-failure behavior, a killed-then-resumed
sweep must be bitwise-identical to an uninterrupted one, and a crashed
worker process must cost nothing but a recompute.
"""

import numpy as np
import pytest

from repro import obs
from repro.config import RunConfig
from repro.device.geometry import GNRFETGeometry
from repro.device.iv import sweep_iv
from repro.device import tables
from repro.device.tables import build_device_table
from repro.errors import CheckpointError, ConvergenceError
from repro.runtime import faults

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

    def test_serial_equals_parallel_bitwise(self):
        faults.enable("scf@3,17,40")
        serial = sweep_iv(GEOM, VG, VD, config=RunConfig())
        faults.reset_attempts()
        parallel = sweep_iv(GEOM, VG, VD, config=RunConfig(workers=4))
        _assert_same(serial, parallel)
        assert serial.failures == parallel.failures

    @pytest.mark.parametrize("workers", [1, 2])
    def test_strict_raises_first_failure(self, workers):
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


class TestCheckpointResume:
    def test_killed_then_resumed_equals_uninterrupted(self, baseline):
        # First run dies on its second checkpoint write (ordinal 1).
        faults.enable("checkpoint@1")
        with pytest.raises(CheckpointError):
            sweep_iv(GEOM, VG, VD, config=RunConfig(checkpoint=2))
        faults.disable()
        resumed = sweep_iv(GEOM, VG, VD,
                           config=RunConfig(checkpoint=2, resume=True))
        _assert_same(resumed, baseline)
        assert resumed.failures == ()

    def test_resume_skips_completed_rows(self, baseline):
        faults.enable("checkpoint@2")
        with pytest.raises(CheckpointError):
            sweep_iv(GEOM, VG, VD, config=RunConfig(checkpoint=1))
        faults.disable()
        obs.enable()
        resumed = sweep_iv(GEOM, VG, VD,
                           config=RunConfig(checkpoint=1, resume=True))
        _assert_same(resumed, baseline)
        counters = obs.snapshot()["counters"]
        assert counters["resilience.checkpoint_resumes"] == 1
        # two rows were checkpointed before the injected death, so the
        # resumed run writes fewer checkpoints than a fresh one would
        assert counters["resilience.checkpoint_writes"] <= VG.size - 2

    def test_completed_sweep_clears_checkpoint(self, baseline):
        sweep = sweep_iv(GEOM, VG, VD, config=RunConfig(checkpoint=2))
        _assert_same(sweep, baseline)
        resumed = sweep_iv(GEOM, VG, VD,
                           config=RunConfig(checkpoint=2, resume=True))
        _assert_same(resumed, baseline)  # nothing stale to resume from

    def test_resume_with_quarantine_keeps_failure_records(self):
        faults.enable("scf@3;checkpoint@1")
        with pytest.raises(CheckpointError):
            sweep_iv(GEOM, VG, VD, config=RunConfig(checkpoint=2))
        faults.enable("scf@3")  # keep the cell failing after resume
        faults.reset_attempts()
        resumed = sweep_iv(GEOM, VG, VD,
                           config=RunConfig(checkpoint=2, resume=True))
        assert {f.index for f in resumed.failures} == {3}
        assert np.isnan(resumed.current_a[0, 3])


class TestWorkerCrashRecovery:
    def test_crashed_worker_rows_are_recomputed(self, baseline):
        obs.enable()
        faults.enable("worker@5")
        sweep = sweep_iv(GEOM, VG, VD, config=RunConfig(workers=2))
        _assert_same(sweep, baseline)
        assert sweep.failures == ()
        counters = obs.snapshot()["counters"]
        assert counters["resilience.worker_crash_recoveries"] == 1
        assert counters["resilience.rows_recomputed"] >= 1

    def test_strict_propagates_pool_failure(self):
        from repro.errors import ParallelMapError

        faults.enable("worker@5")
        with pytest.raises(ParallelMapError):
            sweep_iv(GEOM, VG, VD, config=RunConfig(workers=2, strict=True))


class TestTableBuildQuarantine:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_table_is_nan_masked_and_never_cached(
            self, workers, tmp_path, monkeypatch):
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
    def test_strict_table_build_raises(self, workers, monkeypatch):
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
