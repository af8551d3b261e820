"""Failure recovery in the device I-V sweep.

Bisection failures mid-sweep must yield NaN-masked cells with matching
``FailureRecord``s, ``strict=True`` must keep the raise-on-first-failure
behavior at any worker count (the sweep runs in-process), and a crashed
worker process running the sweep as its pool task must cost nothing but
a recompute.  The failures are the ones a real bisection returns: a
patched :meth:`SBFETModel.solve_midgaps` fails chosen points.
"""

import numpy as np
import pytest

from repro import obs
from repro.config import RunConfig
from repro.device.geometry import GNRFETGeometry
from repro.device.iv import sweep_iv
from repro.device import tables
from repro.device.sbfet import SBFETModel
from repro.device.tables import build_device_table
from repro.errors import ConvergenceError, ParallelMapError
from repro.runtime import LocalScheduler
from tests.worker_crash import exit_in_worker

VG = np.linspace(0.0, 0.6, 13)
VD = np.linspace(0.0, 0.6, 5)
GEOM = GNRFETGeometry(n_index=12)


@pytest.fixture(autouse=True)
def _reset_obs():
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def baseline():
    """Uninterrupted, failure-free reference sweep."""
    return sweep_iv(GEOM, VG, VD, config=RunConfig())


def _fail_points(monkeypatch, points):
    """Make the bisection fail at the flat indices ``points`` of each
    :meth:`SBFETModel.solve_midgaps` call, as an unbracketed cell does.

    A sweep's first points are its cells in row-major order.  None of
    the cells failed below is a mirror twin of another cell.
    """
    solve = SBFETModel.solve_midgaps

    def failing(self, vg, vd, *args, **kwargs):
        midgap, iterations, failures = solve(self, vg, vd, *args, **kwargs)
        for point in points:
            midgap.flat[point], iterations.flat[point] = np.nan, 0
            failures[point] = ConvergenceError(
                "cannot bracket electrostatic solution",
                context={"solver": "sbfet_bisection", "stage": "bracket"})
        return midgap, iterations, dict(sorted(failures.items()))

    monkeypatch.setattr(SBFETModel, "solve_midgaps", failing)


def _assert_same(a, b):
    assert np.array_equal(a.current_a, b.current_a, equal_nan=True)
    assert np.array_equal(a.charge_c, b.charge_c, equal_nan=True)
    assert np.array_equal(a.midgap_ev, b.midgap_ev, equal_nan=True)


class TestQuarantine:
    def test_failed_cells_are_nan_masked_with_records(self, monkeypatch):
        _fail_points(monkeypatch, (3, 17, 40))
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
            assert record.context["stage"] == "bracket"
            assert record.context["cell_index"] == record.index
            assert record.rungs_tried == ()  # one attempt, no ladder
            i, j = record.coords
            assert record.bias == {"vg": float(VG[i]), "vd": float(VD[j])}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_strict_raises_first_failure(self, no_pool, workers,
                                         monkeypatch):
        _fail_points(monkeypatch, (17, 40))
        with pytest.raises(ConvergenceError) as err:
            sweep_iv(GEOM, VG, VD,
                     config=RunConfig(workers=workers, strict=True))
        i, j = divmod(17, VD.size)
        assert err.value.context["cell_index"] == 17
        assert err.value.context["vg"] == float(VG[i])
        assert err.value.context["vd"] == float(VD[j])
        assert err.value.context["solver"] == "sbfet_bisection"

    def test_failures_reach_obs_manifest(self, monkeypatch):
        from repro.obs.manifest import build_manifest

        obs.enable()
        _fail_points(monkeypatch, (3,))
        sweep_iv(GEOM, VG, VD, config=RunConfig())
        manifest = build_manifest("test", snapshot=obs.snapshot())
        assert len(manifest["failures"]) == 1
        assert manifest["failures"][0]["index"] == 3
        assert manifest["rollups"]["cells_quarantined"] == 1


def _sweep(geometry):
    """One pool task: a device sweep, as an experiment's worker runs it."""
    return sweep_iv(geometry, VG, VD, config=RunConfig())


def _sweep_crashing_on_geom(geometry):
    """:func:`_sweep`, whose ``GEOM`` task exits the worker running it."""
    if geometry == GEOM:
        exit_in_worker()
    return _sweep(geometry)


class TestWorkerCrashRecovery:
    """The sweeps of an experiment run in its pool task (the scheduler of
    the experiment fan-out); the first task exits the process running
    it."""

    TASKS = [GEOM, GNRFETGeometry(n_index=9)]

    def test_crashed_worker_rows_are_recomputed(self, baseline):
        obs.enable()
        sweeps = LocalScheduler(2).run(_sweep_crashing_on_geom, self.TASKS)
        counters = obs.snapshot()["counters"]
        assert counters["resilience.worker_crash_recoveries"] == 1
        assert counters["resilience.rows_recomputed"] >= 1
        _assert_same(sweeps[0], baseline)
        _assert_same(sweeps[1], _sweep(self.TASKS[1]))
        assert [sweep.failures for sweep in sweeps] == [(), ()]

    def test_strict_propagates_pool_failure(self):
        with pytest.raises(ParallelMapError):
            LocalScheduler(2).run(_sweep_crashing_on_geom, self.TASKS,
                                  strict=True)


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
        with monkeypatch.context() as patch:
            _fail_points(patch, (4,))
            table = build_device_table(geom, vg, vd, config=config)
        assert len(table.failures) == 1
        assert np.isnan(table.current_a[1, 1])  # cell 4 of a 5x3 grid
        rebuilt = build_device_table(geom, vg, vd, config=config)
        # neither the in-process memo nor the disk store kept the holes
        assert rebuilt.failures == ()
        assert np.all(np.isfinite(rebuilt.current_a))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_strict_table_build_raises(self, no_pool, workers, monkeypatch):
        monkeypatch.setattr(tables, "_TABLE_CACHE", {})
        vg = np.linspace(0.0, 0.4, 5)
        vd = np.array([0.0, 0.2, 0.4])
        _fail_points(monkeypatch, (4,))
        with pytest.raises(ConvergenceError) as err:
            build_device_table(GNRFETGeometry(n_index=9), vg, vd,
                               config=RunConfig(use_cache=False, strict=True,
                                                workers=workers))
        assert err.value.context["cell_index"] == 4
        assert err.value.context["vg"] == float(vg[1])
        assert err.value.context["vd"] == float(vd[1])
        assert err.value.context["stage"] == "bracket"
