"""Instrumented hot paths emit the documented counter families."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.config import RunConfig
from repro.device.geometry import GNRFETGeometry
from repro.device.iv import sweep_iv
from repro.device.sbfet import SBFETModel
from repro.negf.scf import SCFOptions, self_consistent_loop
from repro.runtime import ArtifactCache


class TestSCFCounters:
    def test_converged_loop_emits_scf_family(self):
        obs.enable()
        target = np.full(4, 0.2)
        result = self_consistent_loop(
            solve_charge=lambda u: -u,
            solve_potential=lambda rho: target,
            initial_potential=np.zeros(4),
            options=SCFOptions(tolerance_ev=1e-6))
        assert result.converged
        snap = obs.snapshot()
        assert snap["counters"]["scf.solves"] == 1
        assert snap["counters"]["scf.converged"] == 1
        assert snap["counters"]["scf.iterations"] == result.iterations
        h = snap["histograms"]["scf.iterations_to_converge"]
        assert h["count"] == 1
        assert h["max"] == result.iterations

    def test_diverged_loop_counts_separately(self):
        obs.enable()
        result = self_consistent_loop(
            solve_charge=lambda u: u,
            # No fixed point: the residual is 1 at every iteration.
            solve_potential=lambda rho: rho + 1.0,
            initial_potential=np.zeros(3),
            options=SCFOptions(max_iterations=5,
                               raise_on_failure=False))
        assert not result.converged
        counters = obs.snapshot()["counters"]
        assert counters["scf.solves"] == 1
        assert counters["scf.diverged"] == 1
        assert counters.get("scf.converged", 0) == 0
        assert counters["scf.iterations"] == 5


class TestCacheCounters:
    def test_miss_write_hit_sequence(self, tmp_path):
        obs.enable()
        store = ArtifactCache("unit", root=tmp_path, enabled=True)
        assert store.get("k") is None
        store.put("k", data=np.arange(3.0))
        payload = store.get("k")
        assert payload is not None
        counters = obs.snapshot()["counters"]
        assert counters["cache.artifact_misses"] == 1
        assert counters["cache.artifact_writes"] == 1
        assert counters["cache.artifact_hits"] == 1

    def test_corrupt_file_counts_as_miss(self, tmp_path):
        obs.enable()
        store = ArtifactCache("unit", root=tmp_path, enabled=True)
        store.directory.mkdir(parents=True)
        store.path_for("bad").write_bytes(b"not an npz")
        assert store.get("bad") is None
        assert obs.snapshot()["counters"]["cache.artifact_misses"] == 1

    def test_disabled_cache_emits_nothing(self, tmp_path):
        obs.enable()
        store = ArtifactCache("unit", root=tmp_path, enabled=False)
        assert store.get("k") is None
        assert store.put("k", data=np.zeros(1)) is None
        assert obs.snapshot()["counters"] == {}


class TestDeviceCounters:
    @pytest.fixture(scope="class")
    def model(self):
        return SBFETModel(GNRFETGeometry(n_index=12))

    def test_solve_bias_emits_scf_and_grid_counters(self, model):
        obs.enable()
        model.solve_bias(0.4, 0.1)
        snap = obs.snapshot()
        counters = snap["counters"]
        assert counters["device.bias_points"] == 1
        # The bisection engine reports through the same scf.* family as
        # the NEGF loop, so rollups cover both engines.
        assert counters["scf.solves"] == 1
        assert counters["scf.converged"] == 1
        assert counters["scf.iterations"] >= 1
        assert counters["negf.energy_grids"] >= 1
        assert counters["negf.energy_grid_points"] > 0
        assert snap["histograms"]["scf.iterations_to_converge"]["count"] == 1

    def test_rollups_reflect_the_device_solve(self, model):
        obs.enable()
        model.solve_bias(0.2, 0.3)
        roll = obs.compute_rollups(obs.snapshot())
        assert roll["scf_solves"] == 1
        assert roll["scf_iterations_total"] >= 1
        assert roll["energy_grids_built"] >= 1
        assert roll["energy_grid_points_total"] > 0
        assert roll["device_bias_points"] == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_counts_each_cell_like_a_lone_solve(self, model, no_pool,
                                                       workers):
        """The sweep bisects every cell up front; it counts each cell's
        bisection exactly as a lone ``solve_bias`` does, and builds one
        energy grid per distinct canonical point (a p-branch cell and its
        twin share one), as lone integrals at those points do."""
        vg, vd = np.linspace(0.0, 0.6, 3), np.array([0.0, 0.3])
        cells = [(float(a), float(b)) for a in vg for b in vd]
        canonical = {(float(model.mirror_gate_v(a, b)), b) for a, b in cells}
        # (0.0, 0.3) integrates at its on-grid twin (0.3, 0.3).
        assert len(canonical) == len(cells) - 1
        obs.enable()
        for a, b in cells:
            model.solve_bias(a, b)
        lone = obs.snapshot()
        obs.reset()
        obs.enable()
        for a, b in sorted(canonical):
            model.current_a(model.solve_midgap_ev(a, b)[0], b)
        integrals = obs.snapshot()
        obs.reset()
        obs.enable()
        sweep_iv(model.geometry, vg, vd, config=RunConfig(workers=workers))
        swept = obs.snapshot()
        for key in ("device.bias_points", "scf.solves", "scf.converged",
                    "scf.iterations"):
            assert swept["counters"][key] == lone["counters"][key], key
        for key in ("negf.energy_grids", "negf.energy_grid_points"):
            assert (swept["counters"][key]
                    == integrals["counters"][key]), key
        hist = "scf.iterations_to_converge"
        assert swept["histograms"][hist] == lone["histograms"][hist]

    def test_disabled_solve_emits_nothing(self, model):
        assert obs.ACTIVE is False
        model.solve_bias(0.4, 0.1)
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["histograms"] == {}
