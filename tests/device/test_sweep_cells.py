"""A sweep cell is a pure function of the geometry and its bias point.

Every ``sweep_iv`` cell is solved from scratch, and a p-branch cell of a
mirror-symmetric model takes its current from its canonical twin
whether or not the twin is on the grid, so every cell must equal a lone
``SBFETModel.solve_bias`` call bit for bit, at any worker count, and a
sweep over a subset of either bias axis must reproduce the full sweep at
the shared points.  A leftover ``REPRO_NO_WARMSTART`` from older
environments must change neither a table key nor a table.
"""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.device.geometry import GNRFETGeometry
from repro.device.iv import sweep_iv
from repro.device import tables
from repro.device.sbfet import SBFETModel
from repro.device.tables import (
    DEFAULT_VD_GRID,
    DEFAULT_VG_GRID,
    build_device_table,
    table_cache_key,
)

GEOM = GNRFETGeometry(n_index=12)
VG = np.linspace(-0.2, 0.6, 4)
VD = np.linspace(0.0, 0.6, 5)

#: A slice of the default grid: V_G -0.1 .. 0.35 V, V_D 0 .. 0.75 V in
#: 0.15 V steps.  Its p-branch twins fall on the slice ((0.0, 0.3) ->
#: (0.3, 0.3)) and off it ((-0.1, 0.75) -> (0.85, 0.75)).
SLICE_VG = DEFAULT_VG_GRID[6:16]
SLICE_VD = DEFAULT_VD_GRID[::3]


@pytest.mark.parametrize("workers", [1, 2])
def test_every_cell_equals_a_lone_solve(no_pool, workers):
    model = SBFETModel(GEOM)
    for vg_grid, vd_grid in ((VG, VD), (SLICE_VG, SLICE_VD)):
        sweep = sweep_iv(GEOM, vg_grid, vd_grid,
                         config=RunConfig(workers=workers))
        for i, vg in enumerate(vg_grid):
            for j, vd in enumerate(vd_grid):
                sol = model.solve_bias(float(vg), float(vd))
                assert sweep.current_a[i, j] == sol.current_a, (vg, vd)
                assert sweep.charge_c[i, j] == sol.charge_c, (vg, vd)
                assert sweep.midgap_ev[i, j] == sol.midgap_ev, (vg, vd)


def test_drain_subset_equals_full_sweep_at_shared_points():
    vd = np.linspace(0.0, 0.6, 7)
    full = sweep_iv(GEOM, VG, vd, config=RunConfig())
    half = sweep_iv(GEOM, VG, vd[::2], config=RunConfig())
    for name in ("current_a", "charge_c", "midgap_ev"):
        assert np.array_equal(getattr(half, name),
                              getattr(full, name)[:, ::2]), name


def test_gate_subset_equals_full_sweep_at_shared_points():
    """Dropping every other gate row moves on-grid twins off the grid;
    the shared cells keep their bits."""
    full = sweep_iv(GEOM, SLICE_VG, SLICE_VD, config=RunConfig())
    half = sweep_iv(GEOM, SLICE_VG[::2], SLICE_VD, config=RunConfig())
    for name in ("current_a", "charge_c", "midgap_ev"):
        assert np.array_equal(getattr(half, name),
                              getattr(full, name)[::2]), name


def test_leftover_no_warmstart_env_changes_nothing(monkeypatch):
    # A private memo, emptied before each build: both builds sweep.
    monkeypatch.setattr(tables, "_TABLE_CACHE", {})
    vg = np.linspace(0.0, 0.4, 3)
    vd = np.array([0.0, 0.3])
    key = table_cache_key(GEOM, vg, vd, None)
    table = build_device_table(GEOM, vg, vd,
                               config=RunConfig(use_cache=False))
    monkeypatch.setenv("REPRO_NO_WARMSTART", "1")
    assert table_cache_key(GEOM, vg, vd, None) == key
    tables._TABLE_CACHE.clear()
    again = build_device_table(GEOM, vg, vd,
                               config=RunConfig(use_cache=False))
    assert np.array_equal(again.current_a, table.current_a)
    assert np.array_equal(again.charge_c, table.charge_c)
