"""A sweep cell is a pure function of the geometry and its bias point.

Every ``sweep_iv`` cell is solved from scratch, so it must equal a lone
``SBFETModel.solve_bias`` call bit for bit, at any worker count, and a
sweep over a subset of the drain axis must reproduce the full sweep at
the shared points.  A leftover ``REPRO_NO_WARMSTART`` from older
environments must change neither a table key nor a table.
"""

import numpy as np
import pytest

from repro.device.geometry import GNRFETGeometry
from repro.device.iv import sweep_iv
from repro.device.sbfet import SBFETModel
from repro.device.tables import build_device_table, table_cache_key

GEOM = GNRFETGeometry(n_index=12)
VG = np.linspace(-0.2, 0.6, 4)
VD = np.linspace(0.0, 0.6, 5)


@pytest.mark.parametrize("workers", [1, 2])
def test_every_cell_equals_a_lone_solve(workers):
    sweep = sweep_iv(GEOM, VG, VD, workers=workers)
    model = SBFETModel(GEOM)
    for i, vg in enumerate(VG):
        for j, vd in enumerate(VD):
            sol = model.solve_bias(float(vg), float(vd))
            assert sweep.current_a[i, j] == sol.current_a, (i, j)
            assert sweep.charge_c[i, j] == sol.charge_c, (i, j)
            assert sweep.midgap_ev[i, j] == sol.midgap_ev, (i, j)


def test_drain_subset_equals_full_sweep_at_shared_points():
    vd = np.linspace(0.0, 0.6, 7)
    full = sweep_iv(GEOM, VG, vd, workers=1)
    half = sweep_iv(GEOM, VG, vd[::2], workers=1)
    for name in ("current_a", "charge_c", "midgap_ev"):
        assert np.array_equal(getattr(half, name),
                              getattr(full, name)[:, ::2]), name


def test_leftover_no_warmstart_env_changes_nothing(monkeypatch):
    vg = np.linspace(0.0, 0.4, 3)
    vd = np.array([0.0, 0.3])
    key = table_cache_key(GEOM, vg, vd, None)
    table = build_device_table(GEOM, vg, vd, use_cache=False, workers=1)
    monkeypatch.setenv("REPRO_NO_WARMSTART", "1")
    assert table_cache_key(GEOM, vg, vd, None) == key
    again = build_device_table(GEOM, vg, vd, use_cache=False, workers=1)
    assert np.array_equal(again.current_a, table.current_a)
    assert np.array_equal(again.charge_c, table.charge_c)
