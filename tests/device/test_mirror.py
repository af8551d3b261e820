"""The ambipolar mirror: each mirror pair of bias points is integrated once.

A ``mirror_symmetric`` SBFET model (semianalytic engine, no impurity
profile, ``gate_coupling + 2 drain_coupling = 1``) takes the current of a
p-branch point (``V_G < V_D / 2``) from its canonical twin
``(round(V_D - V_G, 10), V_D)``.  These tests pin the gate that turns the
rule on, the twins that fall off the grid, a twin whose bisection fails,
and per-cell quarantine on either side of a pair, in-process at any
worker count.
"""

import numpy as np
import pytest

from repro import obs
from repro.config import RunConfig
from repro.device.geometry import ChargeImpurity, GNRFETGeometry
from repro.device.iv import sweep_iv
from repro.device.sbfet import SBFETModel
from repro.device.tables import DEFAULT_VD_GRID, DEFAULT_VG_GRID
from repro.errors import ConvergenceError
from repro.runtime import faults

GEOM = GNRFETGeometry(n_index=12)

#: Cells (0.0, 0.0), (0.0, 0.3), (0.3, 0.0), (0.3, 0.3): cell 1 is a
#: p-branch cell whose twin is cell 3.
PAIR_VG = np.array([0.0, 0.3])
PAIR_VD = np.array([0.0, 0.3])


@pytest.fixture(autouse=True)
def _disarm():
    faults.disable()
    obs.reset()
    yield
    faults.disable()
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def model():
    return SBFETModel(GEOM)


def _own_integral(model, vg, vd):
    return model.current_a(model.solve_midgap_ev(vg, vd)[0], vd)


class TestSymmetryGate:
    def test_nominal_ribbon_is_mirror_symmetric(self, model):
        assert model.mirror_symmetric
        assert float(model.mirror_gate_v(0.0, 0.3)) == 0.3
        assert float(model.mirror_gate_v(0.3, 0.3)) == 0.3   # n-branch
        assert float(model.mirror_gate_v(-0.2, 0.0)) == -0.2  # no drain

    def test_zero_charge_impurity_keeps_the_mirror(self):
        """The model checks its own impurity profile, not the field."""
        geometry = GEOM.with_impurity(ChargeImpurity(charge_e=0.0))
        assert SBFETModel(geometry).mirror_symmetric

    @pytest.mark.parametrize("geometry,engine", [
        (GEOM.with_impurity(ChargeImpurity(charge_e=-1.0)), "semianalytic"),
        (GNRFETGeometry(n_index=9), "modespace"),
        (GNRFETGeometry(n_index=12, gate_coupling=0.95), "semianalytic"),
    ], ids=["impurity", "negf-engine", "couplings"])
    def test_each_broken_symmetry_turns_the_mirror_off(self, geometry,
                                                       engine):
        m = SBFETModel(geometry, engine=engine)
        assert not m.mirror_symmetric
        vg, vd = np.array([0.0, 0.1]), np.array([0.3, 0.4])
        assert np.array_equal(m.mirror_gate_v(vg, vd), vg)
        if engine == "semianalytic":
            assert m.solve_bias(0.0, 0.3).current_a == _own_integral(
                m, 0.0, 0.3)

    def test_pair_shares_one_current(self, model):
        p_branch = model.solve_bias(0.05, 0.45)
        twin = model.solve_bias(0.4, 0.45)
        assert p_branch.current_a == twin.current_a
        assert model.current_at(0.05, 0.45) == twin.current_a
        # Midgap and charge stay the point's own.
        assert p_branch.midgap_ev == model.solve_midgap_ev(0.05, 0.45)[0]
        assert p_branch.midgap_ev != twin.midgap_ev
        # The raw integrals of the pair agree only to round-off.
        assert _own_integral(model, 0.05, 0.45) == pytest.approx(
            twin.current_a, rel=1e-11)


class TestTwinsOffTheGrid:
    def test_off_grid_twins_are_bisected_and_integrated_once(self, model):
        """Every p-branch twin of this grid lies off it: each p-branch
        cell is the lone integral at its twin, and the sweep builds one
        energy grid per distinct canonical point."""
        vg, vd = np.array([-0.1, 0.1]), np.array([0.0, 0.35, 0.75])
        obs.enable()
        sweep = sweep_iv(GEOM, vg, vd, config=RunConfig())
        grids = obs.snapshot()["counters"]["negf.energy_grids"]
        canonical = {(float(model.mirror_gate_v(a, b)), float(b))
                     for a in vg for b in vd if b > 0.0}
        # (-0.1, 0.35), (-0.1, 0.75), (0.1, 0.35), (0.1, 0.75) are all
        # p-branch, with twins 0.45, 0.85, 0.25 and 0.65.
        assert {g for g, _ in canonical} == {0.45, 0.85, 0.25, 0.65}
        assert grids == len(canonical) == 4
        for i, a in enumerate(vg):
            for j, b in enumerate(vd):
                twin = float(model.mirror_gate_v(a, b))
                assert sweep.current_a[i, j] == _own_integral(
                    model, twin, float(b)), (i, j)
                assert sweep.midgap_ev[i, j] == model.solve_midgap_ev(
                    float(a), float(b))[0]

    def test_default_grid_integrates_282_points(self):
        """31 x 16 cells, 465 with V_D > 0: 183 p-branch cells share an
        on-grid twin's integral and one, (-0.4, 0.75), integrates at its
        off-grid twin (1.15, 0.75)."""
        obs.enable()
        sweep_iv(GNRFETGeometry(n_index=9), DEFAULT_VG_GRID,
                 DEFAULT_VD_GRID, config=RunConfig())
        counters = obs.snapshot()["counters"]
        assert counters["device.bias_points"] == 496
        assert counters["negf.energy_grids"] == 282


def _fail_at(points: set[tuple[float, float]]):
    """A ``solve_midgaps`` that fails the bisection of ``points``."""
    solve = SBFETModel.solve_midgaps

    def failing(self, vg, vd, *args, **kwargs):
        midgap, iterations, failures = solve(self, vg, vd, *args, **kwargs)
        vg_b, vd_b = np.broadcast_arrays(vg, vd)
        for cell, point in enumerate(zip(vg_b.ravel().tolist(),
                                         vd_b.ravel().tolist())):
            if point in points:
                midgap.flat[cell], iterations.flat[cell] = np.nan, 0
                failures[cell] = ConvergenceError(
                    "stalled", context={"stage": "bisect", "vg": point[0],
                                        "vd": point[1]})
        return midgap, iterations, dict(sorted(failures.items()))
    return failing


class TestFailedTwin:
    def test_off_grid_twin_failure_fails_its_cell_alone(self, monkeypatch):
        monkeypatch.setattr(SBFETModel, "solve_midgaps",
                            _fail_at({(0.85, 0.75)}))
        vg, vd = np.array([-0.1, 0.3]), np.array([0.0, 0.75])
        sweep = sweep_iv(GEOM, vg, vd, config=RunConfig())
        assert [f.index for f in sweep.failures] == [1]
        record = sweep.failures[0]
        assert record.coords == (0, 1)
        assert record.context["twin_vg"] == 0.85
        assert record.context["vg"] == -0.1
        assert record.context["cell_index"] == 1
        assert np.isnan(sweep.current_a[0, 1])
        assert np.isfinite(sweep.current_a).sum() == 3
        with pytest.raises(ConvergenceError) as err:
            sweep_iv(GEOM, vg, vd, config=RunConfig(strict=True))
        assert err.value.context["cell_index"] == 1
        assert err.value.context["twin_vg"] == 0.85
        model = SBFETModel(GEOM)
        with pytest.raises(ConvergenceError):
            model.solve_bias(-0.1, 0.75)
        with pytest.raises(ConvergenceError):
            model.current_at(-0.1, 0.75)
        assert np.isfinite(model.solve_bias(0.3, 0.75).current_a)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_on_grid_twin_failure_fails_both_cells(self, monkeypatch,
                                                   no_pool, workers):
        monkeypatch.setattr(SBFETModel, "solve_midgaps",
                            _fail_at({(0.3, 0.3)}))
        sweep = sweep_iv(GEOM, PAIR_VG, PAIR_VD,
                         config=RunConfig(workers=workers))
        assert [f.index for f in sweep.failures] == [1, 3]
        assert "twin_vg" in sweep.failures[0].context
        assert "twin_vg" not in sweep.failures[1].context
        assert np.isfinite(sweep.current_a[:, 0]).all()


class TestPairQuarantine:
    @pytest.fixture(scope="class")
    def baseline(self):
        return sweep_iv(GEOM, PAIR_VG, PAIR_VD, config=RunConfig())

    def test_baseline_pair_shares_its_integral(self, baseline):
        assert baseline.current_a[0, 1] == baseline.current_a[1, 1]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("faulted,kept", [(1, 3), (3, 1)],
                             ids=["p-branch-cell", "twin-cell"])
    def test_a_fault_quarantines_one_side_of_a_pair(self, baseline, no_pool,
                                                    workers, faulted, kept):
        faults.enable(f"scf@{faulted}")
        sweep = sweep_iv(GEOM, PAIR_VG, PAIR_VD,
                         config=RunConfig(workers=workers))
        assert [f.index for f in sweep.failures] == [faulted]
        n_vd = PAIR_VD.size
        for name in ("current_a", "charge_c", "midgap_ev"):
            values = getattr(sweep, name)
            assert np.isnan(values[divmod(faulted, n_vd)])
            kept_at = divmod(kept, n_vd)
            assert values[kept_at] == getattr(baseline, name)[kept_at]
