"""Parity of the vectorized electrostatic bisection with the scalar oracle.

``SBFETModel.solve_midgaps`` solves every cell of a sweep in one
vectorized bisection.  These tests hold each cell's midgap and iteration
count to the frozen scalar recurrence of
:mod:`tests.device.bisection_reference` with ``np.array_equal``, over
whole default tables, biases that widen the bracket, and the two ways a
cell fails (bracket and stall), which come back per cell instead of
being raised.
"""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.device.geometry import ChargeImpurity, GNRFETGeometry
from repro.device.iv import sweep_iv
from repro.device.sbfet import SBFETModel
from repro.device.tables import DEFAULT_VD_GRID, DEFAULT_VG_GRID
from repro.errors import ConvergenceError
from tests.device.bisection_reference import reference_solve_midgap_ev

STALL_KEYS = {"solver", "stage", "vg", "vd", "n_index", "tol_ev", "max_iter"}


def _reference(model, vg_grid, vd_grid, **kwargs):
    cells = [reference_solve_midgap_ev(model, float(vg), float(vd), **kwargs)
             for vg in vg_grid for vd in vd_grid]
    shape = (len(vg_grid), len(vd_grid))
    return (np.array([u for u, _ in cells]).reshape(shape),
            np.array([n for _, n in cells]).reshape(shape))


def _assert_same_error(got: ConvergenceError, want: ConvergenceError):
    assert str(got) == str(want)
    assert got.context == want.context
    assert got.iterations == want.iterations
    assert got.residual == want.residual


@pytest.mark.parametrize("n_index,temperature_k,charge_e", [
    (9, 300.0, None), (12, 300.0, None), (9, 400.0, None),
    (12, 400.0, None), (12, 300.0, -1.0)])
def test_default_table_matches_scalar_bisection(n_index, temperature_k,
                                                charge_e):
    impurity = None if charge_e is None else ChargeImpurity(charge_e=charge_e)
    model = SBFETModel(GNRFETGeometry(n_index=n_index, impurity=impurity,
                                      temperature_k=temperature_k))
    midgap, iterations, failures = model.solve_midgaps(
        DEFAULT_VG_GRID[:, None], DEFAULT_VD_GRID[None, :])
    ref_midgap, ref_iterations = _reference(model, DEFAULT_VG_GRID,
                                            DEFAULT_VD_GRID)
    assert failures == {}
    assert midgap.shape == iterations.shape == (31, 16)
    assert np.array_equal(midgap, ref_midgap)
    assert np.array_equal(iterations, ref_iterations)


def test_bracket_expansion_matches_scalar_bisection():
    model = SBFETModel(GNRFETGeometry(n_index=12))
    vg = np.array([-4.0, -3.0, 3.0, 4.0])
    vd = np.array([0.0, 0.4, 0.75])
    midgap, iterations, failures = model.solve_midgaps(vg[:, None],
                                                       vd[None, :])
    ref_midgap, ref_iterations = _reference(model, vg, vd)
    assert failures == {}
    assert np.array_equal(midgap, ref_midgap)
    assert np.array_equal(iterations, ref_iterations)
    # Every root lies outside the initial +-1.5 eV bracket, so each
    # cell had to widen it.
    laplace = model.laplace_midgap_ev(vg[:, None], vd[None, :])
    assert np.all(np.abs(midgap - laplace) > 1.5)


def test_scalar_solve_is_a_one_cell_call():
    model = SBFETModel(GNRFETGeometry(n_index=12))
    for vg, vd in [(0.4, 0.3), (-3.0, 0.5), (0.0, 0.0)]:
        got = model.solve_midgap_ev(vg, vd)
        assert type(got[0]) is float and type(got[1]) is int
        assert got == reference_solve_midgap_ev(model, vg, vd)


def test_stalled_cells_come_back_as_failures():
    model = SBFETModel(GNRFETGeometry(n_index=12))
    vg = np.array([0.0, 0.5])
    vd = np.array([0.1, 0.6])
    midgap, iterations, failures = model.solve_midgaps(
        vg[:, None], vd[None, :], max_iter=5)
    assert sorted(failures) == [0, 1, 2, 3]
    assert np.all(np.isnan(midgap)) and np.all(iterations == 0)
    for cell, err in failures.items():
        i, j = divmod(cell, vd.size)
        assert STALL_KEYS <= err.context.keys()
        assert err.context["stage"] == "bisect"
        with pytest.raises(ConvergenceError) as want:
            reference_solve_midgap_ev(model, float(vg[i]), float(vd[j]),
                                      max_iter=5)
        _assert_same_error(err, want.value)
    with pytest.raises(ConvergenceError) as err:
        model.solve_midgap_ev(0.5, 0.6, max_iter=5)
    assert STALL_KEYS <= err.value.context.keys()


def test_unbracketed_cell_fails_alone():
    """A cell whose residual never changes sign fails at the sixth
    widening; its neighbours are solved as if alone."""
    model = SBFETModel(GNRFETGeometry(n_index=12))
    # A huge electron charge at the bottom of the net-charge table (on
    # this model only) keeps r(U) negative in every bracket around the
    # V_G = 30 V cell; the other cells never read that end.
    model._lut_q0 = np.where(model._lut_u < -2.9, 1e3, model._lut_q0)
    vg = np.array([0.2, 30.0, 0.4])
    midgap, iterations, failures = model.solve_midgaps(vg, 0.3)
    assert list(failures) == [1]
    assert failures[1].context["stage"] == "bracket"
    assert {"solver", "stage", "vg", "vd", "n_index"} <= (
        failures[1].context.keys())
    with pytest.raises(ConvergenceError) as want:
        reference_solve_midgap_ev(model, 30.0, 0.3)
    _assert_same_error(failures[1], want.value)
    assert np.isnan(midgap[1]) and iterations[1] == 0
    for k in (0, 2):
        assert (midgap[k], iterations[k]) == reference_solve_midgap_ev(
            model, float(vg[k]), 0.3)


def test_sweep_quarantines_a_bisection_failure(monkeypatch):
    """A failed bisection cell is NaN-masked and recorded by the sweep
    (and raised in strict mode) like any other failed cell."""
    solve = SBFETModel.solve_midgaps

    def fail_cell_5(self, vg, vd, **kwargs):
        midgap, iterations, failures = solve(self, vg, vd, **kwargs)
        midgap.flat[5], iterations.flat[5] = np.nan, 0
        failures[5] = ConvergenceError("stalled", context={"stage": "bisect"})
        return midgap, iterations, failures

    monkeypatch.setattr(SBFETModel, "solve_midgaps", fail_cell_5)
    geometry = GNRFETGeometry(n_index=12)
    vg, vd = np.linspace(0.0, 0.6, 3), np.linspace(0.0, 0.6, 4)
    sweep = sweep_iv(geometry, vg, vd, config=RunConfig())
    assert [f.index for f in sweep.failures] == [5]
    assert sweep.failures[0].coords == (1, 1)
    assert sweep.failures[0].context["cell_index"] == 5
    for name in ("current_a", "charge_c", "midgap_ev"):
        values = getattr(sweep, name)
        assert np.isnan(values[1, 1]) and np.isfinite(values).sum() == 11
    with pytest.raises(ConvergenceError) as err:
        sweep_iv(geometry, vg, vd, config=RunConfig(strict=True))
    assert err.value.context["cell_index"] == 5
    assert err.value.context["vg"] == float(vg[1])
