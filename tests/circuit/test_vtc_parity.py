"""Parity of ``compute_vtc`` with its frozen one-``solve_dc``-per-point
form.

Production sweeps call the DC solver's core once per point with the
start the public wrapper would have been given; the frozen sweep in
``tests/circuit/vtc_reference.py`` goes through ``solve_dc`` itself.
Both must give the same output voltages bit for bit, leave the circuit
in the same state and emit the same ``repro.obs`` counters and Newton
iteration histogram, on the sweeps the experiments run (the nominal
inverter, an ext-yield cell's composite tables, the CMOS inverter), on
repeated and descending grids, and when points go through source
stepping and the default-start retry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.circuit import dc, inverter
from repro.circuit.inverter import (
    CircuitParameters,
    add_inverter,
    inverter_vtc,
)
from repro.circuit.netlist import Circuit
from repro.circuit.vtc import compute_vtc
from repro.cmos.circuits import _build_cmos_inverter
from repro.cmos.ptm import ptm_node
from repro.device.tables import DeviceTable
from repro.errors import ConvergenceError
from repro.variability.sampling import discretized_normal_indices
from repro.variability.variants import DeviceVariant, variant_ribbon_table
from tests.circuit import vtc_reference as ref

VDD = 0.4

COUNTERS = ("circuit.dc_solves", "circuit.newton_iterations",
            "circuit.dc_source_stepped", "circuit.newton_fallbacks")
HISTOGRAM = "circuit.dc_newton_iterations"


def _traced(sweep):
    """Run ``sweep()`` with tracing on: its result and the DC counters
    and iteration histogram it recorded."""
    obs.reset()
    obs.enable()
    try:
        out = sweep()
        snapshot = obs.snapshot()
    finally:
        obs.disable()
        obs.reset()
    counters = {name: snapshot["counters"].get(name) for name in COUNTERS}
    return out, counters, snapshot["histograms"].get(HISTOGRAM)


def _assert_sweeps_equal(build, grid, input_node="in", output_node="out"):
    """Sweep a fresh ``build()`` circuit in production and through the
    oracle: outputs, circuit state and counters must be identical."""
    circuits = build(), build()
    got, got_counters, got_hist = _traced(
        lambda: compute_vtc(circuits[0], input_node, output_node, grid))
    want, want_counters, want_hist = _traced(
        lambda: ref.compute_vtc(circuits[1], input_node, output_node, grid))
    assert np.array_equal(got, want)
    assert circuits[0].fixed == circuits[1].fixed
    assert got_counters == want_counters
    assert got_hist == want_hist
    solves = got_counters["circuit.dc_solves"] or 0
    assert solves == len(grid) == (got_hist["count"] if got_hist else 0)
    return got_counters


def _inverter(n_table, p_table):
    def build():
        c = Circuit("inverter-vtc")
        vin, vout, vdd = c.node("in"), c.node("out"), c.node("vdd")
        c.fix(vdd, VDD)
        c.fix(vin, 0.0)
        add_inverter(c, "dut", vin, vout, vdd, n_table, p_table,
                     CircuitParameters())
        return c
    return build


@pytest.fixture(scope="module")
def yield_cell(tech):
    """The composite (n, p) tables of the first ext-yield cell (seed
    404, nominal V_T), composed as ``sample_latch_snm`` composes them."""
    draws = np.random.default_rng(404).standard_normal(
        (2, tech.params.n_ribbons, 2))
    offset = tech.gate_offset_for_vt(0.13)
    return tuple(
        DeviceTable.compose([
            variant_ribbon_table(
                DeviceVariant(n_index=(9, 12, 15)[w],
                              impurity_e=(-1.0, 0.0, 1.0)[q]),
                polarity, tech.geometry)
            for w, q in levels.tolist()]).with_gate_offset(offset)
        for polarity, levels in zip((+1, -1),
                                    discretized_normal_indices(draws)))


class TestExperimentSweeps:
    def test_nominal_inverter(self, nominal_pair, monkeypatch):
        """``inverter_vtc`` itself, 61 points, against the oracle."""
        got = _traced(lambda: inverter_vtc(*nominal_pair, VDD,
                                           n_points=61))
        monkeypatch.setattr(inverter, "compute_vtc", ref.compute_vtc)
        want = _traced(lambda: inverter_vtc(*nominal_pair, VDD,
                                            n_points=61))
        assert np.array_equal(got[0][0], want[0][0])
        assert np.array_equal(got[0][1], want[0][1])
        assert got[1:] == want[1:]
        assert got[1]["circuit.dc_solves"] == 61

    def test_yield_cell_inverter(self, yield_cell):
        _assert_sweeps_equal(_inverter(*yield_cell),
                             np.linspace(0.0, VDD, 31))

    def test_cmos_inverter(self):
        _assert_sweeps_equal(lambda: _build_cmos_inverter(ptm_node(45), VDD),
                             np.linspace(0.0, VDD, 41))


class TestGrids:
    @pytest.mark.parametrize("grid", [
        np.repeat(np.linspace(0.0, VDD, 9), 2),
        np.linspace(VDD, 0.0, 21),
        np.concatenate([np.linspace(0.0, VDD, 11),
                        np.linspace(VDD, 0.0, 11)]),
        np.array([0.2, 0.2, 0.2, 0.1, 0.3, 0.3, 0.0]),
        np.array([0.25]),
        np.array([]),
    ], ids=["repeated", "descending", "up-down", "mixed", "one", "empty"])
    def test_grid(self, nominal_pair, grid):
        _assert_sweeps_equal(_inverter(*nominal_pair), grid)

    def test_node_indices(self, nominal_pair):
        build = _inverter(*nominal_pair)
        c = build()
        _assert_sweeps_equal(build, np.linspace(0.0, VDD, 7),
                             c.node("in"), c.node("out"))


_NEWTON = dc._newton


class _FailingNewton:
    """``dc._newton`` that reports the calls numbered in ``fail`` (from
    0, counted over a sweep) unconverged after one real iteration."""

    def __init__(self, fail):
        self.fail = frozenset(fail)
        self.calls = 0

    def __call__(self, prog, v, gmin, tol_a, max_iter, damping_v,
                 fallbacks):
        call, self.calls = self.calls, self.calls + 1
        if call in self.fail:
            _, _, fallbacks = _NEWTON(prog, v, gmin, tol_a, 1, damping_v,
                                      fallbacks)
            return max_iter, False, fallbacks
        return _NEWTON(prog, v, gmin, tol_a, max_iter, damping_v, fallbacks)


class TestFallbacks:
    """Points forced off plain Newton, identically on both sides."""

    def _sweeps(self, monkeypatch, nominal_pair, fail):
        newton = _FailingNewton(fail)
        monkeypatch.setattr(dc, "_newton", newton)
        build, grid = _inverter(*nominal_pair), np.linspace(0.0, VDD, 21)
        circuits = build(), build()
        results = []
        for c, sweep in zip(circuits, (compute_vtc, ref.compute_vtc)):
            newton.calls = 0
            results.append(_traced(lambda: sweep(c, "in", "out", grid)))
        (got, *got_obs), (want, *want_obs) = results
        assert np.array_equal(got, want)
        assert got_obs == want_obs
        return got_obs[0]

    def test_source_stepping(self, monkeypatch, nominal_pair):
        """Point 5's plain Newton fails; eight stepping stages rescue it."""
        counters = self._sweeps(monkeypatch, nominal_pair, {5})
        assert counters["circuit.dc_source_stepped"] == 1

    def test_default_start_retry(self, monkeypatch, nominal_pair):
        """Point 5's plain Newton and first stepping stage (with its
        larger-gmin retry) fail; its warm start falls back to the default
        start, and the next point's stepping succeeds."""
        counters = self._sweeps(monkeypatch, nominal_pair, {5, 6, 7, 9})
        assert counters["circuit.dc_source_stepped"] == 2

    def test_cold_first_point_raises(self, monkeypatch, nominal_pair):
        """The first point has no warm start to retry from: both sweeps
        raise the stepping failure with the same iteration count."""
        newton = _FailingNewton({0, 1, 2})
        monkeypatch.setattr(dc, "_newton", newton)
        build = _inverter(*nominal_pair)
        errors = []
        for sweep in (compute_vtc, ref.compute_vtc):
            newton.calls = 0
            with pytest.raises(ConvergenceError) as info:
                sweep(build(), "in", "out", np.linspace(0.0, VDD, 5))
            errors.append((str(info.value), info.value.iterations))
        assert errors[0] == errors[1]
