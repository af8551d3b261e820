"""Parity of the circuit engine with the frozen reference engine.

Every production ``solve_dc`` / ``simulate_transient`` call below, and
every VTC point (a call of the DC core ``dc._solve`` that
``compute_vtc`` makes from the start ``solve_dc`` would be given), is
replayed through ``tests/circuit/engine_reference.py`` on the same
circuit state.  Time points, DC iteration counts and source currents
(the oracle's, evaluated at the production voltages) must be identical;
DC voltages, waveforms and supply traces must agree to the bounds below.
The production kernel solves each Newton iteration by a sparse
elimination in its own order (LAPACK pivots), and each transient step
starts Newton from a predicted iterate (the oracle from the last one),
so they differ from the oracle's by rounding and by the Newton
tolerance.  The circuits are the ones the experiments run (the FO4
transient exactly as ``characterize_inverter`` issues it, the VTC, latch
hold states, a window of the 15-stage ring) plus a NAND2, a CMOS
inverter and the analytic RC circuits of ``test_transient.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.circuit.inverter as inverter_mod
import repro.circuit.latch as latch_mod
import repro.circuit.vtc as vtc_mod
from repro.circuit import dc, transient
from repro.circuit.elements import Capacitor, Resistor
from repro.circuit.inverter import (
    add_inverter,
    characterize_inverter,
    estimate_inverter_delay,
    inverter_vtc,
)
from repro.circuit.latch import latch_static_power
from repro.circuit.netlist import GROUND, Circuit, StampProgram
from repro.circuit.ring_oscillator import build_ring_oscillator
from repro.circuit.vtc import compute_vtc
from repro.cmos.circuits import _build_cmos_inverter
from repro.cmos.ptm import ptm_node
from tests.circuit import engine_reference as ref
from tests.circuit.gate_netlists import build_nand2

VDD = 0.4

_PROGRAM = Circuit.program

#: Largest differences from the oracle: 10x the largest drift measured
#: over both parity suites (1.8e-16 V on DC voltages, 2.0e-9 V on
#: waveforms, 1.1e-8 of the peak on supply traces).
DC_BOUND_V = 2e-15
WAVEFORM_BOUND_V = 2.1e-8
SUPPLY_BOUND = 1.2e-7

#: Newton tolerance of every transient compared here, on both engines.
#: At the default 1e-13 A each engine stops anywhere within the tolerance
#: of the root from its own start (predictor vs previous state), which
#: can leave supply traces further apart than ``SUPPLY_BOUND`` (5.8e-14 A
#: on a 0.4 V inverter) whenever the tables move; converged to 1e-15 A
#: they agree to round-off, which is what the bounds above pin.
PARITY_TOL_A = 1e-15


def _max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(a - b)))


def _assert_dc_equal(circuit, result, v0=None, **kwargs):
    ref_v, ref_iters = ref.solve_dc(circuit, v0=v0, **kwargs)
    assert _max_abs_diff(result.voltages, ref_v) <= DC_BOUND_V
    assert result.iterations == ref_iters
    for node in circuit.fixed:
        assert result.source_current(node) == ref.source_current(
            circuit, result.voltages, node)


def _assert_transient_equal(circuit, result, *args, **kwargs):
    ref_t, ref_v, ref_supplies = ref.simulate_transient(circuit, *args,
                                                        **kwargs)
    assert np.array_equal(result.time_s, ref_t)
    assert _max_abs_diff(result.voltages, ref_v) <= WAVEFORM_BOUND_V
    assert result.supply_currents.keys() == ref_supplies.keys()
    for node, trace in ref_supplies.items():
        assert (_max_abs_diff(result.supply_currents[node], trace)
                <= SUPPLY_BOUND * np.max(np.abs(trace)))


class _Replay:
    """Spies that replay each production call through the reference."""

    def __init__(self):
        self.dc_calls = 0
        self.transient_calls = 0
        #: The circuit of each compiled program handed out, for the core.
        self.circuits: dict[StampProgram, Circuit] = {}

    def program(self, circuit):
        prog = _PROGRAM(circuit)
        self.circuits[prog] = circuit
        return prog

    def solve_dc(self, circuit, v0=None, **kwargs):
        result = dc.solve_dc(circuit, v0=v0, **kwargs)
        _assert_dc_equal(circuit, result, v0=v0, **kwargs)
        self.dc_calls += 1
        return result

    def dc_core(self, prog, fixed, v_slots, warm, **kwargs):
        """A VTC point, replayed from its production start (copied before
        the kernel updates the slots in place)."""
        circuit, n = self.circuits[prog], prog.n_nodes
        start = v_slots[:n]
        v_slots, iters = dc._solve(prog, fixed, v_slots, warm, **kwargs)
        result = dc.DCResult(circuit, np.array(v_slots[:n]), iters)
        _assert_dc_equal(circuit, result, v0=start, **kwargs)
        self.dc_calls += 1
        return v_slots, iters

    def simulate_transient(self, circuit, *args, **kwargs):
        kwargs = {**kwargs, "tol_a": PARITY_TOL_A}
        result = transient.simulate_transient(circuit, *args, **kwargs)
        _assert_transient_equal(circuit, result, *args, **kwargs)
        self.transient_calls += 1
        return result


@pytest.fixture()
def replay(monkeypatch):
    spy = _Replay()
    monkeypatch.setattr(Circuit, "program",
                        lambda circuit: spy.program(circuit))
    for module in (inverter_mod, latch_mod):
        monkeypatch.setattr(module, "solve_dc", spy.solve_dc)
    monkeypatch.setattr(vtc_mod, "_solve", spy.dc_core)
    monkeypatch.setattr(inverter_mod, "simulate_transient",
                        spy.simulate_transient)
    return spy


def _step_input(t_on_s, vdd=VDD, ramp_s=4e-12):
    def waveform(t):
        return vdd * min(max((t - t_on_s) / ramp_s, 0.0), 1.0)
    return waveform


class TestCharacterizeInverter:
    def test_fo4_nominal(self, replay, nominal_pair, params):
        nt, pt = nominal_pair
        characterize_inverter(nt, pt, VDD, params)
        assert replay.transient_calls == 1
        assert replay.dc_calls >= 4

    def test_fo4_mismatched_dut(self, replay, nominal_table, nominal_pair,
                                params):
        """A weaker, shifted DUT driving the nominal replica load."""
        nt, pt = nominal_pair
        dut_n = nominal_table.scaled(3.0).with_gate_offset(
            nt.gate_offset_v + 0.02)
        dut_p = nominal_table.scaled(4.5).with_gate_offset(
            pt.gate_offset_v - 0.01)
        characterize_inverter(dut_n, dut_p, VDD, params,
                              load_tables=(nt, pt))
        assert replay.transient_calls == 1


class TestDCParity:
    def test_vtc_every_point(self, replay, nominal_pair, params):
        nt, pt = nominal_pair
        inverter_vtc(nt, pt, VDD, params, n_points=61)
        assert replay.dc_calls == 61

    def test_latch_static_power(self, replay, nominal_pair, params):
        nt, pt = nominal_pair
        latch_static_power(nt, pt, VDD, params)
        assert replay.dc_calls == 2

    def test_source_stepping_path(self, nominal_pair, params):
        """A start far outside the rails exhausts plain Newton, so the
        solve goes through source stepping."""
        nt, pt = nominal_pair
        c = Circuit()
        vin, vout, vdd = c.node("in"), c.node("out"), c.node("vdd")
        c.fix(vdd, VDD)
        c.fix(vin, 0.1)
        add_inverter(c, "inv", vin, vout, vdd, nt, pt, params)
        v0 = np.full(c.n_nodes, 6.0)
        kwargs = dict(v0=v0, max_iter=12)
        result = dc.solve_dc(c, **kwargs)
        assert result.iterations > 12   # the plain attempt failed
        _assert_dc_equal(c, result, **kwargs)

    def test_cmos_vtc(self, replay):
        circuit = _build_cmos_inverter(ptm_node(45), VDD)
        compute_vtc(circuit, "in", "out", np.linspace(0.0, VDD, 41))
        assert replay.dc_calls == 41


class TestTransientParity:
    def test_nand2(self, nominal_pair, params):
        nt, pt = nominal_pair
        c = build_nand2(nt, pt, VDD, params)
        c.fixed[c.node("a")] = VDD
        dc0 = dc.solve_dc(c)
        _assert_dc_equal(c, dc0)
        c.fixed[c.node("b")] = _step_input(2e-12)
        args = (30e-12, 0.25e-12, dc0.voltages)
        kwargs = dict(monitor_supplies=("vdd",), tol_a=PARITY_TOL_A)
        result = transient.simulate_transient(c, *args, **kwargs)
        _assert_transient_equal(c, result, *args, **kwargs)

    def test_cmos_inverter(self):
        c = _build_cmos_inverter(ptm_node(45), VDD)
        c.add(Capacitor(c.node("out"), GROUND, 1e-16))
        dc0 = dc.solve_dc(c)
        _assert_dc_equal(c, dc0)
        c.fixed[c.node("in")] = _step_input(3e-12)
        args = (40e-12, 0.25e-12, dc0.voltages)
        kwargs = dict(monitor_supplies=("vdd", "in"), tol_a=PARITY_TOL_A)
        result = transient.simulate_transient(c, *args, **kwargs)
        _assert_transient_equal(c, result, *args, **kwargs)

    def test_ring_window(self, nominal_pair, params):
        """150 steps of the 15-stage ring from its alternating start."""
        nt, pt = nominal_pair
        n_stages = 15
        c = build_ring_oscillator(nt, pt, VDD, n_stages, params)
        v0 = np.zeros(c.n_nodes)
        v0[c.node("vdd")] = VDD
        for i in range(n_stages):
            v0[c.node(f"s{i}")] = VDD if i % 2 == 0 else 0.0
        v0[c.node(f"s{n_stages - 1}")] = VDD / 2.0
        est = estimate_inverter_delay(nt, pt, VDD, params)
        dt = max(2.0 * n_stages * est * 2.5 / 480.0, 0.05e-12)
        args = (150 * dt, dt, v0)
        kwargs = dict(monitor_supplies=("vdd",), tol_a=PARITY_TOL_A)
        result = transient.simulate_transient(c, *args, **kwargs)
        assert len(result.time_s) == 151
        _assert_transient_equal(c, result, *args, **kwargs)


def _rc_circuit(r=1e3, c=1e-12):
    circ = Circuit()
    vin = circ.node("in")
    out = circ.node("out")
    circ.fix(vin, 1.0)
    circ.add(Resistor(vin, out, r))
    circ.add(Capacitor(out, GROUND, c))
    return circ


class TestRCParity:
    @pytest.mark.parametrize("dt_s", [1e-11, 5e-11, 2.5e-11])
    def test_rc_charging(self, dt_s):
        circ = _rc_circuit()
        v0 = np.zeros(circ.n_nodes)
        v0[circ.node("in")] = 1.0
        args = (3e-9, dt_s, v0)
        kwargs = dict(monitor_supplies=("in",), tol_a=PARITY_TOL_A)
        result = transient.simulate_transient(circ, *args, **kwargs)
        _assert_transient_equal(circ, result, *args, **kwargs)

    def test_rc_ramp(self):
        circ = _rc_circuit()
        circ.fixed[circ.node("in")] = lambda t: min(t / 20e-9, 1.0)
        args = (20e-9, 1e-10, np.zeros(circ.n_nodes))
        kwargs = dict(tol_a=PARITY_TOL_A)
        result = transient.simulate_transient(circ, *args, **kwargs)
        _assert_transient_equal(circ, result, *args, **kwargs)
