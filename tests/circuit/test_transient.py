"""Tests for the transient integrator against analytic circuits."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import sanitize
from repro.circuit.dc import solve_dc
from repro.circuit.elements import Capacitor, CompactMOSFET, Resistor
from repro.circuit.netlist import Circuit, GROUND
from repro.circuit.transient import simulate_transient
from repro.errors import CircuitError, ConvergenceError, SanitizerError

REPO = Path(__file__).resolve().parents[2]


def _rc_circuit(r=1e3, c=1e-12):
    circ = Circuit()
    vin = circ.node("in")
    out = circ.node("out")
    circ.fix(vin, 1.0)
    circ.add(Resistor(vin, out, r))
    circ.add(Capacitor(out, GROUND, c))
    return circ, out


class TestRCCharging:
    def test_exponential_charging(self):
        """V(t) = 1 - exp(-t/RC) within trapezoidal accuracy."""
        circ, out = _rc_circuit()
        tau = 1e-9
        v0 = np.zeros(circ.n_nodes)
        v0[circ.node("in")] = 1.0
        res = simulate_transient(circ, 5 * tau, tau / 100, v0)
        expected = 1.0 - np.exp(-res.time_s / tau)
        assert np.max(np.abs(res.v(out) - expected)) < 2e-3

    def test_trapezoidal_second_order(self):
        """Halving dt reduces the error ~4x (second-order accuracy)."""
        circ, out = _rc_circuit()
        tau = 1e-9
        v0 = np.zeros(circ.n_nodes)
        v0[circ.node("in")] = 1.0

        def max_err(dt):
            res = simulate_transient(circ, 3 * tau, dt, v0)
            return np.max(np.abs(res.v(out)
                                 - (1 - np.exp(-res.time_s / tau))))

        e1 = max_err(tau / 20)
        e2 = max_err(tau / 40)
        assert e1 / e2 > 3.0

    def test_ramp_input(self):
        """A slow ramp through an RC with tau << ramp time tracks the
        input with lag ~tau."""
        circ, out = _rc_circuit()
        tau = 1e-9
        t_ramp = 20 * tau
        circ.fixed[circ.node("in")] = lambda t: min(t / t_ramp, 1.0)
        v0 = np.zeros(circ.n_nodes)
        res = simulate_transient(circ, t_ramp, tau / 10, v0)
        i_mid = np.searchsorted(res.time_s, t_ramp / 2)
        expected = res.time_s[i_mid] / t_ramp - tau / t_ramp
        assert res.v(out)[i_mid] == pytest.approx(expected, abs=0.01)

    def test_supply_current_trace(self):
        circ, out = _rc_circuit()
        v0 = np.zeros(circ.n_nodes)
        v0[circ.node("in")] = 1.0
        res = simulate_transient(circ, 5e-9, 0.05e-9, v0,
                                 monitor_supplies=("in",))
        i_in = res.supply_currents[circ.node("in")]
        # Initial inrush ~ V/R, decaying to ~0.
        assert i_in[0] == pytest.approx(1e-3, rel=0.05)
        assert abs(i_in[-1]) < 1e-5

    def test_supply_energy_equals_cap_energy_plus_dissipation(self):
        """Charging a cap through a resistor takes C V^2 from the source
        (half stored, half dissipated)."""
        circ, out = _rc_circuit(r=1e3, c=1e-12)
        v0 = np.zeros(circ.n_nodes)
        v0[circ.node("in")] = 1.0
        res = simulate_transient(circ, 12e-9, 0.02e-9, v0,
                                 monitor_supplies=("in",))
        node = circ.node("in")
        energy = np.trapezoid(res.supply_currents[node] * res.v(node),
                              res.time_s)
        assert energy == pytest.approx(1e-12 * 1.0 ** 2, rel=0.02)


class TestValidation:
    def test_rejects_bad_dt(self):
        circ, _ = _rc_circuit()
        with pytest.raises(ValueError):
            simulate_transient(circ, 1e-9, 0.0, np.zeros(circ.n_nodes))

    def test_rejects_bad_v0_shape(self):
        circ, _ = _rc_circuit()
        with pytest.raises(ValueError):
            simulate_transient(circ, 1e-9, 1e-11, np.zeros(7))

    @pytest.mark.parametrize("t_end_s, dt_s", [
        (1e-9, float("nan")), (float("nan"), 1e-11), (1e-9, float("inf")),
        (-float("inf"), 1e-11), (1e-9, -1e-11), (0.0, 1e-11)])
    def test_rejects_non_finite_or_non_positive_horizon(self, t_end_s, dt_s):
        """``dt_s=nan`` used to pass the ``<= 0`` check and end in a
        ConvergenceError after 8 halvings."""
        circ, _ = _rc_circuit()
        with pytest.raises(ValueError):
            simulate_transient(circ, t_end_s, dt_s, np.zeros(circ.n_nodes))

    def test_rejects_infinite_end_time(self):
        """``t_end_s=inf`` used to integrate forever; run it in a child
        process so that a regression fails on the timeout, not hangs."""
        script = textwrap.dedent("""
            import numpy as np
            from repro.circuit.elements import Capacitor, CompactMOSFET, Resistor
            from repro.circuit.netlist import Circuit, GROUND
            from repro.circuit.transient import simulate_transient
            c = Circuit()
            vin, out = c.node("in"), c.node("out")
            c.fix(vin, 1.0)
            c.add(Resistor(vin, out, 1e3))
            c.add(Capacitor(out, GROUND, 1e-12))
            try:
                simulate_transient(c, float("inf"), 1e-11, np.zeros(2))
            except ValueError:
                print("rejected")
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.stdout.strip() == "rejected", done.stderr

    @pytest.mark.parametrize("kwargs", [
        dict(max_iter=0), dict(max_iter=-1), dict(max_step_halvings=-1)])
    def test_rejects_bad_iteration_limits(self, kwargs):
        circ, _ = _rc_circuit()
        with pytest.raises(ValueError):
            simulate_transient(circ, 1e-9, 1e-11, np.zeros(circ.n_nodes),
                               **kwargs)


class TestMonitorValidation:
    """Only fixed nodes have a source whose current can be recorded."""

    @pytest.mark.parametrize("node", [
        "out",          # a free node: its KCL residual is not a supply
        1,
        "gnd", GROUND,  # ground: recorded zeros, a zero supply energy
        5,              # an unknown index: used to raise IndexError
        "vdd"])         # an unknown name
    def test_rejects_non_source_node(self, node):
        circ, _ = _rc_circuit()
        with pytest.raises(CircuitError):
            simulate_transient(circ, 1e-10, 1e-11, np.zeros(circ.n_nodes),
                               monitor_supplies=("in", node))
        assert circ.n_nodes == 2   # no node was created by the lookup

    def test_accepts_fixed_node_by_name_or_index(self):
        circ, _ = _rc_circuit()
        v0 = np.zeros(circ.n_nodes)
        by_name = simulate_transient(circ, 1e-10, 1e-11, v0,
                                     monitor_supplies=("in",))
        by_index = simulate_transient(circ, 1e-10, 1e-11, v0,
                                      monitor_supplies=(circ.node("in"),))
        assert np.array_equal(by_name.supply_currents[0],
                              by_index.supply_currents[0])


class _Probe:
    """A compact model with no current, slopes or capacitance that
    records the ``v_ds`` of every ``ids`` call: tied across a node and
    ground, it sees each Newton iterate of that node."""

    def __init__(self, log):
        self.log = log

    def ids(self, vgs, vds):
        self.log.append(("v", vds))
        return 0.0, 0.0, 0.0

    def capacitances(self, vgs, vds):
        return 0.0, 0.0


class TestPredictor:
    """Every step but the first starts Newton from the last step
    extrapolated over the new step, never further than one step."""

    @staticmethod
    def _starts(circuit, node, waveform):
        """Drive ``in`` by ``waveform`` and probe ``node``.  Each attempt
        evaluates the input at its end time (after the initial state at
        ``t = 0``) once, before its Newton loop, whose first iterate the
        probe sees next; returns a function of the result giving ``(end
        time, start voltage, converged)`` per attempt."""
        log = []
        circuit.add(CompactMOSFET(node, GROUND, GROUND, _Probe(log)))

        def wave(t):
            log.append(("t", t))
            return waveform(t)

        circuit.fixed[circuit.node("in")] = wave

        def attempts(res):
            times = set(res.time_s.tolist())
            out = []
            for k, (kind, t) in enumerate(log):
                if kind == "t" and t > 0.0:
                    start = next(v for kind, v in log[k + 1:] if kind == "v")
                    out.append((t, start, t in times))
            return out
        return attempts

    def test_first_step_starts_from_v0(self):
        circ, out = _rc_circuit()
        attempts = self._starts(circ, out, lambda t: min(t / 1e-9, 1.0))
        v0 = np.zeros(circ.n_nodes)
        v0[out] = 0.25
        res = simulate_transient(circ, 3e-10, 1e-10, v0)
        (_, first, ok_first), (_, second, ok_second) = attempts(res)[:2]
        assert ok_first and ok_second
        assert first == 0.25
        v = res.v(out)
        assert second == v[1] + 1.0 * (v[1] - v[0])

    def test_step_after_halvings_extrapolates_at_most_one_step(self):
        """A stiff input (2 V in 4 ps through a 1 ps RC, at most three
        damped 0.3 V Newton iterations per attempt) forces halvings.  A
        full step after a halved one extrapolates by the last step only
        (the ratio is capped at 1), and no attempt starts further than
        one step from the last state."""
        circ, out = _rc_circuit(r=1e3, c=1e-15)
        attempts = self._starts(circ, out,
                                lambda t: 2.0 * min(t / 4e-12, 1.0))
        dt = 4e-12
        res = simulate_transient(circ, 40e-12, dt, np.zeros(circ.n_nodes),
                                 max_iter=3)
        v, steps = res.v(out), np.diff(res.time_s)
        halved = [k for k in range(1, len(steps))
                  if steps[k - 1] < dt and steps[k] == dt]
        assert halved
        firsts, n = {}, 0
        for _, start, converged in attempts(res):
            firsts.setdefault(n, start)
            if n == 0:
                assert start == v[0]
            else:
                assert (abs(start - v[n])
                        <= abs(v[n] - v[n - 1]) + 1e-15 * abs(v[n]))
            n += converged
        assert n == len(steps)
        for k in halved:
            assert firsts[k] == v[k] + 1.0 * (v[k] - v[k - 1])


class TestRunFailures:
    def test_sanitizer_raises_at_first_non_finite_state(self, monkeypatch):
        """A fixed node no element touches goes NaN from 25 ps on while
        every step converges: the run records it, or with the sanitizer
        on raises at the first accepted state that holds it."""
        circ, _ = _rc_circuit()
        probe = circ.node("probe")
        circ.fix(probe, lambda t: math.nan if t > 2.5e-11 else 0.0)
        v0 = np.zeros(circ.n_nodes)
        res = simulate_transient(circ, 1e-10, 1e-11, v0)
        assert np.isnan(res.v(probe)).tolist() == [False] * 3 + [True] * 8
        monkeypatch.setattr(sanitize, "ACTIVE", True)
        with pytest.raises(SanitizerError) as err:
            simulate_transient(circ, 1e-10, 1e-11, v0)
        assert err.value.operator == "simulate_transient"
        assert err.value.quantity == "node voltages at t=3e-11 s"

    def test_convergence_error_after_every_halving(self):
        """One Newton iteration per attempt never converges a step that
        moves the input."""
        circ, _ = _rc_circuit(r=1e3, c=1e-15)
        circ.fixed[circ.node("in")] = lambda t: 2.0 * min(t / 4e-12, 1.0)
        with pytest.raises(ConvergenceError) as err:
            simulate_transient(circ, 40e-12, 4e-12, np.zeros(circ.n_nodes),
                               max_iter=1, max_step_halvings=2)
        assert str(err.value) == ("transient step failed to converge at "
                                  "t = 0.000e+00 s even after 2 step "
                                  "halvings")


class TestInverterTransient:
    def test_output_switches(self, nominal_pair, params):
        from repro.circuit.inverter import build_inverter_chain

        nt, pt = nominal_pair
        circ = build_inverter_chain(nt, pt, 0.4, params)
        vin = circ.node("in")
        circ.fixed[vin] = 0.0
        dc = solve_dc(circ)
        assert dc.voltage("out") > 0.35

        circ.fixed[vin] = lambda t: 0.4 if t > 5e-12 else 0.0
        res = simulate_transient(circ, 60e-12, 0.25e-12, dc.voltages)
        assert res.v("out")[-1] < 0.05

    def test_charge_conservation_steady_state(self, nominal_pair, params):
        """With a constant input, the transient must hold the DC state."""
        from repro.circuit.inverter import build_inverter_chain

        nt, pt = nominal_pair
        circ = build_inverter_chain(nt, pt, 0.4, params)
        circ.fixed[circ.node("in")] = 0.0
        dc = solve_dc(circ)
        res = simulate_transient(circ, 20e-12, 0.5e-12, dc.voltages)
        drift = np.abs(res.voltages[-1] - dc.voltages).max()
        assert drift < 1e-4
