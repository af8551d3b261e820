"""Tests for the DC operating-point solver."""

import numpy as np
import pytest

from repro.circuit.dc import solve_dc
from repro.circuit.elements import CurrentSource, Resistor, TableFET
from repro.circuit.netlist import Circuit, GROUND
from repro.device.tables import DeviceTable
from repro.errors import CircuitError


def _resistor_divider():
    c = Circuit()
    top = c.node("top")
    mid = c.node("mid")
    c.fix(top, 1.0)
    c.add(Resistor(top, mid, 1e3))
    c.add(Resistor(mid, GROUND, 3e3))
    return c, mid, top


class TestLinearCircuits:
    def test_resistor_divider(self):
        c, mid, _ = _resistor_divider()
        result = solve_dc(c)
        assert result.voltage(mid) == pytest.approx(0.75, abs=1e-9)

    def test_source_current(self):
        c, _, top = _resistor_divider()
        result = solve_dc(c)
        assert result.source_current(top) == pytest.approx(
            1.0 / 4e3, rel=1e-9)

    def test_current_source_into_resistor(self):
        c = Circuit()
        n = c.node("n")
        c.add(Resistor(n, GROUND, 2e3))
        c.add(CurrentSource(GROUND, n, 1e-3))
        # The source injects into ground-node bookkeeping; KCL at n:
        # stamp adds -1mA at n, so n = +2 V through the resistor.
        result = solve_dc(c)
        assert abs(result.voltage(n)) == pytest.approx(2.0, rel=1e-6)

    def test_ladder_network(self):
        c = Circuit()
        prev = c.node("in")
        c.fix(prev, 2.0)
        for i in range(5):
            nxt = c.node(f"n{i}")
            c.add(Resistor(prev, nxt, 1e3))
            c.add(Resistor(nxt, GROUND, 1e3))
            prev = nxt
        result = solve_dc(c)
        # Each stage divides; voltages strictly decreasing and positive.
        vs = [result.voltage(f"n{i}") for i in range(5)]
        assert all(a > b > 0 for a, b in zip(vs, vs[1:]))

    def test_source_current_of_ground_rejected(self):
        """Ground has no source; it used to return node ``mid``'s
        residual through ``f[-1]``."""
        c, _, _ = _resistor_divider()
        result = solve_dc(c)
        with pytest.raises(CircuitError):
            result.source_current("gnd")
        with pytest.raises(CircuitError):
            result.source_current(GROUND)

    def test_source_current_of_free_node_rejected(self):
        c, mid, _ = _resistor_divider()
        result = solve_dc(c)
        with pytest.raises(CircuitError):
            result.source_current(mid)
        with pytest.raises(CircuitError):
            result.source_current("mid")

    def test_v0_shape_checked(self):
        c, _, _ = _resistor_divider()
        with pytest.raises(ValueError):
            solve_dc(c, v0=np.zeros(5))


class TestNonlinearCircuits:
    def test_inverter_rails(self, nominal_pair, params):
        """DC inverter output sits near the rails for rail inputs."""
        from repro.circuit.inverter import add_inverter

        nt, pt = nominal_pair
        c = Circuit()
        vin = c.node("in")
        vout = c.node("out")
        vdd = c.node("vdd")
        c.fix(vdd, 0.4)
        c.fix(vin, 0.0)
        add_inverter(c, "inv", vin, vout, vdd, nt, pt, params)
        r0 = solve_dc(c)
        assert r0.voltage(vout) > 0.35
        c.fixed[vin] = 0.4
        r1 = solve_dc(c, v0=r0.voltages)
        assert r1.voltage(vout) < 0.05

    def test_latch_bistability(self, nominal_pair, params):
        """Seeding the two basins yields the two stable states."""
        from repro.circuit.latch import build_latch

        nt, pt = nominal_pair
        c = build_latch(nt, pt, 0.4, params)
        q, qb, vdd = c.node("q"), c.node("qb"), c.node("vdd")
        v0 = np.full(c.n_nodes, 0.2)
        v0[vdd] = 0.4
        v0[q], v0[qb] = 0.4, 0.0
        up = solve_dc(c, v0=v0)
        v0[q], v0[qb] = 0.0, 0.4
        down = solve_dc(c, v0=v0)
        assert up.voltage(q) > 0.3 and up.voltage(qb) < 0.1
        assert down.voltage(q) < 0.1 and down.voltage(qb) > 0.3

    def test_kcl_residual_at_solution(self, nominal_pair, params):
        from repro.circuit.inverter import add_inverter

        nt, pt = nominal_pair
        c = Circuit()
        vin, vout, vdd = c.node("in"), c.node("out"), c.node("vdd")
        c.fix(vdd, 0.4)
        c.fix(vin, 0.2)
        add_inverter(c, "inv", vin, vout, vdd, nt, pt, params)
        result = solve_dc(c)
        f, _ = c.program().assemble(result.voltages.tolist() + [0.0])
        assert np.max(np.abs(np.array(f)[c.free_nodes()])) < 1e-12
