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

    def test_source_current_of_unknown_name_creates_no_node(self):
        c, _, _ = _resistor_divider()
        result = solve_dc(c)
        with pytest.raises(CircuitError):
            result.source_current("vdd")
        assert c.n_nodes == 2


class TestArgumentValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(source_steps=0), dict(source_steps=-1), dict(max_iter=0),
        dict(max_iter=-5), dict(max_iter=0, source_steps=0)])
    def test_rejected_before_any_newton_work(self, kwargs, monkeypatch):
        import repro.circuit.dc as dc_mod

        def no_newton(*args, **kw):
            raise AssertionError("Newton ran")

        monkeypatch.setattr(dc_mod, "_newton", no_newton)
        c, _, _ = _resistor_divider()
        with pytest.raises(ValueError):
            solve_dc(c, **kwargs)

    def test_fo4_without_source_stepping_is_not_a_fake_solution(
            self, nominal_pair, params):
        """One Newton iteration cannot converge the FO4 chain, and with
        ``source_steps=0`` the stepping loop never ran, so the solve used
        to return all zeros as converged (``vdd`` read 0.0, not 0.4)."""
        from repro.circuit.inverter import build_inverter_chain

        nt, pt = nominal_pair
        chain = build_inverter_chain(nt, pt, 0.4, params)
        with pytest.raises(ValueError, match="source_steps"):
            solve_dc(chain, max_iter=1, source_steps=0)


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


class TestLastResortStart:
    """After a ``v0`` start and source stepping both fail, one Newton
    runs from the default start before the solve gives up."""

    def _inverter(self, nominal_pair, params):
        from repro.circuit.inverter import add_inverter

        nt, pt = nominal_pair
        c = Circuit()
        vin, vout, vdd = c.node("in"), c.node("out"), c.node("vdd")
        c.fix(vdd, 0.4)
        c.fix(vin, 0.1)
        add_inverter(c, "inv", vin, vout, vdd, nt, pt, params)
        return c

    @pytest.fixture
    def failing_stepping(self, monkeypatch):
        import repro.circuit.dc as dc_mod
        from repro.errors import ConvergenceError

        def fail(prog, fixed, gmin, tol_a, max_iter, damping_v,
                 source_steps, iters, fallbacks):
            # Like the real loop: the count includes the iterations
            # spent before it.
            raise ConvergenceError("stepping failed", iterations=iters + 7)

        monkeypatch.setattr(dc_mod, "_source_stepping", fail)

    def test_warm_start_falls_back_to_the_default_start(
            self, nominal_pair, params, failing_stepping):
        c = self._inverter(nominal_pair, params)
        cold = solve_dc(c, max_iter=12)
        # 6 V everywhere exhausts 12 Newton iterations (see the source
        # stepping parity test), and stepping fails here by fiat.
        rescued = solve_dc(c, v0=np.full(c.n_nodes, 6.0), max_iter=12)
        assert np.array_equal(rescued.voltages, cold.voltages)
        assert rescued.iterations == 12 + 7 + cold.iterations

    def test_cold_start_still_raises(self, nominal_pair, params,
                                     failing_stepping):
        from repro.errors import ConvergenceError

        c = self._inverter(nominal_pair, params)
        with pytest.raises(ConvergenceError, match="stepping failed"):
            solve_dc(c, max_iter=1)
