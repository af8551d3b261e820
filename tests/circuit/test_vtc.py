"""Tests for VTC computation."""

import numpy as np
import pytest

from repro.circuit.elements import Resistor
from repro.circuit.netlist import Circuit, GROUND
from repro.circuit.vtc import compute_vtc


class TestComputeVTC:
    def test_linear_divider(self):
        c = Circuit()
        vin = c.node("in")
        out = c.node("out")
        c.fix(vin, 0.0)
        c.add(Resistor(vin, out, 1e3))
        c.add(Resistor(out, GROUND, 1e3))
        grid = np.linspace(0, 1, 11)
        vout = compute_vtc(c, vin, out, grid)
        assert np.allclose(vout, grid / 2, atol=1e-9)

    def test_requires_fixed_input(self):
        c = Circuit()
        vin = c.node("in")
        out = c.node("out")
        c.add(Resistor(vin, out, 1e3))
        c.add(Resistor(out, GROUND, 1e3))
        with pytest.raises(ValueError):
            compute_vtc(c, vin, out, np.linspace(0, 1, 5))

    def test_accepts_node_names(self, nominal_pair, params):
        from repro.circuit.inverter import add_inverter

        nt, pt = nominal_pair
        c = Circuit()
        c.fix(c.node("vdd"), 0.4)
        c.fix(c.node("in"), 0.0)
        add_inverter(c, "inv", c.node("in"), c.node("out"),
                     c.node("vdd"), nt, pt, params)
        vout = compute_vtc(c, "in", "out", np.linspace(0, 0.4, 9))
        assert vout[0] > vout[-1]

    def test_repeated_grid_point(self, nominal_pair, params):
        """A repeated input value gives the secant predictor no slope:
        the sweep continues from the last solution and matches the sweep
        without repeats."""
        from repro.circuit.inverter import add_inverter

        nt, pt = nominal_pair

        def sweep(grid):
            c = Circuit()
            c.fix(c.node("vdd"), 0.4)
            c.fix(c.node("in"), 0.0)
            add_inverter(c, "inv", c.node("in"), c.node("out"),
                         c.node("vdd"), nt, pt, params)
            return compute_vtc(c, "in", "out", grid)

        grid = np.linspace(0, 0.4, 9)
        want = sweep(grid)
        got = sweep(np.repeat(grid, 2))
        assert np.allclose(got[0::2], want, atol=1e-9)
        assert np.allclose(got[1::2], want, atol=1e-9)
