"""Tests for netlist construction and validation."""

import pytest

from repro.circuit.elements import Resistor
from repro.circuit.netlist import Circuit, GROUND
from repro.errors import CircuitError


class TestNodes:
    def test_ground_aliases(self):
        c = Circuit()
        assert c.node("0") == GROUND
        assert c.node("gnd") == GROUND
        assert c.node("ground") == GROUND

    def test_node_creation_idempotent(self):
        c = Circuit()
        a = c.node("a")
        assert c.node("a") == a
        assert c.n_nodes == 1

    def test_node_name_roundtrip(self):
        c = Circuit()
        idx = c.node("out")
        assert c.node_name(idx) == "out"
        assert c.node_name(GROUND) == "gnd"


class TestFixedNodes:
    def test_fix_by_name(self):
        c = Circuit()
        c.node("vdd")
        c.fix("vdd", 0.8)
        assert c.fixed_voltages()[c.node("vdd")] == 0.8

    def test_fix_waveform(self):
        c = Circuit()
        c.fix(c.node("in"), lambda t: 2.0 * t)
        assert c.fixed_voltages(0.5)[c.node("in")] == 1.0

    def test_cannot_fix_ground(self):
        c = Circuit()
        with pytest.raises(CircuitError):
            c.fix("0", 1.0)

    def test_negative_index_rejected(self):
        """``fix(-2, ...)`` used to alias node ``a`` of a two-node
        circuit through negative indexing."""
        c = Circuit()
        a, b = c.node("a"), c.node("b")
        c.fix(a, 1.0)
        with pytest.raises(CircuitError):
            c.fix(-2, 0.3)
        assert c.fixed == {a: 1.0}

    def test_out_of_range_index_rejected(self):
        c = Circuit()
        c.node("a")
        c.node("b")
        with pytest.raises(CircuitError):
            c.fix(2, 0.3)

    def test_free_nodes_excludes_fixed(self):
        c = Circuit()
        a, b = c.node("a"), c.node("b")
        c.fix(a, 1.0)
        assert list(c.free_nodes()) == [b]


class TestValidation:
    def test_empty_circuit_rejected(self):
        with pytest.raises(CircuitError):
            Circuit().validate()

    def test_dangling_node_rejected(self):
        c = Circuit()
        a = c.node("a")
        c.node("floating")
        c.add(Resistor(a, GROUND, 1e3))
        with pytest.raises(CircuitError):
            c.validate()

    def test_dangling_fixed_node_allowed(self):
        """A fixed node with no elements is a harmless source stub."""
        c = Circuit()
        a = c.node("a")
        c.add(Resistor(a, GROUND, 1e3))
        c.fix(c.node("unused_rail"), 1.0)
        c.validate()

    def test_valid_circuit_passes(self):
        c = Circuit()
        c.add(Resistor(c.node("a"), GROUND, 1e3))
        c.validate()

    def test_direct_fixed_keys_checked(self):
        """Callers write ``circuit.fixed`` directly, so ``validate()``
        checks every key, not only the ones ``fix()`` saw."""
        for bad in (-2, 2, "a"):
            c = Circuit()
            a, b = c.node("a"), c.node("b")
            c.add(Resistor(a, b, 1e3))
            c.add(Resistor(b, GROUND, 1e3))
            c.fixed[bad] = 0.3
            with pytest.raises(CircuitError):
                c.validate()
            with pytest.raises(CircuitError):
                c.program()
