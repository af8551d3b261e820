"""Tests for circuit elements as stamped by the compiled kernel.

Every element's physics (branch currents, Jacobian entries, capacitor
branches) lives in :class:`repro.circuit.netlist.StampProgram`; these
tests read it back through ``assemble`` and ``capacitances`` on small
netlists, first element by element and then as properties over random
netlists mixing every element kind.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.elements import (
    Capacitor,
    CompactMOSFET,
    CurrentSource,
    Resistor,
    TableFET,
)
from repro.circuit.netlist import GROUND, Circuit, StampProgram
from repro.device.tables import DeviceTable
from repro.errors import CircuitError


def _toy_table():
    vg = np.linspace(-1.0, 1.5, 26)
    vd = np.linspace(0.0, 1.0, 11)
    gg, dd = np.meshgrid(vg, vd, indexing="ij")
    current = 1e-6 * np.clip(gg, 0, None) * dd  # crude FET-like
    charge = 1e-18 * (gg + 0.5 * dd)
    return DeviceTable(vg=vg, vd=vd, current_a=current, charge_c=charge)


def _program(elements, n_nodes):
    """Compile ``elements`` over nodes ``0 .. n_nodes-1`` (no validation,
    so a property netlist may leave nodes unconnected)."""
    c = Circuit()
    for i in range(n_nodes):
        c.node(f"n{i}")
    for el in elements:
        c.add(el)
    return StampProgram(c)


def _stamp(elements, v):
    """Kernel residual over all slots (ground last) and the square
    Jacobian over the node slots, at node voltages ``v``."""
    prog = _program(elements, len(v))
    f, jac = prog.assemble([float(x) for x in v] + [0.0])
    width = len(v) + 1
    return np.array(f), np.array(jac).reshape(width, width)[:-1, :-1]


def _branches(elements, n_nodes, v=None):
    """``(node_a, node_b, farads)`` of every capacitor branch."""
    prog = _program(elements, n_nodes)
    v = [0.0] * n_nodes if v is None else [float(x) for x in v]
    ground = n_nodes

    def node(slot):
        return GROUND if slot == ground else slot

    caps = prog.capacitances(v + [0.0])
    return [(node(a), node(b), c)
            for (a, b, *_), c in zip(prog.branches, caps)]


def _assert_jacobian_matches_fd(elements, v, atol=1e-9, h=1e-7):
    _, jac = _stamp(elements, v)
    for col in range(len(v)):
        vp = np.array(v, dtype=float); vp[col] += h
        vm = np.array(v, dtype=float); vm[col] -= h
        fd = (_stamp(elements, vp)[0] - _stamp(elements, vm)[0]) / (2 * h)
        assert np.allclose(jac[:, col], fd[:-1], atol=atol)


class TestResistor:
    def test_stamp_current_and_jacobian(self):
        f, jac = _stamp([Resistor(0, 1, 2e3)], [1.0, 0.0])
        assert f[0] == pytest.approx(5e-4)
        assert f[1] == pytest.approx(-5e-4)
        assert jac[0, 0] == pytest.approx(5e-4 / 1.0)

    def test_ground_terminal(self):
        f, _ = _stamp([Resistor(0, GROUND, 1e3)], [2.0])
        assert f[0] == pytest.approx(2e-3)
        assert f[-1] == pytest.approx(-2e-3)   # the ground slot

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Resistor(0, 1, 0.0)


class TestCapacitor:
    def test_no_static_current(self):
        f, jac = _stamp([Capacitor(0, 1, 1e-15)], [1.0, 0.0])
        assert np.all(f == 0.0)
        assert np.all(jac == 0.0)

    def test_cap_stamp(self):
        assert _branches([Capacitor(0, 1, 1e-15)], 2) == [(0, 1, 1e-15)]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Capacitor(0, 1, -1e-15)


class TestCurrentSource:
    def test_injection(self):
        f, _ = _stamp([CurrentSource(0, 1, 2e-6)], [0.0, 0.0])
        assert f[0] == pytest.approx(2e-6)
        assert f[1] == pytest.approx(-2e-6)


class TestTableFETNType:
    def test_current_direction(self):
        t = _toy_table()
        fet = TableFET(drain=0, gate=1, source=GROUND, table=t)
        f, _ = _stamp([fet], [0.5, 1.0])  # vds=0.5, vgs=1.0
        expected = t.current(1.0, 0.5)
        assert f[0] == pytest.approx(expected)   # out of drain node
        assert expected > 0.0

    def test_jacobian_matches_finite_difference(self):
        _assert_jacobian_matches_fd([TableFET(0, 1, 2, _toy_table())],
                                    [0.62, 0.81, 0.13])

    def test_kcl_consistency(self):
        """Drain and source currents are equal and opposite; gate draws
        no static current."""
        f, _ = _stamp([TableFET(0, 1, 2, _toy_table())], [0.7, 0.9, 0.1])
        assert f[0] == pytest.approx(-f[2])
        assert f[1] == 0.0


class TestTableFETPType:
    def test_mirror_relation(self):
        """I_p(vgs, vds) = -I_n(-vgs, -vds)."""
        t = _toy_table()
        nfet = TableFET(0, 1, 2, t, polarity=+1)
        pfet = TableFET(0, 1, 2, t, polarity=-1)
        v_p = np.array([-0.4, -0.8, 0.0])  # p-device biased negatively
        assert _stamp([pfet], v_p)[0][0] == pytest.approx(
            -_stamp([nfet], -v_p)[0][0], abs=1e-15)

    def test_p_jacobian_finite_difference(self):
        pfet = TableFET(0, 1, 2, _toy_table(), polarity=-1)
        # Source high: pFET conducting.
        _assert_jacobian_matches_fd([pfet], [0.1, 0.0, 0.8])

    def test_polarity_validation(self):
        with pytest.raises(ValueError):
            TableFET(0, 1, 2, _toy_table(), polarity=0)


class TestTableFETCapacitors:
    def test_parasitics_added(self):
        t = _toy_table()
        fet = TableFET(0, 1, 2, t, c_par_gs_f=1e-18, c_par_gd_f=2e-18)
        (g1, s1, cgs), (g2, d2, cgd) = _branches([fet], 3)
        assert (g1, s1) == (1, 2)
        assert (g2, d2) == (1, 0)
        assert cgs >= 1e-18
        assert cgd >= 2e-18

    @given(st.floats(min_value=-0.5, max_value=1.0),
           st.floats(min_value=-0.5, max_value=1.0))
    @settings(max_examples=25)
    def test_capacitances_always_nonnegative(self, vd, vg):
        fet = TableFET(0, 1, GROUND, _toy_table())
        for _, _, c in _branches([fet], 2, [vd, vg]):
            assert c >= 0.0


# --- properties over random netlists -------------------------------------------
def _smooth_table():
    """A globally bilinear current (no kinks anywhere inside the axes,
    which cover every bias the property netlists can produce) and a
    charge whose ``|dQ/dV_GS| - |dQ/dV_DS|`` changes sign, so the
    ``C_GS,i >= 0`` clamp is exercised."""
    vg = np.linspace(-3.0, 3.0, 31)
    vd = np.linspace(0.0, 3.0, 16)
    gg, dd = np.meshgrid(vg, vd, indexing="ij")
    current = 1e-6 * (gg + 3.5) * dd
    charge = 1e-18 * (0.3 * gg + 0.5 * dd + 0.2 * gg * dd)
    return DeviceTable(vg=vg, vd=vd, current_a=current, charge_c=charge)


class _SquareLaw:
    """Smooth compact model with the engine's ``ids`` / ``capacitances``
    interface (negative ``v_ds`` folded by source/drain symmetry)."""

    k = 2e-6

    def ids(self, vgs, vds):
        if vds < 0.0:
            i, di_dvgs, di_dvds = self.ids(vgs - vds, -vds)
            return -i, -di_dvgs, di_dvgs + di_dvds
        ov = vgs + 2.0
        th = math.tanh(vds)
        return (self.k * ov * ov * th, 2.0 * self.k * ov * th,
                self.k * ov * ov * (1.0 - th * th))

    def capacitances(self, vgs, vds):
        return 3e-18, 1e-18


SMOOTH_TABLE = _smooth_table()
MODEL = _SquareLaw()


@st.composite
def _netlists(draw):
    """A random netlist of 2-4 nodes with every element kind, ground
    terminals included, and node voltages in [-0.5, 1.0] V."""
    n = draw(st.integers(min_value=2, max_value=4))
    terminal = st.integers(min_value=-1, max_value=n - 1)
    kinds = st.sampled_from(["R", "C", "I", "nfet", "pfet", "nmos", "pmos"])
    elements = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=6)):
        if kind in ("R", "C", "I"):
            a, b = draw(terminal), draw(terminal)
            if kind == "R":
                elements.append(Resistor(
                    a, b, draw(st.floats(min_value=1e3, max_value=1e5))))
            elif kind == "C":
                elements.append(Capacitor(
                    a, b, draw(st.floats(min_value=0.0, max_value=1e-15))))
            else:
                elements.append(CurrentSource(
                    a, b, draw(st.floats(min_value=-1e-6, max_value=1e-6))))
            continue
        d, g, s = draw(terminal), draw(terminal), draw(terminal)
        polarity = +1 if kind in ("nfet", "nmos") else -1
        if kind.endswith("fet"):
            elements.append(TableFET(
                d, g, s, SMOOTH_TABLE, polarity,
                c_par_gs_f=draw(st.floats(min_value=0.0, max_value=1e-18)),
                c_par_gd_f=draw(st.floats(min_value=0.0, max_value=1e-18))))
        else:
            elements.append(CompactMOSFET(d, g, s, MODEL, polarity))
    v = draw(st.lists(st.floats(min_value=-0.5, max_value=1.0),
                      min_size=n, max_size=n))
    return elements, v


@st.composite
def _single_fets(draw):
    """One FET of either kind and polarity on three distinct terminals
    (any of which may be ground), with node voltages."""
    d, g, s = draw(st.permutations([-1, 0, 1, 2]))[:3]
    polarity = draw(st.sampled_from([+1, -1]))
    if draw(st.booleans()):
        fet = TableFET(d, g, s, SMOOTH_TABLE, polarity)
    else:
        fet = CompactMOSFET(d, g, s, MODEL, polarity)
    v = draw(st.lists(st.floats(min_value=-0.5, max_value=1.0),
                      min_size=3, max_size=3))
    return fet, v


class TestKernelProperties:
    @given(_netlists())
    @settings(max_examples=60, deadline=None)
    def test_jacobian_is_residual_derivative(self, netlist):
        elements, v = netlist
        _assert_jacobian_matches_fd(elements, v)

    @given(_netlists())
    @settings(max_examples=60, deadline=None)
    def test_static_residuals_sum_to_zero(self, netlist):
        """KCL: every static current leaves one slot and enters another,
        so the residuals over all slots, ground included, cancel."""
        elements, v = netlist
        f, _ = _stamp(elements, v)
        assert abs(math.fsum(f)) < 1e-15

    @given(_single_fets())
    @settings(max_examples=40, deadline=None)
    def test_gate_draws_no_static_current(self, single):
        fet, v = single
        f, jac = _stamp([fet], v)
        slots = [len(v) if node == GROUND else node for node in fet.nodes]
        assert f[slots[1]] == 0.0
        if fet.nodes[1] != GROUND:
            assert np.all(jac[fet.nodes[1], :] == 0.0)

    @given(_single_fets())
    @settings(max_examples=40, deadline=None)
    def test_p_device_mirrors_n_device(self, single):
        """I_p(v) = -I_n(-v) for table and compact FETs alike."""
        fet, v = single
        d, g, s = fet.nodes
        if isinstance(fet, TableFET):
            nfet = TableFET(d, g, s, fet.table, +1)
            pfet = TableFET(d, g, s, fet.table, -1)
        else:
            nfet = CompactMOSFET(d, g, s, fet.model, +1)
            pfet = CompactMOSFET(d, g, s, fet.model, -1)
        drain = len(v) if d == GROUND else d
        v = np.array(v)
        assert _stamp([pfet], v)[0][drain] == -_stamp([nfet], -v)[0][drain]

    @given(_netlists())
    @settings(max_examples=60, deadline=None)
    def test_capacitances_never_negative(self, netlist):
        elements, v = netlist
        for _, _, c in _branches(elements, len(v), v):
            assert c >= 0.0


class TestCompile:
    def test_unknown_element_rejected(self):
        c = Circuit()
        a = c.node("a")
        c.add(Resistor(a, GROUND, 1e3))
        c.add(object())
        with pytest.raises(CircuitError):
            c.program()

    def test_add_or_fix_after_solve_recompiles(self):
        from repro.circuit.dc import solve_dc

        c = Circuit()
        top, mid = c.node("top"), c.node("mid")
        c.fix(top, 1.0)
        c.add(Resistor(top, mid, 1e3))
        c.add(Resistor(mid, GROUND, 1e3))
        assert solve_dc(c).voltage(mid) == pytest.approx(0.5)
        first = c.program()
        assert c.program() is first          # memoized
        c.fixed[top] = 0.8                   # a value change keeps it
        assert c.program() is first

        c.add(Resistor(mid, GROUND, 1e3))    # add() recompiles
        assert solve_dc(c).voltage(mid) == pytest.approx(0.8 / 3.0)
        second = c.program()
        assert second is not first

        c.fix(mid, 0.3)                      # fix() of a free node too
        result = solve_dc(c)
        assert c.program() is not second
        assert c.program().free == []
        assert result.voltage(mid) == 0.3
