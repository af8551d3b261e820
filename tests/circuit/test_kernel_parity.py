"""The generated circuit kernel: parity on the paths the experiment
circuits leave out, and the shape of what it emits.

The parity cases replay each production solve through the frozen oracle
``tests/circuit/engine_reference.py`` with the helpers (and bounds) of
``test_engine_parity.py``: DC without ``gmin`` (the kernel's
``gmin > 0.0`` branch), a singular Jacobian (the elimination's zero
pivot goes to LAPACK, whose NaN solution must take the path
``LinAlgError`` takes in the oracle), an FO4 transient of compact-model
CMOS FETs (their ``float(C)`` capacitance stamps) and an FO4 chain whose
tables sit on a non-uniform grid (the numpy lookup path).  The structure
tests pin one kernel per topology, a source made of integer slots and
fixed identifiers only, and the fill of the eliminations; a hand-built
system with a zero pivot pins the LAPACK fallback.
"""

from __future__ import annotations

import ast
import math
import re
import warnings

import numpy as np
import pytest

from repro.circuit import dc, transient
from repro.circuit.elements import Capacitor, CompactMOSFET, Resistor
from repro.circuit.inverter import add_inverter, build_inverter_chain
from repro.circuit.netlist import GROUND, Circuit
from repro.circuit.ring_oscillator import build_ring_oscillator
from repro.cmos.ptm import ptm_node
from repro.device.tables import DeviceTable
from repro.errors import ConvergenceError
from tests.circuit import engine_reference as ref
from tests.circuit.test_engine_parity import (
    VDD,
    _assert_dc_equal,
    _assert_transient_equal,
    _step_input,
)


def _inverter(nt, pt, params, vin_value):
    c = Circuit()
    vin, vout, vdd = c.node("in"), c.node("out"), c.node("vdd")
    c.fix(vdd, VDD)
    c.fix(vin, vin_value)
    add_inverter(c, "inv", vin, vout, vdd, nt, pt, params)
    return c


def _cmos_fo4(node):
    """A compact-model CMOS inverter driving four CMOS inverter loads."""
    c = Circuit("cmos-fo4")
    vin, vout, vdd = c.node("in"), c.node("out"), c.node("vdd")
    c.fix(vdd, VDD)
    c.fix(vin, 0.0)
    c.add(CompactMOSFET(vout, vin, GROUND, node.nmos, polarity=+1))
    c.add(CompactMOSFET(vout, vin, vdd, node.pmos, polarity=-1))
    c.add(Capacitor(vout, GROUND, 2e-17))
    for k in range(4):
        load = c.node(f"load{k}")
        c.add(CompactMOSFET(load, vout, GROUND, node.nmos, polarity=+1))
        c.add(CompactMOSFET(load, vout, vdd, node.pmos, polarity=-1))
        c.add(Capacitor(load, GROUND, 1e-17))
    return c


class _Slopes:
    """A compact model with constant current and slopes."""

    def __init__(self, gm, gds):
        self.gm, self.gds = gm, gds

    def ids(self, vgs, vds):
        return 1e-6, self.gm, self.gds

    def capacitances(self, vgs, vds):
        return 1e-18, 1e-18


def _non_uniform(table, drop=7):
    """``table`` with one gate row removed, so its gate axis is not
    uniform and every lookup takes the numpy path."""
    return DeviceTable(vg=np.delete(table.vg, drop), vd=table.vd,
                       current_a=np.delete(table.current_a, drop, axis=0),
                       charge_c=np.delete(table.charge_c, drop, axis=0),
                       gate_offset_v=table.gate_offset_v)


class TestParity:
    @pytest.mark.parametrize("vin", [0.0, 0.13, 0.2, VDD])
    def test_dc_without_gmin(self, nominal_pair, params, vin):
        nt, pt = nominal_pair
        c = _inverter(nt, pt, params, vin)
        result = dc.solve_dc(c, gmin=0.0)
        _assert_dc_equal(c, result, gmin=0.0)
        # Warm-started from the other rail, as a VTC continuation does.
        v0 = result.voltages.copy()
        v0[c.node("out")] = VDD - v0[c.node("out")]
        _assert_dc_equal(c, dc.solve_dc(c, v0=v0, gmin=0.0), v0=v0,
                         gmin=0.0)

    def test_singular_jacobian(self):
        """A node held only by a capacitor has an all-zero Jacobian row
        at ``gmin=0``.  Plain Newton, every source-stepping stage and its
        (still zero) larger-``gmin`` retry fail exactly as in the oracle,
        without a RuntimeWarning from the solver."""
        c = Circuit()
        vin, mid, island = c.node("in"), c.node("mid"), c.node("island")
        c.fix(vin, VDD)
        c.add(Resistor(vin, mid, 1e3))
        c.add(Resistor(mid, GROUND, 3e3))
        c.add(Capacitor(island, GROUND, 1e-15))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConvergenceError) as got:
                dc.solve_dc(c, gmin=0.0)
        with pytest.raises(ConvergenceError) as want:
            ref.solve_dc(c, gmin=0.0)
        assert str(got.value) == str(want.value)
        assert got.value.iterations == want.value.iterations == 3

    def test_cmos_fo4_transient(self):
        c = _cmos_fo4(ptm_node(45))
        dc0 = dc.solve_dc(c)
        _assert_dc_equal(c, dc0)
        c.fixed[c.node("in")] = _step_input(3e-12)
        args = (30e-12, 0.25e-12, dc0.voltages)
        kwargs = dict(monitor_supplies=("vdd", "in"))
        result = transient.simulate_transient(c, *args, **kwargs)
        _assert_transient_equal(c, result, *args, **kwargs)

    def test_non_uniform_table_fo4(self, nominal_pair, params):
        nt, pt = (_non_uniform(t) for t in nominal_pair)
        assert np.ptp(np.diff(nt.vg)) > 1e-3
        c = build_inverter_chain(nt, pt, VDD, params)
        dc0 = dc.solve_dc(c)
        _assert_dc_equal(c, dc0)
        c.fixed[c.node("in")] = _step_input(2e-12)
        args = (20e-12, 0.25e-12, dc0.voltages)
        kwargs = dict(monitor_supplies=("vdd",))
        result = transient.simulate_transient(c, *args, **kwargs)
        _assert_transient_equal(c, result, *args, **kwargs)


#: Identifiers the emitter may write besides ``<letters><slot or index>``.
_FIXED_IDENTIFIERS = {"dc_newton", "transient_newton", "branches",
                      "assemble", "v", "data", "gmin", "geqs", "dv_old",
                      "i_prev", "tol_a", "max_iter", "damping_v",
                      "fallbacks", "iteration", "solved", "max_step",
                      "scale", "jac", "lapack", "float", "abs", "max",
                      "range", "ZeroDivisionError"}
_NUMBERED = re.compile(r"(v|e|x|y|u|a|b|c|r|q|B|O|Q|G|I|C|IV|CV|P|PS|PD)"
                       r"\d+")


class TestKernelStructure:
    def test_one_kernel_per_topology(self, nominal_pair, params):
        nt, pt = nominal_pair
        a = build_inverter_chain(nt, pt, VDD, params)
        b = build_inverter_chain(nt.scaled(2.0), pt.with_gate_offset(0.1),
                                 0.3, params)
        assert b.program().kernel is a.program().kernel
        assert b.program().data != a.program().data
        b.fix(b.node("out"), 0.1)       # another fixed set, another kernel
        assert b.program().kernel is not a.program().kernel

    def test_source_holds_slots_and_fixed_identifiers(self, nominal_pair,
                                                      params):
        nt, pt = nominal_pair
        program = build_inverter_chain(nt, pt, VDD, params).program()
        source = program.kernel.source
        tree = ast.parse(source, feature_version=(3, 10))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.FunctionDef):
                names.add(node.name)
            elif isinstance(node, ast.Constant):
                assert isinstance(node.value, (int, float)), node.value
        odd = {name for name in names if name not in _FIXED_IDENTIFIERS
               and not _NUMBERED.fullmatch(name)}
        assert not odd

    def test_elimination_fill(self, nominal_pair, params):
        """Minimum degree eliminates the FO4 chain and the VTC inverter
        without fill; the 15-stage ring's counts are pinned."""
        nt, pt = nominal_pair
        for circuit in (build_inverter_chain(nt, pt, VDD, params),
                        _inverter(nt, pt, params, 0.0)):
            kernel = circuit.program().kernel
            assert kernel.dc_elimination.fill == 0
            assert kernel.transient_elimination.fill == 0
        ring = build_ring_oscillator(nt, pt, VDD, 15, params)
        kernel = ring.program().kernel
        assert len(kernel.transient_elimination.order) == 90
        for lu, counts in ((kernel.transient_elimination, (162, 470, 54)),
                           (kernel.dc_elimination, (76, 212, 29))):
            assert (lu.multipliers, lu.updates, lu.fill) == counts

    @pytest.mark.parametrize("gds", [0.0, 1e-30])
    def test_zero_pivot_takes_the_lapack_fallback(self, gds):
        """Two cross-coupled FETs, the first with ``gds`` zero or tiny,
        and no ``gmin``: the free block ``[[gds, gm1], [gm2, gds2]]`` is
        regular, but its first pivot is zero (or makes a multiplier of
        3e25), so the elimination hands the iteration to LAPACK (which
        swaps the rows) and the step is LAPACK's."""
        c = Circuit()
        a, b = c.node("a"), c.node("b")
        c.add(CompactMOSFET(a, b, GROUND, _Slopes(2e-5, gds), polarity=+1))
        c.add(CompactMOSFET(b, a, GROUND, _Slopes(3e-5, 1e-6), polarity=+1))
        prog = c.program()
        assert prog.kernel.dc_elimination.order == (a, b)
        v = [0.3, 0.2, 0.0]
        got = list(v)
        assert prog.kernel.dc_newton(got, prog.data, 0.0, 0.0, 1, math.inf,
                                     0) == (1, False, 1)
        f, flat = prog.assemble(v)
        jac = np.array(flat).reshape(3, 3)[:2, :2]
        assert jac[0, 0] == gds
        step = np.linalg.solve(jac, -np.array(f[:2]))
        assert got[:2] == [v[0] + step[0], v[1] + step[1]]
