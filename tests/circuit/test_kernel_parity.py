"""The generated circuit kernel: parity on the paths the experiment
circuits leave out, and the shape of what it emits.

The parity cases replay each production solve through the frozen oracle
``tests/circuit/engine_reference.py`` with the helpers (and bounds) of
``test_engine_parity.py``: DC without ``gmin`` (the kernel's
``gmin > 0.0`` branch), a singular Jacobian (the elimination's zero
pivot goes to LAPACK, whose NaN solution must take the path
``LinAlgError`` takes in the oracle), an FO4 transient of compact-model
CMOS FETs (their ``float(C)`` capacitance stamps), an FO4 chain whose
tables sit on a non-uniform grid (the numpy lookup path) and a
transient mixing a uniform table, a non-uniform table and compact
models.  The structure tests pin one kernel per topology, a source made
of integer slots and fixed identifiers only, and the fill of the
eliminations; a hand-built system with a zero pivot pins the LAPACK
fallback of both Newton loops.  A property holds ``transient_run``'s
inlined table lookups to the table's scalar lookups bit for bit.
"""

from __future__ import annotations

import ast
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.circuit import dc, netlist, transient
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
    """A compact model with constant current, slopes and capacitances."""

    def __init__(self, gm, gds, c=1e-18):
        self.gm, self.gds, self.c = gm, gds, c

    def ids(self, vgs, vds):
        return 1e-6, self.gm, self.gds

    def capacitances(self, vgs, vds):
        return self.c, self.c


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

    def test_mixed_lookups_transient(self, nominal_pair, params):
        """A table inverter whose n-FET table is on a uniform grid (its
        lookups inlined) and whose p-FET table is not (its closures
        called), driving a compact-model CMOS inverter."""
        nt, pt = nominal_pair
        cmos = ptm_node(45)
        c = Circuit("mixed")
        vin, mid, vdd = c.node("in"), c.node("mid"), c.node("vdd")
        out = c.node("out")
        c.fix(vdd, VDD)
        c.fix(vin, 0.0)
        add_inverter(c, "inv", vin, mid, vdd, nt, _non_uniform(pt), params)
        c.add(CompactMOSFET(out, mid, GROUND, cmos.nmos, polarity=+1))
        c.add(CompactMOSFET(out, mid, vdd, cmos.pmos, polarity=-1))
        c.add(Capacitor(out, GROUND, 1e-17))
        kinds = {kind for kind, *_ in c.program().signature[2]}
        assert {netlist._GRID_FET, netlist._TABLE_FET,
                netlist._MOSFET} <= kinds
        dc0 = dc.solve_dc(c)
        _assert_dc_equal(c, dc0)
        c.fixed[vin] = _step_input(2e-12)
        args = (25e-12, 0.25e-12, dc0.voltages)
        # Both engines run to 1e-15 A: at the default 1e-13 A each stops
        # anywhere within the tolerance of the root from its own start
        # (predictor vs previous state), and on the nominal tables of
        # the breakpoint current grid that left the supply traces
        # 7.6e-14 A apart, above SUPPLY_BOUND's 5.8e-14 A.  Converged,
        # they agree to 2e-16 A, which is what this test pins.
        kwargs = dict(monitor_supplies=("vdd", "in"), tol_a=1e-15)
        result = transient.simulate_transient(c, *args, **kwargs)
        _assert_transient_equal(c, result, *args, **kwargs)


#: Identifiers the emitter may write besides ``<letters><slot or index>``.
_FIXED_IDENTIFIERS = {
    "dc_newton", "transient_run", "assemble", "v", "data", "waves",
    "t_end", "dt", "gmin", "tol_a", "max_iter", "damping_v",
    "max_halvings", "check", "times", "states", "rows", "halvings",
    "fallbacks", "t", "h", "h_old", "t_next", "first", "attempt", "ratio",
    "converged", "iteration", "solved", "max_step", "scale", "jac",
    "lapack", "diverged", "float", "abs", "max", "min", "int", "range",
    "ZeroDivisionError",
    # the scratch names of the inlined table lookups
    "fx", "fy", "ix", "iy", "tx", "ty", "sx", "sy", "row0", "row1",
    "z00", "z01", "z10", "z11"}
_NUMBERED = re.compile(
    r"(v|w|o|e|x|y|u|a|b|c|r|q|f|gs|ds|B|O|Q|CB|W|G|I|C|IV|CV|P|PS|PD|T"
    r"|OF|VG|DG|FX|IX|VD|DD|FY|IY|CU|CH)\d+")


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

    def test_transient_run_compiles_on_first_transient(self, monkeypatch):
        """A topology that only runs DC never compiles ``transient_run``;
        the first transient compiles it once for every circuit of the
        topology."""
        monkeypatch.setattr(netlist, "_KERNELS", {})
        def divider():
            c = Circuit("lazy-transient")
            vin, mid, out = c.node("in"), c.node("mid"), c.node("out")
            c.fix(vin, 1.0)
            c.add(Resistor(vin, mid, 1e3))
            c.add(Resistor(mid, out, 2e3))
            c.add(Resistor(out, GROUND, 3e3))
            c.add(Capacitor(out, GROUND, 1e-12))
            c.add(Capacitor(mid, out, 1e-13))
            return c

        obs.reset()
        obs.enable()
        try:
            first, second = divider(), divider()
            dc0 = dc.solve_dc(first)
            counters = obs.snapshot()["counters"]
            assert counters["circuit.kernels_compiled"] == 1
            assert "circuit.transient_kernels_compiled" not in counters
            for c in (first, second):
                transient.simulate_transient(c, 1e-9, 1e-10, dc0.voltages)
            counters = obs.snapshot()["counters"]
            assert counters["circuit.kernels_compiled"] == 1
            assert counters["circuit.transient_kernels_compiled"] == 1
            assert "def transient_run" in first.program().kernel.source
        finally:
            obs.disable()
            obs.reset()

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
                # Numbers, and None for an absent waveform or check.
                assert (node.value is None
                        or isinstance(node.value, (int, float))), node.value
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

    @pytest.mark.parametrize("gds", [0.0, 1e-30])
    def test_transient_zero_pivot_takes_the_lapack_fallback(self, gds):
        """The same pair without capacitance or ``gmin``: the first
        transient iteration's free block is the static one, and its step
        is LAPACK's (the run fails after that one iteration and leaves
        it in ``v``)."""
        c = Circuit()
        a, b = c.node("a"), c.node("b")
        c.add(CompactMOSFET(a, b, GROUND, _Slopes(2e-5, gds, 0.0), +1))
        c.add(CompactMOSFET(b, a, GROUND, _Slopes(3e-5, 1e-6, 0.0), +1))
        prog = c.program()
        assert prog.kernel.transient_elimination.order == (a, b)
        v = [0.3, 0.2, 0.0]
        got = list(v)
        with pytest.raises(ConvergenceError):
            prog.kernel.transient_run(got, prog.data, (), 1e-12, 1e-12,
                                      0.0, 0.0, 1, math.inf, 0, None)
        f, flat = prog.assemble(v)
        jac = np.array(flat).reshape(3, 3)[:2, :2]
        step = np.linalg.solve(jac, -np.array(f[:2]))
        assert got[:2] == [v[0] + step[0], v[1] + step[1]]


def _clamped_table():
    """A uniform table with a gate offset whose ``|dQ/dV_GS| -
    |dQ/dV_DS|`` changes sign, so the ``C_GS,i >= 0`` clamp bites."""
    vg = np.linspace(-0.6, 0.9, 16)
    vd = np.linspace(0.0, 0.75, 6)
    gg, dd = np.meshgrid(vg, vd, indexing="ij")
    current = 1e-6 * (gg + 1.0) ** 2 * np.tanh(4.0 * dd)
    charge = 1e-18 * (0.3 * gg + 0.5 * dd + 0.9 * gg * dd + 0.4 * gg ** 2)
    return DeviceTable(vg=vg, vd=vd, current_a=current, charge_c=charge,
                       gate_offset_v=0.07)


CLAMPED = _clamped_table()


def _inline_lookup():
    """``transient_run``'s inlined current and capacitance lookups of one
    table FET, compiled alone: ``(gs, ds, grid) -> (I, dI/dV_GS,
    dI/dV_DS, C_GS,i, C_GD,i)``."""
    lines = ["def lookup(gs0, ds0, T0):", "    " + netlist._grid_constants(0)]
    lines += ["    " + line for line in netlist._grid_current(0)
              + netlist._grid_capacitances(0)]
    lines.append("    return e0, x0, y0, a0, b0")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<inline lookup>", "exec"), namespace)
    return namespace["lookup"]


INLINE_LOOKUP = _inline_lookup()


def _biases(axis, offset, span):
    """Grid nodes (exact after the offset), points inside and up to
    ``span`` past both ends of ``axis``."""
    nodes = [float(x) - offset for x in axis]
    return st.one_of(st.sampled_from(nodes),
                     st.floats(min_value=nodes[0] - span,
                               max_value=nodes[-1] + span))


class TestInlineLookups:
    @given(_biases(CLAMPED.vg, CLAMPED.gate_offset_v, 0.5),
           st.one_of(_biases(CLAMPED.vd, 0.0, 0.5),
                     _biases(-CLAMPED.vd[::-1], 0.0, 0.5)))
    @settings(max_examples=300, deadline=None)
    def test_inline_lookups_match_scalar_lookups(self, vgs, vds):
        """Same bits as :class:`repro.device.tables.ScalarLookups`, over
        mirrored negative ``V_DS``, both ends of both axes and the clamp
        of ``C_GS,i`` at zero."""
        lookups = CLAMPED.scalar_lookups()
        want = (*lookups.current_and_derivatives(vgs, vds),
                *lookups.capacitances(vgs, vds))
        got = INLINE_LOOKUP(vgs, vds, lookups.grid)
        assert [float(x).hex() for x in got] == [float(x).hex()
                                                 for x in want]

    def test_property_reaches_the_clamp_and_the_mirror(self):
        """The table above does clamp ``C_GS,i`` and the mirror changes
        the current's sign, so the property covers both branches."""
        lookups = CLAMPED.scalar_lookups()
        assert lookups.capacitances(0.5, 0.1)[0] == 0.0
        assert lookups.capacitances(0.5, 0.4)[0] > 0.0
        assert lookups.current_and_derivatives(0.5, -0.2)[0] < 0.0
