"""Replica loads simulated as one m-fold inverter.

The netlist functions wire the ``fanout`` identical replica inverters of a
load as
one inverter whose tables and junction capacitances are ``fanout`` times
larger (:func:`repro.circuit.inverter.add_replica_load`).  The frozen
reference in ``tests/circuit/replica_reference.py`` still wires every
replica; each test holds a collapsed netlist to its explicit twin.  The
two are equal in real arithmetic but not bitwise (the driven node sums
one companion term where it summed ``fanout``, the LU is smaller and
every step converges only to ``tol_a``), so the bounds are: DC within
1e-12 V, waveforms within 1e-8 V on every node both netlists have, and
figures of merit within 1e-6 relative.  With one copy the collapse is
exact, and that case is held bit for bit.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.circuit import gates, inverter
from repro.circuit.dc import solve_dc
from repro.circuit.gates import build_nand2, build_nor2, characterize_gate
from repro.circuit.inverter import (
    add_replica_load,
    build_inverter_chain,
    characterize_inverter,
    estimate_inverter_delay,
)
from repro.circuit.netlist import Circuit
from repro.circuit.ring_oscillator import (
    _alternating_start,
    build_ring_oscillator,
)
from repro.circuit.transient import simulate_transient
from repro.variability.variants import DeviceVariant, variant_array_table
from tests.circuit import replica_reference as ref

VDD = 0.4
DC_TOL_V = 1e-12
WAVE_TOL_V = 1e-8
METRIC_RTOL = 1e-6
#: The DC and transient solvers' default shunt conductance on every free
#: node.
GMIN = 1e-12


def _names(circuit: Circuit) -> list[str]:
    return [circuit.node_name(i) for i in range(circuit.n_nodes)]


def _shared(a: Circuit, b: Circuit) -> list[str]:
    """Node names both netlists have (everything but replica outputs)."""
    names = set(_names(b))
    return [name for name in _names(a) if name in names]


def _assert_dc_close(new: Circuit, old: Circuit, **kwargs) -> None:
    got, want = solve_dc(new, **kwargs), solve_dc(old, **kwargs)
    for name in _shared(new, old):
        assert abs(got.voltage(new.node(name))
                   - want.voltage(old.node(name))) <= DC_TOL_V, name


def _assert_waves_close(new, old, tol_v: float = WAVE_TOL_V) -> None:
    """Two transient results on one time grid agree on shared nodes."""
    assert np.array_equal(new.time_s, old.time_s)
    for name in _shared(new.circuit, old.circuit):
        dv = np.max(np.abs(new.v(name) - old.v(name)))
        assert dv <= tol_v, (name, dv)


def _assert_metrics_close(got, want, fields) -> None:
    for field in fields:
        a, b = getattr(got, field), getattr(want, field)
        assert a == pytest.approx(b, rel=METRIC_RTOL, abs=0.0), field


def _characterize(monkeypatch, module, name, build, fn, *args):
    """``fn(*args)`` with ``module.<name>`` swapped for ``build``, and
    the transients it ran."""
    runs = []

    def record(circuit, *a, **k):
        runs.append(simulate_transient(circuit, *a, **k))
        return runs[-1]

    with monkeypatch.context() as m:
        m.setattr(module, name, build)
        m.setattr(module, "simulate_transient", record)
        return fn(*args), runs


class TestAddReplicaLoad:
    def test_structure(self, nominal_pair, params):
        nt, pt = nominal_pair
        c = build_inverter_chain(nt, pt, VDD, params)
        assert (c.n_nodes, len(c.elements)) == (8, 9)
        n_load, p_load = c.elements[-2:]
        assert n_load.nodes[0] == c.node("load.out")
        assert np.array_equal(n_load.table.current_a,
                              nt.current_a * params.fanout)
        assert np.array_equal(p_load.table.charge_c,
                              pt.charge_c * params.fanout)
        assert n_load.c_par_gs_f == params.fanout * params.c_parasitic_f
        assert p_load.c_par_gd_f == params.fanout * params.c_parasitic_f
        ring = build_ring_oscillator(nt, pt, VDD, 15, params)
        fets = sum(hasattr(el, "table") for el in ring.elements)
        assert (ring.n_nodes, len(ring.elements), fets) == (91, 135, 60)

    def test_zero_copies_adds_nothing(self, nominal_pair, params):
        nt, pt = nominal_pair
        c = Circuit()
        vin, vdd = c.node("in"), c.node("vdd")
        add_replica_load(c, "load", vin, vdd, nt, pt, params, copies=0)
        assert (c.n_nodes, c.elements) == (2, [])
        ring = build_ring_oscillator(nt, pt, VDD, 5,
                                     replace(params, fanout=1))
        assert ring.n_nodes == 1 + 5 + 5 * 4

    @pytest.mark.parametrize("copies", [-1, 2.5, True, 4.0])
    def test_rejects_bad_copies(self, nominal_pair, params, copies):
        nt, pt = nominal_pair
        c = Circuit()
        vin, vdd = c.node("in"), c.node("vdd")
        with pytest.raises(ValueError, match="copies"):
            add_replica_load(c, "load", vin, vdd, nt, pt, params, copies)

    def test_one_copy_is_bitwise(self, nominal_pair, params):
        """``scaled(1)`` and ``1 * C`` are exact: a fanout-of-1 chain is
        the old lightweight replica bit for bit, DC and transient."""
        nt, pt = nominal_pair
        one = replace(params, fanout=1)
        new = build_inverter_chain(nt, pt, VDD, one)
        old = ref.build_inverter_chain(nt, pt, VDD, one)
        dc_new, dc_old = solve_dc(new), solve_dc(old)
        assert np.array_equal(dc_new.voltages, dc_old.voltages)
        assert dc_new.iterations == dc_old.iterations

        def step(t):
            return VDD * min(max((t - 2e-12) / 4e-12, 0.0), 1.0)

        results = []
        for c, dc0 in ((new, dc_new), (old, dc_old)):
            c.fixed[c.node("in")] = step
            results.append(simulate_transient(
                c, 30e-12, 0.25e-12, dc0.voltages,
                monitor_supplies=("vdd",)))
        got, want = results
        assert np.array_equal(got.time_s, want.time_s)
        assert np.array_equal(got.voltages, want.voltages)
        vdd = new.node("vdd")
        assert np.array_equal(got.supply_currents[vdd],
                              want.supply_currents[vdd])


FO4_FIELDS = ("delay_s", "t_plh_s", "t_phl_s", "static_power_w",
              "dynamic_power_w", "snm_v")


class TestFO4:
    @pytest.fixture(scope="class")
    def cases(self, tech):
        """``((n, p) DUT tables, load tables)``: the nominal FO4, and an
        N=18 n- / N=9 p-device DUT (all four ribbons affected) driving the
        nominal load."""
        offset = tech.gate_offset_for_vt(0.13)
        n_ribbons = tech.params.n_ribbons
        dut = (variant_array_table(DeviceVariant(n_index=18), +1, n_ribbons,
                                   offset, n_ribbons, tech.geometry),
               variant_array_table(DeviceVariant(n_index=9), -1, n_ribbons,
                                   offset, n_ribbons, tech.geometry))
        nominal = tech.inverter_tables(0.13)
        return [(nominal, None), (dut, nominal)]

    def test_dc(self, tech, cases):
        for (nt, pt), load in cases:
            new = build_inverter_chain(nt, pt, VDD, tech.params, load)
            old = ref.build_inverter_chain(nt, pt, VDD, tech.params, load)
            for vin in (0.0, VDD / 2.0, VDD):
                new.fixed[new.node("in")] = vin
                old.fixed[old.node("in")] = vin
                _assert_dc_close(new, old)

    def test_transient_and_metrics(self, tech, cases, monkeypatch):
        for (nt, pt), load in cases:
            (got, [new]), (want, [old]) = (
                _characterize(monkeypatch, inverter, "build_inverter_chain",
                              build, characterize_inverter, nt, pt, VDD,
                              tech.params, load)
                for build in (build_inverter_chain,
                              ref.build_inverter_chain))
            assert new.circuit.n_nodes == 8 and old.circuit.n_nodes == 11
            _assert_waves_close(new, old)
            _assert_metrics_close(got, want, FO4_FIELDS)


class TestRing:
    @pytest.mark.parametrize("gmin, tol_v", [(0.0, WAVE_TOL_V),
                                              (GMIN, 2 * WAVE_TOL_V)])
    def test_300_steps(self, nominal_pair, params, gmin, tol_v):
        """300 steps from the alternating start, at the time step of
        ``simulate_ring_oscillator``.

        Without ``gmin`` the collapse is exact up to rounding (measured
        8e-11 V).  With the solver's ``gmin`` the explicit ring also has
        30 more shunts to ground, one on each replica output it no longer
        keeps; their leakage shifts the oscillation by up to 1.1e-8 V over
        the window (measured), so that run gets twice the bound."""
        nt, pt = nominal_pair
        n_stages = 15
        new = build_ring_oscillator(nt, pt, VDD, n_stages, params)
        old = ref.build_ring_oscillator(nt, pt, VDD, n_stages, params)
        v0_old = ref.ring_initial_state(old, VDD, n_stages, params)
        v0_new = _alternating_start(new, VDD, n_stages, params)
        for name in _shared(new, old):
            assert v0_new[new.node(name)] == v0_old[old.node(name)]
        for i in range(n_stages):
            assert (v0_new[new.node(f"inv{i}.load.out")]
                    == v0_old[old.node(f"inv{i}.load0")])
        est = estimate_inverter_delay(nt, pt, VDD, params)
        dt = max(2.0 * n_stages * est * 2.5 / 480.0, 0.05e-12)
        results = [simulate_transient(c, 300 * dt, dt, v0, gmin=gmin)
                   for c, v0 in ((new, v0_new), (old, v0_old))]
        assert len(results[0].time_s) == 301
        assert {f"s{i}" for i in range(n_stages)} <= set(_shared(new, old))
        _assert_waves_close(*results, tol_v)


class TestGates:
    @pytest.mark.parametrize("kind, build_new, build_old", [
        ("nand2", build_nand2, ref.build_nand2),
        ("nor2", build_nor2, ref.build_nor2),
    ])
    def test_dc_transient_and_metrics(self, nominal_pair, params,
                                      monkeypatch, kind, build_new,
                                      build_old):
        nt, pt = nominal_pair
        new = build_new(nt, pt, VDD, params)
        old = build_old(nt, pt, VDD, params)
        assert new.n_nodes == old.n_nodes - (params.fanout - 1)
        for va in (0.0, VDD):
            for vb in (0.0, VDD):
                for c in (new, old):
                    c.fixed[c.node("a")] = va
                    c.fixed[c.node("b")] = vb
                _assert_dc_close(new, old)

        (got, new_runs), (want, old_runs) = (
            _characterize(monkeypatch, gates, f"build_{kind}", build,
                          characterize_gate, kind, nt, pt, VDD, params)
            for build in (build_new, build_old))
        assert len(new_runs) == len(old_runs) == 2
        for a, b in zip(new_runs, old_runs):
            _assert_waves_close(a, b)
        for pin, delay in want.delays_s.items():
            assert got.delays_s[pin] == pytest.approx(delay,
                                                      rel=METRIC_RTOL)
        _assert_metrics_close(got, want, ("worst_delay_s",))
        # The supply also feeds the GMIN shunt on every replica output
        # (at most GMIN * VDD each), and the explicit load has
        # fanout - 1 more of them: NOR2 measures 1.05e-6 relative.
        shunts_w = (params.fanout - 1) * GMIN * VDD * VDD
        assert got.static_power_w == pytest.approx(
            want.static_power_w, rel=METRIC_RTOL, abs=shunts_w)
