"""Tests for inverter building and characterization."""

from dataclasses import replace

import numpy as np
import pytest

from repro.circuit.inverter import (
    CircuitParameters,
    build_inverter_chain,
    characterize_inverter,
    estimate_inverter_delay,
    estimate_inverter_energy,
    inverter_static_power_w,
    inverter_vtc,
    switched_gate_charge_c,
)
from repro.errors import AnalysisError
from repro.variability import width
from repro.variability.variants import DeviceVariant


class TestCircuitParameters:
    def test_paper_defaults(self):
        p = CircuitParameters()
        assert p.contact_resistance_ohm == 10e3
        assert p.contact_width_nm == 40.0
        assert p.n_ribbons == 4
        assert p.fanout == 4

    def test_parasitic_capacitance(self):
        """0.05 aF/nm x 40 nm = 2 aF."""
        p = CircuitParameters()
        assert p.c_parasitic_f == pytest.approx(2e-18)

    @pytest.mark.parametrize("field, value", [
        ("fanout", -1), ("fanout", 0), ("fanout", 2.5), ("fanout", True),
        ("fanout", 4.0), ("n_ribbons", 0), ("n_ribbons", False),
        ("n_ribbons", 2.0), ("contact_resistance_ohm", -5.0),
        ("contact_resistance_ohm", 0.0),
        ("contact_resistance_ohm", float("nan")),
        ("contact_width_nm", 0.0), ("contact_width_nm", float("nan")),
        ("c_parasitic_af_per_nm", -0.01),
        ("c_parasitic_af_per_nm", float("nan")), ("c_wire_f", -1e-18),
        ("c_wire_f", float("nan")),
    ])
    def test_rejects_invalid(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(CircuitParameters(), **{field: value})

    def test_accepts_boundaries(self):
        p = replace(CircuitParameters(), fanout=1, n_ribbons=1,
                    c_parasitic_af_per_nm=0.0, c_wire_f=0.0)
        assert p.c_parasitic_f == 0.0


class TestBuild:
    def test_node_count(self, nominal_pair, params):
        nt, pt = nominal_pair
        c = build_inverter_chain(nt, pt, 0.4, params)
        # in + out + vdd + 4 DUT internals + 1 load output: the fanout
        # replicas are one params.fanout-fold inverter, so the node count
        # no longer grows with the fanout.
        assert c.n_nodes == 3 + 4 + 1
        c.validate()

    def test_load_tables_override(self, nominal_pair, params, tech):
        nt, pt = nominal_pair
        other = tech.inverter_tables(0.2)
        c = build_inverter_chain(nt, pt, 0.4, params, load_tables=other)
        c.validate()


class TestVTC:
    def test_full_swing(self, nominal_pair, params):
        nt, pt = nominal_pair
        vin, vout = inverter_vtc(nt, pt, 0.4, params, n_points=21)
        assert vout[0] > 0.35
        assert vout[-1] < 0.05

    def test_transition_monotone(self, nominal_pair, params):
        """Strictly decreasing through the transition region.  (Near the
        rails the ambipolar leakage lets the output drift up by ~1 mV as
        the off-device moves toward its minimum-leakage point - a real
        GNRFET feature, so only large reversals are forbidden there.)"""
        nt, pt = nominal_pair
        vin, vout = inverter_vtc(nt, pt, 0.4, params, n_points=31)
        mid = (vin > 0.08) & (vin < 0.32)
        assert np.all(np.diff(vout[mid]) < 0.0)
        assert np.all(np.diff(vout) < 3e-3)


class TestStaticPower:
    def test_positive_and_small(self, nominal_pair, params):
        nt, pt = nominal_pair
        p = inverter_static_power_w(nt, pt, 0.4, params)
        assert 1e-9 < p < 1e-6

    def test_grows_with_vdd(self, nominal_pair, params):
        nt, pt = nominal_pair
        assert (inverter_static_power_w(nt, pt, 0.5, params)
                > inverter_static_power_w(nt, pt, 0.3, params))


class TestEstimators:
    def test_gate_charge_positive(self, nominal_pair, params):
        nt, pt = nominal_pair
        q = switched_gate_charge_c(nt, pt, 0.4, params)
        assert q > 0.0
        # Scale: tens of aF * 0.4 V => ~1e-17..1e-16 C.
        assert 1e-19 < q < 1e-15

    def test_delay_estimate_positive(self, nominal_pair, params):
        nt, pt = nominal_pair
        d = estimate_inverter_delay(nt, pt, 0.4, params)
        assert 0.1e-12 < d < 100e-12

    def test_delay_falls_with_vdd(self, nominal_pair, params):
        nt, pt = nominal_pair
        assert (estimate_inverter_delay(nt, pt, 0.5, params)
                < estimate_inverter_delay(nt, pt, 0.3, params))

    def test_energy_grows_with_vdd(self, nominal_pair, params):
        nt, pt = nominal_pair
        assert (estimate_inverter_energy(nt, pt, 0.5, params)
                > estimate_inverter_energy(nt, pt, 0.3, params))


class TestFullCharacterization:
    @pytest.fixture(scope="class")
    def metrics(self, nominal_pair, params):
        nt, pt = nominal_pair
        return characterize_inverter(nt, pt, 0.4, params)

    def test_paper_nominal_delay_scale(self, metrics):
        """Paper nominal FO4 delay is 7.54 ps; require the same scale."""
        assert 3e-12 < metrics.delay_s < 15e-12

    def test_paper_nominal_power_scales(self, metrics):
        """Paper: P_stat 0.095 uW, P_dyn 0.706 uW."""
        assert 0.02e-6 < metrics.static_power_w < 0.4e-6
        assert 0.15e-6 < metrics.dynamic_power_w < 2.5e-6

    def test_rise_fall_symmetric(self, metrics):
        """Symmetric ambipolar n/p devices give closely matched edges."""
        assert metrics.t_plh_s == pytest.approx(metrics.t_phl_s, rel=0.5)

    def test_estimate_within_factor_of_transient(self, metrics,
                                                 nominal_pair, params):
        nt, pt = nominal_pair
        est = estimate_inverter_delay(nt, pt, 0.4, params)
        assert 0.2 < est / metrics.delay_s < 1.2


def _zero_table(table):
    return replace(table, current_a=np.zeros_like(table.current_a))


class TestZeroDrive:
    def test_fo4_raises_analysis_error(self, nominal_pair, params):
        """The quasi-static estimate is inf, so is the input cycle; the
        FO4 is refused before any circuit is built."""
        nt, pt = nominal_pair
        with pytest.raises(AnalysisError, match="drive current is zero"):
            characterize_inverter(_zero_table(nt), pt, 0.4, params)

    def test_degenerate_variant_is_a_nan_cell(self, tech, monkeypatch):
        """``degenerate_ok=True`` turns a dead variant into NaN delay and
        dynamic power; static power and SNM are still measured."""
        build = width.variant_array_table

        def dead_n(variant, polarity, *args):
            table = build(variant, polarity, *args)
            return _zero_table(table) if polarity == +1 else table

        monkeypatch.setattr(width, "variant_array_table", dead_n)
        nominal = DeviceVariant()
        m = width.characterize_variant_inverter(
            tech, nominal, nominal, tech.params.n_ribbons, 0.4, 0.13,
            degenerate_ok=True)
        assert np.isnan(m.delay_s) and np.isnan(m.dynamic_power_w)
        assert m.static_power_w == pytest.approx(6.4e-13, rel=0.05)
        assert m.snm_v == 0.0
