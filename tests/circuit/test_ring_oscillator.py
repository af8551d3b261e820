"""Tests for the ring oscillator (estimate path + one transient)."""

import numpy as np
import pytest

from repro.circuit.ring_oscillator import (
    build_ring_oscillator,
    estimate_ring_oscillator,
    simulate_ring_oscillator,
)


class TestBuild:
    def test_structure(self, nominal_pair, params):
        nt, pt = nominal_pair
        c = build_ring_oscillator(nt, pt, 0.4, n_stages=5, params=params)
        # vdd + 5 stage nodes + 5 stages * (4 internals + 1 replica
        # output) = 1 + 5 + 25: each stage's fanout - 1 replicas are one
        # (fanout - 1)-fold inverter with a single output node.
        assert c.n_nodes == 1 + 5 + 5 * (4 + 1)
        c.validate()

    def test_rejects_even_ring(self, nominal_pair, params):
        nt, pt = nominal_pair
        with pytest.raises(ValueError):
            build_ring_oscillator(nt, pt, 0.4, n_stages=4, params=params)

    def test_per_stage_tables(self, nominal_pair, params):
        nt, pt = nominal_pair
        tables = [(nt, pt)] * 5
        c = build_ring_oscillator(nt, pt, 0.4, n_stages=5, params=params,
                                  per_stage_tables=tables)
        c.validate()


class TestEstimate:
    def test_frequency_scale(self, nominal_pair, params):
        """Paper point B: ~3.3 GHz for the nominal 15-stage FO4 ring."""
        nt, pt = nominal_pair
        m = estimate_ring_oscillator(nt, pt, 0.4, 15, params)
        assert 1.5e9 < m.frequency_hz < 7e9

    def test_power_components_consistent(self, nominal_pair, params):
        nt, pt = nominal_pair
        m = estimate_ring_oscillator(nt, pt, 0.4, 15, params)
        assert m.total_power_w == pytest.approx(
            m.static_power_w + m.dynamic_power_w)

    def test_edp_definition(self, nominal_pair, params):
        nt, pt = nominal_pair
        m = estimate_ring_oscillator(nt, pt, 0.4, 15, params)
        assert m.edp_j_s == pytest.approx(
            m.total_power_w / m.frequency_hz * m.stage_delay_s)

    def test_fewer_stages_faster(self, nominal_pair, params):
        nt, pt = nominal_pair
        f15 = estimate_ring_oscillator(nt, pt, 0.4, 15, params).frequency_hz
        f7 = estimate_ring_oscillator(nt, pt, 0.4, 7, params).frequency_hz
        assert f7 == pytest.approx(f15 * 15 / 7, rel=1e-6)

    def test_frequency_rises_with_vdd(self, nominal_pair, params):
        nt, pt = nominal_pair
        f_lo = estimate_ring_oscillator(nt, pt, 0.3, 15, params).frequency_hz
        f_hi = estimate_ring_oscillator(nt, pt, 0.5, 15, params).frequency_hz
        assert f_hi > f_lo


@pytest.mark.slow
class TestTransient:
    def test_small_ring_oscillates_and_matches_estimate(
            self, nominal_pair, params):
        """A 5-stage transient ring must oscillate with a frequency
        within ~40% of the calibrated quasi-static estimate."""
        nt, pt = nominal_pair
        sim = simulate_ring_oscillator(nt, pt, 0.4, 5, params,
                                       n_periods=4.0)
        est = estimate_ring_oscillator(nt, pt, 0.4, 5, params)
        assert sim.frequency_hz > 0.0
        assert est.frequency_hz == pytest.approx(sim.frequency_hz,
                                                 rel=0.4)
        assert sim.total_power_w > sim.static_power_w
