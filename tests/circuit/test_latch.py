"""Tests for the latch builder and its metrics."""

import pytest

from repro.circuit.latch import build_latch, latch_static_power
from repro.circuit.inverter import inverter_static_power_w


class TestLatch:
    def test_build_validates(self, nominal_pair, params):
        nt, pt = nominal_pair
        c = build_latch(nt, pt, 0.4, params)
        c.validate()
        assert c.n_nodes == 2 + 1 + 8  # q, qb, vdd, 2x4 internals

    def test_static_power_two_inverters(self, nominal_pair, params):
        """Hold-state leakage ~ 2x the single-inverter leakage (each
        inverter sits at one of the two input states)."""
        nt, pt = nominal_pair
        p_latch = latch_static_power(nt, pt, 0.4, params)
        p_inv = inverter_static_power_w(nt, pt, 0.4, params)
        assert p_latch == pytest.approx(2.0 * p_inv, rel=0.3)

    def test_static_power_positive(self, nominal_pair, params):
        nt, pt = nominal_pair
        assert latch_static_power(nt, pt, 0.4, params) > 0.0
