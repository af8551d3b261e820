"""Tests for butterfly/SNM extraction on synthetic and real VTCs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.snm import butterfly_curves, static_noise_margin


def _step_vtc(vin, vdd, v_switch, steepness=200.0):
    """Smooth inverter-like VTC with controllable sharpness."""
    arg = np.clip(steepness * (vin - v_switch), -500.0, 500.0)
    return vdd / (1.0 + np.exp(arg))


class TestIdealCurves:
    def test_ideal_step_snm_approaches_half_vdd(self):
        vdd = 1.0
        vin = np.linspace(0, vdd, 801)
        vtc = _step_vtc(vin, vdd, vdd / 2, steepness=5000.0)
        snm = static_noise_margin(butterfly_curves(vin, vtc))
        assert snm == pytest.approx(vdd / 2, abs=0.02)

    def test_unity_gain_curve_zero_snm(self):
        """VTC = vdd - vin has coincident butterfly curves: SNM = 0."""
        vin = np.linspace(0, 1, 101)
        snm = static_noise_margin(butterfly_curves(vin, 1.0 - vin))
        assert snm == pytest.approx(0.0, abs=1e-6)

    def test_low_gain_small_snm(self):
        vin = np.linspace(0, 1, 401)
        sharp = static_noise_margin(butterfly_curves(
            vin, _step_vtc(vin, 1.0, 0.5, 50.0)))
        shallow = static_noise_margin(butterfly_curves(
            vin, _step_vtc(vin, 1.0, 0.5, 6.0)))
        assert sharp > shallow

    def test_asymmetric_switch_point_reduces_snm(self):
        vin = np.linspace(0, 1, 401)
        centered = static_noise_margin(butterfly_curves(
            vin, _step_vtc(vin, 1.0, 0.5, 100.0)))
        skewed = static_noise_margin(butterfly_curves(
            vin, _step_vtc(vin, 1.0, 0.15, 100.0)))
        assert skewed < centered

    def test_collapsed_eye_zero(self):
        """A 'VTC' that never crosses the mirrored curve's other lobe
        (output stuck high) collapses one eye."""
        vin = np.linspace(0, 1, 201)
        stuck = np.full_like(vin, 0.9)
        snm = static_noise_margin(butterfly_curves(vin, stuck))
        assert snm == pytest.approx(0.0, abs=0.02)

    def test_two_different_inverters(self):
        """Mismatched forward/backward inverters give the min of the two
        lobes: strictly less than the symmetric case."""
        vin = np.linspace(0, 1, 401)
        f1 = _step_vtc(vin, 1.0, 0.5, 100.0)
        f2 = _step_vtc(vin, 1.0, 0.28, 100.0)
        symmetric = static_noise_margin(butterfly_curves(vin, f1))
        mismatched = static_noise_margin(butterfly_curves(vin, f1, f2))
        assert mismatched < symmetric

    @given(st.floats(min_value=0.2, max_value=0.8),
           st.floats(min_value=10.0, max_value=500.0))
    @settings(max_examples=30)
    def test_snm_bounded(self, switch, steep):
        vin = np.linspace(0, 1, 301)
        snm = static_noise_margin(butterfly_curves(
            vin, _step_vtc(vin, 1.0, switch, steep)))
        assert 0.0 <= snm <= 0.5 + 1e-9


class TestRealInverter:
    def test_nominal_inverter_snm_positive(self, nominal_pair, params):
        from repro.circuit.inverter import inverter_snm

        nt, pt = nominal_pair
        snm = inverter_snm(nt, pt, 0.4, params)
        assert 0.03 < snm < 0.2

    def test_snm_grows_with_vdd(self, nominal_pair, params):
        from repro.circuit.inverter import inverter_snm

        nt, pt = nominal_pair
        assert (inverter_snm(nt, pt, 0.5, params)
                > inverter_snm(nt, pt, 0.3, params))


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            butterfly_curves(np.zeros(5), np.zeros(4))


def _snm_sixty_iterations(butterfly):
    """``static_noise_margin`` as it was before the loop map stopped at
    its fixed point: always 60 iterations from both corners."""
    sq2 = np.sqrt(2.0)
    u1 = (butterfly.v_in - butterfly.forward) / sq2
    w1 = (butterfly.v_in + butterfly.forward) / sq2
    u2 = (butterfly.mirrored_x - butterfly.mirrored_y) / sq2
    w2 = (butterfly.mirrored_x + butterfly.mirrored_y) / sq2
    o1 = np.argsort(u1)
    o2 = np.argsort(u2)
    u_lo = max(u1.min(), u2.min())
    u_hi = min(u1.max(), u2.max())
    if u_hi <= u_lo:
        return 0.0
    u = np.linspace(u_lo, u_hi, 801)
    w1_u = np.interp(u, u1[o1], w1[o1])
    w2_u = np.interp(u, u2[o2], w2[o2])
    gap = w1_u - w2_u
    x_grid = butterfly.v_in

    def loop_map(x: float) -> float:
        y = float(np.interp(x, x_grid, butterfly.forward))
        return float(np.interp(y, butterfly.mirrored_y,
                               butterfly.mirrored_x))

    lo, hi = float(x_grid[0]), float(x_grid[-1])
    for _ in range(60):
        lo = loop_map(lo)
        hi = loop_map(hi)
    if abs(hi - lo) < 0.02 * (x_grid[-1] - x_grid[0]):
        return 0.0
    positive = float(np.max(gap, initial=0.0))
    negative = float(np.max(-gap, initial=0.0))
    if positive <= 0.0 or negative <= 0.0:
        return 0.0
    return min(positive, negative) / sq2


def _same(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


class TestFixedPointStop:
    """The loop map stops once both corners map to themselves; the SNM is
    the one 60 iterations give, bit for bit."""

    @pytest.mark.parametrize("vdd", [0.2, 0.3, 0.4, 0.5])
    @pytest.mark.parametrize("vt", [0.13, 0.25])
    def test_real_butterflies(self, tech, vdd, vt):
        from repro.circuit.inverter import inverter_vtc

        nt, pt = tech.inverter_tables(vt)
        vin, fwd = inverter_vtc(nt, pt, vdd, tech.params, n_points=61)
        _, bwd = inverter_vtc(*tech.inverter_tables(0.05), vdd,
                              tech.params, n_points=61)
        for butterfly in (butterfly_curves(vin, fwd),
                          butterfly_curves(vin, fwd, bwd)):
            assert static_noise_margin(butterfly) == \
                _snm_sixty_iterations(butterfly)

    @pytest.mark.parametrize("switch_b", [0.05, 0.2, 0.5])
    def test_monostable_and_synthetic(self, switch_b):
        vin = np.linspace(0, 1, 301)
        f1 = _step_vtc(vin, 1.0, 0.5, 40.0)
        f2 = _step_vtc(vin, 1.0, switch_b, 40.0)
        butterfly = butterfly_curves(vin, f1, f2)
        assert static_noise_margin(butterfly) == \
            _snm_sixty_iterations(butterfly)
        stuck = butterfly_curves(vin, np.full_like(vin, 0.9))
        assert static_noise_margin(stuck) == _snm_sixty_iterations(stuck)
        assert static_noise_margin(stuck) == 0.0

    def test_one_corner_settles_first(self):
        """A monostable cell whose low corner lands on the lone fixed
        point in one step while the high corner creeps toward it (x0.9
        per iteration): the loop must run until both corners stop."""
        vin = np.linspace(0, 1, 101)
        bwd = np.where(vin < 0.5, 0.5 + 0.9 * (0.5 - vin), 0.5)
        butterfly = butterfly_curves(vin, 1.0 - vin, bwd)
        assert static_noise_margin(butterfly) == \
            _snm_sixty_iterations(butterfly) == 0.0

    def test_nan_curve(self):
        vin = np.linspace(0, 1, 101)
        fwd = _step_vtc(vin, 1.0, 0.5, 100.0)
        fwd[40] = np.nan
        butterfly = butterfly_curves(vin, fwd)
        assert _same(static_noise_margin(butterfly),
                     _snm_sixty_iterations(butterfly))
