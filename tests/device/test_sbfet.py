"""Tests for the fast SBFET engine: shapes, symmetries, convergence."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import RunConfig
from repro.constants import LANDAUER_PREFACTOR_A_PER_EV, fermi_dirac
from repro.device.geometry import ChargeImpurity, GNRFETGeometry
from repro.device.iv import sweep_iv
from repro.device.sbfet import SBFETModel, _density_lut
from repro.negf.energy_grid import uniform_energy_grid


@pytest.fixture(scope="module")
def model():
    return SBFETModel(GNRFETGeometry(n_index=12))


@lru_cache(maxsize=None)
def _ribbon(n_index: int, temperature_k: float) -> SBFETModel:
    return SBFETModel(GNRFETGeometry(n_index=n_index,
                                     temperature_k=temperature_k))


class TestElectrostatics:
    def test_zero_bias_midgap_at_zero(self, model):
        u, _ = model.solve_midgap_ev(0.0, 0.0)
        assert u == pytest.approx(0.0, abs=5e-3)

    def test_gate_pulls_midgap_down(self, model):
        u0, _ = model.solve_midgap_ev(0.0, 0.0)
        u1, _ = model.solve_midgap_ev(0.5, 0.0)
        assert u1 < u0

    def test_quantum_capacitance_limits_swing(self, model):
        """Once the band edge crosses the Fermi level, charging feedback
        makes |dU/dVG| < gate_coupling."""
        u1, _ = model.solve_midgap_ev(0.55, 0.0)
        u2, _ = model.solve_midgap_ev(0.65, 0.0)
        slope = abs(u2 - u1) / 0.1
        assert slope < model.geometry.gate_coupling

    def test_subthreshold_slope_near_laplace(self, model):
        """Deep in the gap there is no charge: U follows the Laplace
        coupling."""
        u1, _ = model.solve_midgap_ev(0.00, 0.0)
        u2, _ = model.solve_midgap_ev(0.05, 0.0)
        slope = abs(u2 - u1) / 0.05
        assert slope == pytest.approx(model.geometry.gate_coupling,
                                      rel=0.05)

    def test_band_profile_boundary_pinning(self, model):
        """Midgap pinned at 0 at the source and -V_D at the drain."""
        profile = model.band_profile_midgap_ev(-0.3, 0.5)
        assert profile[0] == pytest.approx(0.0, abs=0.01)
        assert profile[-1] == pytest.approx(-0.5, abs=0.01)
        assert profile[len(profile) // 2] == pytest.approx(-0.3, abs=0.01)


class TestTransmission:
    def test_bounded_by_mode_count(self, model):
        profile = model.band_profile_midgap_ev(-0.2, 0.4)
        e = np.linspace(-1.5, 1.5, 101)
        t = model.transmission(e, profile)
        assert np.all(t >= 0.0)
        assert np.all(t <= len(model.modes) + 1e-9)

    def test_gap_blocks_transport(self, model):
        """Energies in the channel gap see ~zero transmission through a
        15 nm channel."""
        profile = model.band_profile_midgap_ev(0.0, 0.0)
        t = model.transmission(np.array([0.0]), profile)[0]
        assert t < 1e-6

    def test_above_barrier_transparent(self, model):
        profile = model.band_profile_midgap_ev(-0.5, 0.0)
        edge = model.modes[0].edge_ev
        t = model.transmission(np.array([edge + 0.1]), profile)[0]
        assert t > 0.5


class TestIVShape:
    def test_ambipolar_minimum_near_vd_over_2(self, model):
        """Minimum leakage at V_G ~ V_D / 2 (paper Fig. 2a)."""
        vgs = np.linspace(0.0, 0.6, 25)
        currents = np.array([model.current_at(v, 0.5) for v in vgs])
        v_min = vgs[np.argmin(currents)]
        assert v_min == pytest.approx(0.25, abs=0.08)

    def test_leakage_grows_exponentially_with_vd(self, model):
        """"the drain voltage exponentially increases the minimum
        leakage current"."""
        def min_leak(vd):
            vgs = np.linspace(0.0, 0.75, 16)
            return min(model.current_at(v, vd) for v in vgs)

        i25, i50, i75 = min_leak(0.25), min_leak(0.5), min_leak(0.75)
        assert i50 / i25 > 5.0
        assert i75 / i50 > 5.0

    def test_electron_and_hole_branches(self, model):
        """Current rises on both sides of the ambipolar minimum."""
        i_min = model.current_at(0.25, 0.5)
        assert model.current_at(0.0, 0.5) > 2.0 * i_min
        assert model.current_at(0.6, 0.5) > 2.0 * i_min

    def test_zero_vd_zero_current(self, model):
        assert model.current_at(0.4, 0.0) == 0.0

    def test_current_positive_forward_bias(self, model):
        for vg in (0.0, 0.3, 0.7):
            assert model.current_at(vg, 0.5) > 0.0

    @given(st.sampled_from([9, 12, 15]), st.sampled_from([300.0, 400.0]),
           st.floats(min_value=-0.4, max_value=1.1),
           st.floats(min_value=0.01, max_value=0.75))
    @settings(max_examples=40, deadline=None)
    def test_ambipolar_mirror(self, n_index, temperature_k, vg, vd):
        """I(V_G, V_D) = I(V_D - V_G, V_D) on impurity-free ribbons.

        ``gate_coupling + 2 drain_coupling = 1`` mirrors the channel
        level about ``-V_D / 2``; the current holds it to round-off only
        if the energy grid of the mirrored point is the mirrored grid.
        This is the raw integral at each point's own midgap: the symmetry
        that lets ``mirror_symmetric`` models integrate one of the two.
        """
        m = _ribbon(n_index, temperature_k)
        assert m.mirror_symmetric
        u_ch, _ = m.solve_midgap_ev(vg, vd)
        u_twin, _ = m.solve_midgap_ev(vd - vg, vd)
        assert m.current_a(u_ch, vd) == pytest.approx(
            m.current_a(u_twin, vd), rel=1e-10)

    @given(st.floats(min_value=0.0, max_value=0.75))
    @settings(max_examples=10, deadline=None)
    def test_current_increases_with_vd_n_branch(self, vg):
        m = SBFETModel(GNRFETGeometry(n_index=12))
        assert m.current_at(vg, 0.6) >= m.current_at(vg, 0.3) * 0.99


class TestCurrentQuadrature:
    """The Landauer grid integrates the transmission to within 1e-3 of a
    0.05 meV uniform grid over the same window."""

    @pytest.mark.parametrize("temperature_k,vg,vd", [
        (300.0, 0.0, 0.05),     # worst cell of the previous grid
        (300.0, 0.75, 0.5),     # on state
        (400.0, 0.3, 0.4)])
    def test_matches_fine_uniform_grid(self, temperature_k, vg, vd):
        m = _ribbon(12, temperature_k)
        u_ch, _ = m.solve_midgap_ev(vg, vd)
        window = 12.0 * m.kt_ev
        energies = uniform_energy_grid(min(-vd, 0.0) - window,
                                       max(-vd, 0.0) + window, 5e-5)
        t = m.transmission(energies, m.band_profile_midgap_ev(u_ch, vd))
        occupation = (fermi_dirac(energies, 0.0, m.kt_ev)
                      - fermi_dirac(energies, -vd, m.kt_ev))
        reference = LANDAUER_PREFACTOR_A_PER_EV * np.trapezoid(
            t * occupation, energies)
        grid = m._current_energy_grid(u_ch, vd)
        assert grid.size < energies.size // 20
        assert m.current_a(u_ch, vd) == pytest.approx(reference, rel=1e-3)


class TestCharge:
    def test_charge_sign_follows_gate(self, model):
        u_on, _ = model.solve_midgap_ev(0.75, 0.05)
        u_off, _ = model.solve_midgap_ev(-0.5, 0.05)
        assert model.channel_charge_c(u_on, 0.05) > 0.0   # electrons
        assert model.channel_charge_c(u_off, 0.05) < 0.0  # holes

    def test_solution_dataclass_complete(self, model):
        sol = model.solve_bias(0.4, 0.3)
        assert sol.bias.vg == 0.4
        assert sol.iterations > 0
        assert np.isfinite(sol.current_a)
        assert np.isfinite(sol.charge_c)
        assert sol.electron_linear_density_per_nm >= 0.0
        assert sol.hole_linear_density_per_nm >= 0.0


class TestModeSelection:
    def test_auto_mode_count_grows_with_width(self):
        m9 = SBFETModel(GNRFETGeometry(n_index=9))
        m18 = SBFETModel(GNRFETGeometry(n_index=18))
        assert len(m18.modes) > len(m9.modes)

    def test_explicit_mode_count(self):
        m = SBFETModel(GNRFETGeometry(n_index=12), n_modes=4)
        assert len(m.modes) == 4


class TestImpurityProfile:
    def test_negative_charge_raises_profile(self):
        m = SBFETModel(GNRFETGeometry(
            n_index=12, impurity=ChargeImpurity(charge_e=-1.0)))
        assert m._impurity_profile_ev.max() > 0.1
        assert m._impurity_profile_ev.min() >= -1e-12

    def test_profile_peaks_at_impurity_position(self):
        m = SBFETModel(GNRFETGeometry(
            n_index=12, impurity=ChargeImpurity(charge_e=-1.0,
                                                position_nm=3.0)))
        x_peak = m._x_nm[np.argmax(m._impurity_profile_ev)]
        assert x_peak == pytest.approx(3.0, abs=0.2)

    def test_no_impurity_zero_profile(self, model):
        assert np.all(model._impurity_profile_ev == 0.0)

    def test_charge_scaling(self):
        m1 = SBFETModel(GNRFETGeometry(
            n_index=12, impurity=ChargeImpurity(charge_e=-1.0)))
        m2 = SBFETModel(GNRFETGeometry(
            n_index=12, impurity=ChargeImpurity(charge_e=-2.0)))
        assert m2._impurity_profile_ev.max() == pytest.approx(
            2.0 * m1._impurity_profile_ev.max(), rel=1e-9)


class TestDensityLUT:
    """The equilibrium density table is built once per process for each
    (retained modes, k-grid size, kT) and shared read-only."""

    def test_shared_across_impurities_not_temperatures(self):
        base = GNRFETGeometry(n_index=12)
        nominal = SBFETModel(base)
        impure = SBFETModel(base.with_impurity(ChargeImpurity(charge_e=-1.0)))
        hot = SBFETModel(GNRFETGeometry(n_index=12, temperature_k=350.0))
        for name in ("_lut_u", "_lut_n0", "_lut_p0", "_lut_q0"):
            assert getattr(impure, name) is getattr(nominal, name)
            assert not getattr(nominal, name).flags.writeable
        assert hot._lut_n0 is not nominal._lut_n0
        assert not np.array_equal(hot._lut_n0, nominal._lut_n0)

    def test_sweep_on_a_shared_table_is_bitwise(self):
        """An impurity sweep reads the same bits whether its model built
        the table or the nominal model did."""
        base = GNRFETGeometry(n_index=12)
        impure = base.with_impurity(ChargeImpurity(charge_e=-1.0))
        vg, vd = np.linspace(0.0, 0.6, 4), np.array([0.0, 0.3])
        _density_lut.cache_clear()
        own = sweep_iv(impure, vg, vd, config=RunConfig(workers=1))
        _density_lut.cache_clear()
        SBFETModel(base)
        shared = sweep_iv(impure, vg, vd, config=RunConfig(workers=1))
        assert own.current_a.tobytes() == shared.current_a.tobytes()
        assert own.charge_c.tobytes() == shared.charge_c.tobytes()
        assert own.midgap_ev.tobytes() == shared.midgap_ev.tobytes()
