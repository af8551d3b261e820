"""Tests for the reference NEGF + Poisson device simulator.

These use coarse grids (the engine is the reference path, not the
production path); the physics checks mirror the paper's Section 2 and
Fig. 5(a).
"""

import dataclasses

import numpy as np
import pytest

from repro.config import RunConfig
from repro.device import negf_device
from repro.device.geometry import ChargeImpurity, GNRFETGeometry
from repro.device.negf_device import (
    NEGFDevice,
    _scalar_chain_rgf,
    solve_negf_point,
)
from repro.device.sbfet import SBFETModel
from repro.negf.greens import recursive_greens_function
from repro.negf.self_energy import lead_self_energy_1d


class TestScalarChainRGF:
    def test_matches_generic_matrix_kernel(self):
        """The vectorized scalar RGF must agree with the generic
        block-matrix kernel on a random chain."""
        rng = np.random.default_rng(0)
        n = 14
        onsite = rng.normal(scale=0.3, size=n)
        t_hop = 1.1
        energies = np.linspace(-1.5, 1.5, 7)
        sig_l = np.array([lead_self_energy_1d(e, 0.0, t_hop) for e in energies])
        sig_r = np.array([lead_self_energy_1d(e, -0.1, t_hop) for e in energies])
        out = _scalar_chain_rgf(energies, onsite, t_hop, sig_l, sig_r)

        diag = [np.array([[v]]) for v in onsite]
        coup = [np.array([[-t_hop]])] * (n - 1)
        for k, e in enumerate(energies):
            res = recursive_greens_function(
                e, diag, coup, np.array([[sig_l[k]]]),
                np.array([[sig_r[k]]]), eta_ev=1e-8)
            assert out.transmission[k] == pytest.approx(
                res.transmission, abs=1e-8)
            a_s_ref = np.array([
                float(np.abs(res.first_column[i][0, 0]) ** 2
                      * (-2 * sig_l[k].imag)) for i in range(n)])
            assert np.allclose(out.spectral_source[k], a_s_ref, atol=1e-8)

    def test_perfect_chain_unit_transmission(self):
        energies = np.array([-0.5, 0.0, 0.5])
        onsite = np.zeros(20)
        sig = np.array([lead_self_energy_1d(e, 0.0, 1.0, 1e-10)
                        for e in energies])
        out = _scalar_chain_rgf(energies, onsite, 1.0, sig, sig, 1e-10)
        assert np.allclose(out.transmission, 1.0, atol=1e-5)


@pytest.fixture(scope="module")
def coarse_device():
    return NEGFDevice(GNRFETGeometry(n_index=12), n_x=31, n_y=9,
                      coarse_step_ev=8e-3, fine_step_ev=2e-3)


class TestNEGFDevice:
    def test_converges(self, coarse_device):
        result = coarse_device.solve(0.4, 0.4)
        assert result.scf.converged

    def test_contact_band_pinning(self, coarse_device):
        """E_C at the source interface equals the Schottky barrier E_g/2
        regardless of gate bias (metal pinning)."""
        result = coarse_device.solve(0.5, 0.3)
        barrier = coarse_device.geometry.schottky_barrier_ev
        assert result.conduction_band_ev[0] == pytest.approx(barrier,
                                                             abs=0.03)
        assert result.conduction_band_ev[-1] == pytest.approx(
            barrier - 0.3, abs=0.03)

    def test_gate_modulates_current(self, coarse_device):
        i_off = coarse_device.solve(0.25, 0.5).current_a
        i_on = coarse_device.solve(0.75, 0.5).current_a
        assert i_on > 5.0 * i_off

    def test_ambipolar_hole_branch(self, coarse_device):
        """Current rises again below the ambipolar minimum."""
        i_min = coarse_device.solve(0.25, 0.5).current_a
        i_low = coarse_device.solve(-0.1, 0.5).current_a
        assert i_low > 1.5 * i_min

    def test_charge_neutrality_off_state(self, coarse_device):
        result = coarse_device.solve(0.0, 0.0)
        n = result.electron_density_per_nm
        p = result.hole_density_per_nm
        assert np.all(n >= 0.0) and np.all(p >= 0.0)
        # At the symmetric bias point electrons and holes nearly balance.
        assert abs(n.sum() - p.sum()) < 0.3 * max(n.sum(), p.sum(), 1e-6)


class TestGridValidation:
    @pytest.mark.parametrize("n_x, n_y", [(1, 9), (2, 9), (31, 1), (31, 2),
                                          (2, 2)])
    def test_rejects_grids_without_interior(self, n_x, n_y):
        # n_x = 1 raised a raw IndexError and n_x = 2 had no interior
        # site; with n_y < 3 the channel row is a Dirichlet gate rail.
        with pytest.raises(ValueError, match="n_x >= 3 and n_y >= 3"):
            NEGFDevice(GNRFETGeometry(n_index=12), n_x=n_x, n_y=n_y)

    def test_smallest_grid_sees_mobile_charge(self):
        """At n_y = 3 the channel row is interior, so Poisson responds
        to the carriers (at n_y = 2 it returned the Laplace profile for
        any charge and solve() reported it converged)."""
        device = NEGFDevice(GNRFETGeometry(n_index=12), n_x=31, n_y=3)
        empty = device._solve_poisson_midgap(np.zeros(31), 0.4, 0.4)
        charged = device._solve_poisson_midgap(np.full(31, 5.0), 0.4, 0.4)
        assert not np.array_equal(empty, charged)


class TestImpurityBandProfile:
    def test_negative_impurity_raises_barrier(self):
        """Paper Fig. 5(a): a negative charge increases the barrier
        height and thickness; positive decreases it."""
        base = NEGFDevice(GNRFETGeometry(n_index=12), n_x=31, n_y=9)
        neg = NEGFDevice(GNRFETGeometry(
            n_index=12, impurity=ChargeImpurity(charge_e=-2.0)),
            n_x=31, n_y=9)
        pos = NEGFDevice(GNRFETGeometry(
            n_index=12, impurity=ChargeImpurity(charge_e=+2.0)),
            n_x=31, n_y=9)
        ec_base = base.solve(0.5, 0.5).conduction_band_ev.max()
        ec_neg = neg.solve(0.5, 0.5).conduction_band_ev.max()
        ec_pos = pos.solve(0.5, 0.5).conduction_band_ev.max()
        assert ec_neg > ec_base + 0.2
        assert ec_pos <= ec_base + 0.02

    def test_negative_impurity_cuts_current(self):
        base = NEGFDevice(GNRFETGeometry(n_index=12), n_x=31, n_y=9)
        neg = NEGFDevice(GNRFETGeometry(
            n_index=12, impurity=ChargeImpurity(charge_e=-2.0)),
            n_x=31, n_y=9)
        i_base = base.solve(0.6, 0.5).current_a
        i_neg = neg.solve(0.6, 0.5).current_a
        assert i_neg < 0.5 * i_base


class TestEngineCrossValidation:
    def test_fast_engine_tracks_negf_shape(self):
        """The production fast engine and the reference NEGF engine must
        agree on the I-V *shape*: same ambipolar ordering and magnitudes
        within an order of magnitude at matching bias points."""
        negf = NEGFDevice(GNRFETGeometry(n_index=12), n_x=31, n_y=9)
        fast = SBFETModel(GNRFETGeometry(n_index=12))
        for vg in (0.0, 0.25, 0.75):
            i_negf = negf.solve(vg, 0.5).current_a
            i_fast = fast.current_at(vg, 0.5)
            assert 0.1 < i_fast / i_negf < 10.0


class TestSolveNEGFPoint:
    """The cached entry point: a disk hit is a solve, field for field."""

    GEOMETRY = GNRFETGeometry(n_index=12,
                              impurity=ChargeImpurity(charge_e=-1.0))
    GRID = dict(n_x=21, n_y=7)

    @staticmethod
    def _assert_same(a, b):
        """Every field equal, arrays by value, dtype and shape."""
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert type(x) is type(y), f.name
            if isinstance(x, np.ndarray):
                assert x.dtype == y.dtype and np.array_equal(x, y), f.name
            elif dataclasses.is_dataclass(x):
                TestSolveNEGFPoint._assert_same(x, y)
            else:
                assert x == y, f.name

    def test_round_trip_equals_a_solve(self, tmp_path, monkeypatch):
        config = RunConfig(cache_dir=tmp_path)
        solved = NEGFDevice(self.GEOMETRY, **self.GRID).solve(0.1, 0.5)
        assert solved.scf.converged
        cold = solve_negf_point(self.GEOMETRY, 0.1, 0.5, config=config,
                                **self.GRID)
        assert len(list((tmp_path / "negf").glob("*.npz"))) == 1

        def refuse(*args, **kwargs):
            raise AssertionError("a cached point built a device")

        monkeypatch.setattr(negf_device, "NEGFDevice", refuse)
        warm = solve_negf_point(self.GEOMETRY, 0.1, 0.5, config=config,
                                **self.GRID)
        for result in (cold, warm):
            self._assert_same(result, solved)

    def test_unconverged_point_is_not_written(self, tmp_path):
        result = solve_negf_point(self.GEOMETRY, 0.1, 0.5, max_iterations=1,
                                  config=RunConfig(cache_dir=tmp_path),
                                  **self.GRID)
        assert not result.scf.converged
        assert not (tmp_path / "negf").exists()

    def test_use_cache_false_reads_and_writes_nothing(self, tmp_path):
        config = RunConfig(cache_dir=tmp_path)
        solve_negf_point(self.GEOMETRY, 0.1, 0.5, config=config, **self.GRID)
        (path,) = (tmp_path / "negf").glob("*.npz")
        path.write_bytes(b"")  # a read would have to rebuild it
        solve_negf_point(self.GEOMETRY, 0.1, 0.5,
                         config=RunConfig(cache_dir=tmp_path,
                                          use_cache=False), **self.GRID)
        assert path.read_bytes() == b""
