"""Bitwise parity of the NEGF experiments with their frozen references.

The mode-space device (Fig. 5) is replayed through
``tests/device/negf_reference.py``: the energy-major chain kernel, the
four-Fermi-vector transport and the three-exponential Fermi–Dirac.  The
edge-roughness ensemble is replayed as the per-sample loop it replaced
(lead self-energies and a full recursive Green's function for every
sample).  Every compared value must be identical, not close.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import sanitize
from repro.atomistic.lattice import ArmchairGNR
from repro.constants import KT_ROOM_EV, fermi_dirac
from repro.device.geometry import ChargeImpurity, GNRFETGeometry
from repro.device.negf_device import NEGFDevice, _scalar_chain_rgf
from repro.device.negf_realspace import RealSpaceGNRDevice, rough_edge_onsite
from repro.errors import SanitizerError
from repro.negf.greens import recursive_greens_function, rgf_transmission
from repro.negf.self_energy import lead_self_energy_1d
from repro.variability.edge_roughness import roughness_width_study
from tests.device import negf_reference as ref


def _bits(values) -> np.ndarray:
    """IEEE-754 bit patterns, so NaN payloads and signed zeros count."""
    return np.asarray(values, dtype=float).view(np.uint64)


class TestNEGFDeviceSolve:
    @pytest.mark.parametrize("n_x", [31, 51])
    @pytest.mark.parametrize("charge_e", [-2.0, -1.0, 0.0, 1.0, 2.0])
    def test_fig5_solve_matches_oracle(self, n_x, charge_e):
        """The five Fig. 5(a) solves, at the fast and full grid."""
        impurity = ChargeImpurity(charge_e=charge_e) if charge_e else None
        geometry = GNRFETGeometry(n_index=12, impurity=impurity)
        new = NEGFDevice(geometry, n_x=n_x, n_y=11).solve(0.1, 0.5)
        old = ref.ReferenceNEGFDevice(geometry, n_x=n_x,
                                      n_y=11).solve(0.1, 0.5)
        assert new.current_a == old.current_a
        assert np.array_equal(new.midgap_ev, old.midgap_ev)
        assert np.array_equal(new.electron_density_per_nm,
                              old.electron_density_per_nm)
        assert np.array_equal(new.hole_density_per_nm,
                              old.hole_density_per_nm)
        assert new.scf.iterations == old.scf.iterations
        assert new.scf.residual_history == old.scf.residual_history


class TestChainKernel:
    @settings(max_examples=60, deadline=None)
    @given(n_x=st.integers(1, 61),
           n_e=st.one_of(st.just(1), st.integers(1, 300)),
           hopping=st.floats(0.5, 30.0),
           mu_left=st.floats(-1.0, 1.0),
           mu_right=st.floats(-1.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @example(n_x=1, n_e=1, hopping=1.0, mu_left=0.0, mu_right=-0.5, seed=0)
    @example(n_x=61, n_e=1, hopping=12.0, mu_left=0.0, mu_right=0.5, seed=1)
    @example(n_x=2, n_e=300, hopping=3.0, mu_left=0.2, mu_right=-0.2, seed=2)
    def test_matches_oracle(self, n_x, n_e, hopping, mu_left, mu_right,
                            seed):
        rng = np.random.default_rng(seed)
        energies = np.sort(rng.uniform(-1.5, 1.5, n_e))
        onsite = rng.normal(scale=0.3, size=n_x) + 2.0 * hopping
        sigma_l = lead_self_energy_1d(energies, mu_left, hopping)
        sigma_r = lead_self_energy_1d(energies, mu_right, hopping)
        new = _scalar_chain_rgf(energies, onsite, hopping, sigma_l, sigma_r)
        old = ref._scalar_chain_rgf(energies, onsite, hopping, sigma_l,
                                    sigma_r)
        assert np.array_equal(new.transmission, old.transmission)
        assert np.array_equal(new.spectral_source, old.spectral_source)
        assert np.array_equal(new.spectral_drain, old.spectral_drain)
        # C order: energy integrals over axis 0 sum in the oracle's order.
        assert new.spectral_source.flags.c_contiguous
        assert new.spectral_drain.flags.c_contiguous


class TestFermiDirac:
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0),
               5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
               709.5, -709.5, 745.2, -745.2, 1e3, -1e3, 1e305, -1e305,
               1.0, -1.0, 0.5]

    @pytest.mark.parametrize("mu_ev, kt_ev", [(0.0, 1.0), (0.3, KT_ROOM_EV),
                                              (-0.5, 1e-3)])
    def test_special_values_array(self, mu_ev, kt_ev):
        energies = np.array(self.SPECIAL)
        assert np.array_equal(_bits(fermi_dirac(energies, mu_ev, kt_ev)),
                              _bits(ref.fermi_dirac(energies, mu_ev, kt_ev)))

    @pytest.mark.parametrize("value", SPECIAL)
    def test_python_scalar_returns_float(self, value):
        new = fermi_dirac(value, 0.1, KT_ROOM_EV)
        old = ref.fermi_dirac(value, 0.1, KT_ROOM_EV)
        assert type(new) is float
        assert _bits(new) == _bits(old)

    @pytest.mark.parametrize("value", [0.0, -0.0, np.nan, 1e-310, 800.0,
                                       -800.0, 0.2])
    def test_zero_d_array(self, value):
        new = fermi_dirac(np.array(value), 0.0, KT_ROOM_EV)
        old = ref.fermi_dirac(np.array(value), 0.0, KT_ROOM_EV)
        assert isinstance(new, np.ndarray) and new.shape == ()
        assert _bits(new) == _bits(old)

    def test_two_d_lookup_table_shape(self):
        """The equilibrium density table evaluates a (u, k) grid."""
        u = np.linspace(-3.0, 3.0, 241)
        e_k = np.sqrt(0.3 ** 2 + np.linspace(0.0, 5.0, 60) ** 2)
        for energies in (u[:, None] + e_k[None, :], u[:, None] - e_k[None, :]):
            new = fermi_dirac(energies, 0.0, KT_ROOM_EV)
            old = ref.fermi_dirac(energies, 0.0, KT_ROOM_EV)
            assert new.shape == energies.shape
            assert np.array_equal(_bits(new), _bits(old))

    def test_input_is_not_modified(self):
        energies = np.linspace(-1.0, 1.0, 11)
        before = energies.copy()
        fermi_dirac(energies, 0.0)
        assert np.array_equal(energies, before)


def _random_block_system(rng, n_blocks, block_size):
    diag = [0.5 * (m + m.T)
            for m in rng.normal(size=(n_blocks, block_size, block_size))]
    coup = [rng.normal(size=(block_size, block_size))
            for _ in range(n_blocks - 1)]
    sigma_l = (rng.normal(scale=0.2, size=(block_size, block_size))
               - 1j * np.diag(rng.uniform(0.1, 1.0, block_size)))
    sigma_r = (rng.normal(scale=0.2, size=(block_size, block_size))
               - 1j * np.diag(rng.uniform(0.1, 1.0, block_size)))
    return diag, coup, sigma_l, sigma_r


class TestRGFTransmission:
    @pytest.mark.parametrize("n_blocks", [1, 2, 3, 7])
    @pytest.mark.parametrize("block_size", [1, 2, 6])
    def test_matches_full_rgf(self, n_blocks, block_size):
        rng = np.random.default_rng(100 * n_blocks + block_size)
        diag, coup, sigma_l, sigma_r = _random_block_system(
            rng, n_blocks, block_size)
        for energy in rng.uniform(-2.0, 2.0, 5):
            full = recursive_greens_function(energy, diag, coup, sigma_l,
                                             sigma_r)
            assert rgf_transmission(energy, diag, coup, sigma_l,
                                    sigma_r) == full.transmission

    def test_validates_block_counts(self):
        with pytest.raises(ValueError):
            rgf_transmission(0.1, [], [], np.eye(1), np.eye(1))
        with pytest.raises(ValueError):
            rgf_transmission(0.1, [np.eye(2)] * 3, [np.eye(2)],
                             np.eye(2), np.eye(2))

    @pytest.fixture()
    def sanitizer_on(self):
        was_active = sanitize.ACTIVE
        sanitize.enable()
        yield
        (sanitize.enable if was_active else sanitize.disable)()

    def test_sanitizer_still_fires(self, sanitizer_on):
        rng = np.random.default_rng(3)
        diag, coup, sigma_l, sigma_r = _random_block_system(rng, 3, 4)
        diag[1] = diag[1] + 0.1 * np.triu(np.ones((4, 4)), k=1)
        with pytest.raises(SanitizerError, match="hermiticity"):
            rgf_transmission(0.1, diag, coup, sigma_l, sigma_r)

    def test_sanitized_value_is_unchanged(self, sanitizer_on):
        dev = RealSpaceGNRDevice(9, 6)
        sigma_l, sigma_r = dev.lead_self_energies(0.6)
        sanitized = rgf_transmission(0.6, dev.diagonal, dev.coupling,
                                     sigma_l, sigma_r)
        sanitize.disable()
        assert sanitized == rgf_transmission(0.6, dev.diagonal, dev.coupling,
                                             sigma_l, sigma_r)


class TestRoughnessEnsemble:
    # The fast and full ext-roughness studies of
    # ``repro.reporting.experiments.run_ext_roughness``.
    @pytest.mark.parametrize("indices, probabilities, n_cells, n_samples", [
        ((9, 18), (0.05,), 12, 4),
        ((9, 12, 18), (0.02, 0.05, 0.1), 24, 10),
    ], ids=["fast", "full"])
    def test_matches_per_sample_loop(self, indices, probabilities, n_cells,
                                     n_samples):
        study = roughness_width_study(indices=indices,
                                      probabilities=probabilities,
                                      n_cells=n_cells, n_samples=n_samples)
        for (n_index, probability), stats in study.items():
            expected = ref.roughness_samples(n_index, probability, n_cells,
                                             n_samples)
            assert np.array_equal(stats.samples, expected)
            assert stats.mean_transmission == float(expected.mean())
            assert stats.std_transmission == float(expected.std())

    def test_shared_self_energies_match_per_device(self):
        rng = np.random.default_rng(5)
        ribbon = ArmchairGNR(12, n_cells=8)
        shared = RealSpaceGNRDevice(12, 1).lead_self_energies(0.4)
        onsite, _ = rough_edge_onsite(ribbon, 0.2, rng)
        device = RealSpaceGNRDevice(12, 8, onsite)
        assert (device.transmission_at(0.4, self_energies=shared)
                == device.transmission_at(0.4))
