"""Energy-batched RGF kernel vs the per-energy kernels.

The batched kernel carries every energy of a grid through stacked LAPACK
calls.  Its contract is strict: identical physics to the scalar kernels
(parity below 1e-10), working sanitizer hooks, and the obs counters.
"""

import numpy as np
import pytest

from repro import obs, sanitize
from repro.device.engines import CONTACT_BROADENING_EV
from repro.device.negf_realspace import RealSpaceGNRDevice
from repro.errors import SanitizerError
from repro.negf.greens import (
    recursive_greens_function,
    rgf_transmission_batched,
)
from repro.negf.self_energy import wide_band_self_energy


def _wide_band_transmission(device, energies):
    """The engine path: the device's blocks closed by wide-band metal
    contacts, every energy in one batched RGF pass."""
    b = device.diagonal[0].shape[0]
    sigma = np.broadcast_to(wide_band_self_energy(CONTACT_BROADENING_EV, b),
                            (energies.size, b, b)).copy()
    return rgf_transmission_batched(energies, device.diagonal,
                                    device.coupling, sigma, sigma)


def _lead_transmission(device, energies):
    """Batched RGF with the GNR leads' self-energies stacked per energy."""
    sigmas = [device.lead_self_energies(float(e)) for e in energies]
    sigma_l = np.stack([left for left, _ in sigmas])
    sigma_r = np.stack([right for _, right in sigmas])
    return rgf_transmission_batched(energies, device.diagonal,
                                    device.coupling, sigma_l, sigma_r)


def _chain(rng, n_blocks=5, size=4):
    diag = []
    for _ in range(n_blocks):
        m = rng.normal(size=(size, size))
        diag.append(m + m.T)
    coup = [rng.normal(size=(size, size)) for _ in range(n_blocks - 1)]
    return diag, coup


class TestBatchedRGF:
    def _stacked_sigmas(self, energies, size, gamma_l=0.4, gamma_r=0.7):
        sig_l = np.broadcast_to(wide_band_self_energy(gamma_l, size),
                                (energies.size, size, size)).copy()
        sig_r = np.broadcast_to(wide_band_self_energy(gamma_r, size),
                                (energies.size, size, size)).copy()
        return sig_l, sig_r

    def test_matches_scalar_kernel(self):
        rng = np.random.default_rng(2)
        diag, coup = _chain(rng)
        energies = np.linspace(-2.0, 2.0, 17)
        sig_l, sig_r = self._stacked_sigmas(energies, 4)
        trans = rgf_transmission_batched(energies, diag, coup, sig_l, sig_r)
        for k, e in enumerate(energies):
            ref = recursive_greens_function(
                float(e), diag, coup, sig_l[k], sig_r[k])
            assert abs(trans[k] - ref.transmission) < 1e-10

    def test_single_block_device(self):
        rng = np.random.default_rng(9)
        diag, _ = _chain(rng, n_blocks=1)
        energies = np.linspace(-1.0, 1.0, 9)
        sig_l, sig_r = self._stacked_sigmas(energies, 4)
        trans = rgf_transmission_batched(energies, diag, [], sig_l, sig_r)
        for k, e in enumerate(energies):
            ref = recursive_greens_function(
                float(e), diag, [], sig_l[k], sig_r[k])
            assert abs(trans[k] - ref.transmission) < 1e-10

    def test_sigma_shape_validated(self):
        rng = np.random.default_rng(1)
        diag, coup = _chain(rng, n_blocks=2)
        energies = np.linspace(-1.0, 1.0, 3)
        sig = wide_band_self_energy(0.5, 4)
        with pytest.raises(ValueError, match="sigma_left"):
            rgf_transmission_batched(energies, diag, coup, sig,
                                     np.broadcast_to(sig, (3, 4, 4)))

    def test_block_count_validated(self):
        with pytest.raises(ValueError, match="at least one block"):
            rgf_transmission_batched(np.array([0.0]), [], [],
                                     np.zeros((1, 1, 1)),
                                     np.zeros((1, 1, 1)))


class TestRealSpaceDeviceBatched:
    def test_transport_matches_loop(self):
        dev = RealSpaceGNRDevice(7, 6)
        energies = np.linspace(-1.0, 1.0, 31)
        batched = _lead_transmission(dev, energies)
        looped = [dev.transmission_at(float(e)) for e in energies]
        assert np.max(np.abs(batched - looped)) < 1e-10

    def test_rough_edge_device_matches_loop(self):
        from repro.device.negf_realspace import rough_edge_onsite

        rng = np.random.default_rng(42)
        dev_ref = RealSpaceGNRDevice(7, 8)
        onsite, n_removed = rough_edge_onsite(dev_ref.ribbon, 0.2, rng)
        assert n_removed > 0
        dev = RealSpaceGNRDevice(7, 8, onsite_ev=onsite)
        energies = np.linspace(-0.8, 0.8, 17)
        batched = _lead_transmission(dev, energies)
        looped = [dev.transmission_at(float(e)) for e in energies]
        assert np.max(np.abs(batched - looped)) < 1e-10

    def test_empty_grid(self):
        dev = RealSpaceGNRDevice(7, 2)
        out = _wide_band_transmission(dev, np.array([]))
        assert out.size == 0


class TestBatchedSanitizer:
    @pytest.fixture()
    def sanitizer_on(self, monkeypatch):
        monkeypatch.setattr(sanitize, "ACTIVE", True)

    def test_clean_device_passes(self, sanitizer_on):
        dev = RealSpaceGNRDevice(7, 4)
        out = _wide_band_transmission(dev, np.linspace(-0.9, 0.9, 13))
        assert np.all(np.isfinite(out))

    def test_nonhermitian_block_rejected(self, sanitizer_on):
        rng = np.random.default_rng(3)
        diag, coup = _chain(rng, n_blocks=3)
        diag[1] = diag[1] + 0.1 * np.triu(np.ones((4, 4)), k=1)
        energies = np.array([0.1, 0.2])
        sig = np.broadcast_to(wide_band_self_energy(0.5, 4),
                              (2, 4, 4)).copy()
        with pytest.raises(SanitizerError, match="hermiticity"):
            rgf_transmission_batched(energies, diag, coup, sig, sig)


class TestBatchedCounters:
    @pytest.fixture()
    def traced(self, monkeypatch):
        monkeypatch.setattr(obs, "ACTIVE", True)
        obs.reset()
        yield
        obs.reset()

    def test_energy_points_counted(self, traced):
        dev = RealSpaceGNRDevice(7, 3)
        _wide_band_transmission(dev, np.linspace(-0.5, 0.5, 11))
        counters = obs.snapshot()["counters"]
        assert counters["negf.batched_energy_points"] == 11
        assert counters["negf.rgf_batched_passes"] == 1
        assert counters["negf.rgf_block_solves"] == 3
