"""Engine registry, cross-engine parity, and cache-key regression tests.

Transport runs the engine path: each device's blocks closed by wide-band
metal contacts in one batched RGF pass, as
:class:`~repro.device.engines.AtomisticTransport` runs them.  The
tolerances asserted here are the mode-space engine's accuracy contract
(``docs/performance.md``):

* full rank (``n_modes=None``) reproduces real-space transmission
  (``< 1e-6`` absolute) for *any* device — smooth profiles and per-atom
  disorder alike;
* at ``n_modes=4`` the device-level drain current stays within 15% of
  the real-space reference at one ON bias;
* transversely non-uniform disorder under truncation is *not* covered:
  the rough-edge test pins that the coupling the truncation discards is
  order unity, so real space stays the reference there.
"""

import numpy as np
import pytest

from repro.atomistic.lattice import ArmchairGNR
from repro.device.engines import (
    CONTACT_BROADENING_EV,
    DEFAULT_ENGINE,
    ENGINES,
    AtomisticTransport,
    engine_version,
    resolve_engine,
)
from repro.device.geometry import GNRFETGeometry
from repro.device.negf_modespace import ModeSpaceGNRDevice, reduced_lead_blocks
from repro.device.negf_realspace import RealSpaceGNRDevice, rough_edge_onsite
from repro.device.sbfet import SBFETModel
from repro.device.tables import table_cache_key
from repro.errors import InvalidDeviceError
from repro.negf.greens import rgf_transmission_batched
from repro.negf.self_energy import wide_band_self_energy


def _wide_band_transmission(device, energies):
    """The engine path: the device's blocks closed by wide-band metal
    contacts, every energy in one batched RGF pass."""
    b = device.diagonal[0].shape[0]
    sigma = np.broadcast_to(wide_band_self_energy(CONTACT_BROADENING_EV, b),
                            (energies.size, b, b)).copy()
    return rgf_transmission_batched(energies, device.diagonal,
                                    device.coupling, sigma, sigma)


class TestEngineRegistry:
    def test_default(self):
        assert resolve_engine() == DEFAULT_ENGINE == "semianalytic"

    def test_unknown_raises(self):
        with pytest.raises(InvalidDeviceError):
            resolve_engine("tight-binding")

    def test_versions_distinct(self):
        versions = {engine_version(e) for e in ENGINES}
        assert len(versions) == len(ENGINES)

    def test_adapter_rejects_semianalytic(self):
        with pytest.raises(InvalidDeviceError):
            AtomisticTransport("semianalytic", 12, 15.0)


class TestCacheKeyRegression:
    """Engine choice and n_modes must key the table cache (satellite 2)."""

    def setup_method(self):
        self.geometry = GNRFETGeometry()
        self.vg = np.array([0.0, 0.5])
        self.vd = np.array([0.0, 0.5])

    def test_engines_key_differently(self):
        keys = {table_cache_key(self.geometry, self.vg, self.vd, None,
                                engine=e) for e in ENGINES}
        assert len(keys) == len(ENGINES)

    def test_n_modes_keys_differently(self):
        k_none = table_cache_key(self.geometry, self.vg, self.vd, None,
                                 engine="modespace")
        k_four = table_cache_key(self.geometry, self.vg, self.vd, 4,
                                 engine="modespace")
        assert k_none != k_four

    def test_default_engine_explicit_and_implicit_agree(self):
        implicit = table_cache_key(self.geometry, self.vg, self.vd, None)
        explicit = table_cache_key(self.geometry, self.vg, self.vd, None,
                                   engine="semianalytic")
        assert implicit == explicit


class TestTransportParity:
    """Mode space vs real space at the transport level."""

    ENERGIES = np.linspace(-1.0, 1.0, 41)

    def test_full_rank_exact_pristine(self):
        rs = _wide_band_transmission(RealSpaceGNRDevice(12, 10),
                                     self.ENERGIES)
        ms = _wide_band_transmission(
            ModeSpaceGNRDevice(12, 10, n_modes=None), self.ENERGIES)
        assert np.max(np.abs(rs - ms)) < 1e-6

    def test_full_rank_exact_barrier(self):
        profile = np.concatenate([np.zeros(3), np.full(6, 0.3), np.zeros(3)])
        from repro.device.negf_realspace import longitudinal_onsite

        ribbon = ArmchairGNR(12, n_cells=12)
        rs = _wide_band_transmission(RealSpaceGNRDevice(
            12, 12, onsite_ev=longitudinal_onsite(ribbon, profile)),
            self.ENERGIES)
        ms = _wide_band_transmission(ModeSpaceGNRDevice(
            12, 12, onsite_ev=profile, n_modes=None), self.ENERGIES)
        assert np.max(np.abs(rs - ms)) < 1e-6

    def test_full_rank_exact_rough_edge(self):
        """Per-atom disorder projects exactly at full rank: the coupled
        mode-space equations carry the full inter-mode coupling."""
        rng = np.random.default_rng(7)
        ribbon = ArmchairGNR(12, n_cells=12)
        onsite, n_removed = rough_edge_onsite(ribbon, 0.15, rng)
        assert n_removed > 0
        rs = _wide_band_transmission(
            RealSpaceGNRDevice(12, 12, onsite_ev=onsite), self.ENERGIES)
        ms = _wide_band_transmission(ModeSpaceGNRDevice(
            12, 12, onsite_ev=onsite, n_modes=None), self.ENERGIES)
        assert np.max(np.abs(rs - ms)) < 1e-6

    def test_truncation_not_valid_for_rough_edge(self):
        """The coupling a vacancy induces to discarded blocks is order
        unity — truncated mode space must NOT be trusted there, and this
        pins that the error is large (real space stays the reference)."""
        rng = np.random.default_rng(7)
        ribbon = ArmchairGNR(12, n_cells=12)
        onsite, _ = rough_edge_onsite(ribbon, 0.15, rng)
        rs = _wide_band_transmission(
            RealSpaceGNRDevice(12, 12, onsite_ev=onsite), self.ENERGIES)
        ms = _wide_band_transmission(ModeSpaceGNRDevice(
            12, 12, onsite_ev=onsite, n_modes=4), self.ENERGIES)
        assert np.max(np.abs(rs - ms)) > 0.1

    def test_per_atom_shape_validated(self):
        with pytest.raises(InvalidDeviceError):
            ModeSpaceGNRDevice(12, 10, onsite_ev=np.zeros(11))

    def test_reduced_lead_blocks_cached(self):
        a = reduced_lead_blocks(12, 4)
        b = reduced_lead_blocks(12, 4)
        assert a[0] is b[0]
        assert not a[0].flags.writeable


class TestDeviceLevelParity:
    """Engines through the SBFET device model (satellite 3, I-V leg)."""

    def test_dispatch_wiring(self):
        geometry = GNRFETGeometry()
        assert SBFETModel(geometry)._atomistic is None
        ms = SBFETModel(geometry, engine="modespace")
        assert ms.engine == "modespace"
        assert ms._atomistic is not None
        assert ms._atomistic.engine == "modespace"
        # Real space always carries the full basis.
        rs = SBFETModel(geometry, engine="realspace")
        assert rs._atomistic.n_modes is None

    def test_adapter_transmission_matches_engines(self):
        """The adapter's WBL-contact transmission agrees between the two
        atomistic engines at full rank (identical contacts by
        construction: U^T (-i Gamma/2 I) U = -i Gamma/2 I_m)."""
        energies = np.linspace(-0.8, 0.8, 31)
        x = np.linspace(0.0, 15.0, 61)
        profile = 0.3 * np.exp(-((x - 7.5) / 3.0) ** 2)
        rs = AtomisticTransport("realspace", 12, 15.0)
        ms = AtomisticTransport("modespace", 12, 15.0, n_modes=None)
        t_rs = rs.transmission(energies, profile, x)
        t_ms = ms.transmission(energies, profile, x)
        assert rs.n_cells == ms.n_cells == 35
        assert np.max(np.abs(t_rs - t_ms)) < 1e-8

    def test_modespace_current_tracks_realspace(self):
        """Drain current of the truncated mode-space engine within the
        documented 15% of the real-space reference at one ON bias."""
        geometry = GNRFETGeometry()
        i_ms = SBFETModel(geometry, engine="modespace").solve_bias(
            0.5, 0.5).current_a
        i_rs = SBFETModel(geometry, engine="realspace").solve_bias(
            0.5, 0.5).current_a
        assert i_rs != 0.0
        assert abs(i_ms - i_rs) / abs(i_rs) < 0.15

    def test_contact_broadening_default(self):
        assert CONTACT_BROADENING_EV == pytest.approx(1.35, abs=1e-12)
