"""Parity of the production WKB kernel with the frozen per-mode oracle.

``SBFETModel.transmission`` folds the band masks into weighted CDFs of
the sorted profile and reduces each mode's gap integral with one
matvec.  These tests hold it to the obvious per-mode ``np.where`` +
``np.trapezoid`` transcription in :mod:`tests.device.wkb_reference`
(relative 1e-12) across ribbon widths, impurity signs, temperatures and
the edge cases of the mask comparisons.
"""

import numpy as np
import pytest

from repro import sanitize
from repro.config import RunConfig
from repro.device.geometry import ChargeImpurity, GNRFETGeometry
from repro.device.iv import sweep_iv
from repro.device.sbfet import SBFETModel
from repro.errors import SanitizerError
from tests.device.wkb_reference import reference_transmission

RTOL = 1e-12


def _model(n_index=12, charge_e=None, temperature_k=300.0):
    impurity = None if charge_e is None else ChargeImpurity(charge_e=charge_e)
    return SBFETModel(GNRFETGeometry(n_index=n_index, impurity=impurity,
                                     temperature_k=temperature_k))


def _seeded_profiles(model, seed, count=4):
    """(energies, profile) pairs: production grids on perturbed profiles."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        u_ch = rng.uniform(-0.6, 0.3)
        vd = rng.uniform(0.05, 0.75)
        profile = model.band_profile_midgap_ev(u_ch, vd)
        profile = profile + rng.normal(scale=0.01, size=profile.size)
        cases.append((model._current_energy_grid(u_ch, vd), profile))
    return cases


def _assert_parity(model, energies, profile):
    ref = reference_transmission(model, energies, profile)
    new = model.transmission(energies, profile)
    assert new.shape == ref.shape == (np.asarray(energies).size,)
    np.testing.assert_allclose(new, ref, rtol=RTOL, atol=0.0)
    assert np.all(new >= 0.0)
    assert np.all(new <= len(model.modes))
    return new


class TestOracleParity:
    @pytest.mark.parametrize("n_index", [7, 12, 18])
    @pytest.mark.parametrize("charge_e", [None, 1.0, -1.0])
    @pytest.mark.parametrize("temperature_k", [300.0, 400.0])
    def test_seeded_profiles(self, n_index, charge_e, temperature_k):
        model = _model(n_index, charge_e, temperature_k)
        assert 2 <= len(model.modes) <= 4
        if charge_e is not None:
            # +1q digs the electron well, -1q the hole well: each sign
            # runs its own _well_factor branch.
            imp = model._impurity_profile_ev
            assert (-imp.min() if charge_e > 0 else imp.max()) > 0.0
        seed = (n_index, int(charge_e or 0) + 1, int(temperature_k))
        for energies, profile in _seeded_profiles(model, seed):
            _assert_parity(model, energies, profile)

    @pytest.mark.parametrize("n_index", [7, 12, 18])
    def test_energies_exactly_on_band_edges(self, n_index):
        """E = u(x) +- edge (and one ulp either side) for every mode.

        These sit on the strict ``<``/``>`` of the band masks, where a
        cut misplaced by one profile point changes the exponent by
        ``2 kappa_max dx``; the kernel must make the oracle's exact
        floating-point comparisons.
        """
        model = _model(n_index, -1.0)
        profile = model.band_profile_midgap_ev(-0.35, 0.6)
        on_edge = np.concatenate([profile + s * edge
                                  for edge in model._edges_ev
                                  for s in (1.0, -1.0)])
        energies = np.concatenate([on_edge,
                                   np.nextafter(on_edge, np.inf),
                                   np.nextafter(on_edge, -np.inf)])
        _assert_parity(model, energies, profile)

    def test_single_energy(self):
        model = _model()
        profile = model.band_profile_midgap_ev(-0.3, 0.4)
        for energy in (-0.9, -0.2, 0.0, 0.35, 1.1):
            _assert_parity(model, np.array([energy]), profile)

    def test_unsorted_energies_and_tied_profile(self):
        """No ordering is assumed; plateaus give exactly tied u(x)."""
        model = _model()
        rng = np.random.default_rng(7)
        profile = model.band_profile_midgap_ev(-0.2, 0.3)
        profile[20:50] = profile[35]
        energies = rng.permutation(np.linspace(-1.0, 1.0, 401))
        _assert_parity(model, energies, profile)


class TestSanitizerHook:
    def test_parity_with_sanitizer_enabled(self, monkeypatch):
        monkeypatch.setattr(sanitize, "ACTIVE", True)
        model = _model(12, 1.0)
        for energies, profile in _seeded_profiles(model, 11, count=2):
            _assert_parity(model, energies, profile)

    def test_non_finite_transmission_is_reported(self, monkeypatch):
        monkeypatch.setattr(sanitize, "ACTIVE", True)
        model = _model()
        profile = model.band_profile_midgap_ev(-0.3, 0.4)
        with pytest.raises(SanitizerError, match="SBFETModel.transmission"):
            model.transmission(np.array([0.1, np.nan, 0.2]), profile)


def test_sweep_iv_matches_oracle_kernel(monkeypatch):
    """A 4x4 sweep: electrostatics bitwise, currents to round-off."""
    geometry = GNRFETGeometry(n_index=12)
    vg = np.linspace(0.0, 0.75, 4)
    vd = np.linspace(0.0, 0.75, 4)
    kwargs = dict(config=RunConfig())
    new = sweep_iv(geometry, vg, vd, **kwargs)
    monkeypatch.setattr(SBFETModel, "transmission", reference_transmission)
    ref = sweep_iv(geometry, vg, vd, **kwargs)
    assert np.array_equal(new.midgap_ev, ref.midgap_ev)
    assert np.array_equal(new.charge_c, ref.charge_c)
    np.testing.assert_allclose(new.current_a, ref.current_a,
                               rtol=RTOL, atol=0.0)
    assert np.all(new.current_a[:, 1:] > 0.0)
