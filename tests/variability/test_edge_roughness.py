"""Tests for the edge-roughness study (small ensembles)."""

import numpy as np
import pytest

from repro.variability import edge_roughness
from repro.variability.edge_roughness import (
    effective_gap_widening_ev,
    localization_length_cells,
    roughness_ensemble,
    roughness_width_study,
)


@pytest.fixture()
def no_transport(monkeypatch):
    """Fail any device construction: validation must come first."""
    def refuse(*args, **kwargs):
        raise AssertionError("transport work before argument validation")
    monkeypatch.setattr(edge_roughness, "RealSpaceGNRDevice", refuse)


class TestEnsemble:
    def test_zero_roughness_is_ideal(self):
        stats = roughness_ensemble(12, 0.0, n_cells=10, n_samples=2)
        assert stats.mean_transmission == pytest.approx(1.0, abs=1e-3)
        assert stats.std_transmission == pytest.approx(0.0, abs=1e-6)
        assert stats.mean_removed_atoms == 0.0

    def test_degradation_grows_with_probability(self):
        lo = roughness_ensemble(12, 0.02, n_cells=12, n_samples=6)
        hi = roughness_ensemble(12, 0.15, n_cells=12, n_samples=6)
        assert hi.mean_transmission < lo.mean_transmission
        assert hi.relative_degradation > lo.relative_degradation

    def test_reproducible_with_seed(self):
        a = roughness_ensemble(9, 0.1, n_cells=10, n_samples=4, seed=7)
        b = roughness_ensemble(9, 0.1, n_cells=10, n_samples=4, seed=7)
        assert np.array_equal(a.samples, b.samples)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            roughness_ensemble(9, 0.1, n_samples=0)


class TestWidthStudy:
    def test_narrow_ribbons_hurt_more(self):
        """The central physical claim (Yoon & Guo): at equal roughness,
        narrower ribbons lose more transmission."""
        study = roughness_width_study(indices=(9, 18),
                                      probabilities=(0.1,),
                                      n_cells=16, n_samples=8)
        assert (study[(9, 0.1)].mean_transmission
                < study[(18, 0.1)].mean_transmission)

    def test_grid_keys(self):
        study = roughness_width_study(indices=(9,), probabilities=(0.05,),
                                      n_cells=8, n_samples=2)
        assert set(study) == {(9, 0.05)}


class TestLocalization:
    def test_finite_localization_length(self):
        xi, means = localization_length_cells(
            9, 0.15, lengths_cells=(6, 12, 18), n_samples=6)
        assert 0.0 < xi < 1000.0
        # <ln T> decreases with length.
        values = list(means.values())
        assert values[0] > values[-1]

    def test_pristine_is_unlocalized(self):
        xi, _ = localization_length_cells(9, 0.0,
                                          lengths_cells=(6, 12),
                                          n_samples=1)
        assert xi == np.inf or xi > 1e4

    @pytest.mark.parametrize("lengths", [(6,), (6, 6), ()])
    def test_needs_two_distinct_lengths(self, lengths, no_transport):
        # One length (or one repeated) is a one-point fit: it used to
        # return a "localization length" from a poorly conditioned
        # polyfit.
        with pytest.raises(ValueError, match="two distinct"):
            localization_length_cells(9, 0.15, lengths_cells=lengths,
                                      n_samples=2)


class TestTransportGap:
    def test_sample_validation(self, no_transport):
        # An empty ensemble used to return the 0.5 eV scan ceiling after
        # "Mean of empty slice" warnings.
        with pytest.raises(ValueError, match="at least one sample"):
            effective_gap_widening_ev(9, 0.1, n_samples=0)

    def test_roughness_widens_transport_gap(self):
        widening = effective_gap_widening_ev(9, 0.12, n_cells=16,
                                             n_samples=4)
        assert widening > 0.02

    def test_clean_ribbon_no_widening(self):
        widening = effective_gap_widening_ev(9, 0.0, n_cells=16,
                                             n_samples=1)
        assert widening < 0.03
