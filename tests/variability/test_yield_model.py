"""Tests for the memory yield / ECC model."""

import numpy as np
import pytest

from repro.variability.yield_model import (
    ECCAnalysis,
    cell_failure_probability,
    required_sec_words_per_data_word,
    sample_latch_snm,
)


class TestCellFailure:
    def test_fraction(self):
        snm = np.array([0.02, 0.05, 0.08, 0.10])
        assert cell_failure_probability(snm, 0.06) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cell_failure_probability(np.array([]), 0.05)


class TestECC:
    def test_hamming_parity_bits(self):
        assert ECCAnalysis(p_cell=1e-3, data_bits=64).parity_bits == 7
        assert ECCAnalysis(p_cell=1e-3, data_bits=8).parity_bits == 4

    def test_overhead(self):
        assert ECCAnalysis(p_cell=0.0, data_bits=64).overhead == \
            pytest.approx(7 / 64)

    def test_sec_beats_raw(self):
        ecc = ECCAnalysis(p_cell=1e-3, data_bits=64)
        assert ecc.word_failure_sec() < ecc.word_failure_raw()
        assert ecc.improvement_factor() > 10.0

    def test_perfect_cells(self):
        ecc = ECCAnalysis(p_cell=0.0)
        assert ecc.word_failure_raw() == 0.0
        assert ecc.word_failure_sec() == 0.0
        assert ecc.improvement_factor() == np.inf

    def test_quadratic_suppression(self):
        """SEC word failure ~ (n p)^2 / 2 for small p: dropping p by 10x
        drops the SEC failure by ~100x."""
        hi = ECCAnalysis(p_cell=1e-3).word_failure_sec()
        lo = ECCAnalysis(p_cell=1e-4).word_failure_sec()
        assert hi / lo == pytest.approx(100.0, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            ECCAnalysis(p_cell=1.5)
        with pytest.raises(ValueError):
            ECCAnalysis(p_cell=0.1, data_bits=0)


class TestInterleaving:
    def test_deeper_interleave_for_worse_cells(self):
        k_good = required_sec_words_per_data_word(1e-4, 1e-9)
        k_bad = required_sec_words_per_data_word(3e-3, 1e-9)
        assert k_bad >= k_good

    def test_target_validated(self):
        with pytest.raises(ValueError):
            required_sec_words_per_data_word(1e-3, 0.0)


class TestLatchSampling:
    def test_samples_shape_and_range(self, tech):
        snm = sample_latch_snm(tech, n_cells=12, n_vtc_points=21)
        assert snm.shape == (12,)
        assert np.all(snm >= 0.0)
        assert np.all(snm < 0.2)

    def test_reproducible(self, tech):
        a = sample_latch_snm(tech, n_cells=6, seed=9, n_vtc_points=21)
        b = sample_latch_snm(tech, n_cells=6, seed=9, n_vtc_points=21)
        assert np.allclose(a, b)

    def test_caller_rng_advances_one_draw_per_trait(self, tech):
        """A cell draws width and charge for every ribbon of its n- and
        p-device, so a caller's generator ends where that many scalar
        draws leave it."""
        rng = np.random.default_rng(3)
        sample_latch_snm(tech, n_cells=2, n_vtc_points=21, rng=rng)
        expected = np.random.default_rng(3)
        expected.standard_normal(2 * 2 * tech.params.n_ribbons * 2)
        assert rng.standard_normal() == expected.standard_normal()

    def test_variability_spreads_snm(self, tech):
        """Variant cells must show spread and a degraded tail vs the
        nominal cell SNM."""
        from repro.circuit.inverter import inverter_snm

        snm = sample_latch_snm(tech, n_cells=16, n_vtc_points=21)
        nominal = inverter_snm(*tech.inverter_tables(0.13), 0.4,
                               tech.params)
        assert np.std(snm) > 0.0
        assert snm.min() < nominal
