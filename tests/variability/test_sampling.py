"""Tests for the discretized-normal sampler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.variability.sampling import (
    discretized_level_probabilities,
    discretized_normal_choice,
    discretized_normal_indices,
)


class TestProbabilities:
    def test_exact_values(self):
        p_lo, p_mid, p_hi = discretized_level_probabilities()
        assert p_lo == p_hi
        assert p_mid == pytest.approx(0.3829, abs=1e-3)
        assert p_lo + p_mid + p_hi == pytest.approx(1.0)


class TestSampler:
    def test_single_draw_type(self):
        rng = np.random.default_rng(0)
        v = discretized_normal_choice(rng, (9, 12, 15))
        assert v in (9, 12, 15)

    def test_batch_draw(self):
        rng = np.random.default_rng(0)
        vs = discretized_normal_choice(rng, (-1.0, 0.0, 1.0), size=100)
        assert len(vs) == 100
        assert set(vs) <= {-1.0, 0.0, 1.0}

    def test_empirical_frequencies(self):
        rng = np.random.default_rng(42)
        n = 40000
        vs = np.array(discretized_normal_choice(rng, (0, 1, 2), size=n))
        p_lo, p_mid, p_hi = discretized_level_probabilities()
        assert np.mean(vs == 1) == pytest.approx(p_mid, abs=0.01)
        assert np.mean(vs == 0) == pytest.approx(p_lo, abs=0.01)
        assert np.mean(vs == 2) == pytest.approx(p_hi, abs=0.01)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        vs = np.array(discretized_normal_choice(rng, (-1, 0, 1), size=40000))
        assert abs(np.mean(vs)) < 0.02

    def test_reproducible_with_seed(self):
        a = discretized_normal_choice(np.random.default_rng(5), (1, 2, 3),
                                      size=20)
        b = discretized_normal_choice(np.random.default_rng(5), (1, 2, 3),
                                      size=20)
        assert a == b

    def test_rejects_wrong_level_count(self):
        with pytest.raises(ValueError):
            discretized_normal_choice(np.random.default_rng(0), (1, 2))


class TestBlockIndices:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(1, 300))
    def test_block_draw_equals_sequential_scalar_draws(self, seed, n):
        """One block of ``n`` draws maps to the same level indices as
        ``n`` scalar choices from the same generator, and consumes the
        generator identically."""
        block_rng = np.random.default_rng(seed)
        block = discretized_normal_indices(block_rng.standard_normal(n))
        scalar_rng = np.random.default_rng(seed)
        scalar = [discretized_normal_choice(scalar_rng, (0, 1, 2))
                  for _ in range(n)]
        assert block.tolist() == scalar
        assert block_rng.standard_normal() == scalar_rng.standard_normal()

    def test_thresholds_at_half_sigma(self):
        draws = np.array([-np.inf, -0.5000001, -0.5, 0.0, 0.5, 0.5000001,
                          np.inf])
        assert discretized_normal_indices(draws).tolist() == [
            0, 0, 1, 1, 1, 2, 2]
