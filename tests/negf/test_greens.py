"""Tests for the recursive Green's function kernels and their dense oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.negf.greens import recursive_greens_function
from repro.negf.self_energy import lead_self_energy_1d
from tests.negf.greens_reference import dense_retarded_gf, transmission_dense


def _random_system(rng, n_blocks, block_size):
    diag = [np.asarray(0.5 * (m + m.T))
            for m in rng.normal(size=(n_blocks, block_size, block_size))]
    coup = [rng.normal(size=(block_size, block_size))
            for _ in range(n_blocks - 1)]
    sigma_l = -0.3j * np.eye(block_size)
    sigma_r = -0.2j * np.eye(block_size)
    return diag, coup, sigma_l, sigma_r


def _assemble_dense(diag, coup, sigma_l, sigma_r):
    nb, bs = len(diag), diag[0].shape[0]
    h = np.zeros((nb * bs, nb * bs))
    for i, d in enumerate(diag):
        h[i * bs:(i + 1) * bs, i * bs:(i + 1) * bs] = d
    for i, c in enumerate(coup):
        h[i * bs:(i + 1) * bs, (i + 1) * bs:(i + 2) * bs] = c
        h[(i + 1) * bs:(i + 2) * bs, i * bs:(i + 1) * bs] = c.T
    sl = np.zeros_like(h, dtype=complex)
    sl[:bs, :bs] = sigma_l
    sr = np.zeros_like(h, dtype=complex)
    sr[-bs:, -bs:] = sigma_r
    return h, sl, sr


class TestDense:
    def test_inverse_property(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(6, 6))
        h = 0.5 * (h + h.T)
        e = 0.3
        g = dense_retarded_gf(e, h, eta_ev=1e-6)
        a = (e + 1e-6j) * np.eye(6) - h
        assert np.allclose(a @ g, np.eye(6), atol=1e-9)

    def test_poles_have_negative_imag(self):
        """Retarded GF is analytic in the upper half plane: diagonal
        imaginary part must be <= 0 (spectral positivity)."""
        rng = np.random.default_rng(1)
        h = rng.normal(size=(5, 5))
        h = 0.5 * (h + h.T)
        for e in np.linspace(-3, 3, 7):
            g = dense_retarded_gf(e, h, eta_ev=1e-4)
            assert np.all(np.imag(np.diag(g)) <= 1e-12)


class TestRGFAgainstDense:
    @pytest.mark.parametrize("n_blocks,block_size", [(2, 1), (3, 2),
                                                     (5, 3), (8, 2)])
    def test_all_outputs_match_dense(self, n_blocks, block_size):
        rng = np.random.default_rng(42 + n_blocks)
        diag, coup, sl, sr = _random_system(rng, n_blocks, block_size)
        h, sl_full, sr_full = _assemble_dense(diag, coup, sl, sr)
        e, eta = 0.17, 1e-9

        g_dense = dense_retarded_gf(e, h, sl_full, sr_full, eta)
        res = recursive_greens_function(e, diag, coup, sl, sr, eta)

        bs = block_size
        for i in range(n_blocks):
            assert np.allclose(res.diagonal[i],
                               g_dense[i * bs:(i + 1) * bs,
                                       i * bs:(i + 1) * bs], atol=1e-9)
            assert np.allclose(res.first_column[i],
                               g_dense[i * bs:(i + 1) * bs, :bs], atol=1e-9)
            assert np.allclose(res.last_column[i],
                               g_dense[i * bs:(i + 1) * bs, -bs:], atol=1e-9)

        gamma_l = 1j * (sl_full - sl_full.conj().T)
        gamma_r = 1j * (sr_full - sr_full.conj().T)
        t_dense = transmission_dense(g_dense, gamma_l, gamma_r)
        assert res.transmission == pytest.approx(t_dense, rel=1e-9)

    @given(st.integers(min_value=2, max_value=7),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_property_rgf_equals_dense_diagonal(self, nb, bs, seed):
        rng = np.random.default_rng(seed)
        diag, coup, sl, sr = _random_system(rng, nb, bs)
        h, sl_full, sr_full = _assemble_dense(diag, coup, sl, sr)
        g_dense = dense_retarded_gf(0.05, h, sl_full, sr_full, 1e-9)
        res = recursive_greens_function(0.05, diag, coup, sl, sr, 1e-9)
        for i in range(nb):
            assert np.allclose(res.diagonal[i],
                               g_dense[i * bs:(i + 1) * bs,
                                       i * bs:(i + 1) * bs], atol=1e-8)


class TestPerfectChain:
    def test_unit_transmission_inside_band(self):
        """A pristine 1-D chain with matched leads transmits exactly one
        channel inside the band."""
        n, t = 30, 1.0
        diag = [np.array([[0.0]])] * n
        coup = [np.array([[-t]])] * (n - 1)
        for e in (-1.5, -0.5, 0.0, 0.9, 1.7):
            s = np.array([[lead_self_energy_1d(e, 0.0, t, 1e-10)]])
            res = recursive_greens_function(e, diag, coup, s, s, 1e-10)
            assert res.transmission == pytest.approx(1.0, abs=1e-5)

    def test_zero_transmission_outside_band(self):
        n, t = 20, 1.0
        diag = [np.array([[0.0]])] * n
        coup = [np.array([[-t]])] * (n - 1)
        e = 2.5
        s = np.array([[lead_self_energy_1d(e, 0.0, t, 1e-10)]])
        res = recursive_greens_function(e, diag, coup, s, s, 1e-10)
        assert res.transmission == pytest.approx(0.0, abs=1e-8)

    def test_barrier_reduces_transmission(self):
        n, t = 30, 1.0
        diag = [np.array([[0.0]])] * n
        diag[15] = np.array([[1.5]])  # on-site barrier
        coup = [np.array([[-t]])] * (n - 1)
        e = 0.2
        s = np.array([[lead_self_energy_1d(e, 0.0, t, 1e-10)]])
        res = recursive_greens_function(e, diag, coup, s, s, 1e-10)
        assert 0.0 < res.transmission < 0.9

    def test_reciprocity(self):
        """Swapping leads leaves T unchanged (two-terminal reciprocity)."""
        rng = np.random.default_rng(7)
        n = 12
        diag = [np.array([[v]]) for v in rng.normal(scale=0.4, size=n)]
        coup = [np.array([[-1.0]])] * (n - 1)
        e = 0.1
        sl = np.array([[lead_self_energy_1d(e, 0.0, 1.0)]])
        sr = np.array([[lead_self_energy_1d(e, -0.2, 1.2)]])
        t_fwd = recursive_greens_function(e, diag, coup, sl, sr).transmission
        t_rev = recursive_greens_function(
            e, diag[::-1], coup[::-1], sr, sl).transmission
        assert t_fwd == pytest.approx(t_rev, rel=1e-9)


class TestValidation:
    def test_empty_device_rejected(self):
        with pytest.raises(ValueError):
            recursive_greens_function(0.0, [], [], np.eye(1), np.eye(1))

    def test_coupling_count_checked(self):
        diag = [np.zeros((1, 1))] * 3
        with pytest.raises(ValueError):
            recursive_greens_function(0.0, diag, [], -1j * np.eye(1),
                                      -1j * np.eye(1))
