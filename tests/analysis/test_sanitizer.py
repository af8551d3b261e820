"""Numerical-sanitizer tests: guards, hot-path hooks, activation."""

from __future__ import annotations

import numpy as np
import pytest

from repro import sanitize
from repro.config import RunConfig
from repro.errors import ReproError, SanitizerError
from repro.negf.greens import recursive_greens_function
from repro.negf.scf import SCFOptions, self_consistent_loop
from repro.runtime import parallel_map


@pytest.fixture()
def sanitizer_on(monkeypatch):
    """Activate the sanitizer for one test only."""
    monkeypatch.setattr(sanitize, "ACTIVE", True)


def _worker_flag(_item):
    """Module-level so it pickles: the sanitizer flag a pool worker sees."""
    return sanitize.ACTIVE


def _chain(n_blocks=4, size=2):
    rng = np.random.default_rng(7)
    diag = []
    for _ in range(n_blocks):
        m = rng.normal(size=(size, size))
        diag.append((m + m.T).astype(complex))
    coup = [rng.normal(size=(size, size)).astype(complex)
            for _ in range(n_blocks - 1)]
    sigma = -0.1j * np.eye(size)
    return diag, coup, sigma, sigma.copy()


class TestGuards:
    def test_check_finite_passes_and_fails(self, sanitizer_on):
        sanitize.check_finite(np.ones(4), "op", "x")
        with pytest.raises(SanitizerError, match="non-finite"):
            sanitize.check_finite(np.array([1.0, np.nan]), "op", "x")

    def test_check_finite_names_energy_point(self, sanitizer_on):
        energies = np.array([0.1, 0.2, 0.3])
        values = np.ones((3, 5))
        values[1, 2] = np.inf
        with pytest.raises(SanitizerError) as excinfo:
            sanitize.check_finite(values, "kernel", "G^r",
                                  energies_ev=energies)
        assert excinfo.value.energy_ev == pytest.approx(0.2)
        assert "E=0.2 eV" in str(excinfo.value)

    def test_check_hermitian(self, sanitizer_on):
        h = np.array([[0.0, 1.0], [1.0, 0.5]])
        sanitize.check_hermitian(h, "op", "H")
        h[0, 1] = 2.0
        with pytest.raises(SanitizerError, match="hermiticity"):
            sanitize.check_hermitian(h, "op", "H")

    def test_check_transmission_bounds(self, sanitizer_on):
        sanitize.check_transmission(np.array([0.0, 0.5, 2.0]), 2.0, "op")
        with pytest.raises(SanitizerError, match="out of bounds"):
            sanitize.check_transmission(np.array([0.5, 2.5]), 2.0, "op")
        with pytest.raises(SanitizerError, match="out of bounds"):
            sanitize.check_transmission(np.array([-0.1]), 2.0, "op")

    def test_check_current_conservation(self, sanitizer_on):
        sanitize.check_current_conservation(1e-6, 1e-6 * (1 + 1e-9), "op")
        with pytest.raises(SanitizerError, match="current-conservation"):
            sanitize.check_current_conservation(1e-6, 1.1e-6, "op")

    def test_error_carries_context_and_hierarchy(self, sanitizer_on):
        with pytest.raises(SanitizerError) as excinfo:
            sanitize.check_finite(np.array([np.nan]), "solve", "charge",
                                  bias=sanitize.format_bias(vg=0.4, vd=0.3))
        err = excinfo.value
        assert isinstance(err, ReproError)
        assert err.operator == "solve"
        assert err.quantity == "charge"
        assert "VG=0.4 V" in str(err) and "VD=0.3 V" in str(err)


class TestHotPathHooks:
    def test_rgf_clean_run_passes(self, sanitizer_on):
        diag, coup, sl, sr = _chain()
        result = recursive_greens_function(0.3, diag, coup, sl, sr)
        assert np.isfinite(result.transmission)

    def test_rgf_catches_nonhermitian_block(self, sanitizer_on):
        diag, coup, sl, sr = _chain()
        diag[2][0, 1] += 0.5
        with pytest.raises(SanitizerError) as excinfo:
            recursive_greens_function(0.3, diag, coup, sl, sr)
        assert excinfo.value.quantity == "H_22"
        assert excinfo.value.energy_ev == pytest.approx(0.3)

    def test_rgf_catches_injected_nan_at_energy(self, sanitizer_on):
        # A NaN smuggled into a Hamiltonian block propagates into the
        # Green's function; the report must name the energy point.
        diag, coup, sl, sr = _chain()
        diag[1][0, 0] = complex(np.nan, 0.0)  # hermitian, but not finite
        with pytest.raises(SanitizerError) as excinfo:
            recursive_greens_function(0.125, diag, coup, sl, sr)
        assert "E=0.125 eV" in str(excinfo.value)
        assert excinfo.value.operator == "recursive_greens_function"

    def test_scf_catches_nan_charge(self, sanitizer_on):
        calls = {"n": 0}

        def solve_charge(u):
            calls["n"] += 1
            out = u.copy()
            if calls["n"] >= 2:
                out[0] = np.nan
            return out

        with pytest.raises(SanitizerError, match="charge density"):
            self_consistent_loop(solve_charge, lambda q: 0.9 * q,
                                 np.ones(4),
                                 SCFOptions(tolerance_ev=1e-12,
                                            max_iterations=10,
                                            raise_on_failure=False))

    def test_hooks_are_inert_when_disabled(self, monkeypatch):
        monkeypatch.setattr(sanitize, "ACTIVE", False)
        diag, coup, sl, sr = _chain()
        diag[2][0, 1] += 0.5  # would trip hermiticity if active
        result = recursive_greens_function(0.3, diag, coup, sl, sr)
        assert result.transmission is not None


class TestActivation:
    def test_enable_disable_reach_workers(self, monkeypatch):
        monkeypatch.setattr(sanitize, "ACTIVE", False)
        sanitize.enable()
        assert sanitize.ACTIVE and sanitize.active()
        assert parallel_map(_worker_flag, [0, 1], workers=2) == [True, True]
        sanitize.disable()
        assert not sanitize.ACTIVE
        assert parallel_map(_worker_flag, [0, 1], workers=2) == [False, False]

    def test_env_parsing(self):
        for raw, expected in [("1", True), ("true", True), ("on", True),
                              ("0", False), ("", False), ("off", False),
                              ("no", False), ("false", False)]:
            config = RunConfig.from_env({"REPRO_SANITIZE": raw})
            assert config.sanitize == expected
