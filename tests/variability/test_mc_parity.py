"""Bitwise parity of the Monte Carlo sampler with the frozen reference.

Every production ``run_ring_oscillator_monte_carlo`` call below is
replayed through ``tests/variability/mc_reference.py`` (scalar draws,
dict electricals, one sample at a time) and the results must be
identical: the sample arrays (``np.array_equal``, NaN rows included),
the nominal values (``==``) and the variant counts including their
insertion order (first draw first).  The cases are the Fig. 6 study in
fast and full mode, whole-device draws, degenerate levels, and another
seed and bias point.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.variability.montecarlo import run_ring_oscillator_monte_carlo
from tests.variability import mc_reference as ref

ARRAYS = ("frequencies_hz", "dynamic_power_w", "static_power_w")
NOMINALS = ("nominal_frequency_hz", "nominal_dynamic_power_w",
            "nominal_static_power_w")


@pytest.fixture(autouse=True)
def _reset_obs():
    obs.reset()
    yield
    obs.reset()


def _assert_same(result, oracle: dict, samples=None) -> None:
    """``result`` equals the oracle run; with ``samples``, the oracle ran
    only those sample indices and its counts are not comparable."""
    rows = slice(None) if samples is None else list(samples)
    for name in ARRAYS:
        assert np.array_equal(getattr(result, name)[rows], oracle[name],
                              equal_nan=True), name
    for name in NOMINALS:
        assert getattr(result, name) == oracle[name], name
    if samples is None:
        assert result.variant_counts == oracle["variant_counts"]
        assert list(result.variant_counts) == list(oracle["variant_counts"])


@pytest.fixture(scope="module")
def fig6_fast(tech):
    return run_ring_oscillator_monte_carlo(tech, n_samples=200)


class TestFig6:
    def test_fast_study(self, tech, fig6_fast):
        _assert_same(fig6_fast, ref.monte_carlo(tech, n_samples=200))

    def test_full_study(self, tech, fig6_fast):
        """2,000 samples: the oracle replays every tenth one (each sample
        is a pure function of its spawned seed), and the fast study is
        the full study's prefix."""
        full = run_ring_oscillator_monte_carlo(tech, n_samples=2000)
        stride = range(5, 2000, 10)
        _assert_same(full, ref.monte_carlo(tech, n_samples=2000,
                                           samples=stride), samples=stride)
        for name in ARRAYS:
            assert np.array_equal(getattr(full, name)[:200],
                                  getattr(fig6_fast, name))
        assert sum(full.variant_counts.values()) == 2000 * 15 * 2 * 4


@pytest.mark.parametrize("kwargs", [
    {"n_samples": 60, "granularity": "device"},
    {"n_samples": 20, "width_levels": (12, 12, 12),
     "charge_levels": (0.0, 0.0, 0.0)},
    {"n_samples": 40, "seed": 7, "vdd": 0.3, "vt": 0.1},
], ids=["device-granularity", "degenerate-levels", "seed7-vdd0.3-vt0.1"])
def test_variants_of_the_study(tech, kwargs):
    _assert_same(run_ring_oscillator_monte_carlo(tech, **kwargs),
                 ref.monte_carlo(tech, **kwargs))

