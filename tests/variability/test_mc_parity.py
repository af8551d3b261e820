"""Bitwise parity of the Monte Carlo sampler with the frozen reference.

Every production ``run_ring_oscillator_monte_carlo`` call below is
replayed through ``tests/variability/mc_reference.py`` (scalar draws,
dict electricals, one sample at a time) and the results must be
identical: the sample arrays (``np.array_equal``, NaN rows included),
the nominal values (``==``), the variant counts including their
insertion order (first draw first), and the failure records.  The cases are the Fig. 6
study in fast and full mode, whole-device draws, degenerate levels, a
pooled run, another seed and bias point, and quarantined and strict
fault injection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.config import RunConfig
from repro.errors import ConvergenceError
from repro.runtime import faults
from repro.variability.montecarlo import run_ring_oscillator_monte_carlo
from tests.variability import mc_reference as ref

ARRAYS = ("frequencies_hz", "dynamic_power_w", "static_power_w")
NOMINALS = ("nominal_frequency_hz", "nominal_dynamic_power_w",
            "nominal_static_power_w")


@pytest.fixture(autouse=True)
def _disarm():
    faults.disable()
    obs.reset()
    yield
    faults.disable()
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
        assert result.failures == oracle["failures"]


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


class TestFaults:
    def test_quarantined_samples(self, tech):
        faults.enable("scf@3,7")
        result = run_ring_oscillator_monte_carlo(tech, n_samples=20,
                                                 config=RunConfig())
        faults.reset_attempts()
        oracle = ref.monte_carlo(tech, n_samples=20)
        assert {f.index for f in result.failures} == {3, 7}
        _assert_same(result, oracle)

    def test_strict_raises_at_the_same_sample(self, tech):
        faults.enable("scf@7")
        with pytest.raises(ConvergenceError) as new:
            run_ring_oscillator_monte_carlo(tech, n_samples=20,
                                            config=RunConfig(strict=True))
        faults.reset_attempts()
        with pytest.raises(ConvergenceError) as old:
            ref.monte_carlo(tech, n_samples=20, strict=True)
        assert new.value.context == old.value.context
        assert new.value.context["sample_index"] == 7
