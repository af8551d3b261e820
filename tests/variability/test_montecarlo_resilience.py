"""Per-sample quarantine and worker-crash recovery in the Monte Carlo."""

from functools import partial

import numpy as np
import pytest

from repro import obs
from repro.config import RunConfig
from repro.errors import ConvergenceError
from repro.runtime import LocalScheduler, faults
from repro.variability.montecarlo import run_ring_oscillator_monte_carlo

N_SAMPLES = 20


@pytest.fixture(autouse=True)
def _disarm():
    faults.disable()
    obs.reset()
    yield
    faults.disable()
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def baseline(tech):
    faults.disable()
    return run_ring_oscillator_monte_carlo(tech, n_samples=N_SAMPLES,
                                           seed=2008, config=RunConfig())


class TestSampleQuarantine:
    def test_failed_samples_are_nan_rows_with_records(self, tech, baseline):
        faults.enable("scf@3,7")
        result = run_ring_oscillator_monte_carlo(tech, n_samples=N_SAMPLES,
                                                 seed=2008, config=RunConfig())
        assert {f.index for f in result.failures} == {3, 7}
        assert all(f.site == "montecarlo" for f in result.failures)
        assert np.isnan(result.frequencies_hz[3])
        assert np.isnan(result.frequencies_hz[7])
        mask = np.ones(N_SAMPLES, dtype=bool)
        mask[[3, 7]] = False
        assert np.array_equal(result.frequencies_hz[mask],
                              baseline.frequencies_hz[mask])
        # shift properties skip the quarantined NaN rows
        assert np.isfinite(result.mean_frequency_shift)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_strict_raises_with_sample_index(self, tech, no_pool, workers):
        faults.enable("scf@7")
        with pytest.raises(ConvergenceError) as err:
            run_ring_oscillator_monte_carlo(tech, n_samples=N_SAMPLES,
                                            seed=2008,
                                            config=RunConfig(workers=workers,
                                                             strict=True))
        assert err.value.context["sample_index"] == 7
        assert err.value.context["injected"] is True


def _samples(tech, n_samples):
    """One pool task: a batch of the seeded study's first samples, as an
    experiment's worker draws them."""
    return run_ring_oscillator_monte_carlo(tech, n_samples=n_samples,
                                           seed=2008, config=RunConfig())


class TestWorkerCrashRecovery:
    def test_crashed_worker_batches_recomputed(self, tech, baseline):
        """``worker@0`` exits the process running the first batch; the
        parent recomputes it, and each batch is the seeded study's
        prefix, bit for bit."""
        obs.enable()
        faults.enable("worker@0")
        half = N_SAMPLES // 2
        full, prefix = LocalScheduler(2).run(partial(_samples, tech),
                                             [N_SAMPLES, half])
        assert np.array_equal(full.frequencies_hz, baseline.frequencies_hz)
        assert full.variant_counts == baseline.variant_counts
        assert np.array_equal(prefix.frequencies_hz,
                              baseline.frequencies_hz[:half])
        counters = obs.snapshot()["counters"]
        assert counters["resilience.worker_crash_recoveries"] == 1

