"""Worker-crash recovery around the Monte Carlo."""

from functools import partial

import numpy as np
import pytest

from repro import obs
from repro.config import RunConfig
from repro.runtime import LocalScheduler
from repro.variability.montecarlo import run_ring_oscillator_monte_carlo
from tests.worker_crash import exit_in_worker

N_SAMPLES = 20


@pytest.fixture(autouse=True)
def _reset_obs():
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def baseline(tech):
    return run_ring_oscillator_monte_carlo(tech, n_samples=N_SAMPLES,
                                           seed=2008, config=RunConfig())


def _samples(tech, n_samples):
    """One pool task: a batch of the seeded study's first samples, as an
    experiment's worker draws them; the full batch exits the worker
    running it."""
    if n_samples == N_SAMPLES:
        exit_in_worker()
    return run_ring_oscillator_monte_carlo(tech, n_samples=n_samples,
                                           seed=2008, config=RunConfig())


class TestWorkerCrashRecovery:
    def test_crashed_worker_batches_recomputed(self, tech, baseline):
        """The first batch exits the process running it; the parent
        recomputes it, and each batch is the seeded study's prefix, bit
        for bit."""
        obs.enable()
        half = N_SAMPLES // 2
        full, prefix = LocalScheduler(2).run(partial(_samples, tech),
                                             [N_SAMPLES, half])
        assert np.array_equal(full.frequencies_hz, baseline.frequencies_hz)
        assert full.variant_counts == baseline.variant_counts
        assert np.array_equal(prefix.frequencies_hz,
                              baseline.frequencies_hz[:half])
        counters = obs.snapshot()["counters"]
        assert counters["resilience.worker_crash_recoveries"] == 1
