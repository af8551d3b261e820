"""Per-sample quarantine and checkpoint/resume in the Monte Carlo."""

import numpy as np
import pytest

from repro import obs
from repro.config import RunConfig
from repro.errors import CheckpointError, ConvergenceError
from repro.runtime import faults
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

    def test_serial_equals_parallel_bitwise(self, tech):
        faults.enable("scf@3,7")
        serial = run_ring_oscillator_monte_carlo(tech, n_samples=N_SAMPLES,
                                                 seed=2008, config=RunConfig())
        faults.reset_attempts()
        parallel = run_ring_oscillator_monte_carlo(
            tech, n_samples=N_SAMPLES, seed=2008, config=RunConfig(workers=4))
        assert np.array_equal(serial.frequencies_hz,
                              parallel.frequencies_hz, equal_nan=True)
        assert np.array_equal(serial.static_power_w,
                              parallel.static_power_w, equal_nan=True)
        assert serial.failures == parallel.failures

    @pytest.mark.parametrize("workers", [1, 2])
    def test_strict_raises_with_sample_index(self, tech, workers):
        faults.enable("scf@7")
        with pytest.raises(ConvergenceError) as err:
            run_ring_oscillator_monte_carlo(tech, n_samples=N_SAMPLES,
                                            seed=2008,
                                            config=RunConfig(workers=workers,
                                                             strict=True))
        assert err.value.context["sample_index"] == 7
        assert err.value.context["injected"] is True


class TestCheckpointResume:
    def test_killed_then_resumed_equals_uninterrupted(self, tech, baseline):
        faults.enable("checkpoint@1")  # second snapshot write dies
        with pytest.raises(CheckpointError):
            run_ring_oscillator_monte_carlo(tech, n_samples=N_SAMPLES,
                                            seed=2008,
                                            config=RunConfig(checkpoint=5))
        faults.disable()
        resumed = run_ring_oscillator_monte_carlo(
            tech, n_samples=N_SAMPLES, seed=2008,
            config=RunConfig(checkpoint=5, resume=True))
        assert np.array_equal(resumed.frequencies_hz,
                              baseline.frequencies_hz)
        assert np.array_equal(resumed.dynamic_power_w,
                              baseline.dynamic_power_w)
        assert np.array_equal(resumed.static_power_w,
                              baseline.static_power_w)
        assert resumed.variant_counts == baseline.variant_counts
        assert resumed.failures == ()

    def test_completed_run_clears_checkpoint(self, tech, baseline):
        first = run_ring_oscillator_monte_carlo(
            tech, n_samples=N_SAMPLES, seed=2008,
            config=RunConfig(checkpoint=5))
        assert np.array_equal(first.frequencies_hz,
                              baseline.frequencies_hz)
        resumed = run_ring_oscillator_monte_carlo(
            tech, n_samples=N_SAMPLES, seed=2008,
            config=RunConfig(checkpoint=5, resume=True))
        assert np.array_equal(resumed.frequencies_hz,
                              baseline.frequencies_hz)


class TestWorkerCrashRecovery:
    def test_crashed_worker_batches_recomputed(self, tech, baseline):
        obs.enable()
        # batch starts key the worker site; with 20 samples over 8
        # batches the second batch starts at sample 3
        faults.enable("worker@3")
        result = run_ring_oscillator_monte_carlo(
            tech, n_samples=N_SAMPLES, seed=2008, config=RunConfig(workers=2))
        assert np.array_equal(result.frequencies_hz,
                              baseline.frequencies_hz)
        assert result.variant_counts == baseline.variant_counts
        counters = obs.snapshot()["counters"]
        assert counters["resilience.worker_crash_recoveries"] == 1
