"""Tests for the process-pool execution substrate."""

import numpy as np
import pytest

from repro.config import WORKERS_ENV
from repro.errors import ParallelMapError
from repro.runtime.parallel import (
    parallel_map,
    resolve_workers,
    spawn_seed_sequences,
)


def _square(x):
    return x * x


def _fail_on_13(x):
    if x == 13:
        raise ValueError("boom")
    return x


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_env_var_used(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "6")
        assert resolve_workers(None) == 6

    def test_argument_overrides_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "6")
        assert resolve_workers(3) == 3

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError):
            resolve_workers(None)

    def test_nonpositive_clamps_to_serial(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1


class TestParallelMap:
    def test_serial_matches_comprehension(self):
        items = list(range(17))
        assert parallel_map(_square, items, workers=1) == [x * x for x in items]

    def test_parallel_matches_serial_in_order(self):
        items = list(range(23))
        serial = parallel_map(_square, items, workers=1)
        assert parallel_map(_square, items, workers=3) == serial
        assert parallel_map(_square, items, workers=2) == serial

    def test_serial_fallback_accepts_closures(self):
        """workers<=1 never pickles, so lambdas are fine there."""
        assert parallel_map(lambda x: x + 1, [1, 2, 3], workers=1) == [2, 3, 4]

    def test_empty_and_singleton(self):
        assert parallel_map(_square, [], workers=4) == []
        assert parallel_map(_square, [5], workers=4) == [25]

    def test_worker_exception_wrapped_with_salvage(self):
        """Pooled failures raise ParallelMapError chaining the original
        exception, with completed tasks salvaged on the wrapper."""
        with pytest.raises(ParallelMapError) as info:
            parallel_map(_fail_on_13, list(range(20)), workers=2)
        err = info.value
        assert isinstance(err.__cause__, ValueError)
        assert "boom" in str(err.__cause__)
        assert err.n_tasks == 20
        # Item 13 failed; the others either completed or were
        # cancelled, and every completed result is keyed by its item.
        assert set(err.failed) == {13}
        assert all(result == k for k, result in err.completed.items())
        assert len(err.completed) + len(err.failed) + err.n_cancelled == 20

    def test_serial_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_fail_on_13, list(range(20)), workers=1)


class TestSeedSpawning:
    def test_reproducible_per_task(self):
        a = spawn_seed_sequences(2008, 8)
        b = spawn_seed_sequences(2008, 8)
        for sa, sb in zip(a, b):
            draw_a = np.random.default_rng(sa).standard_normal(5)
            draw_b = np.random.default_rng(sb).standard_normal(5)
            assert np.array_equal(draw_a, draw_b)

    def test_tasks_get_independent_streams(self):
        seqs = spawn_seed_sequences(2008, 4)
        draws = [np.random.default_rng(s).standard_normal(5) for s in seqs]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_prefix_stability(self):
        """The first k children never depend on the total task count, so
        growing a sweep keeps earlier samples identical."""
        short = spawn_seed_sequences(7, 3)
        long = spawn_seed_sequences(7, 10)
        for s, l in zip(short, long):
            assert np.array_equal(
                np.random.default_rng(s).standard_normal(4),
                np.random.default_rng(l).standard_normal(4))
