"""Tests for the process-pool execution substrate."""

import numpy as np
import pytest

from repro.config import WORKERS_ENV
from repro.errors import ParallelMapError
from repro.runtime import parallel
from repro.runtime.parallel import (
    batch_indices,
    default_chunk_size,
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


def _inner_worker_count(_x):
    return resolve_workers(None)


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

    def test_worker_processes_never_nest(self, monkeypatch):
        """Inside a worker, workers=None must resolve to 1 even when
        REPRO_WORKERS asks for more (no nested pools)."""
        monkeypatch.setenv(WORKERS_ENV, "4")
        inner = parallel_map(_inner_worker_count, [0, 1, 2, 3], workers=2)
        assert inner == [1, 1, 1, 1]

    def test_in_worker_env_forces_serial(self, monkeypatch):
        monkeypatch.setattr(parallel, "_IN_WORKER", True)
        assert resolve_workers(8) == 1


class TestParallelMap:
    def test_serial_matches_comprehension(self):
        items = list(range(17))
        assert parallel_map(_square, items, workers=1) == [x * x for x in items]

    def test_parallel_matches_serial_in_order(self):
        items = list(range(23))
        serial = parallel_map(_square, items, workers=1)
        assert parallel_map(_square, items, workers=3) == serial
        assert parallel_map(_square, items, workers=3, chunk_size=1) == serial
        assert parallel_map(_square, items, workers=2, chunk_size=7) == serial

    def test_serial_fallback_accepts_closures(self):
        """workers<=1 never pickles, so lambdas are fine there."""
        assert parallel_map(lambda x: x + 1, [1, 2, 3], workers=1) == [2, 3, 4]

    def test_empty_and_singleton(self):
        assert parallel_map(_square, [], workers=4) == []
        assert parallel_map(_square, [5], workers=4) == [25]

    def test_worker_exception_wrapped_with_salvage(self):
        """Pooled failures raise ParallelMapError chaining the original
        exception, with completed chunks salvaged on the wrapper."""
        with pytest.raises(ParallelMapError) as info:
            parallel_map(_fail_on_13, list(range(20)), workers=2,
                         chunk_size=5)
        err = info.value
        assert isinstance(err.__cause__, ValueError)
        assert "boom" in str(err.__cause__)
        assert err.n_chunks == 4
        assert err.chunk_size == 5
        # Chunk 2 (items 10..14) holds 13; the others either completed
        # or were cancelled, and every completed chunk is intact.
        assert set(err.failed) == {2}
        for k, chunk_results in err.completed.items():
            start = k * err.chunk_size
            assert chunk_results == list(range(start, start + 5))
        assert len(err.completed) + len(err.failed) + err.n_cancelled == 4

    def test_serial_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_fail_on_13, list(range(20)), workers=1)


class TestChunking:
    def test_default_chunk_size_targets_four_per_worker(self):
        assert default_chunk_size(100, 5) == 5
        assert default_chunk_size(3, 8) == 1
        assert default_chunk_size(0, 4) == 1

    def test_batch_indices_cover_exactly(self):
        for n_items, n_batches in ((10, 3), (4, 4), (7, 2), (5, 9)):
            ranges = batch_indices(n_items, n_batches)
            flat = [i for r in ranges for i in r]
            assert flat == list(range(n_items))
            sizes = [len(r) for r in ranges]
            assert max(sizes) - min(sizes) <= 1

    def test_batch_indices_empty(self):
        assert batch_indices(0, 4) == []


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
