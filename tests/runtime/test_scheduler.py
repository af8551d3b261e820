"""Tests for the one dispatch path (``runtime.scheduler``)."""

import pytest

from repro.errors import ParallelMapError
from repro.runtime.parallel import guided_chunk_plan, in_worker, parallel_map
from repro.runtime.resilience import recover_parallel
from repro.runtime.scheduler import LocalScheduler


def _square(x):
    return x * x


def _fail_on_13(x):
    if x == 13:
        raise ValueError("boom")
    return x


def _flaky_13(x):
    """Fails on 13 only inside pool workers; the parent retry succeeds."""
    if x == 13 and in_worker():
        raise ValueError("boom")
    return x * x


class TestGuidedChunkPlan:
    def test_partitions_exactly(self):
        for n in (1, 2, 7, 16, 100, 1023):
            for workers in (1, 2, 4, 8):
                plan = guided_chunk_plan(n, workers)
                assert sum(plan) == n
                assert all(size >= 1 for size in plan)

    def test_sizes_never_increase(self):
        plan = guided_chunk_plan(200, 4)
        assert plan == sorted(plan, reverse=True)
        # Guided scheduling: early chunks are large (low dispatch
        # overhead), late chunks small (load balancing at the tail).
        assert plan[0] > plan[-1]
        assert plan[-1] == 1

    def test_first_chunk_is_half_share(self):
        # ceil(remaining / (2 * workers)) at the first step.
        assert guided_chunk_plan(100, 4)[0] == 13
        assert guided_chunk_plan(8, 4)[0] == 1

    def test_empty_and_invalid(self):
        assert guided_chunk_plan(0, 4) == []
        with pytest.raises(ValueError):
            guided_chunk_plan(-1, 4)


class TestChunkPlanDispatch:
    def test_plan_matches_serial(self):
        items = list(range(23))
        plan = guided_chunk_plan(len(items), 2)
        assert parallel_map(_square, items, workers=2,
                            chunk_plan=plan) == [x * x for x in items]

    def test_plan_must_partition(self):
        with pytest.raises(ValueError, match="partition"):
            parallel_map(_square, list(range(10)), workers=2,
                         chunk_plan=[4, 4])

    def test_plan_exclusive_with_chunk_size(self):
        with pytest.raises(ValueError):
            parallel_map(_square, list(range(10)), workers=2,
                         chunk_size=5, chunk_plan=[5, 5])

    def test_bad_plan_rejected_even_in_serial_fallback(self):
        # Validation happens before the workers<=1 early return, so a
        # buggy plan cannot hide behind REPRO_WORKERS=1.
        with pytest.raises(ValueError, match="partition"):
            parallel_map(_square, list(range(10)), workers=1,
                         chunk_plan=[3, 3])

    def test_error_carries_offsets(self):
        plan = [7, 7, 6]  # item 13 sits at offset 6 in chunk 1
        with pytest.raises(ParallelMapError) as info:
            parallel_map(_fail_on_13, list(range(20)), workers=2,
                         chunk_plan=plan)
        err = info.value
        assert err.chunk_offsets == (0, 7, 14)
        assert 1 in err.failed

    def test_recover_uses_offsets(self):
        # Non-uniform plan: chunk 2 starts at offset 10, while the
        # uniform fallback (k * chunk_size with chunk_size=3) would put
        # it at 6 — recovery must follow the recorded offsets.
        items = list(range(20))
        with pytest.raises(ParallelMapError) as info:
            parallel_map(_flaky_13, items, workers=2,
                         chunk_plan=[3, 7, 10])
        err = info.value
        assert err.chunk_offsets == (0, 3, 10)
        assert 2 in err.failed
        recovered = recover_parallel(err, _flaky_13, items)
        assert recovered == [x * x for x in items]


class TestLocalScheduler:
    def test_run_matches_comprehension(self):
        tasks = list(range(17))
        for workers in (1, 2):
            sched = LocalScheduler(workers=workers)
            assert sched.run(_square, tasks) == [x * x for x in tasks]

    def test_explicit_chunk_size_respected(self):
        sched = LocalScheduler(workers=2)
        tasks = list(range(10))
        assert sched.run(_square, tasks,
                         chunk_size=1) == [x * x for x in tasks]

    def test_recovers_pool_failures(self):
        # _fail_on_13 raises inside the pool; the scheduler salvages
        # completed chunks and re-runs the rest serially.
        sched = LocalScheduler(workers=2)
        tasks = list(range(20))
        with pytest.raises(ValueError, match="boom"):
            sched.run(_fail_on_13, tasks)
        assert sched.run(_square, tasks) == [x * x for x in tasks]

    def test_strict_propagates_pool_error(self):
        sched = LocalScheduler(workers=2)
        with pytest.raises(ParallelMapError):
            sched.run(_fail_on_13, list(range(20)), strict=True,
                      chunk_size=5)

    def test_repr_names_workers(self):
        assert "workers=3" in repr(LocalScheduler(workers=3))
