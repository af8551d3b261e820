"""Tests for the one dispatch path (``runtime.scheduler``)."""

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import obs
from repro.errors import ParallelMapError
from repro.runtime.scheduler import LocalScheduler
from tests.worker_crash import exit_in_worker


@pytest.fixture(autouse=True)
def _reset_obs():
    yield
    obs.disable()
    obs.reset()


def _square(x):
    return x * x


def _square_crashing_at_1(x):
    if x == 1:
        exit_in_worker()
    return x * x


def _fail_on_13(x):
    if x == 13:
        raise ValueError("boom")
    return x


class TestLocalScheduler:
    def test_run_matches_comprehension(self):
        tasks = list(range(17))
        for workers in (1, 2):
            sched = LocalScheduler(workers=workers)
            assert sched.run(_square, tasks) == [x * x for x in tasks]

    def test_recovers_pool_failures(self):
        # _fail_on_13 raises inside the pool; the scheduler salvages
        # completed tasks and re-runs the rest serially.
        sched = LocalScheduler(workers=2)
        tasks = list(range(20))
        with pytest.raises(ValueError, match="boom"):
            sched.run(_fail_on_13, tasks)
        assert sched.run(_square, tasks) == [x * x for x in tasks]

    def test_strict_propagates_pool_error(self):
        sched = LocalScheduler(workers=2)
        with pytest.raises(ParallelMapError):
            sched.run(_fail_on_13, list(range(20)), strict=True)

    def test_crashed_worker_task_is_recomputed(self):
        # Task 1 exits the worker process running it: the pool breaks,
        # and the undelivered tasks are recomputed in the parent, where
        # the task does not exit.
        obs.enable()
        with pytest.raises(ParallelMapError) as info:
            LocalScheduler(workers=2).run(_square_crashing_at_1,
                                          list(range(4)), strict=True)
        assert isinstance(info.value.__cause__, BrokenProcessPool)
        assert 1 in info.value.failed
        obs.reset()
        tasks = list(range(4))
        assert LocalScheduler(workers=2).run(_square_crashing_at_1,
                                             tasks) == [0, 1, 4, 9]
        counters = obs.snapshot()["counters"]
        assert counters["resilience.worker_crash_recoveries"] == 1
        assert counters["resilience.rows_recomputed"] >= 1

    def test_repr_names_workers(self):
        assert "workers=3" in repr(LocalScheduler(workers=3))
