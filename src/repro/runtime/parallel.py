"""Process-pool execution substrate behind the experiment fan-out.

The paper's workflow is sweep-shaped at every layer, but the sweeps
inside one experiment share tables and run in-process: the unit of
parallel work is a whole experiment
(:func:`repro.characterize.runner.run_experiments`, the one caller of
:class:`~repro.runtime.scheduler.LocalScheduler`), and every experiment
is a pure function of its id, ``fast`` and the run config.

Design rules
------------
* **Deterministic ordering** — results come back in input order no
  matter which worker finished first, so a parallel run is bit-for-bit
  identical to a serial one.
* **Serial fallback** — ``workers <= 1`` (the default when neither the
  argument nor ``REPRO_WORKERS`` sets it) or a single item runs a plain
  list comprehension in-process: no pool, no pickling, easy debugging.
* **One task per item** — each item is its own pool task: experiments
  are few and coarse, so there is no chunking to amortize.
* **Same switches in workers** — each pool starts its workers with the
  parent's tracing, sanitizer and fault-plan state (a pool initializer,
  so it holds under any start method).  The ``worker`` fault site is the
  task executor, keyed by the item's position.
* **Reproducible randomness** — :func:`spawn_seed_sequences` derives one
  independent child :class:`numpy.random.SeedSequence` per task from a
  single root seed.  Because the spawn tree depends only on the root
  seed and the task index, a Monte Carlo run is reproducible however
  its samples are grouped.
"""

from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from typing import Callable, Iterable, TypeVar

import numpy as np

from repro import obs, sanitize
from repro.config import RunConfig
from repro.errors import ParallelMapError
import repro.runtime.faults as faults

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: int | None = None) -> int:
    """Resolve the effective worker count.

    ``None`` means :meth:`RunConfig.from_env` (``REPRO_WORKERS``, else
    serial).  ``workers=0`` or negative counts clamp to serial.
    """
    if workers is None:
        workers = RunConfig.from_env().workers
    return max(1, int(workers))


def _init_worker(trace: bool, fault_spec: str, sanitizer: bool) -> None:
    """Pool initializer: copy the parent's switches.

    A forked worker already holds the parent's state, so its fault plan
    (attempt counts included) is left alone; a spawned one arms it here.
    """
    obs.ACTIVE = trace
    sanitize.ACTIVE = sanitizer
    if faults.SPEC != fault_spec:
        faults.enable(fault_spec)


def _run_task(fn: Callable[[T], R], index: int, item: T
              ) -> tuple[R, dict | None]:
    """Worker-side task executor (module-level so it pickles).

    The ``worker`` fault site: an armed ``worker@index`` exits the
    process here.  Returns ``(result, obs_payload)``: traced workers
    record spans/metrics into their own process-local recorder and ship
    the drained payload back so the parent can absorb it
    deterministically.
    """
    if faults.ACTIVE:
        faults.inject("worker", index)
    if not obs.ACTIVE:
        return fn(item), None
    obs.reset()
    result = fn(item)
    return result, obs.drain()


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: int | None = None,
) -> list[R]:
    """``[fn(x) for x in items]`` across a process pool.

    Results are returned in input order regardless of completion order.
    ``fn`` and the items must be picklable when ``workers > 1`` (i.e.
    ``fn`` must be a module-level function or a :func:`functools.partial`
    of one).

    Failure contract: on the serial path the item's exception propagates
    unchanged.  On the pooled path a task failure (worker exception or
    a crashed worker process) raises :class:`~repro.errors.ParallelMapError`
    with the original exception chained as ``__cause__`` — tasks that
    finished before the failure surfaced ride along on the wrapper
    (``completed``, keyed by item index) together with the
    cancelled/completed task counts, and their obs payloads are
    absorbed rather than dropped, so partial progress is neither lost
    nor invisible.
    """
    items = list(items)
    workers = resolve_workers(workers)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]

    with obs.span("runtime.parallel_map", workers=workers,
                  items=len(items)):
        results: dict[int, R] = {}
        payloads: dict[int, dict | None] = {}
        failed: dict[int, BaseException] = {}
        n_cancelled = 0
        with ProcessPoolExecutor(
                max_workers=min(workers, len(items)),
                initializer=_init_worker,
                initargs=(obs.ACTIVE, faults.SPEC, sanitize.ACTIVE)) as pool:
            future_index = {pool.submit(_run_task, fn, k, item): k
                            for k, item in enumerate(items)}
            wait(future_index, return_when=FIRST_EXCEPTION)
            for future in future_index:
                future.cancel()
            # future_index iterates in submission (= item) order, so
            # salvage and failure attribution are deterministic.
            for future, k in future_index.items():
                if future.cancelled():
                    n_cancelled += 1
                    continue
                exc = future.exception()  # waits for still-running tasks
                if exc is not None:
                    failed[k] = exc
                else:
                    results[k], payloads[k] = future.result()
        if obs.ACTIVE:
            # Item order, not completion order: the merge does not
            # depend on which task finished first.  Completed tasks'
            # payloads are absorbed even on the failure path so their
            # spans/counters are not silently dropped.
            for k in sorted(payloads):
                obs.absorb(payloads[k])
        if failed:
            if obs.ACTIVE:
                obs.incr("parallel.tasks_failed", len(failed))
                obs.incr("parallel.tasks_cancelled", n_cancelled)
                obs.incr("parallel.tasks_salvaged", len(results))
            first = min(failed)
            raise ParallelMapError(
                f"parallel_map task {first} of {len(items)} failed "
                f"({type(failed[first]).__name__}: {failed[first]}); "
                f"{len(results)} completed task(s) salvaged, "
                f"{n_cancelled} cancelled",
                completed=results,
                failed={k: repr(e) for k, e in sorted(failed.items())},
                n_tasks=len(items),
                n_cancelled=n_cancelled) from failed[first]
        return [results[k] for k in range(len(items))]


def spawn_seed_sequences(seed: int, n_tasks: int
                         ) -> list[np.random.SeedSequence]:
    """One independent child :class:`~numpy.random.SeedSequence` per task.

    The children depend only on ``(seed, task_index)``, so however the
    tasks are grouped the same random streams are drawn.
    """
    return np.random.SeedSequence(seed).spawn(n_tasks)
