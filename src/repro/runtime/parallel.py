"""Process-pool execution substrate shared by every sweep in the repo.

The paper's workflow is sweep-shaped at every layer: ``I_D/Q(V_G, V_D)``
grids populate lookup tables (Sec. 3), the V_DD-V_T plane is explored
cell-by-cell (Fig. 3), and variability is a 1000-sample Monte Carlo
(Fig. 6).  Every cell of every one of those sweeps is independent, so
they all dispatch through :func:`parallel_map` here.

Design rules
------------
* **Deterministic ordering** — results come back in input order no
  matter which worker finished first, so parallel sweeps are
  bit-for-bit identical to serial ones.
* **Serial fallback** — ``workers <= 1`` (the default when neither the
  argument nor ``REPRO_WORKERS`` sets it) runs a plain list
  comprehension in-process: no pool, no pickling, easy debugging.
* **Guided chunks** — items are shipped to workers in contiguous chunks
  of decreasing size (:func:`guided_chunk_plan`): large early chunks
  amortize pickling overhead, small late ones keep the pool
  load-balanced.
* **No nested pools** — worker processes resolve every inner worker
  count to 1, so a parallel Monte Carlo whose workers build device
  tables never oversubscribes the machine.
* **Same switches in workers** — each pool starts its workers with the
  parent's tracing, sanitizer and fault-plan state (a pool initializer,
  so it holds under any start method).
* **Reproducible randomness** — :func:`spawn_seed_sequences` derives one
  independent child :class:`numpy.random.SeedSequence` per task from a
  single root seed.  Because the spawn tree depends only on the root
  seed and the task index (never on the worker partitioning), a Monte
  Carlo run is bit-for-bit reproducible at any worker count.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from repro import obs, sanitize
from repro.config import RunConfig
from repro.errors import ParallelMapError
import repro.runtime.faults as faults

T = TypeVar("T")
R = TypeVar("R")

#: True inside a :func:`parallel_map` worker process (set by the pool
#: initializer); forces every inner worker count to serial.
_IN_WORKER = False


def resolve_workers(workers: int | None = None) -> int:
    """Resolve the effective worker count.

    ``None`` means :meth:`RunConfig.from_env` (``REPRO_WORKERS``, else
    serial).  Inside a worker process the answer is always 1 (no nested
    pools).  ``workers=0`` or negative counts clamp to serial.
    """
    if _IN_WORKER:
        return 1
    if workers is None:
        workers = RunConfig.from_env().workers
    return max(1, int(workers))


def in_worker() -> bool:
    """True when executing inside a :func:`parallel_map` worker process."""
    return _IN_WORKER


def _init_worker(trace: bool, fault_spec: str, sanitizer: bool) -> None:
    """Pool initializer: mark the process and copy the parent's switches.

    A forked worker already holds the parent's state, so its fault plan
    (attempt counts included) is left alone; a spawned one arms it here.
    """
    global _IN_WORKER
    _IN_WORKER = True
    obs.ACTIVE = trace
    sanitize.ACTIVE = sanitizer
    if faults.SPEC != fault_spec:
        faults.enable(fault_spec)


def _run_chunk(fn: Callable[[T], R], chunk: Sequence[T]
               ) -> tuple[list[R], dict | None]:
    """Worker-side chunk executor (module-level so it pickles).

    Returns ``(results, obs_payload)``: traced workers record
    spans/metrics into their own process-local recorder and ship the
    drained payload back alongside the chunk results so the parent can
    absorb it deterministically.
    """
    if not obs.ACTIVE:
        return [fn(item) for item in chunk], None
    obs.reset()
    results = [fn(item) for item in chunk]
    return results, obs.drain()


def guided_chunk_plan(n_items: int, workers: int) -> list[int]:
    """Decreasing chunk sizes in the guided-self-scheduling style.

    Each chunk takes ``ceil(remaining / (2 * workers))`` items (never
    below 1): early chunks are large to amortize dispatch overhead,
    late chunks shrink so stragglers cannot leave workers idle — the
    work-stealing effect without a shared queue.  The plan depends only
    on ``(n_items, workers)``, so the *partitioning* is deterministic;
    per-item results never depend on it.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    plan: list[int] = []
    remaining = int(n_items)
    workers = max(1, int(workers))
    while remaining > 0:
        size = max(1, math.ceil(remaining / (2 * workers)))
        plan.append(size)
        remaining -= size
    return plan


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: int | None = None,
    chunk_plan: Sequence[int] | None = None,
) -> list[R]:
    """``[fn(x) for x in items]`` across a process pool.

    Results are returned in input order regardless of completion order.
    ``fn`` and the items must be picklable when ``workers > 1`` (i.e.
    ``fn`` must be a module-level function or a :func:`functools.partial`
    of one).

    ``chunk_plan`` gives the size of every chunk in order (default
    :func:`guided_chunk_plan`); the sizes must sum to ``len(items)``.

    Failure contract: on the serial path the item's exception propagates
    unchanged.  On the pooled path a chunk failure (worker exception or
    a crashed worker process) raises :class:`~repro.errors.ParallelMapError`
    with the original exception chained as ``__cause__`` — chunks that
    finished before the failure surfaced ride along on the wrapper
    (``completed``, keyed by chunk index) together with the
    cancelled/completed chunk counts, and their obs payloads are
    absorbed rather than dropped, so partial progress is neither lost
    nor invisible.
    """
    items = list(items)
    workers = resolve_workers(workers)
    if chunk_plan is not None and (sum(chunk_plan) != len(items)
                                   or any(s < 1 for s in chunk_plan)):
        raise ValueError(
            f"chunk_plan {list(chunk_plan)!r} does not partition "
            f"{len(items)} item(s)")
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]

    if chunk_plan is None:
        chunk_plan = guided_chunk_plan(len(items), workers)
    offsets = list(itertools.accumulate(chunk_plan, initial=0))[:-1]
    chunks = [items[start:start + size]
              for start, size in zip(offsets, chunk_plan)]

    with obs.span("runtime.parallel_map", workers=workers,
                  items=len(items), chunks=len(chunks)):
        results: list[list[R] | None] = [None] * len(chunks)
        payloads: list[dict | None] = [None] * len(chunks)
        failed: dict[int, BaseException] = {}
        n_cancelled = 0
        with ProcessPoolExecutor(
                max_workers=min(workers, len(chunks)),
                initializer=_init_worker,
                initargs=(obs.ACTIVE, faults.SPEC, sanitize.ACTIVE)) as pool:
            future_index = {pool.submit(_run_chunk, fn, chunk): k
                            for k, chunk in enumerate(chunks)}
            wait(future_index, return_when=FIRST_EXCEPTION)
            for future in future_index:
                future.cancel()
            # future_index iterates in submission (= chunk) order, so
            # salvage and failure attribution are deterministic.
            for future, k in future_index.items():
                if future.cancelled():
                    n_cancelled += 1
                    continue
                exc = future.exception()  # waits for still-running chunks
                if exc is not None:
                    failed[k] = exc
                else:
                    results[k], payloads[k] = future.result()
        if obs.ACTIVE:
            # Chunk-index order, not completion order: worker metrics
            # aggregate identically at any worker count.  Completed
            # chunks' payloads are absorbed even on the failure path so
            # their spans/counters are not silently dropped.
            for payload in payloads:
                obs.absorb(payload)
        if failed:
            n_completed = len(chunks) - len(failed) - n_cancelled
            if obs.ACTIVE:
                obs.incr("parallel.chunks_failed", len(failed))
                obs.incr("parallel.chunks_cancelled", n_cancelled)
                obs.incr("parallel.chunks_salvaged", n_completed)
            first = min(failed)
            raise ParallelMapError(
                f"parallel_map chunk {first} of {len(chunks)} failed "
                f"({type(failed[first]).__name__}: {failed[first]}); "
                f"{n_completed} completed chunk(s) salvaged, "
                f"{n_cancelled} cancelled",
                completed={k: r for k, r in enumerate(results)
                           if r is not None},
                failed={k: repr(e) for k, e in sorted(failed.items())},
                n_chunks=len(chunks), n_cancelled=n_cancelled,
                chunk_offsets=offsets) from failed[first]
        return [r for chunk in results
                for r in chunk]  # type: ignore[union-attr]


def spawn_seed_sequences(seed: int, n_tasks: int
                         ) -> list[np.random.SeedSequence]:
    """One independent child :class:`~numpy.random.SeedSequence` per task.

    The children depend only on ``(seed, task_index)``, so distributing
    tasks over any number of workers (or running them serially) draws the
    same random streams.
    """
    return np.random.SeedSequence(seed).spawn(n_tasks)


def batch_indices(n_items: int, n_batches: int) -> list[range]:
    """Split ``range(n_items)`` into ``n_batches`` contiguous ranges.

    Earlier batches are at most one element longer; empty batches are
    dropped.
    """
    n_batches = max(1, min(n_batches, n_items)) if n_items else 1
    base, extra = divmod(n_items, n_batches)
    ranges = []
    start = 0
    for b in range(n_batches):
        size = base + (1 if b < extra else 0)
        if size:
            ranges.append(range(start, start + size))
        start += size
    return ranges
