"""Task dispatch for every sweep: ``parallel_map`` plus crash recovery.

:func:`repro.runtime.parallel.parallel_map` is a *mechanism* — a
process pool with deterministic, input-ordered results, shipped in
work-stealing-style *guided chunks* (decreasing chunk sizes from
:func:`~repro.runtime.parallel.guided_chunk_plan`, so a straggler task
cannot serialize the pool).  :class:`LocalScheduler` is the one
dispatch path every sweep uses on top of it, and its only caller: it
absorbs :class:`~repro.errors.ParallelMapError` through
:func:`~repro.runtime.resilience.recover_parallel` unless the caller is
strict.  The fault-injection sites, quarantine records and obs payload
forwarding of the underlying machinery ride through unchanged: tasks
keep their caller-assigned indices, so fault specs fire at the same
logical work item at any worker count.

Determinism contract: ``run(fn, tasks)`` returns results in task order,
computed by a per-task pure function — exactly ``[fn(t) for t in
tasks]``.  Chunking/worker-count choices affect wall-clock only, never
values.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

from repro.errors import ConvergenceError, ParallelMapError
from repro.runtime.parallel import parallel_map
from repro.runtime.resilience import recover_parallel

T = TypeVar("T")
R = TypeVar("R")


class LocalScheduler:
    """Process-pool scheduler: ``parallel_map`` + crash recovery.

    ``workers=None`` defers to ``REPRO_WORKERS`` at each ``run`` call
    (serial fallback included); sweeps pass their config's count.
    """

    def __init__(self, workers: int | None = None):
        self.workers = workers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LocalScheduler(workers={self.workers!r})"

    def run(self, fn: Callable[[T], R], tasks: Iterable[T], *,
            strict: bool = False) -> list[R]:
        """Evaluate ``fn`` over ``tasks``, results in task order.

        ``strict=True`` propagates the first failure instead of
        recovering: a task's :class:`~repro.errors.ConvergenceError`
        as itself at any worker count, a broken pool as
        :class:`~repro.errors.ParallelMapError`.
        """
        tasks = list(tasks)
        try:
            return parallel_map(fn, tasks, workers=self.workers)
        except ParallelMapError as err:
            if strict:
                if isinstance(err.__cause__, ConvergenceError):
                    # A task raised, the pool did not break: surface the
                    # task's own error, exactly as the serial path does.
                    raise err.__cause__
                raise
            return recover_parallel(err, fn, tasks)


__all__ = [
    "LocalScheduler",
]
