"""Task dispatch for the experiment fan-out: ``parallel_map`` plus crash
recovery.

:func:`repro.runtime.parallel.parallel_map` is a *mechanism* — a
process pool with deterministic, input-ordered results, one task per
item.  :class:`LocalScheduler` adds the policy on top of it: it absorbs
:class:`~repro.errors.ParallelMapError` through
:func:`~repro.runtime.resilience.recover_parallel` unless the caller is
strict.  Its one caller is the experiment fan-out
(:func:`repro.characterize.runner.run_experiments`); every sweep inside
an experiment runs in-process.

Determinism contract: ``run(fn, tasks)`` returns results in task order,
computed by a per-task pure function — exactly ``[fn(t) for t in
tasks]``.  The worker count affects wall-clock only, never values.
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
    (serial fallback included); the fan-out passes its config's count.
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
