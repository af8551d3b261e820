"""Resilient sweep execution: retry ladders, quarantine, crash recovery.

Every deliverable of the paper is a large independent-cell sweep — the
I/Q(V_G, V_D) device tables, the V_DD–V_T exploration plane, the
width/impurity Monte Carlo — and production practice in SPICE-class
simulators treats non-convergence of one cell as a *recoverable
per-point event*, not a process-fatal one.  This module supplies the
three generic mechanisms that make the sweeps behave that way:

Retry ladder (:func:`run_ladder`)
    A sequence of named rungs, each a zero-argument callable attempting
    the same solve with progressively more conservative settings (lower
    mixing beta, Anderson→damped Picard, more iterations).
    The first rung that converges wins; each escalation is counted
    (``resilience.retries`` plus a per-site counter such as
    ``scf.retries``); exhaustion re-raises the last
    :class:`~repro.errors.ConvergenceError` enriched with the rungs
    tried.  The *contents* of each ladder live next to the solver they
    escalate (``repro.negf``/``repro.device``) — this module only runs
    them, keeping the layer DAG intact.

Failure quarantine (:class:`FailureRecord`)
    When a cell of a device I-V sweep fails and the sweep is not
    ``strict``, the cell is NaN-masked and a structured,
    JSON-serializable record (exception class, message, task index,
    grid coordinates, bias, rungs tried, residual, solver context) is
    collected into the sweep's result (and the table built from it) and
    the obs run manifest.  The exploration plane and the Monte Carlo
    read prebuilt tables and have no cell that can fail to converge.

Worker-crash recovery (:func:`recover_parallel`)
    When a process pool breaks, the results it delivered are kept and
    only the undelivered tasks are recomputed in the parent.

The policy comes from the sweep's :class:`~repro.config.RunConfig`:
``strict`` flips the quarantine default back to raise-on-first-failure.
Tests exercise these paths by raising what a real failure raises (a
bisection's :class:`~repro.errors.ConvergenceError`, a worker process
that exits), never through a hook in the library.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Mapping, Sequence, TypeVar

from repro import obs
from repro.errors import ConvergenceError, ParallelMapError

T = TypeVar("T")


# --------------------------------------------------------------------- #
# Retry / escalation ladder
# --------------------------------------------------------------------- #
def run_ladder(rungs: Sequence[tuple[str, Callable[[], T]]],
               site: str, counter: str | None = None,
               ) -> tuple[T, list[str]]:
    """Attempt ``rungs`` in order until one converges.

    Each rung is a ``(name, thunk)`` pair; a rung *fails* by raising
    :class:`~repro.errors.ConvergenceError` (any other exception
    propagates immediately — the ladder only absorbs non-convergence).
    Returns ``(result, rungs_tried)`` where ``rungs_tried`` lists the
    names of the failed rungs plus the one that succeeded.

    Every escalation past the first rung increments
    ``resilience.retries`` and, if given, the per-site ``counter``
    (e.g. ``scf.retries``); exhaustion increments
    ``resilience.exhausted`` and re-raises the last error with
    ``ladder_site`` and ``rungs_tried`` merged into its context.
    """
    if not rungs:
        raise ValueError("run_ladder needs at least one rung")
    tried: list[str] = []
    last_error: ConvergenceError | None = None
    for position, (name, thunk) in enumerate(rungs):
        if position and obs.ACTIVE:
            obs.incr("resilience.retries")
            if counter:
                obs.incr(counter)
        tried.append(name)
        try:
            return thunk(), tried
        except ConvergenceError as exc:
            last_error = exc
    assert last_error is not None
    if obs.ACTIVE:
        obs.incr("resilience.exhausted")
    raise last_error.with_context(ladder_site=site, rungs_tried=list(tried))


# --------------------------------------------------------------------- #
# Failure quarantine
# --------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class FailureRecord:
    """One quarantined sweep cell: what failed, where, and how hard we tried.

    Attributes
    ----------
    site:
        Ladder site that exhausted (``"scf"``, ``"sr"``, ``"cell"``, ...).
    error:
        Exception class name (e.g. ``"ConvergenceError"``).
    message:
        The exception's message string.
    index:
        Flat task index within the sweep (cell index for bias grids,
        sample index for Monte Carlo).
    coords:
        Grid coordinates of the cell (e.g. ``(i_vg, j_vd)``), or ``()``.
    bias:
        Bias/parameter point, e.g. ``{"vg": 0.4, "vd": 0.5}``.
    rungs_tried:
        Names of the ladder rungs attempted, in order.
    residual:
        Final residual of the last attempt, if known.
    context:
        The exception's structured context (JSON-safe scalars).
    """

    site: str
    error: str
    message: str
    index: int
    coords: tuple[int, ...] = ()
    bias: Mapping[str, float] = dataclasses.field(default_factory=dict)
    rungs_tried: tuple[str, ...] = ()
    residual: float | None = None
    context: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    @classmethod
    def from_exception(cls, exc: BaseException, site: str, index: int,
                       coords: Sequence[int] = (),
                       bias: Mapping[str, float] | None = None,
                       rungs_tried: Sequence[str] = (),
                       ) -> "FailureRecord":
        """Build a record from a (usually convergence) exception."""
        residual = getattr(exc, "residual", None)
        context = dict(getattr(exc, "context", {}) or {})
        tried = tuple(rungs_tried) or tuple(
            context.pop("rungs_tried", ()) or ())
        return cls(site=site, error=type(exc).__name__, message=str(exc),
                   index=int(index), coords=tuple(int(c) for c in coords),
                   bias=dict(bias or {}), rungs_tried=tried,
                   residual=None if residual is None else float(residual),
                   context=context)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (the manifest's ``failures`` entries)."""
        return {"site": self.site, "error": self.error,
                "message": self.message, "index": self.index,
                "coords": list(self.coords), "bias": dict(self.bias),
                "rungs_tried": list(self.rungs_tried),
                "residual": self.residual, "context": dict(self.context)}


def quarantine(exc: BaseException, site: str, index: int,
               coords: Sequence[int] = (),
               bias: Mapping[str, float] | None = None,
               ) -> FailureRecord:
    """Convert an exhausted failure into a record and notify obs."""
    record = FailureRecord.from_exception(exc, site, index, coords, bias)
    if obs.ACTIVE:
        obs.incr("resilience.quarantined")
        obs.record_failure(record.to_dict())
    return record


def recover_parallel(err: ParallelMapError, fn: Callable[[Any], T],
                     tasks: Sequence[Any]) -> list[T]:
    """Fill in the tasks a broken process pool failed to deliver.

    Completed results ride along on the
    :class:`~repro.errors.ParallelMapError` (their obs payloads were
    already absorbed by ``parallel_map``); only the failed/cancelled
    tasks are recomputed, serially in this process, by calling ``fn`` on
    the original task values.  Recomputed results are identical to
    worker-computed ones whenever ``fn`` is deterministic and per-task
    independent — the contract every experiment in this repo already
    meets.

    Counted under ``resilience.worker_crash_recoveries`` (one per
    recovery) and ``resilience.rows_recomputed`` (one per task).
    """
    missing = [idx for idx in range(len(tasks)) if idx not in err.completed]
    if obs.ACTIVE:
        obs.incr("resilience.worker_crash_recoveries")
        obs.incr("resilience.rows_recomputed", len(missing))
    results: list[Any] = [err.completed.get(idx)
                          for idx in range(len(tasks))]
    for idx in missing:
        results[idx] = fn(tasks[idx])
    return results
