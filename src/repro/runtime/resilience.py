"""Resilient sweep execution: retry ladders, quarantine, checkpoints.

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
    When a cell fails and the sweep is not ``strict``, the cell is
    NaN-masked and a structured, JSON-round-trippable record (exception
    class, message, task index, grid coordinates, bias, rungs tried,
    residual, solver context) is collected into the sweep's result
    dataclass and the obs run manifest.

Checkpoint/resume (:class:`SweepCheckpoint`)
    Periodic atomic ``.npz`` checkpoints under the artifact cache
    (namespace ``checkpoints``), keyed like the table cache by a content
    hash of the sweep specification.  A resumed run loads the mask of
    completed units and recomputes only the rest; because sweep units
    (rows / samples) are computed independently, the resumed result is
    bitwise-identical to an uninterrupted one.  The
    checkpoint is deleted when the sweep completes.

Environment knobs: ``REPRO_STRICT`` flips the quarantine default back to
raise-on-first-failure, ``REPRO_CHECKPOINT`` sets the checkpoint
interval in sweep units (``1`` = after every unit), ``REPRO_RESUME``
makes sweeps look for an existing checkpoint before computing.  All are
inherited by worker processes.  Deterministic failures for exercising
these paths come from :mod:`repro.runtime.faults`.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Callable, Mapping, Sequence, TypeVar

import numpy as np

from repro import obs
from repro.errors import CheckpointError, ConvergenceError, ParallelMapError
import repro.runtime.faults as faults
from repro.runtime.cache import ArtifactCache

#: Environment variable flipping sweeps back to raise-on-first-failure.
STRICT_ENV = "REPRO_STRICT"

#: Environment variable setting the checkpoint interval in sweep units
#: (rows for bias sweeps, samples for Monte Carlo); 0/unset disables.
CHECKPOINT_ENV = "REPRO_CHECKPOINT"

#: Environment variable making sweeps resume from an existing checkpoint.
RESUME_ENV = "REPRO_RESUME"

#: Artifact-cache namespace holding sweep checkpoints.
CHECKPOINT_NAMESPACE = "checkpoints"

_FALSEY = ("", "0", "false", "off", "no")

T = TypeVar("T")


def strict_default() -> bool:
    """Default ``strict`` flag for sweeps (from ``REPRO_STRICT``)."""
    return os.environ.get(STRICT_ENV, "").strip().lower() not in _FALSEY


def checkpoint_interval() -> int:
    """Checkpoint interval in sweep units; 0 disables checkpointing.

    ``REPRO_CHECKPOINT`` accepts an integer interval; any other truthy
    value means "after every unit".
    """
    raw = os.environ.get(CHECKPOINT_ENV, "").strip().lower()
    if raw in _FALSEY:
        return 0
    try:
        return max(0, int(raw))
    except ValueError:
        return 1


def resume_enabled() -> bool:
    """True if sweeps should look for a checkpoint (``REPRO_RESUME``)."""
    return os.environ.get(RESUME_ENV, "").strip().lower() not in _FALSEY


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
        """JSON-serializable form (round-trips via :meth:`from_dict`)."""
        return {"site": self.site, "error": self.error,
                "message": self.message, "index": self.index,
                "coords": list(self.coords), "bias": dict(self.bias),
                "rungs_tried": list(self.rungs_tried),
                "residual": self.residual, "context": dict(self.context)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FailureRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(site=str(data["site"]), error=str(data["error"]),
                   message=str(data["message"]), index=int(data["index"]),
                   coords=tuple(int(c) for c in data.get("coords", ())),
                   bias=dict(data.get("bias", {})),
                   rungs_tried=tuple(data.get("rungs_tried", ())),
                   residual=data.get("residual"),
                   context=dict(data.get("context", {})))


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

    Completed chunks ride along on the
    :class:`~repro.errors.ParallelMapError` (their obs payloads were
    already absorbed by ``parallel_map``); only the failed/cancelled
    tasks are recomputed, serially in this process, by calling ``fn`` on
    the original task values.  Recomputed results are identical to
    worker-computed ones whenever ``fn`` is deterministic and per-task
    independent — the contract every sweep in this repo already meets.

    Counted under ``resilience.worker_crash_recoveries`` (one per
    recovery) and ``resilience.rows_recomputed`` (one per task).
    """
    results: list[T | None] = [None] * len(tasks)
    delivered = np.zeros(len(tasks), dtype=bool)
    for k, chunk_results in err.completed.items():
        # Explicit chunk offsets (guided/dynamic plans) take precedence;
        # uniform chunking keeps the k * chunk_size arithmetic.
        start = (err.chunk_offsets[k] if err.chunk_offsets is not None
                 else k * err.chunk_size)
        for offset, value in enumerate(chunk_results):
            results[start + offset] = value
            delivered[start + offset] = True
    missing = [idx for idx in range(len(tasks)) if not delivered[idx]]
    if obs.ACTIVE:
        obs.incr("resilience.worker_crash_recoveries")
        obs.incr("resilience.rows_recomputed", len(missing))
    for idx in missing:
        results[idx] = fn(tasks[idx])
    return results  # type: ignore[return-value]


def encode_failures(records: Sequence[FailureRecord]) -> np.ndarray:
    """Pack records into one JSON string array (npz-storable)."""
    text = json.dumps([r.to_dict() for r in records], sort_keys=True)
    return np.array(text)


def decode_failures(encoded: np.ndarray) -> tuple[FailureRecord, ...]:
    """Inverse of :func:`encode_failures`."""
    return tuple(FailureRecord.from_dict(d)
                 for d in json.loads(str(encoded)))


# --------------------------------------------------------------------- #
# Checkpoint / resume
# --------------------------------------------------------------------- #
class SweepCheckpoint:
    """Atomic, resumable progress snapshots for one sweep.

    A checkpoint stores a boolean ``done`` mask over sweep units, the
    partially filled result arrays, and the failure records collected so
    far.  Writes go through :class:`~repro.runtime.cache.ArtifactCache`
    (same-directory temp file + ``os.replace``), so a checkpoint is
    either fully the old snapshot or fully the new one — an interrupted
    write (including the injected ``checkpoint`` fault) leaves the
    previous snapshot intact.

    The key must content-hash everything that determines the sweep's
    output (geometry, grids, mode count, engine and its version),
    exactly like the table cache: a resumed run with a different spec
    simply misses and starts fresh.
    """

    def __init__(self, key: str, interval: int | None = None,
                 cache: ArtifactCache | None = None):
        self.key = key
        self.interval = checkpoint_interval() if interval is None else interval
        self.cache = cache if cache is not None else ArtifactCache(
            CHECKPOINT_NAMESPACE)
        self._writes = 0
        self._since_last = 0

    @property
    def enabled(self) -> bool:
        """True if snapshots will actually be written."""
        return self.interval > 0 and self.cache.enabled

    def due(self) -> bool:
        """True when ``interval`` units completed since the last write."""
        if not self.enabled:
            return False
        self._since_last += 1
        return self._since_last >= self.interval

    def save(self, done: np.ndarray, arrays: Mapping[str, np.ndarray],
             failures: Sequence[FailureRecord] = ()) -> None:
        """Atomically persist the current progress snapshot.

        Raises :class:`~repro.errors.CheckpointError` if the write fails
        (the previous snapshot, if any, stays readable).
        """
        if not self.enabled:
            return
        self._since_last = 0
        write_index = self._writes
        self._writes += 1
        if faults.ACTIVE:
            faults.inject("checkpoint", write_index, detail=self.key[:12])
        reserved = {"__done__", "__failures__"}
        if reserved & set(arrays):
            raise CheckpointError(
                f"checkpoint array names {sorted(reserved & set(arrays))} "
                "are reserved")
        try:
            self.cache.put(self.key, __done__=np.asarray(done, dtype=bool),
                           __failures__=encode_failures(failures), **arrays)
        except CheckpointError:
            raise
        except OSError as exc:
            raise CheckpointError(
                f"could not write checkpoint {self.key[:12]}…: {exc}"
            ) from exc
        if obs.ACTIVE:
            obs.incr("resilience.checkpoint_writes")

    def load(self) -> tuple[np.ndarray, dict[str, np.ndarray],
                            tuple[FailureRecord, ...]] | None:
        """Load the latest snapshot, or None if absent/disabled/corrupt."""
        if not self.cache.enabled:
            return None
        payload = self.cache.get(self.key)
        if payload is None or "__done__" not in payload:
            return None
        done = np.asarray(payload.pop("__done__"), dtype=bool)
        encoded = payload.pop("__failures__", None)
        try:
            failures = (decode_failures(encoded)
                        if encoded is not None else ())
        except (ValueError, KeyError, TypeError):
            return None  # torn/foreign payload: start fresh
        if obs.ACTIVE:
            obs.incr("resilience.checkpoint_resumes")
        return done, payload, failures

    def clear(self) -> None:
        """Remove the checkpoint (called when the sweep completes)."""
        if self.cache.enabled:
            self.cache.path_for(self.key).unlink(missing_ok=True)
