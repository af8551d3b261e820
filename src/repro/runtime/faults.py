"""Deterministic fault injection for exercising recovery paths.

Every resilience mechanism in this repo — retry ladders, failure
quarantine, checkpoint/resume, parallel-chunk salvage — exists for
events that essentially never occur in a healthy run.  This module makes
those events *reproducible on demand* so each recovery path is testable
in CI: a fault specification names a site and the task indices at which
that site must fail, and the instrumented call sites consult it through
one module-flag guard (``if faults.ACTIVE:``), so a run without
``REPRO_FAULTS`` pays one attribute load per hook.

Specification grammar (``REPRO_FAULTS`` or :func:`enable`)::

    spec     := clause (";" clause)*
    clause   := site "@" index ("," index)*
    index    := INT ("x" INT)?          # "x" caps how many attempts fail
    site     := "scf" | "worker" | "checkpoint"

Examples
--------
``scf@3,7``
    The solves of sweep cells 3 and 7 raise a
    :class:`~repro.errors.ConvergenceError` and the cells are
    quarantined.
``scf@5x2``
    Only the first two attempts at task 5 fail; a third solve of that
    task in the same process succeeds.
``worker@2``
    The worker process handling task index 2 exits hard
    (``os._exit``), breaking the process pool — exercises
    :class:`~repro.errors.ParallelMapError` salvage.
``checkpoint@1``
    The second checkpoint write (index 1) is interrupted after the
    temp file is written but before the atomic replace — exercises
    resume-from-previous-checkpoint.

Indices are *task indices of the enclosing sweep* (flat cell index for
bias grids, sample index for Monte Carlo, write ordinal for
checkpoints), never global call counts, so the same spec fires at the
same logical work item at any worker count.  Attempt counters are
process-local; because a given task is always retried within the one
process that owns it, ``xN`` counting is exact in workers too.
"""

from __future__ import annotations

import os

from repro.errors import CheckpointError, ConvergenceError

#: Environment variable holding the fault specification.
FAULTS_ENV = "REPRO_FAULTS"

#: Recognized fault sites.
SITES = ("scf", "worker", "checkpoint")

#: Module-level guard flag: ``True`` iff a fault plan is armed.  Hot
#: hooks check this before anything else, so a faultless run costs one
#: attribute load per hook.
ACTIVE: bool = False

#: Parsed plan: ``(site, index) -> max failing attempts`` (None = always).
_PLAN: dict[tuple[str, int], int | None] = {}

#: Attempts observed so far at each armed (site, index).
_ATTEMPTS: dict[tuple[str, int], int] = {}


def parse_spec(spec: str) -> dict[tuple[str, int], int | None]:
    """Parse a ``REPRO_FAULTS`` specification string.

    Returns ``{(site, index): count_or_None}`` where ``None`` means the
    site fails at that index on every attempt.  Raises ``ValueError``
    on malformed clauses or unknown sites.
    """
    plan: dict[tuple[str, int], int | None] = {}
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        site, sep, rest = clause.partition("@")
        site = site.strip()
        if not sep or site not in SITES:
            raise ValueError(
                f"bad fault clause {clause!r}: expected site@indices with "
                f"site in {SITES}")
        for token in rest.split(","):
            token = token.strip()
            if not token:
                raise ValueError(f"bad fault clause {clause!r}: empty index")
            head, x, tail = token.partition("x")
            try:
                index = int(head)
                count = int(tail) if x else None
            except ValueError:
                raise ValueError(
                    f"bad fault index {token!r} in clause {clause!r}; "
                    "expected INT or INTxCOUNT") from None
            if index < 0 or (count is not None and count < 1):
                raise ValueError(
                    f"bad fault index {token!r}: index must be >= 0 and "
                    "count >= 1")
            plan[(site, index)] = count
    return plan


def _sync_from_env() -> None:
    """Arm (or disarm) the plan from the current environment value."""
    global ACTIVE
    spec = os.environ.get(FAULTS_ENV, "").strip()
    _PLAN.clear()
    _ATTEMPTS.clear()
    if spec:
        _PLAN.update(parse_spec(spec))
    ACTIVE = bool(_PLAN)


def enable(spec: str) -> None:
    """Arm a fault plan for this process and future workers."""
    os.environ[FAULTS_ENV] = spec
    _sync_from_env()


def disable() -> None:
    """Disarm fault injection (and stop exporting it to workers)."""
    os.environ.pop(FAULTS_ENV, None)
    _sync_from_env()


def reset_attempts() -> None:
    """Forget attempt counts (``xN`` clauses re-arm); plan unchanged."""
    _ATTEMPTS.clear()


def should_fire(site: str, index: int) -> bool:
    """True (and consume one attempt) if ``site`` must fail at ``index``.

    Every call for an armed ``(site, index)`` increments its attempt
    counter, so an ``xN`` clause lets attempt ``N+1`` — a later retry
    rung — succeed.
    """
    key = (site, index)
    cap = _PLAN.get(key, 0)
    if cap == 0:  # not armed (0 never parses, so it doubles as a sentinel)
        return False
    attempt = _ATTEMPTS.get(key, 0) + 1
    _ATTEMPTS[key] = attempt
    return cap is None or attempt <= cap


def inject(site: str, index: int, detail: str = "") -> None:
    """Raise the configured fault for ``site`` at ``index``, if armed.

    Call sites guard with ``if faults.ACTIVE:`` so this function is
    never entered in a faultless run.  The raised exception type
    matches what the real failure mode would produce:

    * ``scf`` — :class:`~repro.errors.ConvergenceError` with a
      ``context`` marking the failure as injected;
    * ``checkpoint`` — :class:`~repro.errors.CheckpointError`;
    * ``worker`` — hard process exit (``os._exit(17)``), the closest
      reproducible stand-in for an OOM-killed / segfaulted worker.
    """
    if not should_fire(site, index):
        return
    if site == "worker":
        os._exit(17)
    where = f"{site}@{index}" + (f" ({detail})" if detail else "")
    if site == "checkpoint":
        raise CheckpointError(f"injected checkpoint-write fault at {where}")
    raise ConvergenceError(
        f"injected {site} fault at {where}",
        context={"injected": True, "fault_site": site, "task_index": index})


# Arm from the environment at import so worker processes (which inherit
# REPRO_FAULTS) come up with the same plan as the parent.
_sync_from_env()
