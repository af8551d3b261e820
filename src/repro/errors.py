"""Exception hierarchy for :mod:`repro`.

All library-specific failures derive from :class:`ReproError` so callers can
catch simulation problems without masking programming errors.
"""

from __future__ import annotations

from typing import Mapping


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConvergenceError(ReproError):
    """An iterative solver (SCF loop, Newton, transient step) failed to converge.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual:
        Final residual norm, if known.
    context:
        Structured facts about where the solver gave up — bias point,
        geometry id, solver name, mixing configuration, retry-ladder
        rungs already tried.  Populated by the raising solver so that
        quarantine records (:mod:`repro.runtime.resilience`) and logs
        carry actionable detail instead of a bare message string.  Keys
        and values must be JSON-serializable scalars.
    """

    def __init__(self, message: str, iterations: int | None = None,
                 residual: float | None = None,
                 context: Mapping[str, object] | None = None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.context: dict[str, object] = dict(context) if context else {}

    def with_context(self, **facts: object) -> "ConvergenceError":
        """Merge additional facts into :attr:`context` (returns self).

        Existing keys are kept: the innermost solver knows the most
        precise value, outer layers only fill in what is still missing.
        """
        for key, value in facts.items():
            self.context.setdefault(key, value)
        return self


class TableRangeError(ReproError):
    """A lookup-table evaluation was requested outside the tabulated range."""


class InvalidDeviceError(ReproError):
    """A device specification is physically or structurally invalid."""


class CircuitError(ReproError):
    """A netlist is malformed (dangling nodes, missing ground, ...)."""


class AnalysisError(ReproError):
    """A post-processing step could not extract the requested quantity
    (e.g. no oscillation detected when measuring ring-oscillator frequency)."""


class GoldenError(ReproError):
    """A golden characterization file is malformed or cannot be blessed
    (wrong schema, unknown experiment, missing ``--reason``)."""


class ParallelMapError(ReproError):
    """A :func:`repro.runtime.parallel_map` worker task failed.

    Raised *instead of* the bare worker exception so that work already
    finished by other tasks is salvaged rather than thrown away: the
    completed results (keyed by item index) ride along on the wrapper,
    and the original worker exception is chained as ``__cause__``.

    Attributes
    ----------
    completed:
        Mapping of item index to its result, for every task that
        finished successfully before the failure surfaced.
    failed:
        Mapping of item index to the repr of its exception.
    n_tasks:
        Total tasks dispatched.
    n_cancelled:
        Tasks cancelled before they ran (their items were never
        computed).
    """

    def __init__(self, message: str,
                 completed: Mapping[int, object] | None = None,
                 failed: Mapping[int, str] | None = None,
                 n_tasks: int = 0, n_cancelled: int = 0):
        super().__init__(message)
        self.completed: dict[int, object] = dict(completed or {})
        self.failed: dict[int, str] = dict(failed or {})
        self.n_tasks = n_tasks
        self.n_cancelled = n_cancelled


class SanitizerError(ReproError):
    """A numerical invariant was violated in an instrumented hot path.

    Raised only when the opt-in sanitizer (:mod:`repro.sanitize`) is
    active.  The attributes identify exactly where physics went wrong so
    a poisoned sweep can be traced to one operator at one energy point of
    one bias point.

    Attributes
    ----------
    operator:
        Name of the instrumented kernel (e.g. ``"recursive_greens_function"``).
    quantity:
        The checked quantity (e.g. ``"G^r diagonal block 3"``).
    energy_ev:
        Energy point at which the invariant failed, if applicable.
    bias:
        Human-readable bias description (e.g. ``"VG=0.4 V, VD=0.5 V"``).
    """

    def __init__(self, message: str, operator: str | None = None,
                 quantity: str | None = None, energy_ev: float | None = None,
                 bias: str | None = None):
        super().__init__(message)
        self.operator = operator
        self.quantity = quantity
        self.energy_ev = energy_ev
        self.bias = bias
