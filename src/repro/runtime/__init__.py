"""Shared execution substrate: the experiment pool + persistent caching.

Whole experiments fan out through
:class:`repro.runtime.scheduler.LocalScheduler` (a process pool over
:func:`repro.runtime.parallel.parallel_map`); every sweep inside an
experiment — device ``I_D/Q(V_G, V_D)`` grids, the V_DD-V_T exploration
plane, the ring-oscillator Monte Carlo — runs in-process, and the
expensive self-consistent device tables persist across processes
through :class:`repro.runtime.cache.ArtifactCache` (so do Fig. 5's
NEGF bias points and the edge-roughness transmission ensembles).

How a run executes — worker count, failure policy, the cache root —
comes from the :class:`~repro.config.RunConfig` it is handed (see
:mod:`repro.config` for the ``REPRO_*`` knobs).  The two
process-wide switches (tracing, the sanitizer) are set once per process
by :func:`activate`; worker processes get the parent's switches from
the pool initializer.
"""

from repro import obs, sanitize
from repro.config import RunConfig
from repro.runtime.cache import (
    TABLE_ENGINE_VERSION,
    ArtifactCache,
    canonical_repr,
    content_key,
    load_or_build,
)
from repro.runtime.parallel import (
    parallel_map,
    resolve_workers,
    spawn_seed_sequences,
)
from repro.runtime.scheduler import LocalScheduler
from repro.runtime.resilience import (
    FailureRecord,
    quarantine,
    recover_parallel,
    run_ladder,
)


def activate(config: RunConfig) -> None:
    """Switch on what ``config`` asks of this process.

    Tracing and the numerical sanitizer are process-wide; an entry
    point calls this once after resolving its config.  Switches already
    on stay on.
    """
    if config.trace:
        obs.enable()
    if config.sanitize:
        sanitize.enable()


__all__ = [
    "ArtifactCache",
    "FailureRecord",
    "LocalScheduler",
    "TABLE_ENGINE_VERSION",
    "activate",
    "canonical_repr",
    "content_key",
    "load_or_build",
    "parallel_map",
    "quarantine",
    "recover_parallel",
    "resolve_workers",
    "run_ladder",
    "spawn_seed_sequences",
]
