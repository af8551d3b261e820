"""Shared execution substrate: process-pool sweeps + persistent caching.

Every sweep layer in the repo — device ``I_D/Q(V_G, V_D)`` grids, the
V_DD-V_T exploration plane, the ring-oscillator Monte Carlo — dispatches
through :class:`repro.runtime.scheduler.LocalScheduler` (a process pool
over :func:`repro.runtime.parallel.parallel_map`), and the expensive
self-consistent device tables persist across processes through
:class:`repro.runtime.cache.ArtifactCache`.

How a sweep executes — worker count, failure policy, checkpoints, the
cache root — comes from the :class:`~repro.config.RunConfig` it is
handed (see :mod:`repro.config` for the ``REPRO_*`` knobs).  The three
process-wide switches (tracing, the sanitizer, a fault plan) are set
once per process by :func:`activate`; worker processes get the parent's
switches from the pool initializer.
"""

from repro import obs, sanitize
from repro.config import RunConfig
import repro.runtime.faults as faults
from repro.runtime.cache import (
    TABLE_ENGINE_VERSION,
    ArtifactCache,
    canonical_repr,
    content_key,
)
from repro.runtime.parallel import (
    batch_indices,
    default_chunk_size,
    guided_chunk_plan,
    in_worker,
    parallel_map,
    resolve_workers,
    spawn_seed_sequences,
)
from repro.runtime.scheduler import LocalScheduler
from repro.runtime.resilience import (
    CHECKPOINT_NAMESPACE,
    FailureRecord,
    SweepCheckpoint,
    quarantine,
    recover_parallel,
    run_ladder,
)


def activate(config: RunConfig) -> None:
    """Switch on what ``config`` asks of this process.

    Tracing, the numerical sanitizer and the fault plan are
    process-wide; an entry point calls this once after resolving its
    config.  Switches already on stay on.
    """
    if config.trace:
        obs.enable()
    if config.sanitize:
        sanitize.enable()
    if config.faults:
        faults.enable(config.faults)


__all__ = [
    "ArtifactCache",
    "CHECKPOINT_NAMESPACE",
    "FailureRecord",
    "LocalScheduler",
    "SweepCheckpoint",
    "TABLE_ENGINE_VERSION",
    "activate",
    "batch_indices",
    "canonical_repr",
    "content_key",
    "default_chunk_size",
    "guided_chunk_plan",
    "in_worker",
    "parallel_map",
    "quarantine",
    "recover_parallel",
    "resolve_workers",
    "run_ladder",
    "spawn_seed_sequences",
]
