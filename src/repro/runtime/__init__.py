"""Shared execution substrate: process-pool sweeps + persistent caching.

Every sweep layer in the repo — device ``I_D/Q(V_G, V_D)`` grids, the
V_DD-V_T exploration plane, the ring-oscillator Monte Carlo — dispatches
through :class:`repro.runtime.scheduler.LocalScheduler` (a process pool
over :func:`repro.runtime.parallel.parallel_map`), and the expensive
self-consistent device tables persist across processes through
:class:`repro.runtime.cache.ArtifactCache`.

Environment knobs
-----------------
``REPRO_WORKERS``
    Default worker count for every sweep (overridden per-call by the
    ``workers`` argument; ``<=1`` means serial).
``REPRO_CACHE_DIR``
    Cache root (default ``~/.cache/repro-gnrfet``).
``REPRO_NO_CACHE``
    Any non-empty value disables the on-disk cache.
``REPRO_TRACE``
    Enables :mod:`repro.obs` tracing; worker processes inherit it and
    forward their recorded metrics back to the parent in chunk order.
``REPRO_STRICT``
    Truthy value flips every sweep back to raise-on-first-failure
    instead of quarantining failed cells (see
    :mod:`repro.runtime.resilience`).
``REPRO_CHECKPOINT`` / ``REPRO_RESUME``
    Checkpoint interval in sweep units, and whether to resume from an
    existing checkpoint (see :mod:`repro.runtime.resilience`).
``REPRO_FAULTS``
    Deterministic fault-injection plan for exercising the recovery
    paths (see :mod:`repro.runtime.faults`).
"""

from repro.runtime.cache import (
    CACHE_DIR_ENV,
    NO_CACHE_ENV,
    TABLE_ENGINE_VERSION,
    ArtifactCache,
    cache_enabled,
    cache_root,
    canonical_repr,
    clear_all,
    content_key,
)
from repro.runtime.faults import FAULTS_ENV
from repro.runtime.parallel import (
    WORKERS_ENV,
    batch_indices,
    default_chunk_size,
    guided_chunk_plan,
    in_worker,
    parallel_map,
    resolve_workers,
    spawn_seed_sequences,
)
from repro.runtime.scheduler import (
    LocalScheduler,
    Scheduler,
    resolve_scheduler,
)
from repro.runtime.resilience import (
    CHECKPOINT_ENV,
    RESUME_ENV,
    STRICT_ENV,
    FailureRecord,
    SweepCheckpoint,
    checkpoint_interval,
    quarantine,
    recover_parallel,
    resume_enabled,
    run_ladder,
    strict_default,
)

__all__ = [
    "ArtifactCache",
    "CACHE_DIR_ENV",
    "CHECKPOINT_ENV",
    "FAULTS_ENV",
    "FailureRecord",
    "LocalScheduler",
    "NO_CACHE_ENV",
    "RESUME_ENV",
    "STRICT_ENV",
    "Scheduler",
    "SweepCheckpoint",
    "TABLE_ENGINE_VERSION",
    "WORKERS_ENV",
    "batch_indices",
    "cache_enabled",
    "cache_root",
    "canonical_repr",
    "checkpoint_interval",
    "clear_all",
    "content_key",
    "default_chunk_size",
    "guided_chunk_plan",
    "in_worker",
    "parallel_map",
    "quarantine",
    "recover_parallel",
    "resolve_scheduler",
    "resolve_workers",
    "resume_enabled",
    "run_ladder",
    "spawn_seed_sequences",
    "strict_default",
]
