"""Per-run JSON manifests: config, run config, timings, metric rollups.

A manifest is the durable artifact of a traced run: one JSON document
holding the run's configuration, the resolved
:class:`~repro.config.RunConfig` (every field, defaults included), the
git revision, interval timings (``perf_counter`` wall span, the
``process_time`` CPU span and the CPU of the worker processes the run
waited for — never absolute timestamps), the full
recorder snapshot, and a small set of *rollups* — the headline numbers
(SCF iterations, energy-grid evaluations, cache hit rate) that answer
"where did this run spend its effort" without reading the raw spans.

Writes are atomic (temp file + ``os.replace`` in the destination
directory), matching the artifact-cache discipline in
:mod:`repro.runtime.cache`.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import tempfile
from pathlib import Path
from typing import Any, Mapping

from repro.config import RunConfig

#: Schema tag stamped into every manifest; bump on breaking layout changes.
MANIFEST_SCHEMA = "repro-obs-manifest/1"


def git_revision() -> str | None:
    """Best-effort ``git rev-parse HEAD`` of the working tree, else None."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5.0, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def children_cpu_s() -> float:
    """User + system CPU seconds of this process's finished children
    (``getrusage(RUSAGE_CHILDREN)``); a run records its delta."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def compute_rollups(snapshot: Mapping[str, Any]) -> dict[str, Any]:
    """Headline aggregates derived from a recorder snapshot.

    Every key is always present (zero / ``None`` when the corresponding
    subsystem never ran), so downstream consumers can index without
    guards.  ``cache_hit_rate`` is ``None`` when no cache lookup
    happened at all — a 0.0 would wrongly read as "everything missed".
    ``cache_namespaces`` maps each artifact-cache namespace the run
    touched to its ``hits`` / ``misses`` / ``writes`` (empty if none).
    """
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})

    def count(name: str) -> float:
        return counters.get(name, 0)

    scf_solves = count("scf.solves")
    scf_iterations = count("scf.iterations")
    artifact_hits = count("cache.artifact_hits")
    artifact_misses = count("cache.artifact_misses")
    memory_hits = count("cache.table_memory_hits")
    hits = artifact_hits + memory_hits
    lookups = hits + artifact_misses

    # ``cache.<namespace>.hits|misses|writes``, one rollup per namespace.
    namespaces: dict[str, dict[str, float]] = {}
    for name, value in sorted(counters.items()):
        parts = name.split(".")
        if (len(parts) == 3 and parts[0] == "cache"
                and parts[2] in ("hits", "misses", "writes")):
            rollup = namespaces.setdefault(
                parts[1], {"hits": 0, "misses": 0, "writes": 0})
            rollup[parts[2]] = value

    iter_hist = histograms.get("scf.iterations_to_converge", {})
    return {
        "scf_solves": scf_solves,
        "scf_iterations_total": scf_iterations,
        "scf_iterations_mean": (
            scf_iterations / scf_solves if scf_solves else None),
        "scf_iterations_max": iter_hist.get("max"),
        "energy_grids_built": count("negf.energy_grids"),
        "energy_grid_points_total": count("negf.energy_grid_points"),
        "rgf_block_solves_total": count("negf.rgf_block_solves"),
        "chain_rgf_energy_points_total": count("negf.chain_energy_points"),
        "newton_iterations_total": count("circuit.newton_iterations"),
        "transient_steps_total": count("circuit.transient_steps"),
        "device_bias_points": count("device.bias_points"),
        "cache_hits": hits,
        "cache_misses": artifact_misses,
        "cache_hit_rate": (hits / lookups if lookups else None),
        "cache_writes": count("cache.artifact_writes"),
        "cache_namespaces": namespaces,
        "table_builds": count("cache.table_builds"),
        "table_memory_hits": memory_hits,
        "table_disk_hits": count("cache.table_disk_hits"),
        # Resilience: how often solves escalated, and what was lost.
        "resilience_retries": count("resilience.retries"),
        "scf_retries": count("scf.retries"),
        "sr_retries": count("negf.sr_retries"),
        "cells_quarantined": count("resilience.quarantined"),
        "ladders_exhausted": count("resilience.exhausted"),
        "worker_crash_recoveries": count("resilience.worker_crash_recoveries"),
    }


def build_manifest(label: str,
                   config: Mapping[str, Any] | None = None,
                   seed: int | None = None,
                   wall_s: float | None = None,
                   cpu_s: float | None = None,
                   snapshot: Mapping[str, Any] | None = None,
                   run_config: RunConfig | None = None,
                   cpu_children_s: float | None = None,
                   ) -> dict[str, Any]:
    """Assemble a manifest document from a recorder snapshot.

    ``snapshot`` defaults to the live process recorder
    (:func:`repro.obs.snapshot`).  ``wall_s`` / ``cpu_s`` /
    ``cpu_children_s`` are *interval* durations measured by the caller
    with ``time.perf_counter`` / ``time.process_time`` /
    :func:`children_cpu_s` deltas; the last is the CPU of the worker
    processes a parallel run waited for.  ``run_config`` is the resolved
    execution config (default :meth:`RunConfig.from_env`), recorded
    with every field.
    """
    if run_config is None:
        run_config = RunConfig.from_env()
    # Function-level import: manifest is imported while the obs package
    # ``__init__`` (which owns the live recorder) is still executing.
    from repro import obs
    snap = dict(snapshot) if snapshot is not None else obs.snapshot()
    return {
        "schema": MANIFEST_SCHEMA,
        "label": label,
        "config": dict(config) if config is not None else {},
        "seed": seed,
        "git_rev": git_revision(),
        "run_config": run_config.to_dict(),
        "timing": {"wall_s": wall_s, "cpu_s": cpu_s,
                   "cpu_children_s": cpu_children_s},
        "counters": snap.get("counters", {}),
        "gauges": snap.get("gauges", {}),
        "histograms": snap.get("histograms", {}),
        "spans": snap.get("spans", {}),
        "failures": snap.get("failures", []),
        "rollups": compute_rollups(snap),
    }


def write_manifest(manifest: Mapping[str, Any], path: str | Path) -> Path:
    """Atomically write a manifest as indented JSON; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(manifest, indent=2, sort_keys=False)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text + "\n")
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def load_manifest(path: str | Path) -> dict[str, Any]:
    """Read a manifest back; raises ValueError on a wrong schema tag."""
    with open(path) as handle:
        manifest = json.load(handle)
    schema = manifest.get("schema")
    if schema != MANIFEST_SCHEMA:
        raise ValueError(
            f"{path}: unsupported manifest schema {schema!r} "
            f"(expected {MANIFEST_SCHEMA!r})")
    return manifest
