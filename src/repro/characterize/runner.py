"""Characterization runner: execute experiments, extract, diff.

Experiments run through a :class:`~repro.runtime.scheduler.LocalScheduler`
at the run config's worker count (which keeps deterministic ordering,
drains worker observability payloads, falls back to a serial loop when
``workers <= 1``, and recomputes the tasks of a crashed worker serially
in the parent), each with the same :class:`~repro.config.RunConfig` —
then each data dictionary is reduced to figures of merit by its spec's
extractor and diffed against the committed golden.  When tracing is
active (:func:`repro.obs.enable` / ``REPRO_TRACE=1``) a per-run
manifest is assembled via :func:`repro.obs.build_manifest` so a
characterization run leaves the same audit trail as ``repro run``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from repro import obs
from repro.characterize.diffing import ExperimentDiff, diff_experiment
from repro.characterize.goldens import load_goldens
from repro.characterize.specs import SPECS
from repro.config import RunConfig
from repro.errors import GoldenError
from repro.runtime import LocalScheduler


@dataclass(frozen=True)
class CharacterizationRun:
    """One characterization pass: measurements, diffs and timings."""

    mode: str
    measured: dict[str, dict[str, float]]
    diffs: dict[str, ExperimentDiff]
    timings_s: dict[str, float]
    wall_s: float

    @property
    def ok(self) -> bool:
        """True when every requested experiment passed its golden."""
        return all(diff.ok for diff in self.diffs.values())

    def failing_ids(self) -> list[str]:
        """Experiments that drifted or are unblessed, in spec order."""
        return [eid for eid, diff in self.diffs.items() if not diff.ok]


def resolve_ids(only: str | None) -> list[str]:
    """Expand a ``--only a,b,c`` selector into validated experiment ids."""
    if not only:
        return list(SPECS)
    ids = [token.strip() for token in only.split(",") if token.strip()]
    unknown = [eid for eid in ids if eid not in SPECS]
    if unknown:
        raise GoldenError(
            f"unknown experiment id(s) {unknown}; known: {list(SPECS)}")
    return ids


def _measure_one(config: RunConfig, item: tuple[str, bool]
                 ) -> tuple[str, dict[str, float], float]:
    """Run one experiment and extract its figures of merit.

    Top-level so it pickles into worker processes; it only reads the
    spec registry and returns plain data (no module state is mutated).
    """
    experiment_id, fast = item
    spec = SPECS[experiment_id]
    start = time.perf_counter()
    with obs.span(f"characterize.{experiment_id}", fast=fast):
        # Import the runner lazily through the registry, matching the
        # ids pinned by tests against repro.reporting.experiments.
        from repro.reporting.experiments import run_experiment
        _, data = run_experiment(experiment_id, fast=fast, config=config)
        metrics = spec.extract(data)
    elapsed = time.perf_counter() - start
    return experiment_id, {k: float(v) for k, v in metrics.items()}, elapsed


def measure(ids: list[str], fast: bool = False,
            config: RunConfig | None = None,
            ) -> tuple[dict[str, dict[str, float]], dict[str, float]]:
    """Run experiments and return ``(measured, timings_s)`` by id.

    ``config`` (default :meth:`RunConfig.from_env`) sets the worker
    count across experiments and is passed on to each experiment.
    """
    config = RunConfig.from_env() if config is None else config
    items = [(eid, fast) for eid in ids]
    results = LocalScheduler(config.workers).run(
        partial(_measure_one, config), items)
    measured = {eid: metrics for eid, metrics, _ in results}
    timings = {eid: elapsed for eid, _, elapsed in results}
    return measured, timings


def characterize(ids: list[str] | None = None, fast: bool = False,
                 golden_root: Path | None = None,
                 config: RunConfig | None = None) -> CharacterizationRun:
    """Run experiments and diff them against the committed goldens."""
    selected = list(SPECS) if ids is None else ids
    wall_start = time.perf_counter()
    measured, timings = measure(selected, fast=fast, config=config)
    mode = "fast" if fast else "full"
    goldens = load_goldens(selected, root=golden_root)
    diffs = {
        eid: diff_experiment(SPECS[eid], measured[eid],
                             goldens.get(eid), mode)
        for eid in selected
    }
    return CharacterizationRun(mode=mode, measured=measured, diffs=diffs,
                               timings_s=timings,
                               wall_s=time.perf_counter() - wall_start)


def run_manifest(run: CharacterizationRun, ids: list[str],
                 config: RunConfig | None = None) -> dict:
    """Assemble an observability manifest for a characterization run."""
    return obs.build_manifest(
        label="repro characterize " + " ".join(ids),
        config={"experiments": ids, "mode": run.mode},
        wall_s=run.wall_s, run_config=config)
