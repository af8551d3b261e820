"""Characterization runner: the experiment fan-out, extraction, diffs.

:func:`run_experiments` is the one place a run goes parallel: both
``repro run`` and ``repro characterize`` hand it their experiment ids,
and it runs them through a :class:`~repro.runtime.scheduler.LocalScheduler`
at the run config's worker count, one pool task per experiment (which
keeps deterministic ordering, drains worker observability payloads,
falls back to a serial loop when ``workers <= 1`` or there is only one
experiment, and recomputes the experiments of a crashed worker serially
in the parent).  Every sweep inside an experiment runs in-process, so
the results are those of a serial run at any worker count.  For
``characterize`` each data dictionary is reduced to figures of merit by
its spec's extractor in the worker and diffed against the committed
golden.  When tracing is active (:func:`repro.obs.enable` /
``REPRO_TRACE=1``) a per-run manifest is assembled via
:func:`repro.obs.build_manifest` so a characterization run leaves the
same audit trail as ``repro run``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, TypeVar

from repro import obs
from repro.characterize.diffing import ExperimentDiff, diff_experiment
from repro.characterize.goldens import load_goldens
from repro.characterize.specs import SPECS
from repro.config import RunConfig
from repro.errors import GoldenError
from repro.runtime import LocalScheduler

R = TypeVar("R")


@dataclass(frozen=True)
class CharacterizationRun:
    """One characterization pass: measurements, diffs and timings."""

    mode: str
    measured: dict[str, dict[str, float]]
    diffs: dict[str, ExperimentDiff]
    timings_s: dict[str, float]
    wall_s: float
    cpu_s: float | None = None
    cpu_children_s: float | None = None

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


def report_of(experiment_id: str, report: str, data: dict) -> str:
    """What ``repro run`` keeps of an experiment: its report text."""
    return report


def metrics_of(experiment_id: str, report: str, data: dict
               ) -> dict[str, float]:
    """What ``repro characterize`` keeps: the spec's figures of merit."""
    metrics = SPECS[experiment_id].extract(data)
    return {k: float(v) for k, v in metrics.items()}


def _run_one(config: RunConfig, fast: bool, span: str,
             keep: Callable[[str, str, dict], R], experiment_id: str
             ) -> tuple[R, float]:
    """Run one experiment and reduce it with ``keep`` (top-level so it
    pickles into worker processes; only plain data comes back)."""
    # Imported here: the registry pulls in every experiment's layers.
    from repro.reporting.experiments import run_experiment
    start = time.perf_counter()
    with obs.span(f"{span}.{experiment_id}", fast=fast):
        report, data = run_experiment(experiment_id, fast=fast, config=config)
        kept = keep(experiment_id, report, data)
    return kept, time.perf_counter() - start


def run_experiments(ids: list[str], fast: bool, config: RunConfig,
                    keep: Callable[[str, str, dict], R],
                    span: str = "characterize",
                    ) -> list[tuple[R, float]]:
    """Run experiments, one pool task each; ``(kept, seconds)`` by id order.

    ``config.workers`` experiments run at once (serial when it is 1 or
    there is one id); each gets ``config`` and runs its sweeps
    in-process.  ``keep`` reduces an experiment's ``(id, report, data)``
    in the worker so only what the caller needs crosses the process
    boundary; ``span`` prefixes each experiment's trace span.  A worker
    crash recomputes the undelivered experiments in the parent unless
    ``config.strict``.
    """
    return LocalScheduler(config.workers).run(
        partial(_run_one, config, fast, span, keep), ids,
        strict=config.strict)


def measure(ids: list[str], fast: bool = False,
            config: RunConfig | None = None,
            ) -> tuple[dict[str, dict[str, float]], dict[str, float]]:
    """Run experiments and return ``(measured, timings_s)`` by id.

    ``config`` (default :meth:`RunConfig.from_env`) sets the worker
    count across experiments and is passed on to each experiment.
    """
    config = RunConfig.from_env() if config is None else config
    results = run_experiments(ids, fast, config, metrics_of)
    measured = {eid: metrics for eid, (metrics, _) in zip(ids, results)}
    timings = {eid: elapsed for eid, (_, elapsed) in zip(ids, results)}
    return measured, timings


def characterize(ids: list[str] | None = None, fast: bool = False,
                 golden_root: Path | None = None,
                 config: RunConfig | None = None) -> CharacterizationRun:
    """Run experiments and diff them against the committed goldens."""
    selected = list(SPECS) if ids is None else ids
    wall_start = time.perf_counter()
    cpu_start, children_start = time.process_time(), obs.children_cpu_s()
    measured, timings = measure(selected, fast=fast, config=config)
    mode = "fast" if fast else "full"
    goldens = load_goldens(selected, root=golden_root)
    diffs = {
        eid: diff_experiment(SPECS[eid], measured[eid],
                             goldens.get(eid), mode)
        for eid in selected
    }
    return CharacterizationRun(
        mode=mode, measured=measured, diffs=diffs, timings_s=timings,
        wall_s=time.perf_counter() - wall_start,
        cpu_s=time.process_time() - cpu_start,
        cpu_children_s=obs.children_cpu_s() - children_start)


def run_manifest(run: CharacterizationRun, ids: list[str],
                 config: RunConfig | None = None) -> dict:
    """Assemble an observability manifest for a characterization run."""
    return obs.build_manifest(
        label="repro characterize " + " ".join(ids),
        config={"experiments": ids, "mode": run.mode},
        wall_s=run.wall_s, cpu_s=run.cpu_s,
        cpu_children_s=run.cpu_children_s, run_config=config)
