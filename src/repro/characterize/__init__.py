"""Golden-regression characterization harness.

Declares every paper experiment as an :class:`ExperimentSpec` (runner,
figures of merit, paper reference values, per-metric tolerances), runs
them through the experiment fan-out of :mod:`repro.characterize.runner`
(the one place a run goes parallel), diffs the extracted metrics
against committed golden JSONs under ``goldens/`` (schema
``repro-golden/1``), and renders the
``docs/experiments/`` pages from the same source of truth so the
documentation can never drift from the measurements.

Entry points: ``repro characterize`` (see :mod:`repro.characterize.cli`)
or ``python -m repro.characterize``.
"""

from __future__ import annotations

from repro.characterize.diffing import (
    ExperimentDiff,
    MetricDiff,
    diff_experiment,
)
from repro.characterize.goldens import (
    GOLDEN_DIR,
    GOLDEN_SCHEMA,
    bless_golden,
    golden_path,
    load_golden,
    load_goldens,
)
from repro.characterize.runner import CharacterizationRun, characterize
from repro.characterize.specs import SPECS, ExperimentSpec, MetricSpec

__all__ = [
    "GOLDEN_DIR",
    "GOLDEN_SCHEMA",
    "CharacterizationRun",
    "ExperimentDiff",
    "ExperimentSpec",
    "MetricDiff",
    "MetricSpec",
    "SPECS",
    "bless_golden",
    "characterize",
    "diff_experiment",
    "golden_path",
    "load_golden",
    "load_goldens",
]
