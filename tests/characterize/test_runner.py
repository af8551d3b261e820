"""The experiment fan-out: the one place a run goes parallel."""

from __future__ import annotations

import re

import pytest

from repro import cli, obs
from repro.characterize.runner import (
    characterize,
    measure,
    metrics_of,
    run_experiments,
    run_manifest,
)
from repro.config import RunConfig
from repro.errors import ParallelMapError
from repro.reporting.experiments import EXPERIMENTS
from tests.worker_crash import exit_in_worker

#: Two cheap fast experiments: four small 16 x 2 I-V tables, and two
#: temperature tables.  Neither builds the process-wide nominal
#: technology, whose first build a later CLI trace test counts.
IDS = ["fig4", "ext-temperature"]


@pytest.fixture(autouse=True)
def _reset_obs():
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _metrics_crashing_on_fig4(experiment_id, report, data):
    """:func:`metrics_of`, whose ``fig4`` call exits the worker running
    it."""
    if experiment_id == "fig4":
        exit_in_worker()
    return metrics_of(experiment_id, report, data)


@pytest.fixture(scope="module")
def serial():
    measured, _ = measure(IDS, fast=True, config=RunConfig())
    return measured


def test_measure_is_equal_at_one_and_two_workers(serial):
    pooled, _ = measure(IDS, fast=True, config=RunConfig(workers=2))
    assert list(serial) == list(pooled) == IDS
    assert serial == pooled


def test_crashed_worker_experiment_is_recomputed(serial):
    """The worker running fig4 exits; the undelivered experiments are
    recomputed in the parent."""
    obs.enable()
    results = run_experiments(IDS, True, RunConfig(workers=2),
                              _metrics_crashing_on_fig4)
    recovered = {eid: metrics for eid, (metrics, _) in zip(IDS, results)}
    assert recovered == serial
    counters = obs.snapshot()["counters"]
    assert counters["resilience.worker_crash_recoveries"] == 1
    assert counters["resilience.rows_recomputed"] >= 1


def test_strict_propagates_pool_failure():
    with pytest.raises(ParallelMapError):
        run_experiments(IDS, True, RunConfig(workers=2, strict=True),
                        _metrics_crashing_on_fig4)


def test_run_reports_are_equal_at_one_and_two_workers(tmp_path, monkeypatch,
                                                      capsys):
    """``repro run all`` (narrowed to the two cheap experiments) writes
    the same reports serially and on two workers, timing banners
    aside."""
    monkeypatch.setattr(cli, "EXPERIMENTS", {k: EXPERIMENTS[k] for k in IDS})
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"report-{workers}.txt"
        assert cli.main(["run", "all", "--fast", "--workers", workers,
                         "--out", str(out)]) == 0
        reports.append(re.sub(r"=== (\S+) \([\d.]+ s\) ===", r"=== \1 ===",
                              out.read_text()))
    capsys.readouterr()
    assert reports[0] == reports[1]
    assert [line for line in reports[0].splitlines()
            if line.startswith("===")] == [f"=== {k} ===" for k in IDS]


def test_manifests_record_the_workers_cpu(tmp_path, monkeypatch, capsys):
    """On two workers the experiments run in child processes: both
    manifests record the children's CPU next to the parent's."""
    monkeypatch.setattr(cli, "EXPERIMENTS", {k: EXPERIMENTS[k] for k in IDS})
    out = tmp_path / "report.txt"
    assert cli.main(["run", "all", "--fast", "--workers", "2", "--trace",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = obs.load_manifest(tmp_path / "report.txt.manifest.json")
    assert manifest["timing"]["cpu_s"] >= 0
    assert manifest["timing"]["cpu_children_s"] > 0
    assert "children cpu" in obs.summarize_text(manifest)

    run = characterize(IDS, fast=True, config=RunConfig(workers=2))
    assert run.cpu_s is not None and run.cpu_children_s > 0
    timing = run_manifest(run, IDS)["timing"]
    assert (timing["cpu_s"], timing["cpu_children_s"]) == (
        run.cpu_s, run.cpu_children_s)
