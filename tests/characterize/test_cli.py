"""CLI exit-code contract (0 clean / 1 drift / 2 usage) and reports.

Experiment execution is stubbed through ``runner.measure`` so the
contract tests stay in milliseconds; the real physics is covered by the
benchmarks and the committed-golden tests.
"""

from __future__ import annotations

import json

import pytest

from repro.characterize import cli, runner
from repro.characterize.goldens import bless_golden, load_golden
from repro.characterize.markdown import write_docs
from repro.characterize.runner import CharacterizationRun, resolve_ids
from repro.characterize.specs import SPECS
from repro.errors import GoldenError


@pytest.fixture
def sandbox(tmp_path, monkeypatch):
    """Run the CLI against a temp repo root with one blessed golden."""
    monkeypatch.chdir(tmp_path)
    bless_golden("fig2", "fast",
                 {name: 1.0 for name in SPECS["fig2"].metric_names()},
                 reason="seed")
    return tmp_path


def _stub_measure(monkeypatch, value: float):
    def fake_measure(ids, fast=False, config=None):
        measured = {eid: {name: value
                          for name in SPECS[eid].metric_names()}
                    for eid in ids}
        return measured, {eid: 0.0 for eid in ids}
    monkeypatch.setattr(runner, "measure", fake_measure)


class TestUsageErrors:
    def test_update_without_reason_is_usage_error(self, capsys):
        assert cli.main(["--update"]) == 2
        assert "--reason" in capsys.readouterr().err

    def test_update_with_docs_is_usage_error(self, capsys):
        assert cli.main(["--update", "--docs", "--reason", "r"]) == 2

    def test_unknown_only_id_is_usage_error(self, capsys):
        assert cli.main(["--check", "--only", "fig99"]) == 2
        assert "fig99" in capsys.readouterr().err

    def test_resolve_ids_rejects_unknown(self):
        with pytest.raises(GoldenError):
            resolve_ids("fig2,bogus")
        assert resolve_ids(None) == list(SPECS)
        assert resolve_ids("table1, fig2") == ["table1", "fig2"]


class TestCheck:
    def test_matching_run_exits_zero(self, sandbox, monkeypatch, capsys):
        _stub_measure(monkeypatch, 1.0)
        assert cli.main(["--check", "--fast", "--only", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "fig2: ok" in out
        assert "1/1 experiment(s) pass" in out

    def test_violation_exits_one_with_per_metric_report(
            self, sandbox, monkeypatch, capsys):
        _stub_measure(monkeypatch, 2.0)  # way past every tolerance
        assert cli.main(["--check", "--fast", "--only", "fig2"]) == 1
        out = capsys.readouterr().out
        assert "fig2: FAIL" in out
        assert "[FAIL]" in out
        assert "allowance" in out

    def test_unblessed_experiment_exits_one(self, sandbox, monkeypatch,
                                            capsys):
        _stub_measure(monkeypatch, 1.0)
        assert cli.main(["--check", "--fast", "--only", "table1"]) == 1
        assert "UNBLESSED" in capsys.readouterr().out

    def test_json_report_schema(self, sandbox, monkeypatch, capsys):
        _stub_measure(monkeypatch, 1.0)
        assert cli.main(["--check", "--fast", "--only", "fig2",
                         "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-characterize-report/1"
        assert doc["ok"] is True
        assert doc["experiments"]["fig2"]["status"] == "pass"
        names = {m["name"]
                 for m in doc["experiments"]["fig2"]["metrics"]}
        assert names == set(SPECS["fig2"].metric_names())


class TestUpdate:
    def test_update_blesses_and_writes_docs(self, sandbox, monkeypatch):
        _stub_measure(monkeypatch, 3.0)
        assert cli.main(["--update", "--fast", "--only", "fig2",
                         "--reason", "recalibrated"]) == 0
        golden = load_golden("fig2")
        assert golden["reason"] == "recalibrated"
        assert golden["modes"]["fast"]["vt_zero_offset_v"] == 3.0
        assert (sandbox / "docs" / "experiments" / "fig2.md").is_file()
        assert (sandbox / "docs" / "experiments" / "index.md").is_file()

    def test_update_round_trip_is_bitwise_stable(self, sandbox,
                                                 monkeypatch):
        _stub_measure(monkeypatch, 1.0)
        args = ["--update", "--fast", "--only", "fig2",
                "--reason", "seed"]
        assert cli.main(args) == 0
        golden_bytes = (sandbox / "goldens" / "fig2.json").read_bytes()
        page_bytes = (sandbox / "docs" / "experiments"
                      / "fig2.md").read_bytes()
        assert cli.main(args) == 0
        assert (sandbox / "goldens"
                / "fig2.json").read_bytes() == golden_bytes
        assert (sandbox / "docs" / "experiments"
                / "fig2.md").read_bytes() == page_bytes


class TestDocs:
    def test_docs_writes_pages(self, sandbox, capsys):
        assert cli.main(["--docs"]) == 0
        pages = list((sandbox / "docs" / "experiments").glob("*.md"))
        assert len(pages) == len(SPECS) + 1

    def test_docs_check_clean_after_write(self, sandbox):
        assert cli.main(["--docs"]) == 0
        assert cli.main(["--docs", "--check"]) == 0

    def test_docs_check_flags_drift(self, sandbox, capsys):
        assert cli.main(["--docs"]) == 0
        page = sandbox / "docs" / "experiments" / "fig2.md"
        page.write_text(page.read_text() + "tampered\n")
        assert cli.main(["--docs", "--check"]) == 1
        assert "drift" in capsys.readouterr().out


class TestRunDataclass:
    def test_failing_ids_ordering(self):
        from repro.characterize.diffing import ExperimentDiff
        diffs = {
            "a": ExperimentDiff("a", "fast", "pass", ()),
            "b": ExperimentDiff("b", "fast", "fail", ()),
            "c": ExperimentDiff("c", "fast", "unblessed", ()),
        }
        run = CharacterizationRun(mode="fast", measured={}, diffs=diffs,
                                  timings_s={}, wall_s=0.0)
        assert run.failing_ids() == ["b", "c"]
        assert not run.ok
