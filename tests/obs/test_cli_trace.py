"""End-to-end: `repro run --trace` manifests and `repro trace summarize`."""

from __future__ import annotations

import json

from repro import obs
from repro.cli import main
from repro.reporting import experiments


class TestRunTrace:
    def test_traced_run_writes_manifest_with_rollups(self, tmp_path, tech,
                                                     capsys, monkeypatch):
        # An earlier in-process experiment may have built the nominal
        # technology already; forget it so this run looks its table up.
        monkeypatch.setattr(experiments, "_NOMINAL", [])
        out = tmp_path / "report.txt"
        assert main(["run", "fig2", "--fast", "--trace",
                     "--out", str(out)]) == 0
        manifest_path = tmp_path / "report.txt.manifest.json"
        assert manifest_path.is_file()
        stdout = capsys.readouterr().out
        assert str(manifest_path) in stdout

        manifest = obs.load_manifest(manifest_path)
        assert manifest["label"] == "repro run fig2"
        assert manifest["config"] == {"experiments": ["fig2"],
                                      "fast": True}
        assert manifest["timing"]["wall_s"] > 0
        assert any(path.startswith("cli.run.fig2")
                   for path in manifest["spans"])

        roll = manifest["rollups"]
        for key in ("scf_iterations_total", "energy_grid_points_total",
                    "cache_hit_rate"):
            assert key in roll
        # The session-scoped tech fixture may have pre-built the device
        # table: then this run is one cache hit and no SCF work; on a
        # cold cache it is a full build with hundreds of SCF solves.
        assert roll["scf_iterations_total"] > 0 or roll["cache_hits"] > 0

    def test_untraced_run_writes_no_manifest(self, tmp_path, tech, capsys):
        out = tmp_path / "report.txt"
        assert main(["run", "fig2", "--fast", "--out", str(out)]) == 0
        assert not (tmp_path / "report.txt.manifest.json").exists()


class TestTraceSummarize:
    def _manifest(self, tmp_path) -> str:
        obs.enable()
        with obs.span("cli.run.demo"):
            obs.incr("scf.solves", 2)
            obs.incr("scf.iterations", 30)
            obs.observe("scf.iterations_to_converge", 15)
            obs.observe("scf.iterations_to_converge", 15)
        manifest = obs.build_manifest("repro run demo", wall_s=0.5)
        obs.disable()
        return str(obs.write_manifest(manifest,
                                      tmp_path / "demo.manifest.json"))

    def test_text_summary(self, tmp_path, capsys):
        path = self._manifest(tmp_path)
        assert main(["trace", "summarize", path]) == 0
        out = capsys.readouterr().out
        assert "run manifest: repro run demo" in out
        assert "rollups" in out
        assert "scf_iterations_total" in out
        assert "cli.run.demo" in out

    def test_json_summary(self, tmp_path, capsys):
        path = self._manifest(tmp_path)
        assert main(["trace", "summarize", path, "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["schema"] == "repro-obs-summary/1"
        assert summary["rollups"]["scf_iterations_total"] == 30
        assert summary["histograms"]["scf.iterations_to_converge"][
            "count"] == 2

    def test_top_limits_spans(self, tmp_path, capsys):
        path = self._manifest(tmp_path)
        assert main(["trace", "summarize", path, "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "top spans by total time (top 1)" in out

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        assert main(["trace", "summarize",
                     str(tmp_path / "absent.json")]) == 2
        assert "cannot read manifest" in capsys.readouterr().err

    def test_wrong_schema_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope/0"}))
        assert main(["trace", "summarize", str(bad)]) == 2
        assert "cannot read manifest" in capsys.readouterr().err
