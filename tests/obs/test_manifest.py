"""Manifest assembly, atomic persistence, rollups, and summaries."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import obs
from repro.config import RunConfig


def _traced_snapshot() -> dict:
    """A small but fully populated recorder snapshot."""
    obs.enable()
    with obs.span("cli.run.fig2", fast=True):
        with obs.span("device.build_table", n_index=12):
            obs.incr("cache.table_builds")
        obs.incr("scf.solves", 4)
        obs.incr("scf.iterations", 80)
        for iters in (15, 20, 25, 20):
            obs.observe("scf.iterations_to_converge", iters)
        obs.incr("negf.energy_grids", 4)
        obs.incr("negf.energy_grid_points", 4 * 301)
        obs.incr("cache.artifact_misses")
        obs.incr("cache.artifact_hits", 3)
        obs.gauge("grid.final_points", 301)
    return obs.snapshot()


class TestRollups:
    def test_headline_rollups(self):
        roll = obs.compute_rollups(_traced_snapshot())
        assert roll["scf_solves"] == 4
        assert roll["scf_iterations_total"] == 80
        assert roll["scf_iterations_mean"] == 20.0
        assert roll["scf_iterations_max"] == 25
        assert roll["energy_grids_built"] == 4
        assert roll["energy_grid_points_total"] == 4 * 301
        assert roll["cache_hits"] == 3
        assert roll["cache_misses"] == 1
        assert roll["cache_hit_rate"] == pytest.approx(0.75)
        assert roll["table_builds"] == 1

    def test_every_key_present_for_empty_snapshot(self):
        roll = obs.compute_rollups({"counters": {}, "histograms": {}})
        assert roll["scf_solves"] == 0
        assert roll["scf_iterations_mean"] is None
        # No lookups at all must not read as "everything missed".
        assert roll["cache_hit_rate"] is None
        assert roll["transient_steps_total"] == 0
        assert roll["device_bias_points"] == 0

    def test_no_scheduler_rollups(self):
        roll = obs.compute_rollups({"counters": {}, "histograms": {}})
        assert not [k for k in roll
                    if k.startswith(("scheduler", "lease", "agent"))]
        assert "deadlines_exceeded" not in roll

    def test_memory_hits_count_as_cache_hits(self):
        roll = obs.compute_rollups(
            {"counters": {"cache.table_memory_hits": 2,
                          "cache.artifact_misses": 2}})
        assert roll["cache_hits"] == 2
        assert roll["cache_hit_rate"] == pytest.approx(0.5)


class TestManifestDocument:
    def test_build_uses_live_recorder_by_default(self):
        _traced_snapshot()
        manifest = obs.build_manifest("unit test", config={"fast": True},
                                      seed=7, wall_s=1.5, cpu_s=1.2)
        assert manifest["schema"] == obs.MANIFEST_SCHEMA
        assert manifest["label"] == "unit test"
        assert manifest["config"] == {"fast": True}
        assert manifest["seed"] == 7
        assert manifest["timing"] == {"wall_s": 1.5, "cpu_s": 1.2,
                                      "cpu_children_s": None}
        assert manifest["counters"]["scf.solves"] == 4
        assert manifest["rollups"]["scf_iterations_total"] == 80
        assert "cli.run.fig2" in manifest["spans"]

    def test_env_knobs_are_captured(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        manifest = obs.build_manifest("env test")
        assert manifest["run_config"]["workers"] == 4
        assert set(manifest["run_config"]) == {
            f.name for f in dataclasses.fields(RunConfig)}

    def test_resolved_run_config_is_recorded_whole(self):
        config = RunConfig(workers=3, strict=True, faults="scf@1")
        manifest = obs.build_manifest("config test", run_config=config)
        assert manifest["run_config"] == {
            "workers": 3, "strict": True, "faults": "scf@1",
            "use_cache": True, "cache_dir": None, "trace": False,
            "sanitize": False}
        assert "env" not in manifest
        text = obs.summarize_text(manifest)
        assert ("  run config: workers=3 strict=True faults=scf@1 "
                "use_cache=True cache_dir=None trace=False "
                "sanitize=False") in text
        assert obs.summarize_json(manifest)["run_config"] == \
            manifest["run_config"]

    def test_git_revision_is_none_outside_a_repo(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert obs.git_revision() is None


class TestPersistence:
    def test_round_trip_and_atomicity(self, tmp_path):
        _traced_snapshot()
        manifest = obs.build_manifest("round trip")
        path = obs.write_manifest(manifest, tmp_path / "run.manifest.json")
        assert path.is_file()
        # Atomic write leaves no temp files behind.
        assert [p.name for p in tmp_path.iterdir()] == ["run.manifest.json"]
        loaded = obs.load_manifest(path)
        assert loaded == json.loads(json.dumps(manifest))

    def test_wrong_schema_is_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "something-else/9"}))
        with pytest.raises(ValueError, match="unsupported manifest schema"):
            obs.load_manifest(bad)

    def test_legacy_annotations_block_still_loads(self, tmp_path):
        # Older manifests carry an "annotations" block; it must still
        # load and summarize.
        _traced_snapshot()
        manifest = obs.build_manifest("legacy")
        assert "annotations" not in manifest
        manifest["annotations"] = {"scheduler_kind": "LocalScheduler"}
        path = obs.write_manifest(manifest, tmp_path / "old.manifest.json")
        loaded = obs.load_manifest(path)
        assert loaded["annotations"] == {"scheduler_kind": "LocalScheduler"}
        assert "run manifest: legacy" in obs.summarize_text(loaded)
        json.dumps(obs.summarize_json(loaded))

    def test_env_block_of_older_manifests_still_summarizes(self, tmp_path):
        # Manifests written before the run_config block carry the raw
        # REPRO_* environment instead.
        _traced_snapshot()
        manifest = obs.build_manifest("older")
        del manifest["run_config"]
        manifest["env"] = {"REPRO_TRACE": "1", "REPRO_WORKERS": "2"}
        path = obs.write_manifest(manifest, tmp_path / "old.manifest.json")
        loaded = obs.load_manifest(path)
        text = obs.summarize_text(loaded)
        assert "  env: REPRO_TRACE=1 REPRO_WORKERS=2" in text
        assert "run config:" not in text
        summary = obs.summarize_json(loaded)
        assert summary["env"] == {"REPRO_TRACE": "1", "REPRO_WORKERS": "2"}
        assert summary["run_config"] is None

        # Manifests written while sweeps could checkpoint record nine
        # run_config fields and two checkpoint rollups.
        manifest = obs.build_manifest("nine fields")
        manifest["run_config"] = {
            "workers": 1, "strict": False, "checkpoint": 2, "resume": True,
            "faults": "", "use_cache": True, "cache_dir": None,
            "trace": True, "sanitize": False}
        manifest["rollups"].update(checkpoint_writes=3,
                                   checkpoint_resumes=1)
        path = obs.write_manifest(manifest, tmp_path / "nine.manifest.json")
        loaded = obs.load_manifest(path)
        text = obs.summarize_text(loaded)
        assert ("  run config: workers=1 strict=False checkpoint=2 "
                "resume=True faults= use_cache=True cache_dir=None "
                "trace=True sanitize=False") in text
        assert "checkpoint_resumes" in text
        summary = obs.summarize_json(loaded)
        assert summary["run_config"] == manifest["run_config"]
        assert summary["rollups"]["checkpoint_writes"] == 3
        json.dumps(summary)

    def test_parent_directories_are_created(self, tmp_path):
        manifest = obs.build_manifest("nested")
        path = obs.write_manifest(manifest, tmp_path / "a/b/m.json")
        assert path.is_file()


class TestSummaries:
    def test_text_summary_sections(self):
        _traced_snapshot()
        manifest = obs.build_manifest("text test", wall_s=2.0, cpu_s=1.0)
        text = obs.summarize_text(manifest)
        assert "run manifest: text test" in text
        assert "rollups" in text
        assert "scf_iterations_total" in text
        assert "top spans by total time" in text
        assert "cli.run.fig2" in text
        assert "scf.iterations_to_converge" in text

    def test_json_summary_reduces_histograms(self):
        _traced_snapshot()
        manifest = obs.build_manifest("json test")
        summary = obs.summarize_json(manifest)
        assert summary["schema"] == "repro-obs-summary/1"
        h = summary["histograms"]["scf.iterations_to_converge"]
        assert h == {"count": 4, "min": 15, "max": 25, "mean": 20.0}
        assert "values" not in h
        # Must be JSON-serializable end to end.
        json.dumps(summary)

    def test_top_spans_ranked_by_total_time(self):
        _traced_snapshot()
        manifest = obs.build_manifest("rank test")
        ranked = obs.top_spans(manifest, top=2)
        assert len(ranked) == 2
        assert ranked[0]["total_s"] >= ranked[1]["total_s"]
        # The outermost span contains all the others.
        assert ranked[0]["path"] == "cli.run.fig2"

    def test_top_limits_the_span_list(self):
        _traced_snapshot()
        manifest = obs.build_manifest("limit test")
        assert len(obs.top_spans(manifest, top=1)) == 1
