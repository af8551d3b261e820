"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.config import CACHE_DIR_ENV, NO_CACHE_ENV
from repro.runtime.cache import ArtifactCache

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_cli_loads_no_scipy(tmp_path):
    """CLI start-up stays numpy-only: scipy (behind the Poisson solvers)
    loads with the first NEGF device, not with ``import repro.cli``."""
    script = ("import sys, repro.cli; print(sorted(m for m in sys.modules"
              " if m.split('.')[0] == 'scipy'))")
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "table1" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["run", "fig99"]) == 2

    def test_run_writes_output_file(self, tmp_path, tech, capsys):
        out = tmp_path / "report.txt"
        assert main(["run", "fig2", "--fast", "--out", str(out)]) == 0
        assert "Fig 2" in out.read_text()


class TestCacheCommand:
    @pytest.fixture()
    def root(self, tmp_path, monkeypatch):
        """A cache root holding two namespaces, a temp file and a file
        that is not an artifact."""
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        tables = ArtifactCache("tables", root=tmp_path, enabled=True)
        tables.put("t1", x=np.zeros(2))
        tables.put("t2", x=np.ones(2))
        ArtifactCache("negf", root=tmp_path, enabled=True).put(
            "n1", x=np.ones(3))
        (tmp_path / "negf" / "stale.tmp").write_bytes(b"half")
        (tmp_path / "negf" / "notes.txt").write_text("keep me")
        return tmp_path

    @pytest.mark.parametrize("no_cache", ["0", "1"])
    def test_info_lists_every_namespace(self, root, capsys, monkeypatch,
                                        no_cache):
        monkeypatch.setenv(NO_CACHE_ENV, no_cache)
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert f"cache root:  {root}" in out
        assert f"enabled:     {no_cache == '0'}" in out
        assert "negf:        1 artifact(s)" in out
        assert "tables:      2 artifact(s)" in out
        for key in ("t1", "t2", "n1"):
            assert f"  {key}\n" in out

    def test_clear_empties_every_namespace(self, root, capsys):
        assert main(["cache", "clear"]) == 0
        assert "removed 3 cached artifact(s) from 2 namespace(s)" in \
            capsys.readouterr().out
        left = sorted(p.relative_to(root).as_posix()
                      for p in root.rglob("*") if p.is_file())
        assert left == ["negf/notes.txt"]

    def test_info_on_an_empty_root(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "absent"))
        assert main(["cache", "info"]) == 0
        assert "namespaces:  none" in capsys.readouterr().out
