"""Malformed or surprising knob values, seen through the entry points.

Each case is a fault of per-module knob parsing that the one resolver
(``RunConfig.from_env``) fixes; the tests go through the library and CLI
entry points only, so they run against any version of the package.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.device.geometry import GNRFETGeometry
from repro.device.tables import build_device_table, clear_table_cache

SRC = Path(__file__).resolve().parents[1] / "src"
NO_CACHE_ENV = "REPRO_NO_CACHE"

VG = np.array([0.0, 0.3])
VD = np.array([0.0, 0.3])
GEOM = GNRFETGeometry(n_index=9)


def _run_cli(args: list[str], env: dict[str, str], cwd: Path
             ) -> subprocess.CompletedProcess:
    full_env = {**os.environ, "PYTHONPATH": str(SRC), **env}
    return subprocess.run([sys.executable, "-m", "repro.cli", *args],
                          cwd=cwd, env=full_env, capture_output=True,
                          text=True, timeout=120)


def test_no_cache_zero_keeps_the_disk_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv(NO_CACHE_ENV, "0")
    clear_table_cache()
    build_device_table(GEOM, VG, VD)
    clear_table_cache()
    assert len(list((tmp_path / "tables").glob("*.npz"))) == 1


def test_import_survives_malformed_knobs(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", "import repro.cli"], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC),
             "REPRO_WORKERS": "two"},
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("command", [
    ["run", "fig2", "--fast"],
    ["characterize", "--check", "--fast", "--only", "fig2"],
])
@pytest.mark.parametrize("knob, raw", [
    ("REPRO_WORKERS", "2.5"), ("REPRO_WORKERS", "two")])
def test_cli_rejects_a_malformed_knob_before_any_work(command, knob, raw,
                                                      tmp_path):
    cache = tmp_path / "cache"
    result = _run_cli(command, {knob: raw, "REPRO_CACHE_DIR": str(cache)},
                      cwd=tmp_path)
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and knob in lines[0]
    assert not cache.exists()
