"""The one resolved run configuration (``repro.config``).

Every ``REPRO_*`` knob is read by :meth:`RunConfig.from_env` and nowhere
else; these tests pin its grammar and that CLI flags reach every
dispatch of a run.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.config as repro_config
from repro import cli
from repro.config import (
    CACHE_DIR_ENV,
    FALSE_WORDS,
    NO_CACHE_ENV,
    SANITIZE_ENV,
    STRICT_ENV,
    TRACE_ENV,
    RunConfig,
)
from repro.device.geometry import GNRFETGeometry
from repro.device.iv import sweep_iv
from repro.runtime import activate

SRC = Path(__file__).resolve().parents[1] / "src"

#: Boolean knob -> the config field it sets (``REPRO_NO_CACHE`` inverts).
BOOLEAN_KNOBS = {STRICT_ENV: "strict", TRACE_ENV: "trace",
                 SANITIZE_ENV: "sanitize"}


class TestGrammar:
    def test_defaults(self):
        assert RunConfig.from_env({}) == RunConfig()
        assert RunConfig().cache_dir is None

    @pytest.mark.parametrize("knob", sorted(BOOLEAN_KNOBS))
    @pytest.mark.parametrize("word", ["", "0", "false", "FALSE", "Off",
                                      "no", " NO "])
    def test_false_words_are_false(self, knob, word):
        assert getattr(RunConfig.from_env({knob: word}),
                       BOOLEAN_KNOBS[knob]) is False

    @pytest.mark.parametrize("knob", sorted(BOOLEAN_KNOBS))
    @pytest.mark.parametrize("word", ["1", "true", "yes", "on", "x"])
    def test_other_words_are_true(self, knob, word):
        assert getattr(RunConfig.from_env({knob: word}),
                       BOOLEAN_KNOBS[knob]) is True

    @pytest.mark.parametrize("word", FALSE_WORDS + ("OFF", "No"))
    def test_no_cache_false_words_keep_the_cache(self, word):
        assert RunConfig.from_env({NO_CACHE_ENV: word}).use_cache is True

    def test_no_cache_true_disables_the_cache(self):
        assert RunConfig.from_env({NO_CACHE_ENV: "1"}).use_cache is False

    def test_cache_dir(self, tmp_path):
        config = RunConfig.from_env({"REPRO_CACHE_DIR": str(tmp_path)})
        assert config.cache_root == tmp_path
        assert RunConfig(cache_dir=str(tmp_path)).cache_dir == tmp_path

    @pytest.mark.parametrize("fields", [
        {"workers": "2"}, {"workers": True}, {"workers": 2.5},
        {"strict": 1}, {"use_cache": "no"}, {"trace": None}])
    def test_constructor_validates(self, fields):
        with pytest.raises(ValueError):
            RunConfig(**fields)

    def test_override_skips_none(self):
        base = RunConfig.from_env({"REPRO_WORKERS": "3", STRICT_ENV: "1"})
        config = base.override(workers=None, strict=None, trace=True)
        assert (config.workers, config.strict, config.trace) == \
            (3, True, True)
        assert base.override(workers=1).workers == 1

    def test_direct_config_ignores_the_environment(self, tmp_path,
                                                    monkeypatch):
        """Only ``from_env`` reads the knobs: a directly built config
        keeps its defaults, and ``from_env().override`` keeps the
        environment's values under the replaced fields."""
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        direct = RunConfig(workers=2)
        assert direct.cache_dir is None
        assert direct.cache_root == repro_config.DEFAULT_CACHE_DIR.expanduser()
        assert direct.cache_root != tmp_path
        resolved = RunConfig.from_env().override(workers=2)
        assert (resolved.workers, resolved.cache_root) == (2, tmp_path)

    def test_to_dict_has_every_field(self, tmp_path):
        data = RunConfig(cache_dir=tmp_path).to_dict()
        assert data["cache_dir"] == str(tmp_path)
        assert list(data) == ["workers", "strict", "use_cache",
                              "cache_dir", "trace", "sanitize"]


def test_leftover_faults_env_changes_nothing(monkeypatch):
    """``REPRO_FAULTS`` armed fault injection in older releases; left in
    an environment it is no knob: it resolves to the default config, and
    a sweep run under that config quarantines no cell."""
    assert RunConfig.from_env({"REPRO_FAULTS": "scf@0"}) == RunConfig()
    monkeypatch.setenv("REPRO_FAULTS", "scf@0")
    config = RunConfig.from_env()
    activate(config)
    sweep = sweep_iv(GNRFETGeometry(n_index=9), np.array([0.0, 0.3]),
                     np.array([0.0, 0.3]), config=config)
    assert sweep.failures == ()
    assert np.isfinite(sweep.current_a).all()


def test_only_the_config_module_reads_the_environment():
    """No ``os.environ`` / ``os.getenv`` access in ``src/repro`` outside
    ``repro/config.py``: every knob goes through ``RunConfig``."""
    names = {"environ", "environb", "getenv", "getenvb", "putenv",
             "unsetenv"}
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path == SRC / "repro" / "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in names
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "os"
                  and names & {alias.name for alias in node.names}):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []


def test_run_flags_reach_the_dispatch_path(monkeypatch, capsys):
    """``repro run fig3 --fast --workers 2 --strict``: every dispatch of
    the run sees 2 workers and ``strict=True``."""
    from repro.runtime import LocalScheduler, resolve_workers

    seen = []

    def spy(self, fn, tasks, *, strict=False):
        seen.append((resolve_workers(self.workers), strict))
        return [fn(task) for task in tasks]

    monkeypatch.setattr(LocalScheduler, "run", spy)
    assert cli.main(["run", "fig3", "--fast", "--workers", "2",
                     "--strict"]) == 0
    assert "Fig 3(b)" in capsys.readouterr().out
    assert seen and set(seen) == {(2, True)}
