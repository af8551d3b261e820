"""The one resolved run configuration (``repro.config``).

Every ``REPRO_*`` knob is read by :meth:`RunConfig.from_env` and nowhere
else; these tests pin its grammar and that CLI flags reach every
dispatch of a run.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro import cli
from repro.config import (
    CHECKPOINT_ENV,
    FALSE_WORDS,
    NO_CACHE_ENV,
    RESUME_ENV,
    SANITIZE_ENV,
    STRICT_ENV,
    TRACE_ENV,
    RunConfig,
)

SRC = Path(__file__).resolve().parents[1] / "src"

#: Boolean knob -> the config field it sets (``REPRO_NO_CACHE`` inverts).
BOOLEAN_KNOBS = {STRICT_ENV: "strict", RESUME_ENV: "resume",
                 TRACE_ENV: "trace", SANITIZE_ENV: "sanitize"}


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

    @pytest.mark.parametrize("raw, interval", [
        ("", 0), ("0", 0), ("off", 0), ("3", 3), (" 12 ", 12),
        ("yes", 1), ("TRUE", 1), ("on", 1)])
    def test_checkpoint_accepts_intervals_and_boolean_words(self, raw,
                                                            interval):
        assert RunConfig.from_env({CHECKPOINT_ENV: raw}).checkpoint == \
            interval

    @pytest.mark.parametrize("raw", ["-4", "2.5", "every", "1e3"])
    def test_checkpoint_rejects_anything_else(self, raw):
        with pytest.raises(ValueError, match=CHECKPOINT_ENV):
            RunConfig.from_env({CHECKPOINT_ENV: raw})

    def test_cache_dir(self, tmp_path):
        config = RunConfig.from_env({"REPRO_CACHE_DIR": str(tmp_path)})
        assert config.cache_root == tmp_path
        assert RunConfig(cache_dir=str(tmp_path)).cache_dir == tmp_path

    @pytest.mark.parametrize("fields", [
        {"workers": "2"}, {"workers": True}, {"checkpoint": -1},
        {"strict": 1}, {"faults": "bogus@1"}, {"faults": None}])
    def test_constructor_validates(self, fields):
        with pytest.raises(ValueError):
            RunConfig(**fields)

    def test_override_skips_none(self):
        base = RunConfig.from_env({"REPRO_WORKERS": "3", STRICT_ENV: "1"})
        config = base.override(workers=None, strict=None, checkpoint=4)
        assert (config.workers, config.strict, config.checkpoint) == \
            (3, True, 4)
        assert base.override(workers=1).workers == 1

    def test_to_dict_has_every_field(self, tmp_path):
        data = RunConfig(cache_dir=tmp_path).to_dict()
        assert data["cache_dir"] == str(tmp_path)
        assert list(data) == ["workers", "strict", "checkpoint", "resume",
                              "faults", "use_cache", "cache_dir", "trace",
                              "sanitize"]


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

    def spy(self, fn, tasks, *, strict=False, chunk_size=None):
        seen.append((resolve_workers(self.workers), strict))
        return [fn(task) for task in tasks]

    monkeypatch.setattr(LocalScheduler, "run", spy)
    assert cli.main(["run", "fig3", "--fast", "--workers", "2",
                     "--strict"]) == 0
    assert "Fig 3(b)" in capsys.readouterr().out
    assert seen and set(seen) == {(2, True)}
