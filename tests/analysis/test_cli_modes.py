"""Tests of the lint CLI modes: --select, --strict, --changed."""

from __future__ import annotations

import subprocess
import textwrap

from repro.analysis.cli import changed_files, main as lint_main


def _seed(tmp_path, rel="src/repro/device/bad.py",
          source="HOPPING = 2.7\n"):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


class TestSelect:
    def test_select_filters_out_other_families(self, tmp_path, capsys):
        bad = _seed(tmp_path)  # RPA201 units finding
        assert lint_main([str(bad), "--select", "RPA3,RPA8"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_select_keeps_matching_family(self, tmp_path, capsys):
        bad = _seed(tmp_path)
        assert lint_main([str(bad), "--select", "RPA2"]) == 1
        assert "RPA201" in capsys.readouterr().out

    def test_parse_errors_always_reported(self, tmp_path, capsys):
        broken = _seed(tmp_path, source="def broken(:\n")
        assert lint_main([str(broken), "--select", "RPA8"]) == 1
        assert "RPA001" in capsys.readouterr().out


class TestStrict:
    def test_strict_escalates_exit_code(self, tmp_path, capsys):
        bad = _seed(tmp_path)
        assert lint_main([str(bad), "--strict"]) == 2

    def test_strict_clean_still_zero(self, tmp_path, capsys):
        clean = _seed(tmp_path, source="X = 1\n")
        assert lint_main([str(clean), "--strict"]) == 0


class TestChanged:
    def _git(self, cwd, *args):
        subprocess.run(["git", *args], cwd=cwd, check=True,
                       capture_output=True)

    def _repo(self, tmp_path):
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "config", "user.email", "t@example.com")
        self._git(tmp_path, "config", "user.name", "t")
        return tmp_path

    def test_changed_files_lists_modified_and_untracked(self, tmp_path,
                                                        monkeypatch):
        repo = self._repo(tmp_path)
        tracked = _seed(repo, "src/repro/device/a.py", "X = 1\n")
        self._git(repo, "add", ".")
        self._git(repo, "commit", "-qm", "seed")
        tracked.write_text("X = 2\n")
        untracked = _seed(repo, "src/repro/device/b.py", "Y = 1\n")
        monkeypatch.chdir(repo)
        subset = changed_files("HEAD", ["src/repro"])
        assert subset is not None
        assert sorted(subset) == sorted([
            "src/repro/device/a.py", str(untracked.relative_to(repo))])

    def test_changed_files_respects_scope(self, tmp_path, monkeypatch):
        repo = self._repo(tmp_path)
        _seed(repo, "src/repro/device/a.py", "X = 1\n")
        _seed(repo, "scripts/tool.py", "Y = 1\n")
        monkeypatch.chdir(repo)
        subset = changed_files("HEAD", ["src/repro"])
        # Only the in-scope untracked file; HEAD does not resolve in an
        # empty repo so fall back may kick in — accept either None
        # (full-run fallback) or the scoped subset.
        if subset is not None:
            assert subset == ["src/repro/device/a.py"]

    def test_changed_files_returns_none_outside_git(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert changed_files("HEAD", ["src/repro"]) is None

    def test_cli_reports_empty_change_set(self, tmp_path, monkeypatch,
                                          capsys):
        repo = self._repo(tmp_path)
        _seed(repo, "src/repro/device/a.py", "X = 1\n")
        self._git(repo, "add", ".")
        self._git(repo, "commit", "-qm", "seed")
        monkeypatch.chdir(repo)
        assert lint_main(["src/repro", "--changed"]) == 0
        assert "no .py files changed" in capsys.readouterr().out

    def test_cli_lints_only_changed_files(self, tmp_path, monkeypatch,
                                          capsys):
        repo = self._repo(tmp_path)
        clean = _seed(repo, "src/repro/device/a.py", "X = 1\n")
        bad = _seed(repo, "src/repro/device/b.py", "HOPPING = 2.7\n")
        self._git(repo, "add", ".")
        self._git(repo, "commit", "-qm", "seed")
        bad.write_text("HOPPING = 2.7\nT_GHZ = 2.7\n")
        monkeypatch.chdir(repo)
        assert lint_main(["src/repro", "--changed", "HEAD"]) == 1
        out = capsys.readouterr().out
        assert "b.py" in out
        assert str(clean.name) not in out
        # Only the changed file was analysed.
        assert "1 file(s)" in out

    def test_changed_mode_keeps_project_context(self, tmp_path,
                                                monkeypatch, capsys):
        # Regression: analysing only the changed subset hands the
        # project-wide passes a truncated project, in which package
        # imports appear cyclic (RPA302).  --changed must parse the
        # full path set and only narrow the *reporting*.
        repo = self._repo(tmp_path)
        _seed(repo, "src/repro/runtime/cache.py", textwrap.dedent("""\
            def content_key(*parts):
                return "-".join(str(p) for p in parts)

            class ArtifactCache:
                def put(self, key, value):
                    return None
            """))
        _seed(repo, "src/repro/runtime/__init__.py", textwrap.dedent("""\
            \"\"\"Runtime layer: cache stub.\"\"\"
            from repro.runtime.cache import ArtifactCache, content_key
            """))
        tables = _seed(repo, "src/repro/device/tables.py",
                       textwrap.dedent("""\
            from repro.runtime import ArtifactCache, content_key

            def store(geometry: str) -> str:
                key = content_key("table", geometry)
                ArtifactCache().put(key, geometry)
                return key
            """))
        self._git(repo, "add", ".")
        self._git(repo, "commit", "-qm", "seed")
        tables.write_text(tables.read_text() + "\nVERSION = 1\n")
        monkeypatch.chdir(repo)
        assert lint_main(["src/repro", "--changed", "HEAD"]) == 0
        out = capsys.readouterr().out
        # Reporting still narrows to the one changed file.
        assert "1 file(s)" in out

    def test_cli_falls_back_on_bad_ref(self, tmp_path, monkeypatch,
                                       capsys):
        repo = self._repo(tmp_path)
        _seed(repo, "src/repro/device/a.py", "HOPPING = 2.7\n")
        self._git(repo, "add", ".")
        self._git(repo, "commit", "-qm", "seed")
        monkeypatch.chdir(repo)
        # An unresolvable ref degrades to a full run, not a skipped one.
        assert lint_main(["src/repro", "--changed",
                          "no-such-ref"]) == 1
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert "RPA201" in captured.out
