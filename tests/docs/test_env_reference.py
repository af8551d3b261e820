"""The env-variable table in docs/cli.md must match the code exactly.

Every ``"REPRO_*"`` string literal under ``src/repro`` names a knob the
package reads (or classifies); the "Environment variables" table of
``docs/cli.md`` is the user-facing reference for them.  A knob added
without a row, or a row left behind after its knob was deleted, fails
here.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_ENV_NAME = re.compile(r"REPRO_[A-Z0-9_]+")

#: A table row whose first cell starts with a backticked variable name.
_ROW = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)")


def _source_env_names() -> set[str]:
    names = set()
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and _ENV_NAME.fullmatch(node.value)):
                names.add(node.value)
    return names


def _documented_env_names() -> set[str]:
    text = (REPO_ROOT / "docs" / "cli.md").read_text()
    section = text.split("## Environment variables", 1)[1]
    section = section.split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        match = _ROW.match(line)
        if match:
            names.add(match.group(1))
    return names


def test_env_table_matches_source_literals():
    source = _source_env_names()
    documented = _documented_env_names()
    assert source, "no REPRO_* literals found under src/repro"
    assert documented == source, (
        f"undocumented: {sorted(source - documented)}; "
        f"stale rows: {sorted(documented - source)}")
