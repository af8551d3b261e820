"""The ``repro run`` option table in docs/cli.md must match the parser.

The table under ``## `repro run` `` is the user-facing reference for the
command's flags; a flag added without a row, or a row left behind after
its flag was deleted, fails here.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parents[2]

#: A table row whose first cell starts with a backticked long option.
_ROW = re.compile(r"^\|\s*`(--[a-z0-9-]+)")


def _parser_run_options() -> set[str]:
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {option
            for action in subparsers.choices["run"]._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"}


def _documented_run_options() -> set[str]:
    text = (REPO_ROOT / "docs" / "cli.md").read_text()
    section = text.split("## `repro run`", 1)[1].split("\n## ", 1)[0]
    return {match.group(1) for match in map(_ROW.match,
                                            section.splitlines())
            if match}


def test_run_option_table_matches_the_parser():
    parsed = _parser_run_options()
    documented = _documented_run_options()
    assert parsed, "the run subparser has no long options"
    assert documented == parsed, (
        f"undocumented: {sorted(parsed - documented)}; "
        f"stale rows: {sorted(documented - parsed)}")
