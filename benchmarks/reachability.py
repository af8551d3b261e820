"""Functions of ``src/repro`` that one CLI run never enters.

Runs ``repro.cli.main(argv)`` in this process under ``sys.setprofile``,
recording the code object of every Python call, then lists, per
``src/repro`` file, each ``def`` (methods and nested functions included)
whose code never ran.  A name on the never-entered lists of both a cold
full ``run all`` and a warm ``run all --fast`` serves no experiment:

    export REPRO_CACHE_DIR=$(mktemp -d)
    PYTHONPATH=src python benchmarks/reachability.py run all
    PYTHONPATH=src python benchmarks/reachability.py run all --fast

Everything after the script name is the CLI's argv.  The run is forced
serial (``REPRO_WORKERS=1``), because the profiler sees only this
process; do not pass ``--workers``.  The run's own report comes first,
then the listing.  The profiler slows a run several-fold (a cold full
``run all`` takes about 50 s on two cores).
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def defined_functions(path: Path) -> dict[int, str]:
    """First line (decorators included) -> qualified name of each def."""
    found: dict[int, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found[first] = prefix + child.name
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")

    visit(ast.parse(path.read_text()), "")
    return found


def main(argv: list[str]) -> int:
    os.environ["REPRO_WORKERS"] = "1"
    from repro.cli import main as cli_main

    entered: set = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        status = cli_main(argv)
    finally:
        sys.setprofile(None)

    ran = {(os.path.realpath(code.co_filename), code.co_firstlineno)
           for code in entered}
    total = never = 0
    for path in sorted(SRC.rglob("*.py")):
        names = defined_functions(path)
        missed = [name for line, name in sorted(names.items())
                  if (str(path), line) not in ran]
        total += len(names)
        never += len(missed)
        if missed:
            print(f"{path.relative_to(SRC.parent)}: {', '.join(missed)}")
    print(f"# {never} of {total} functions never entered "
          f"(repro {' '.join(argv)} exited {status})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
