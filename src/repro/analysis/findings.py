"""Finding model shared by every checker and reporter.

A finding is one rule violation at one source location.  Codes follow
the ``RPA<family><rule>`` scheme:

* ``RPA0xx`` — engine-level problems (unparsable file, unknown code in a
  suppression comment);
* ``RPA1xx`` — determinism (RNG and wall-clock hygiene);
* ``RPA2xx`` — units (raw physical-constant literals);
* ``RPA3xx`` — layering (package dependency DAG);
* ``RPA4xx`` — API contracts (annotations, defaults, frozen results);
* ``RPA5xx`` — resilience (exception-handling discipline);
* ``RPA8xx`` — hot-path hygiene (guarded obs records, batched kernels,
  loop allocations).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Sort order is (path, line, col, code) so reports are stable and
    diff-friendly regardless of checker execution order.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    symbol: str = field(default="", compare=False)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        return f"{self.location()}: {self.code} {self.message}"

    def baseline_key(self) -> str:
        """Line-independent identity used for baseline matching.

        Line and column are deliberately excluded so unrelated edits
        above a baselined finding do not un-suppress it.
        """
        return f"{self.path}::{self.code}::{self.message}"
