"""Checker registry: one instance of every rule family.

Layer: inside :mod:`repro.analysis` (cross-cutting tooling; imports
only ``errors``).  Responsibility: enumerate the rule families the
engine runs — RPA1xx determinism, RPA2xx units, RPA3xx layering,
RPA4xx API contracts (annotations, defaults, frozen results, package
docstrings), RPA5xx resilience (no broad exception handlers outside
the recovery layer) and RPA8xx hot-path hygiene — so `python -m
repro.analysis` and `repro lint` agree on the rule set.
Add new checkers here (``default_checkers``) and their codes surface
automatically in ``all_codes`` / ``--list-codes``.
"""

from __future__ import annotations

from repro.analysis.checkers.base import Checker
from repro.analysis.checkers.contracts import ContractsChecker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.hotpath import HotPathChecker
from repro.analysis.checkers.layering import LayeringChecker
from repro.analysis.checkers.resilience import ResilienceChecker
from repro.analysis.checkers.units import UnitsChecker

__all__ = [
    "Checker",
    "ContractsChecker",
    "DeterminismChecker",
    "HotPathChecker",
    "LayeringChecker",
    "ResilienceChecker",
    "UnitsChecker",
    "all_codes",
    "default_checkers",
]


def default_checkers() -> list[Checker]:
    """Fresh instances of every registered checker, in report order."""
    return [DeterminismChecker(), UnitsChecker(), LayeringChecker(),
            ContractsChecker(), ResilienceChecker(), HotPathChecker()]


def all_codes() -> dict[str, str]:
    """Every known code -> description, including the engine's own."""
    from repro.analysis.engine import PARSE_ERROR_CODE

    codes: dict[str, str] = {
        PARSE_ERROR_CODE: "file cannot be parsed/analysed",
    }
    for checker in default_checkers():
        codes.update(checker.codes)
    return dict(sorted(codes.items()))
