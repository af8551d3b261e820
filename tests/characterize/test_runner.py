"""The characterization runner dispatches experiments like any sweep."""

from __future__ import annotations

from repro.characterize.runner import measure
from repro.config import RunConfig

#: Two cheap fast experiments: small I-V sweeps, and two temperature
#: tables.  Neither builds the process-wide nominal technology, whose
#: first build a later CLI trace test counts.
IDS = ["fig4", "ext-temperature"]


def test_measure_is_equal_at_one_and_two_workers():
    serial, _ = measure(IDS, fast=True, config=RunConfig())
    pooled, _ = measure(IDS, fast=True, config=RunConfig(workers=2))
    assert list(serial) == list(pooled) == IDS
    assert serial == pooled
