"""Shared fixtures.

Device tables are expensive (seconds each), so everything circuit-level
shares session-scoped fixtures; the in-process device-table cache keyed
by geometry means variant tables built by one test are reused by others.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.config as repro_config
from repro.circuit.inverter import CircuitParameters
from repro.config import CACHE_DIR_ENV
from repro.device.geometry import GNRFETGeometry
from repro.device.tables import DeviceTable, build_device_table
from repro.exploration.technology import GNRFETTechnology


@pytest.fixture(scope="session", autouse=True)
def _hermetic_cache_dir(tmp_path_factory):
    """Point the runtime disk cache at a per-session temp directory.

    Test runs must never reuse stale artifacts from (or pollute) the
    user-level ``~/.cache/repro-gnrfet`` store; within the session the
    temp store still exercises the persistent-cache code paths and lets
    parallel workers share tables.  Both roads to the cache root lead
    there: ``REPRO_CACHE_DIR`` (configs resolved from the environment,
    subprocesses) and the default root of a ``RunConfig`` built in a
    test.
    """
    path = tmp_path_factory.mktemp("repro-cache")
    previous = os.environ.get(CACHE_DIR_ENV)
    previous_default = repro_config.DEFAULT_CACHE_DIR
    os.environ[CACHE_DIR_ENV] = str(path)
    repro_config.DEFAULT_CACHE_DIR = path
    yield path
    repro_config.DEFAULT_CACHE_DIR = previous_default
    if previous is None:
        os.environ.pop(CACHE_DIR_ENV, None)
    else:
        os.environ[CACHE_DIR_ENV] = previous


@pytest.fixture(scope="session")
def nominal_geometry() -> GNRFETGeometry:
    return GNRFETGeometry()


@pytest.fixture(scope="session")
def nominal_table(nominal_geometry) -> DeviceTable:
    """Full-resolution nominal per-ribbon table (built once per session)."""
    return build_device_table(nominal_geometry)


@pytest.fixture(scope="session")
def tech() -> GNRFETTechnology:
    """Nominal technology bundle (shares the cached nominal table)."""
    return GNRFETTechnology.build()


@pytest.fixture(scope="session")
def nominal_pair(tech):
    """(n, p) array tables at the paper's nominal operating point."""
    return tech.inverter_tables(0.13)


@pytest.fixture(scope="session")
def params() -> CircuitParameters:
    return CircuitParameters()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20080613)  # DAC 2008 dates
