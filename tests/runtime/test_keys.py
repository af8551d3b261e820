"""Cache keys: every artifact input, no execution setting.

Each key hashes the explicit inputs of the artifact it names.  Perturbing
any one of them must change the key; setting any one ``RunConfig`` field
to a non-default value must change none of the keys a run computes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.atomistic.lattice import ArmchairGNR
from repro.config import RunConfig
from repro.device import negf_device, tables
from repro.device.geometry import ChargeImpurity, GNRFETGeometry
from repro.device.negf_device import negf_cache_key
from repro.device.negf_realspace import VACANCY_ONSITE_EV, rough_edge_onsite
from repro.device.tables import (
    build_device_table,
    table_cache_key,
    table_memo_key,
)
from repro.variability import edge_roughness
from repro.variability.edge_roughness import roughness_cache_key

GEOM = GNRFETGeometry(n_index=9)
VG = np.array([0.0, 0.3])
VD = np.array([0.0, 0.3])

#: Geometry perturbations: one field each, nested impurity included.
GEOMETRIES = [
    dataclasses.replace(GEOM, n_index=12),
    dataclasses.replace(GEOM, channel_length_nm=GEOM.channel_length_nm + 1),
    dataclasses.replace(GEOM, oxide_thickness_nm=2.0),
    dataclasses.replace(GEOM, temperature_k=350.0),
    GEOM.with_impurity(ChargeImpurity(charge_e=1.0)),
    GEOM.with_impurity(ChargeImpurity(charge_e=-1.0)),
]

#: One non-default value per RunConfig field.
NON_DEFAULTS = {
    "workers": 2, "strict": True, "use_cache": False,
    "cache_dir": "elsewhere", "trace": True, "sanitize": True,
}


def test_non_defaults_cover_every_field():
    fields = dataclasses.fields(RunConfig)
    assert set(NON_DEFAULTS) == {f.name for f in fields}
    for f in fields:
        assert NON_DEFAULTS[f.name] != f.default


def _device_key_inputs():
    """(name, kwargs) perturbations shared by the two device keys."""
    base = dict(geometry=GEOM, vg_grid=VG, vd_grid=VD, n_modes=None,
                engine="semianalytic")
    cases = [(f"geometry{i}", {**base, "geometry": g})
             for i, g in enumerate(GEOMETRIES)]
    cases += [
        ("vg_grid", {**base, "vg_grid": np.array([0.0, 0.35])}),
        ("vg_grid_size", {**base, "vg_grid": np.array([0.0, 0.1, 0.3])}),
        ("vd_grid", {**base, "vd_grid": np.array([0.0, 0.25])}),
        ("n_modes", {**base, "n_modes": 4}),
        ("engine", {**base, "engine": "modespace"}),
    ]
    return base, cases


@pytest.mark.parametrize("key_fn", [table_cache_key, table_memo_key],
                         ids=lambda fn: fn.__name__)
def test_device_keys_change_with_every_input(key_fn):
    base, cases = _device_key_inputs()
    reference = key_fn(**base)
    keys = {name: key_fn(**kwargs) for name, kwargs in cases}
    for name, key in keys.items():
        assert key != reference, name
    assert len(set(keys.values())) == len(keys)


def test_table_cache_key_changes_with_the_version_tag():
    assert table_cache_key(GEOM, VG, VD, None, version="sbfet-v2") != \
        table_cache_key(GEOM, VG, VD, None)


def test_negf_key_changes_with_every_input():
    base = dict(geometry=GNRFETGeometry(n_index=12), vg=0.1, vd=0.5,
                n_modes=2, n_x=31, n_y=11, coarse_step_ev=5e-3,
                fine_step_ev=1e-3, tolerance_ev=1e-3, max_iterations=60)
    cases = {
        "impurity": {"geometry": GNRFETGeometry(
            n_index=12, impurity=ChargeImpurity(charge_e=-2.0))},
        "impurity_charge": {"geometry": GNRFETGeometry(
            n_index=12, impurity=ChargeImpurity(charge_e=-1.0))},
        "n_index": {"geometry": GNRFETGeometry(n_index=9)},
        "vg": {"vg": 0.2}, "vd": {"vd": 0.4}, "n_modes": {"n_modes": 3},
        "n_x": {"n_x": 51}, "n_y": {"n_y": 15},
        "coarse_step_ev": {"coarse_step_ev": 4e-3},
        "fine_step_ev": {"fine_step_ev": 2e-3},
        "tolerance_ev": {"tolerance_ev": 1e-4},
        "max_iterations": {"max_iterations": 61},
        "version": {"version": "negf-device-v0"},
    }
    reference = negf_cache_key(**base)
    keys = {name: negf_cache_key(**{**base, **change})
            for name, change in cases.items()}
    for name, key in keys.items():
        assert key != reference, name
    assert len(set(keys.values())) == len(keys)
    # The same solve spelled with ints keys the same artifact.
    assert negf_cache_key(**{**base, "vd": 1}) == \
        negf_cache_key(**{**base, "vd": 1.0})


def test_roughness_key_changes_with_every_input():
    ribbon = ArmchairGNR(9, n_cells=6)
    onsite = np.stack([rough_edge_onsite(ribbon, 0.2, rng)[0] for rng in
                       (np.random.default_rng(1), np.random.default_rng(2))])
    flipped = onsite.copy()
    atom = ribbon.atom_index(3, 0, 1)
    flipped[1, atom] = 0.0 if flipped[1, atom] else VACANCY_ONSITE_EV
    reference = roughness_cache_key(9, 6, 0.6, onsite)
    keys = {
        "flipped_vacancy": roughness_cache_key(9, 6, 0.6, flipped),
        "energy": roughness_cache_key(9, 6, 0.61, onsite),
        "n_index": roughness_cache_key(12, 6, 0.6, onsite),
        "n_cells": roughness_cache_key(9, 7, 0.6, onsite),
        "one_sample_fewer": roughness_cache_key(9, 6, 0.6, onsite[:1]),
        "version": roughness_cache_key(9, 6, 0.6, onsite,
                                       version="negf-realspace-v1"),
    }
    for name, key in keys.items():
        assert key != reference, name
    assert len(set(keys.values())) == len(keys)
    assert roughness_cache_key(9, 6, 0.6, onsite.copy()) == reference


# --------------------------------------------------------------------- #
# No RunConfig field reaches a key: spy on the keys a real run computes.
# --------------------------------------------------------------------- #
def _spy(monkeypatch, owner, name, sink):
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        key = original(*args, **kwargs)
        sink.append(key)
        return key

    monkeypatch.setattr(owner, name, recording)


def _config(field: str, tmp_path) -> RunConfig:
    value = NON_DEFAULTS[field]
    if field == "cache_dir":
        value = tmp_path / value
    return dataclasses.replace(RunConfig(cache_dir=tmp_path),
                               **{field: value})


@pytest.fixture(autouse=True)
def _fresh_memo(monkeypatch):
    monkeypatch.setattr(tables, "_TABLE_CACHE", {})


@pytest.mark.parametrize("field", sorted(NON_DEFAULTS))
def test_no_config_field_reaches_the_table_keys(field, tmp_path,
                                                monkeypatch):
    seen: list = []
    _spy(monkeypatch, tables, "table_cache_key", seen)
    _spy(monkeypatch, tables, "table_memo_key", seen)
    build_device_table(GEOM, VG, VD, config=RunConfig(cache_dir=tmp_path))
    monkeypatch.setattr(tables, "_TABLE_CACHE", {})
    reference, seen[:] = list(seen), []
    build_device_table(GEOM, VG, VD, config=_config(field, tmp_path))
    assert seen == reference == [table_memo_key(GEOM, VG, VD, None),
                                 table_cache_key(GEOM, VG, VD, None)]


@pytest.mark.parametrize("field", sorted(NON_DEFAULTS))
def test_no_config_field_reaches_the_negf_and_roughness_keys(
        field, tmp_path, monkeypatch):
    seen: list = []
    _spy(monkeypatch, negf_device, "negf_cache_key", seen)
    _spy(monkeypatch, edge_roughness, "roughness_cache_key", seen)

    def run(config):
        negf_device.solve_negf_point(GEOM, 0.1, 0.3, n_x=11, n_y=5,
                                     config=config)
        edge_roughness.roughness_ensemble(9, 0.2, n_cells=4, n_samples=2,
                                          config=config)

    run(RunConfig(cache_dir=tmp_path))
    reference, seen[:] = list(seen), []
    run(_config(field, tmp_path))
    assert len(reference) == 2
    assert seen == reference
