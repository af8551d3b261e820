"""Cache keys: every artifact input, no execution setting.

Each key hashes the explicit inputs of the artifact it names.  Perturbing
any one of them must change the key; setting any one ``RunConfig`` field
to a non-default value must change none of the keys a run computes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import RunConfig
from repro.device import tables
from repro.device.geometry import ChargeImpurity, GNRFETGeometry
from repro.device.tables import (
    build_device_table,
    table_cache_key,
    table_memo_key,
)

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
    "workers": 2, "strict": True, "faults": "scf@999", "use_cache": False,
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
