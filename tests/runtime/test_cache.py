"""Tests for the content-addressed on-disk artifact cache."""

import dataclasses
import struct

import numpy as np
import pytest

from repro.config import CACHE_DIR_ENV, NO_CACHE_ENV, RunConfig
from repro.device.geometry import ChargeImpurity, GNRFETGeometry
from repro.device.tables import (
    build_device_table,
    clear_table_cache,
    table_cache_key,
)
from repro.runtime.cache import (
    ArtifactCache,
    canonical_repr,
    content_key,
)

VG = np.array([0.0, 0.2, 0.4, 0.6])
VD = np.array([0.0, 0.5])


def _truncate(path):
    """Halve the file: the zip loses its central directory
    (``zipfile.BadZipFile``)."""
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _empty(path):
    """A zero-byte file (``EOFError``)."""
    path.write_bytes(b"")


def _flip_member(path):
    """Set the first member's first deflate block to the reserved block
    type (``zlib.error``)."""
    data = bytearray(path.read_bytes())
    assert data[:4] == b"PK\x03\x04"
    name_len, extra_len = struct.unpack_from("<HH", data, 26)
    data[30 + name_len + extra_len] |= 0b110
    path.write_bytes(bytes(data))


def _not_a_zip(path):
    """Foreign bytes (``np.load`` refuses them as a pickle:
    ``ValueError``)."""
    path.write_bytes(b"torn write")


#: Ways an artifact on disk can be damaged; each must read as a miss.
CORRUPTIONS = {"truncated": _truncate, "empty": _empty,
               "bit-flipped": _flip_member, "not-a-zip": _not_a_zip}


class TestCanonicalRepr:
    def test_dataclasses_flatten_recursively(self):
        g = GNRFETGeometry(impurity=ChargeImpurity(charge_e=-1.0))
        text = canonical_repr(g)
        assert "charge_e=-1.0" in text
        assert "n_index=12" in text

    def test_floats_full_precision(self):
        assert canonical_repr(0.1) != canonical_repr(0.1 + 1e-16)
        assert canonical_repr(0.30000000000000004) != canonical_repr(0.3)

    def test_arrays_content_addressed(self):
        a = np.linspace(0.0, 1.0, 5)
        assert canonical_repr(a) == canonical_repr(a.copy())
        assert canonical_repr(a) != canonical_repr(a + 1e-12)
        assert canonical_repr(a) != canonical_repr(a.astype(np.float32))

    def test_unhashable_objects_rejected(self):
        with pytest.raises(TypeError):
            canonical_repr(object())

    def test_content_key_is_hex_digest(self):
        key = content_key("a", 1, None)
        assert len(key) == 64
        assert key == content_key("a", 1, None)


class TestArtifactCache:
    def test_round_trip(self, tmp_path):
        store = ArtifactCache("tables", root=tmp_path)
        payload = {"x": np.linspace(0, 1, 7), "y": np.eye(3)}
        store.put("k1", **payload)
        loaded = store.get("k1")
        assert set(loaded) == {"x", "y"}
        assert np.array_equal(loaded["x"], payload["x"])
        assert np.array_equal(loaded["y"], payload["y"])

    def test_miss_returns_none(self, tmp_path):
        assert ArtifactCache("tables", root=tmp_path).get("nope") is None

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = ArtifactCache("tables", root=tmp_path)
        store.put("k1", x=np.zeros(4))
        assert list(store.directory.glob("*.tmp")) == []
        assert [p.name for p in store.directory.glob("*.npz")] == ["k1.npz"]

    @pytest.mark.parametrize("corrupt", CORRUPTIONS.values(),
                             ids=CORRUPTIONS.keys())
    def test_corrupt_file_is_a_miss(self, tmp_path, corrupt):
        store = ArtifactCache("tables", root=tmp_path)
        store.put("bad", x=np.linspace(0.0, 1.0, 50), y=np.eye(4))
        corrupt(store.path_for("bad"))
        assert store.get("bad") is None

    def test_disabled_by_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(NO_CACHE_ENV, "1")
        store = ArtifactCache("tables", root=tmp_path)
        assert not RunConfig.from_env().use_cache
        assert not store.enabled
        assert store.put("k1", x=np.zeros(2)) is None
        assert store.get("k1") is None
        assert not (tmp_path / "tables").exists()

    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert RunConfig.from_env().cache_root == tmp_path / "elsewhere"

    def test_clear_counts_artifacts(self, tmp_path):
        store = ArtifactCache("tables", root=tmp_path)
        store.put("a", x=np.zeros(2))
        store.put("b", x=np.ones(2))
        assert store.keys() == sorted(["a", "b"])
        assert store.clear() == 2
        assert store.keys() == []


class TestTableCacheKey:
    def test_stable_for_equal_inputs(self):
        g = GNRFETGeometry()
        assert (table_cache_key(g, VG, VD, None)
                == table_cache_key(GNRFETGeometry(), VG.copy(), VD.copy(),
                                   None))

    def test_changes_with_geometry(self):
        base = table_cache_key(GNRFETGeometry(), VG, VD, None)
        assert table_cache_key(GNRFETGeometry(n_index=9), VG, VD,
                               None) != base
        assert table_cache_key(
            GNRFETGeometry(impurity=ChargeImpurity(charge_e=1.0)),
            VG, VD, None) != base
        assert table_cache_key(
            GNRFETGeometry(oxide_thickness_nm=2.0), VG, VD, None) != base

    def test_changes_with_grids_and_modes(self):
        g = GNRFETGeometry()
        base = table_cache_key(g, VG, VD, None)
        assert table_cache_key(g, VG + 0.01, VD, None) != base
        assert table_cache_key(g, VG, np.array([0.0, 0.4]), None) != base
        assert table_cache_key(g, VG, VD, 3) != base

    def test_changes_with_engine_version(self):
        g = GNRFETGeometry()
        assert (table_cache_key(g, VG, VD, None, version="sbfet-v1")
                != table_cache_key(g, VG, VD, None, version="sbfet-v2"))

    def test_current_kernel_never_reads_older_tables(self):
        """Tables from older kernels and quadratures live under other
        keys."""
        g = GNRFETGeometry()
        current = table_cache_key(g, VG, VD, None, engine="semianalytic")
        for old in ("sbfet-v1", "sbfet-v2", "sbfet-v3", "sbfet-v4"):
            assert current != table_cache_key(g, VG, VD, None,
                                              engine="semianalytic",
                                              version=old)


class TestDeviceTablePersistence:
    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        clear_table_cache()
        yield tmp_path
        clear_table_cache()

    def test_disk_round_trip_equal_table(self, _isolated_cache):
        geom = GNRFETGeometry()
        built = build_device_table(geom, VG, VD)
        clear_table_cache()  # drop in-process layer, keep disk
        loaded = build_device_table(geom, VG, VD)
        assert np.array_equal(built.vg, loaded.vg)
        assert np.array_equal(built.vd, loaded.vd)
        assert np.array_equal(built.current_a, loaded.current_a)
        assert np.array_equal(built.charge_c, loaded.charge_c)
        assert built.label == loaded.label
        assert built.gate_offset_v == loaded.gate_offset_v

    def test_artifact_written_once(self, _isolated_cache):
        build_device_table(GNRFETGeometry(), VG, VD)
        files = list((_isolated_cache / "tables").glob("*.npz"))
        assert len(files) == 1

    def test_no_cache_env_bypasses_disk(self, _isolated_cache, monkeypatch):
        monkeypatch.setenv(NO_CACHE_ENV, "1")
        build_device_table(GNRFETGeometry(), VG, VD)
        assert not (_isolated_cache / "tables").exists()

    def test_use_cache_false_bypasses_disk(self, _isolated_cache):
        build_device_table(GNRFETGeometry(), VG, VD,
                           config=RunConfig(use_cache=False))
        assert not (_isolated_cache / "tables").exists()

    @pytest.mark.parametrize("corrupt", CORRUPTIONS.values(),
                             ids=CORRUPTIONS.keys())
    def test_corrupt_artifact_rebuilt(self, _isolated_cache, corrupt):
        geom = GNRFETGeometry()
        built = build_device_table(geom, VG, VD)
        clear_table_cache()
        key = table_cache_key(geom, VG, VD, None)
        path = _isolated_cache / "tables" / f"{key}.npz"
        assert path.is_file()
        corrupt(path)
        rebuilt = build_device_table(geom, VG, VD)
        assert np.array_equal(built.current_a, rebuilt.current_a)
        clear_table_cache()  # the replaced artifact reads back whole
        assert np.array_equal(build_device_table(geom, VG, VD).current_a,
                              built.current_a)

    def test_clear_table_cache_disk(self, _isolated_cache):
        build_device_table(GNRFETGeometry(), VG, VD)
        clear_table_cache(disk=True)
        assert list((_isolated_cache / "tables").glob("*.npz")) == []
